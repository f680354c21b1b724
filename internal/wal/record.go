// Package wal implements the durability layer: an append-only operation log
// of mutating database operations with CRC32-framed, length-prefixed
// records, segment rotation, batched fsync driven by the server core's
// clock, checkpoints of the live region, and a replayer that rebuilds a
// memdb.DB from the last checkpoint plus the log tail, truncating at the
// first torn or corrupt record.
//
// The log extends the paper's recovery escalation (correct element → reload
// extent → reload all → restart) with the level the real controller had:
// state survives the process. Per-record CRC framing follows the
// integrity-coding discipline of Kondratyuk et al.; the in-memory tail ring
// that serves replication without touching the writer path is the resource
// isolation argued for by Jiang et al.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Op identifies the logged mutation. Only operations that change the region
// are logged; sessions, locks, and reads are transient and rebuilt by
// clients after recovery.
type Op uint8

const (
	OpWriteRec Op = iota + 1 // write all fields
	OpWriteFld               // write one field
	OpMove                   // relink to another logical group
	OpAlloc                  // activate a record (chosen index in Rec)
	OpFree                   // release a record
	opMax
)

var opNames = [...]string{"", "write-rec", "write-fld", "move", "alloc", "free"}

func (o Op) String() string {
	if o >= 1 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Record is one logged mutation. Seq is the log sequence number, assigned
// contiguously; Trace carries the flight-recorder trace ID of the request
// that produced the mutation, so a recovered or replicated write joins the
// same journal thread as its origin.
type Record struct {
	Seq   uint64
	Trace uint64
	Op    Op
	Table int32
	Rec   int32
	Field int32
	Aux   int32
	Vals  []uint32
}

// Frame layout: u32 payload-len | u32 crc32(payload) | payload.
// Payload layout: u64 seq | u64 trace | u8 op | i32 table | i32 rec |
// i32 field | i32 aux | u16 n | n × u32 vals.
const (
	frameHeader = 8
	recFixed    = 8 + 8 + 1 + 16 + 2
	// MaxVals bounds the value vector, mirroring the wire protocol's cap.
	MaxVals = 1 << 14
	// maxPayload is the largest legal payload length.
	maxPayload = recFixed + 4*MaxVals
)

// ErrTorn marks the first unreadable point of a log: a truncated frame, an
// out-of-range length prefix, a CRC mismatch, or a malformed payload. Replay
// stops (and truncates the file) there.
var ErrTorn = errors.New("wal: torn or corrupt record")

// AppendRecord appends r's encoded frame to dst and returns the result. It
// allocates only when dst lacks the capacity; every byte of the frame is
// written below, so the extension need not be zeroed.
func AppendRecord(dst []byte, r Record) []byte {
	payload := recFixed + 4*len(r.Vals)
	start := len(dst)
	dst = slices.Grow(dst, frameHeader+payload)[:start+frameHeader+payload]
	b := dst[start:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(payload))
	p := b[frameHeader:]
	binary.LittleEndian.PutUint64(p[0:8], r.Seq)
	binary.LittleEndian.PutUint64(p[8:16], r.Trace)
	p[16] = byte(r.Op)
	binary.LittleEndian.PutUint32(p[17:21], uint32(r.Table))
	binary.LittleEndian.PutUint32(p[21:25], uint32(r.Rec))
	binary.LittleEndian.PutUint32(p[25:29], uint32(r.Field))
	binary.LittleEndian.PutUint32(p[29:33], uint32(r.Aux))
	binary.LittleEndian.PutUint16(p[33:35], uint16(len(r.Vals)))
	for i, v := range r.Vals {
		binary.LittleEndian.PutUint32(p[recFixed+4*i:], v)
	}
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(p))
	return dst
}

// EncodedSize returns the framed length of r in bytes.
func EncodedSize(r Record) int { return frameHeader + recFixed + 4*len(r.Vals) }

// DecodePayload parses one payload (the bytes covered by the CRC). It is
// strict: the payload length must match the declared value count exactly.
func DecodePayload(p []byte) (Record, error) {
	if len(p) < recFixed {
		return Record{}, fmt.Errorf("%w: payload %d bytes, need %d", ErrTorn, len(p), recFixed)
	}
	var r Record
	r.Seq = binary.LittleEndian.Uint64(p[0:8])
	r.Trace = binary.LittleEndian.Uint64(p[8:16])
	r.Op = Op(p[16])
	if r.Op < 1 || r.Op >= opMax {
		return Record{}, fmt.Errorf("%w: unknown op %d", ErrTorn, p[16])
	}
	r.Table = int32(binary.LittleEndian.Uint32(p[17:21]))
	r.Rec = int32(binary.LittleEndian.Uint32(p[21:25]))
	r.Field = int32(binary.LittleEndian.Uint32(p[25:29]))
	r.Aux = int32(binary.LittleEndian.Uint32(p[29:33]))
	n := int(binary.LittleEndian.Uint16(p[33:35]))
	if n > MaxVals {
		return Record{}, fmt.Errorf("%w: %d values exceeds cap %d", ErrTorn, n, MaxVals)
	}
	if len(p) != recFixed+4*n {
		return Record{}, fmt.Errorf("%w: payload %d bytes for %d values", ErrTorn, len(p), n)
	}
	if n > 0 {
		r.Vals = make([]uint32, n)
		for i := range r.Vals {
			r.Vals[i] = binary.LittleEndian.Uint32(p[recFixed+4*i:])
		}
	}
	return r, nil
}

// Decoder iterates the framed records of a byte buffer (a segment's
// contents or a shipped replication batch).
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a Decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Offset returns the byte offset of the next undecoded frame — after an
// ErrTorn, the point at which the log should be truncated.
func (d *Decoder) Offset() int { return d.off }

// Next returns the next record. io.EOF marks a clean end of the buffer; an
// error wrapping ErrTorn marks corruption at Offset().
func (d *Decoder) Next() (Record, error) {
	rest := d.buf[d.off:]
	if len(rest) == 0 {
		return Record{}, io.EOF
	}
	if len(rest) < frameHeader {
		return Record{}, fmt.Errorf("%w: %d-byte frame header remnant", ErrTorn, len(rest))
	}
	plen := int(binary.LittleEndian.Uint32(rest[0:4]))
	if plen < recFixed || plen > maxPayload {
		return Record{}, fmt.Errorf("%w: frame length %d out of range", ErrTorn, plen)
	}
	if len(rest) < frameHeader+plen {
		return Record{}, fmt.Errorf("%w: frame needs %d bytes, %d remain", ErrTorn, frameHeader+plen, len(rest))
	}
	payload := rest[frameHeader : frameHeader+plen]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(rest[4:8]); got != want {
		return Record{}, fmt.Errorf("%w: crc %#x, frame claims %#x", ErrTorn, got, want)
	}
	r, err := DecodePayload(payload)
	if err != nil {
		return Record{}, err
	}
	d.off += frameHeader + plen
	return r, nil
}
