// Package wire defines the network protocol of the database serving
// subsystem: a compact length-prefixed binary codec exposing the paper's
// seven-call DB API (Table 1: DBinit, DBclose, DBread_rec, DBread_fld,
// DBwrite_rec, DBwrite_fld, DBmove) plus the allocation, transaction, and
// control calls the reproduction's `internal/memdb` grew around them.
//
// Framing: every message is `u32 payload-length | payload`, little endian,
// so a reader never has to scan for delimiters and a bad peer cannot make
// the server buffer unboundedly (lengths above the configured maximum are
// rejected before any allocation).
//
// Request payload layout (25 + len(detail) + 4n bytes):
//
//	u32 seq | u8 op | i32 table | i32 record | i32 field | i32 aux | u16 detail-len | detail | u16 n | n × u32
//
// Response payload layout (15 + len(detail) + 4n bytes):
//
//	u32 seq | u8 code | i32 index | i32 limit | u16 detail-len | detail | u16 n | n × u32
//
// Every `internal/memdb` error has a stable wire code; BoundsError carries
// its What/Index/Limit triple across the wire so clients recover the exact
// server-side error value.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/memdb"
)

// Op identifies one request operation.
type Op uint8

// Protocol operations. The first block mirrors the paper's Table 1 API;
// the second exposes the allocation/transaction calls of internal/memdb;
// the third is serving-plane control.
const (
	OpPing     Op = iota + 1
	OpInit        // DBinit: open a session, returns [pid]
	OpClose       // DBclose: close the session
	OpReadRec     // DBread_rec: returns all fields
	OpReadFld     // DBread_fld: returns [value]
	OpWriteRec    // DBwrite_rec: Vals carries all fields
	OpWriteFld    // DBwrite_fld: Vals[0] is the value
	OpMove        // DBmove: Aux is the destination group
	OpAlloc       // allocate a record, Aux is the group, returns [record]
	OpFree        // free a record
	OpBegin       // open a transaction lock on Table
	OpCommit      // release every transaction lock
	OpStatus      // returns [record status byte]
	OpSweep       // force one full audit sweep, returns [finding count]
	opOldStats    // reserved: the legacy counters op STATS2 replaced; servers answer ErrUnknownOp
	OpStats2      // full metrics snapshot; Detail carries the JSON document
	OpTrace       // flight-recorder journal; Table filters by kind, Aux caps the event count, Detail carries the JSON events

	// Replication plane (durability & failover subsystem). A standby polls
	// its primary with OpReplicate; the record stream rides in Detail as
	// CRC-framed WAL records, so integrity is end-to-end, not per-hop.
	OpReplStatus  // role + log positions, see ReplStatus
	OpReplicate   // Vals [after-lo, after-hi], request Detail = standby addr (its peer identity); response Detail = record batch, Vals [last-lo, last-hi]
	OpReplSnap    // bootstrap snapshot chunk; Record is the byte offset, response Vals [total, seq-lo, seq-hi], Detail = chunk
	OpReplPromote // force a standby to take over as primary
	OpReplFetch   // reserved: the retired standby mirror read; servers answer ErrUnknownOp
	OpProcExec    // run a registered procedure: Detail = name, Vals = args; returns the emitted values
	OpProcLoad    // register a procedure: Detail = name + "\n" + source; returns [words, blocks, version]
	OpProcList    // procedure registry introspection; response Detail carries the JSON inventory
	OpInjectCtl   // retime the server-side fault injectors at runtime: Vals [data-lo, data-hi, proc-lo, proc-hi] periods in ns (0 = off), Aux = InjectMode*
	OpHealth      // health & SLO plane snapshot; Detail carries the JSON health.Status document
	opMax
)

// Injection targeting modes carried in OpInjectCtl's Aux field.
const (
	// InjectModeRandom flips bits anywhere in the region (the legacy
	// Config.InjectPeriod behavior): some shots land on bytes no check
	// characterizes and go undetected, as in the paper's campaigns.
	InjectModeRandom = 0
	// InjectModeStatic walks the static table extents (catalog excluded)
	// with a coprime stride, so every shot is a distinct byte the static
	// checksum audit is guaranteed to detect and repair — the mode
	// fault-storm scenarios use when every shot must join a finding.
	InjectModeStatic = 1
)

// NumOps is the number of defined operations (for per-op stat arrays).
const NumOps = int(opMax)

// String returns the protocol-level operation name.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "Ping"
	case OpInit:
		return "DBinit"
	case OpClose:
		return "DBclose"
	case OpReadRec:
		return "DBread_rec"
	case OpReadFld:
		return "DBread_fld"
	case OpWriteRec:
		return "DBwrite_rec"
	case OpWriteFld:
		return "DBwrite_fld"
	case OpMove:
		return "DBmove"
	case OpAlloc:
		return "DBalloc"
	case OpFree:
		return "DBfree"
	case OpBegin:
		return "DBbegin"
	case OpCommit:
		return "DBcommit"
	case OpStatus:
		return "DBstatus"
	case OpSweep:
		return "Sweep"
	case opOldStats:
		return "Stats"
	case OpStats2:
		return "Stats2"
	case OpTrace:
		return "Trace"
	case OpReplStatus:
		return "ReplStatus"
	case OpReplicate:
		return "Replicate"
	case OpReplSnap:
		return "ReplSnap"
	case OpReplPromote:
		return "ReplPromote"
	case OpReplFetch:
		return "ReplFetch"
	case OpProcExec:
		return "ProcExec"
	case OpProcLoad:
		return "ProcLoad"
	case OpProcList:
		return "ProcList"
	case OpInjectCtl:
		return "InjectCtl"
	case OpHealth:
		return "Health"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o >= OpPing && o < opMax }

// Code is a response status code. Zero is success; every memdb error and
// serving-plane failure has a distinct code.
type Code uint8

// Response codes.
const (
	CodeOK Code = iota
	CodeBadFrame
	CodeUnknownOp
	CodeNoSession
	CodeSessionExists
	CodeCorruptCatalog // memdb.ErrCorruptCatalog
	CodeLocked         // memdb.ErrLocked
	CodeNoFreeRecord   // memdb.ErrNoFreeRecord
	CodeClosed         // memdb.ErrClosed
	CodeNotActive      // memdb.ErrNotActive
	CodeBounds         // *memdb.BoundsError, detail carries What
	CodeOverload       // too many requests waiting for the region (backpressure drop)
	CodeShutdown       // server draining, no new work accepted
	CodeTimeout        // waited past the reply deadline; the request never ran
	CodeInternal       // unclassified server-side error
	CodeStandby        // server is a hot standby; clients must use the primary
	CodeNotPrimary     // replication op requires a WAL-backed primary
	CodeNotStandby     // promotion requires a standby
	CodeReplGap        // requested log position evicted; re-bootstrap from snapshot
	CodeUnknownProc    // PROC op named an unregistered procedure
	CodeProcViolation  // procedure aborted by a PECOS control-flow check
	CodeProcFault      // procedure crashed, hung, or failed to commit
	CodeStale          // read-serving standby is behind the request's lease floor
)

// Serving-plane sentinel errors decoded from response codes.
var (
	ErrBadFrame      = errors.New("wire: malformed frame")
	ErrUnknownOp     = errors.New("wire: unknown operation")
	ErrNoSession     = errors.New("wire: no session (DBinit first)")
	ErrSessionExists = errors.New("wire: session already open")
	ErrOverload      = errors.New("wire: server overloaded, request dropped")
	ErrShutdown      = errors.New("wire: server shutting down")
	ErrTimeout       = errors.New("wire: request timed out")
	ErrStandby       = errors.New("wire: server is a standby, reconnect to the primary")
	ErrNotPrimary    = errors.New("wire: not a WAL-backed primary")
	ErrNotStandby    = errors.New("wire: not a standby")
	ErrReplGap       = errors.New("wire: replication gap, snapshot bootstrap required")
	ErrUnknownProc   = errors.New("wire: unknown procedure")
	ErrProcViolation = errors.New("wire: procedure aborted by PECOS control-flow check")
	ErrProcFault     = errors.New("wire: procedure faulted")
	ErrStale         = errors.New("wire: replica behind the requested sequence token")
)

// Request is one client→server call.
type Request struct {
	Seq    uint32 // echoed verbatim in the response
	Op     Op
	Table  int32
	Record int32
	Field  int32
	Aux    int32  // group for DBmove/DBalloc; operation-specific otherwise
	Detail string // side data: standby address (replication), procedure name/source (PROC ops)
	Vals   []uint32
}

// Response is one server→client reply.
type Response struct {
	Seq    uint32
	Code   Code
	Index  int32  // BoundsError index, else 0
	Limit  int32  // BoundsError limit, else 0
	Detail string // BoundsError What, or diagnostic text
	Vals   []uint32
}

// Frame and payload size limits.
const (
	// MaxFrame is the default maximum payload length accepted by either
	// side. Large enough for any record of a realistic schema, small
	// enough that a hostile length prefix cannot balloon memory.
	MaxFrame = 1 << 16
	// maxVals bounds the value vector; with u16 count this is the codec
	// ceiling regardless of frame budget.
	maxVals = 1 << 14
	// MaxDetail bounds the detail string on both sides. Error diagnostics
	// are short, but the STATS2 metrics snapshot, the TRACE journal, and
	// replication record batches all ride in Detail, so the cap must clear
	// a full registry dump while still fitting MaxFrame alongside the
	// fixed fields.
	MaxDetail = 1 << 15

	reqFixed  = 4 + 1 + 4*4 + 2 + 2
	respFixed = 4 + 1 + 4 + 4 + 2 + 2
)

// WriteFrame writes one length-prefixed payload.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed payload, rejecting lengths of zero or
// above max before allocating.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n <= 0 || n > max {
		return nil, fmt.Errorf("%w: payload length %d (max %d)", ErrBadFrame, n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendRequest appends the encoded request to dst.
func AppendRequest(dst []byte, q Request) []byte {
	detail := q.Detail
	if len(detail) > MaxDetail {
		detail = detail[:MaxDetail]
	}
	dst = binary.LittleEndian.AppendUint32(dst, q.Seq)
	dst = append(dst, byte(q.Op))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Table))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Record))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Field))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Aux))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(detail)))
	dst = append(dst, detail...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(q.Vals)))
	for _, v := range q.Vals {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// ParseRequest decodes one request payload.
func ParseRequest(p []byte) (Request, error) {
	if len(p) < reqFixed {
		return Request{}, fmt.Errorf("%w: request payload %d bytes", ErrBadFrame, len(p))
	}
	q := Request{
		Seq:    binary.LittleEndian.Uint32(p[0:4]),
		Op:     Op(p[4]),
		Table:  int32(binary.LittleEndian.Uint32(p[5:9])),
		Record: int32(binary.LittleEndian.Uint32(p[9:13])),
		Field:  int32(binary.LittleEndian.Uint32(p[13:17])),
		Aux:    int32(binary.LittleEndian.Uint32(p[17:21])),
	}
	dn := int(binary.LittleEndian.Uint16(p[21:23]))
	if dn > MaxDetail || len(p) < 23+dn+2 {
		return Request{}, fmt.Errorf("%w: request detail overruns payload", ErrBadFrame)
	}
	q.Detail = string(p[23 : 23+dn])
	off := 23 + dn
	n := int(binary.LittleEndian.Uint16(p[off : off+2]))
	off += 2
	if n > maxVals || len(p) != off+4*n {
		return Request{}, fmt.Errorf("%w: request claims %d values in %d bytes", ErrBadFrame, n, len(p))
	}
	if n > 0 {
		q.Vals = make([]uint32, n)
		for i := range q.Vals {
			q.Vals[i] = binary.LittleEndian.Uint32(p[off+4*i:])
		}
	}
	return q, nil
}

// AppendResponse appends the encoded response to dst.
func AppendResponse(dst []byte, r Response) []byte {
	detail := r.Detail
	if len(detail) > MaxDetail {
		detail = detail[:MaxDetail]
	}
	dst = binary.LittleEndian.AppendUint32(dst, r.Seq)
	dst = append(dst, byte(r.Code))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Index))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Limit))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(detail)))
	dst = append(dst, detail...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Vals)))
	for _, v := range r.Vals {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// ParseResponse decodes one response payload.
func ParseResponse(p []byte) (Response, error) {
	if len(p) < respFixed {
		return Response{}, fmt.Errorf("%w: response payload %d bytes", ErrBadFrame, len(p))
	}
	r := Response{
		Seq:   binary.LittleEndian.Uint32(p[0:4]),
		Code:  Code(p[4]),
		Index: int32(binary.LittleEndian.Uint32(p[5:9])),
		Limit: int32(binary.LittleEndian.Uint32(p[9:13])),
	}
	dn := int(binary.LittleEndian.Uint16(p[13:15]))
	if len(p) < 15+dn+2 {
		return Response{}, fmt.Errorf("%w: response detail overruns payload", ErrBadFrame)
	}
	r.Detail = string(p[15 : 15+dn])
	off := 15 + dn
	n := int(binary.LittleEndian.Uint16(p[off : off+2]))
	off += 2
	if n > maxVals || len(p) != off+4*n {
		return Response{}, fmt.Errorf("%w: response claims %d values in %d bytes", ErrBadFrame, n, len(p))
	}
	if n > 0 {
		r.Vals = make([]uint32, n)
		for i := range r.Vals {
			r.Vals[i] = binary.LittleEndian.Uint32(p[off+4*i:])
		}
	}
	return r, nil
}

// ErrorResponse maps a server-side error to a response for seq. Every memdb
// sentinel and BoundsError gets its dedicated code; anything else is
// CodeInternal with the error text as detail.
func ErrorResponse(seq uint32, err error) Response {
	r := Response{Seq: seq}
	var be *memdb.BoundsError
	switch {
	case err == nil:
		// Defensive: an OK response should be built directly.
	case errors.As(err, &be):
		r.Code = CodeBounds
		r.Index = int32(be.Index)
		r.Limit = int32(be.Limit)
		r.Detail = be.What
	case errors.Is(err, memdb.ErrCorruptCatalog):
		r.Code = CodeCorruptCatalog
	case errors.Is(err, memdb.ErrLocked):
		r.Code = CodeLocked
		r.Detail = err.Error()
	case errors.Is(err, memdb.ErrNoFreeRecord):
		r.Code = CodeNoFreeRecord
	case errors.Is(err, memdb.ErrClosed):
		r.Code = CodeClosed
	case errors.Is(err, memdb.ErrNotActive):
		r.Code = CodeNotActive
	case errors.Is(err, ErrUnknownOp):
		r.Code = CodeUnknownOp
	case errors.Is(err, ErrNoSession):
		r.Code = CodeNoSession
	case errors.Is(err, ErrSessionExists):
		r.Code = CodeSessionExists
	case errors.Is(err, ErrOverload):
		r.Code = CodeOverload
	case errors.Is(err, ErrShutdown):
		r.Code = CodeShutdown
	case errors.Is(err, ErrTimeout):
		r.Code = CodeTimeout
	case errors.Is(err, ErrStandby):
		r.Code = CodeStandby
	case errors.Is(err, ErrNotPrimary):
		r.Code = CodeNotPrimary
	case errors.Is(err, ErrNotStandby):
		r.Code = CodeNotStandby
	case errors.Is(err, ErrReplGap):
		r.Code = CodeReplGap
	case errors.Is(err, ErrUnknownProc):
		r.Code = CodeUnknownProc
		r.Detail = err.Error()
	case errors.Is(err, ErrProcViolation):
		r.Code = CodeProcViolation
		r.Detail = err.Error()
	case errors.Is(err, ErrProcFault):
		r.Code = CodeProcFault
		r.Detail = err.Error()
	case errors.Is(err, ErrStale):
		r.Code = CodeStale
	case errors.Is(err, ErrBadFrame):
		r.Code = CodeBadFrame
		r.Detail = err.Error()
	default:
		r.Code = CodeInternal
		r.Detail = err.Error()
	}
	return r
}

// Err converts the response code back into the matching Go error, so client
// code can errors.Is/As against memdb sentinels exactly as if it had called
// the API in-process. Returns nil for CodeOK.
func (r Response) Err() error {
	switch r.Code {
	case CodeOK:
		return nil
	case CodeBadFrame:
		return fmt.Errorf("%w: %s", ErrBadFrame, r.Detail)
	case CodeUnknownOp:
		return ErrUnknownOp
	case CodeNoSession:
		return ErrNoSession
	case CodeSessionExists:
		return ErrSessionExists
	case CodeCorruptCatalog:
		return memdb.ErrCorruptCatalog
	case CodeLocked:
		return fmt.Errorf("%s: %w", r.Detail, memdb.ErrLocked)
	case CodeNoFreeRecord:
		return memdb.ErrNoFreeRecord
	case CodeClosed:
		return memdb.ErrClosed
	case CodeNotActive:
		return memdb.ErrNotActive
	case CodeBounds:
		return &memdb.BoundsError{What: r.Detail, Index: int(r.Index), Limit: int(r.Limit)}
	case CodeOverload:
		return ErrOverload
	case CodeShutdown:
		return ErrShutdown
	case CodeTimeout:
		return ErrTimeout
	case CodeStandby:
		return ErrStandby
	case CodeNotPrimary:
		return ErrNotPrimary
	case CodeNotStandby:
		return ErrNotStandby
	case CodeReplGap:
		return ErrReplGap
	case CodeUnknownProc:
		return fmt.Errorf("%s: %w", r.Detail, ErrUnknownProc)
	case CodeProcViolation:
		return fmt.Errorf("%s: %w", r.Detail, ErrProcViolation)
	case CodeProcFault:
		return fmt.Errorf("%s: %w", r.Detail, ErrProcFault)
	case CodeStale:
		return ErrStale
	default:
		return fmt.Errorf("wire: server error (code %d): %s", r.Code, r.Detail)
	}
}

// Replication roles reported by OpReplStatus.
const (
	RolePrimary = 0
	RoleStandby = 1
)

// ReplStatusVals indexes the value vector returned by OpReplStatus. The
// first five entries are the original replication vector; the router
// extension appends the serve-reads flag and the node's own lag estimate
// (standby: primary's last shipped seq minus applied; primary: last
// appended seq minus the slowest live standby's ack) so a client-side
// router can health-rank a replica set from one round trip per node.
const (
	ReplRole       = iota // RolePrimary or RoleStandby
	ReplLastLo            // last WAL sequence appended (lo 32 bits)
	ReplLastHi            //   "  (hi 32 bits)
	ReplAppliedLo         // standby: last applied seq; primary: standby's last acked seq
	ReplAppliedHi         //   "  (hi 32 bits)
	ReplServeReads        // 1 when the node answers routed reads (primary always; standby only in serve-reads mode)
	ReplLagLo             // node's replication lag estimate in records (lo 32 bits)
	ReplLagHi             //   "  (hi 32 bits)
	NumReplStatusVals
)

// Write-acknowledgement tokens (bounded-staleness leases). A WAL-backed
// primary stamps every OK response to a logged mutation with the record's
// log sequence in the Index/Limit pair — procedures included: a PROC reply
// carries the highest sequence its logged effects were assigned, across
// cores. Those fields only carry BoundsError operands on failure, so they
// are free on success and old clients ignore them. A router session keeps
// the highest token it has seen and forwards it as the lease floor in the
// Vals of routed reads ([lo, hi]); a read-serving standby refuses with
// CodeStale when its applied sequence is below the floor, which the router
// turns into a primary fallback (read-your-writes).

// SetToken stamps a write-acknowledgement sequence token onto an OK
// response. Zero clears it.
func (r *Response) SetToken(seq uint64) {
	lo, hi := SplitU64(seq)
	r.Index, r.Limit = int32(lo), int32(hi)
}

// Token returns the write-acknowledgement sequence token of an OK
// response, or zero when the response is an error (Index/Limit then carry
// BoundsError operands) or the server did not stamp one.
func (r Response) Token() uint64 {
	if r.Code != CodeOK {
		return 0
	}
	return JoinU64(uint32(r.Index), uint32(r.Limit))
}

// SplitU64 and JoinU64 move 64-bit log sequence numbers through the u32
// value vector.
func SplitU64(v uint64) (lo, hi uint32) { return uint32(v), uint32(v >> 32) }

// JoinU64 is SplitU64's inverse.
func JoinU64(lo, hi uint32) uint64 { return uint64(hi)<<32 | uint64(lo) }
