package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// File naming. Segments carry the sequence number of the first record they
// may contain; a checkpoint file carries the sequence it captured.
const (
	segSuffix  = ".seg"
	ckptSuffix = ".ck"
	ckptMagic  = 0x434B5054 // "CKPT"
)

func segName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x%s", firstSeq, segSuffix) }
func ckptName(seq uint64) string     { return fmt.Sprintf("ckpt-%016x%s", seq, ckptSuffix) }
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return v, err == nil
}

// Config sizes the log.
type Config struct {
	// Dir is the log directory, created if absent.
	Dir string
	// SegmentCap rotates the active segment once it exceeds this many
	// bytes. Default 1 MiB.
	SegmentCap int
	// TailCap bounds the in-memory tail ring serving replication, in
	// records. Default 8192.
	TailCap int
}

func (c *Config) fill() {
	if c.SegmentCap <= 0 {
		c.SegmentCap = 1 << 20
	}
	if c.TailCap <= 0 {
		c.TailCap = 8192
	}
}

// Log is the append side of the WAL. Append, Sync, Checkpoint, and Close are
// single-writer calls (the server core's turn holder); Since, the seq accessors, and
// the metrics callbacks are safe from any goroutine — replication reads the
// tail ring under its own mutex and never touches the file, so shipping the
// log cannot stall the serving path.
//
// The tail ring holds the contiguous run of the n = len(tail) ≤ TailCap
// newest records, seqs head-n+1 … head, seq in slot (seq-origin) % TailCap.
// It grows by append until full, so a small log never pays for TailCap
// slots, then each Append overwrites the oldest slot. A checkpoint install
// that advances lastSeq empties it (n = 0), so no hole is ever shipped.
// Since bounds its batch by head read under mu, never by the lastSeq atomic
// Append publishes before it writes the slot.
type Log struct {
	cfg Config

	// The single writer's state.
	f       *os.File
	bw      *bufio.Writer
	segSize int
	scratch []byte
	closed  bool

	// Tail ring serving Since; guarded by mu.
	mu     sync.Mutex
	tail   []Record
	origin uint64 // seq of slot 0
	head   uint64

	// Cross-thread counters.
	lastSeq   atomic.Uint64
	syncedSeq atomic.Uint64
	ckptSeq   atomic.Uint64
	pending   atomic.Int64 // records appended since last Sync
	sinceCkpt atomic.Int64 // bytes appended since last checkpoint
	segments  atomic.Int64
	appended  atomic.Uint64
	synced    atomic.Uint64
	ckpts     atomic.Uint64

	fsyncHist *metrics.Histogram // nil until BindMetrics
}

// Open creates or reopens a log directory for appending. startSeq is the
// sequence number of the last durable record (0 for a fresh log — typically
// RecoverResult.LastSeq); appending always begins in a new segment so a
// previously torn tail is never extended.
func Open(cfg Config, startSeq uint64) (*Log, error) {
	cfg.fill()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{cfg: cfg, origin: startSeq + 1, head: startSeq}
	l.lastSeq.Store(startSeq)
	l.syncedSeq.Store(startSeq)
	if err := l.openSegment(startSeq + 1); err != nil {
		return nil, err
	}
	l.segments.Store(int64(len(listFiles(cfg.Dir, "wal-", segSuffix))))
	return l, nil
}

func (l *Log) openSegment(firstSeq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.cfg.Dir, segName(firstSeq)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	if st, err := f.Stat(); err == nil {
		l.segSize = int(st.Size())
	} else {
		l.segSize = 0
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 64<<10)
	return nil
}

// Append writes one record to the log buffer and tail ring, assigning the
// next sequence number when r.Seq is zero. A non-zero r.Seq (replica apply
// preserving the primary's numbering) must be exactly lastSeq+1. The record
// is not durable until the next Sync. Turn holder only.
func (l *Log) Append(r Record) (uint64, error) {
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	next := l.lastSeq.Load() + 1
	if r.Seq == 0 {
		r.Seq = next
	} else if r.Seq != next {
		return 0, fmt.Errorf("wal: append seq %d, want %d", r.Seq, next)
	}
	if len(r.Vals) > MaxVals {
		return 0, fmt.Errorf("wal: %d values exceeds cap %d", len(r.Vals), MaxVals)
	}
	l.scratch = AppendRecord(l.scratch[:0], r)
	if l.segSize > 0 && l.segSize+len(l.scratch) > l.cfg.SegmentCap {
		if err := l.rotate(r.Seq); err != nil {
			return 0, err
		}
	}
	if _, err := l.bw.Write(l.scratch); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.segSize += len(l.scratch)
	l.sinceCkpt.Add(int64(len(l.scratch)))
	l.lastSeq.Store(r.Seq)
	l.pending.Add(1)
	l.appended.Add(1)

	l.mu.Lock()
	if len(l.tail) < l.cfg.TailCap {
		l.tail = append(l.tail, r)
	} else {
		l.tail[l.slot(r.Seq)] = r
	}
	l.head = r.Seq
	l.mu.Unlock()
	return r.Seq, nil
}

// slot is the tail index of a seq the ring holds. Caller holds mu.
func (l *Log) slot(seq uint64) uint64 { return (seq - l.origin) % uint64(l.cfg.TailCap) }

// rotate syncs and closes the active segment and starts a new one whose
// name records firstSeq.
func (l *Log) rotate(firstSeq uint64) error {
	if err := l.flushSync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	if err := l.openSegment(firstSeq); err != nil {
		return err
	}
	l.segments.Add(1)
	return nil
}

func (l *Log) flushSync() error {
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// Sync flushes buffered records and fsyncs the segment. The server calls it
// on the core's clock tick, batching every append since the previous tick
// into one fsync. Turn holder only.
func (l *Log) Sync() error {
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	n := l.pending.Load()
	if n == 0 && l.bw.Buffered() == 0 {
		return nil
	}
	t0 := time.Now()
	if err := l.flushSync(); err != nil {
		return err
	}
	if l.fsyncHist != nil {
		l.fsyncHist.ObserveSince(t0)
	}
	l.syncedSeq.Store(l.lastSeq.Load())
	l.pending.Add(-n)
	l.synced.Add(uint64(n))
	return nil
}

// LastSeq returns the highest appended sequence number.
func (l *Log) LastSeq() uint64 { return l.lastSeq.Load() }

// SyncedSeq returns the highest fsynced sequence number.
func (l *Log) SyncedSeq() uint64 { return l.syncedSeq.Load() }

// CheckpointSeq returns the sequence captured by the latest checkpoint.
func (l *Log) CheckpointSeq() uint64 { return l.ckptSeq.Load() }

// Pending returns the number of appended-but-not-fsynced records.
func (l *Log) Pending() int64 { return l.pending.Load() }

// SizeSinceCheckpoint returns bytes logged since the last checkpoint — the
// server's trigger for writing the next one.
func (l *Log) SizeSinceCheckpoint() int64 { return l.sinceCkpt.Load() }

// Since returns the framed records with sequence numbers in (afterSeq,
// lastSeq], up to maxBytes (the first record always ships), from the
// in-memory tail ring; lastSeq is the ring's head. ok is false when afterSeq
// has already fallen off the ring — the caller must re-bootstrap from a
// checkpoint. Safe from any goroutine; never touches the file.
func (l *Log) Since(afterSeq uint64, maxBytes int) (blob []byte, lastSeq uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lastSeq = l.head
	if afterSeq >= lastSeq {
		return nil, lastSeq, true
	}
	if afterSeq < lastSeq-uint64(len(l.tail)) {
		return nil, lastSeq, false // gap: requested records evicted from the ring
	}
	for seq := afterSeq + 1; seq <= lastSeq; seq++ {
		r := l.tail[l.slot(seq)]
		if maxBytes > 0 && len(blob) > 0 && len(blob)+EncodedSize(r) > maxBytes {
			break
		}
		blob = AppendRecord(blob, r)
	}
	return blob, lastSeq, true
}

// LastField returns the newest logged value of field of record rec in
// table, walking the tail ring from its head back: an OpWriteFld of that
// field or an OpWriteRec of the record gives it; an OpAlloc or OpFree of
// the record (a new life with no value yet), or the end of the ring, is a
// miss. Other records, other fields and OpMove are skipped. Since every
// acknowledged write is logged before it is acked, a hit is the newest
// acked value — the range audit's repair source. Safe from any goroutine.
func (l *Log) LastField(table, rec, field int) (uint32, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range uint64(len(l.tail)) {
		r := &l.tail[l.slot(l.head-i)]
		if int(r.Table) != table || int(r.Rec) != rec {
			continue
		}
		switch r.Op {
		case OpWriteFld:
			if int(r.Field) == field && len(r.Vals) == 1 {
				return r.Vals[0], true
			}
		case OpWriteRec:
			if field >= 0 && field < len(r.Vals) {
				return r.Vals[field], true
			}
			return 0, false
		case OpAlloc, OpFree:
			return 0, false
		}
	}
	return 0, false
}

// Checkpoint syncs the log, captures the state written by snapshot (the
// region serializer, run by the turn holder), persists it crash-safely
// (temp + fsync + rename), prunes segments wholly covered by it, and removes
// older checkpoints. Turn holder only.
//
// Checkpoint file format: u32 magic | u64 seq | u32 body-len | body |
// u32 crc32(seq … body).
func (l *Log) Checkpoint(snapshot func(w io.Writer) error) error {
	if err := l.Sync(); err != nil {
		return err
	}
	var body bytes.Buffer
	if err := snapshot(&body); err != nil {
		return fmt.Errorf("wal: checkpoint snapshot: %w", err)
	}
	return l.InstallCheckpoint(l.lastSeq.Load(), body.Bytes())
}

// InstallCheckpoint persists body as the checkpoint for seq. The replica
// applier uses it directly after bootstrapping from a shipped snapshot,
// where body arrived off the wire and seq is the primary's. Turn holder
// only. lastSeq advances to seq if behind (a fresh standby log), and the
// tail ring empties: it holds no records between its old head and seq.
func (l *Log) InstallCheckpoint(seq uint64, body []byte) error {
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:4], ckptMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], seq)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(body)))
	crc := crc32.ChecksumIEEE(hdr[4:16])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)

	tmp := filepath.Join(l.cfg.Dir, ckptName(seq)+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	_, err = f.Write(hdr)
	if err == nil {
		_, err = f.Write(body)
	}
	if err == nil {
		_, err = f.Write(tail[:])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.cfg.Dir, ckptName(seq))); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if l.lastSeq.Load() < seq {
		l.mu.Lock()
		l.tail, l.origin, l.head = l.tail[:0], seq+1, seq
		l.mu.Unlock()
		l.lastSeq.Store(seq)
		l.syncedSeq.Store(seq)
	}
	l.ckptSeq.Store(seq)
	l.sinceCkpt.Store(0)
	l.ckpts.Add(1)
	l.prune(seq)
	return nil
}

// prune removes checkpoints older than seq and segments whose records are
// all ≤ seq (every segment except the last whose successor starts at or
// before seq+1).
func (l *Log) prune(seq uint64) {
	for _, name := range listFiles(l.cfg.Dir, "ckpt-", ckptSuffix) {
		if s, ok := parseSeq(name, "ckpt-", ckptSuffix); ok && s < seq {
			os.Remove(filepath.Join(l.cfg.Dir, name))
		}
	}
	segs := listFiles(l.cfg.Dir, "wal-", segSuffix)
	for i := 0; i+1 < len(segs); i++ {
		next, ok := parseSeq(segs[i+1], "wal-", segSuffix)
		if !ok || next > seq+1 {
			break
		}
		if os.Remove(filepath.Join(l.cfg.Dir, segs[i])) == nil {
			l.segments.Add(-1)
		}
	}
}

// Close syncs and closes the active segment. Further appends fail.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	err := l.Sync()
	l.closed = true
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	return err
}

// BindMetrics registers the log's gauges and the fsync latency histogram.
func (l *Log) BindMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("wal.flush_pending", l.pending.Load)
	reg.GaugeFunc("wal.last_seq", func() int64 { return int64(l.lastSeq.Load()) })
	reg.GaugeFunc("wal.synced_seq", func() int64 { return int64(l.syncedSeq.Load()) })
	reg.GaugeFunc("wal.segments", l.segments.Load)
	reg.GaugeFunc("wal.appended", func() int64 { return int64(l.appended.Load()) })
	reg.GaugeFunc("wal.checkpoints", func() int64 { return int64(l.ckpts.Load()) })
	l.fsyncHist = reg.Histogram("wal.fsync", metrics.LatencyBuckets())
}

// listFiles returns the matching names in dir, sorted ascending (the hex
// seq encoding makes lexical order numeric order).
func listFiles(dir, prefix, suffix string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		if _, ok := parseSeq(e.Name(), prefix, suffix); ok {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}
