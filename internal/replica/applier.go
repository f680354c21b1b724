package replica

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/memdb"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// ApplierConfig tunes the standby's replication loop.
type ApplierConfig struct {
	// Primary is the primary's serving address.
	Primary string
	// Shard names which of the primary's WAL streams this applier follows
	// (sharded pairs run one applier per shard). Zero is the single-stream
	// default and interoperates with unsharded primaries.
	Shard int
	// Advertise is the standby's own serving address, sent with every poll
	// as its peer identity: the primary tells standbys apart by it for
	// repl.peers and repl.lag, and dials nothing. May be empty.
	Advertise string
	// Timeout bounds each wire call to the primary (dial included).
	// Default 1s.
	Timeout time.Duration
	// FailLimit is the consecutive-poll-failure streak after which Step
	// reports that the standby should promote itself. 0 disables
	// self-promotion. Default 10.
	FailLimit int
}

func (c *ApplierConfig) applyDefaults() {
	if c.Timeout <= 0 {
		c.Timeout = time.Second
	}
	if c.FailLimit == 0 {
		c.FailLimit = 10
	}
}

// Applier is the standby side: it polls the primary for WAL batches and
// replays them against the standby's database — and, when the standby keeps
// its own log, appends them there so the primary's sequence numbering
// survives a standby restart. Every method except the atomic accessors must
// run on the standby core's turn holder; the Applier is the region's single
// writer during replication exactly as the turn holder is during serving.
type Applier struct {
	db  *memdb.DB
	log *wal.Log // may be nil: standby without local durability
	cfg ApplierConfig

	ring *trace.Ring // may be nil
	conn *wire.Conn

	needBoot bool

	applied     atomic.Uint64
	primaryLast atomic.Uint64 // primary's log position from the latest poll
	failures    atomic.Int64  // consecutive poll failures
	batches     atomic.Uint64
	records     atomic.Uint64
	snaps       atomic.Uint64
}

// NewApplier builds an applier over the standby's database and optional
// local log. startSeq is the position already applied (the standby's own
// recovery point); polling resumes after it.
func NewApplier(db *memdb.DB, log *wal.Log, startSeq uint64, cfg ApplierConfig) *Applier {
	cfg.applyDefaults()
	a := &Applier{db: db, log: log, cfg: cfg}
	a.applied.Store(startSeq)
	return a
}

// SetRing directs apply/snapshot events into a trace ring.
func (a *Applier) SetRing(r *trace.Ring) { a.ring = r }

// Applied returns the last applied log position. Safe from any goroutine.
func (a *Applier) Applied() uint64 { return a.applied.Load() }

// Lag returns how many log records this standby is behind the primary, as
// of the latest successful poll. A standby that has lost its primary keeps
// reporting the last known estimate; the failure streak is the signal for
// that condition. Safe from any goroutine.
func (a *Applier) Lag() uint64 {
	last, applied := a.primaryLast.Load(), a.applied.Load()
	if last > applied {
		return last - applied
	}
	return 0
}

// Step runs one replication round: poll the primary, replay whatever
// arrived, bootstrap from a snapshot when the log position has gapped.
// It reports promote=true once the consecutive-failure streak reaches
// the configured limit — the standby has lost its primary and should
// take over. Turn holder only.
func (a *Applier) Step() (promote bool) {
	if err := a.step(); err != nil {
		n := a.failures.Add(1)
		return a.cfg.FailLimit > 0 && n >= int64(a.cfg.FailLimit)
	}
	a.failures.Store(0)
	return false
}

func (a *Applier) step() error {
	if a.conn == nil {
		nc, err := net.DialTimeout("tcp", a.cfg.Primary, a.cfg.Timeout)
		if err != nil {
			return err
		}
		a.conn = wire.NewConn(nc)
		a.conn.Timeout = a.cfg.Timeout
	}
	if a.needBoot {
		return a.bootstrap()
	}
	blob, lastSeq, err := a.conn.ReplicateShard(a.cfg.Shard, a.applied.Load(), a.cfg.Advertise)
	if err == nil {
		a.primaryLast.Store(lastSeq)
	}
	if errors.Is(err, wire.ErrReplGap) {
		// Fell off the primary's tail ring (standby was down too long, or
		// is brand new): rebuild from a snapshot instead of the log.
		a.needBoot = true
		return a.bootstrap()
	}
	if err != nil {
		a.dropConn()
		return err
	}
	return a.applyBatch(blob)
}

// applyBatch decodes and replays one shipped batch. Duplicates (records at
// or below the applied watermark) are skipped; a sequence gap inside a
// batch forces a re-bootstrap.
func (a *Applier) applyBatch(blob []byte) error {
	dec := wal.NewDecoder(blob)
	n := 0
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// The per-record CRC caught corruption in transit; drop the
			// rest of the batch and re-poll.
			return fmt.Errorf("replica: batch decode: %w", err)
		}
		want := a.applied.Load() + 1
		if rec.Seq < want {
			continue // duplicate from an overlapping poll
		}
		if rec.Seq > want {
			a.needBoot = true
			return fmt.Errorf("replica: sequence gap: got %d, want %d", rec.Seq, want)
		}
		if err := wal.Apply(a.db, rec); err != nil {
			return fmt.Errorf("replica: apply seq %d: %w", rec.Seq, err)
		}
		if a.log != nil {
			if _, err := a.log.Append(rec); err != nil {
				return err
			}
		}
		a.applied.Store(rec.Seq)
		n++
	}
	if n > 0 {
		a.batches.Add(1)
		a.records.Add(uint64(n))
		if a.ring != nil {
			a.ring.Emit(trace.Event{Kind: trace.KindReplApply, Arg: int64(n), Aux: int64(a.applied.Load())})
		}
	}
	return nil
}

// bootstrap pulls the primary's snapshot chunk by chunk, restores the
// region from it, and re-bases the local log on it as a checkpoint.
func (a *Applier) bootstrap() error {
	var buf []byte
	total, seq := -1, uint64(0)
	for off := 0; total < 0 || off < total; {
		chunk, t, s, err := a.conn.ReplSnapShard(a.cfg.Shard, off)
		if err != nil {
			a.dropConn()
			return err
		}
		if total < 0 {
			total, seq = t, s
		} else if t != total || s != seq {
			// The primary re-snapshotted mid-transfer; start over.
			return fmt.Errorf("replica: snapshot changed during bootstrap (seq %d -> %d)", seq, s)
		}
		if len(chunk) == 0 && off < total {
			return fmt.Errorf("replica: empty snapshot chunk at offset %d of %d", off, total)
		}
		buf = append(buf, chunk...)
		off += len(chunk)
	}
	if err := a.db.RestoreFrom(bytes.NewReader(buf)); err != nil {
		return fmt.Errorf("replica: restore: %w", err)
	}
	if a.log != nil {
		if err := a.log.InstallCheckpoint(seq, buf); err != nil {
			return fmt.Errorf("replica: install checkpoint: %w", err)
		}
	}
	a.applied.Store(seq)
	a.needBoot = false
	a.snaps.Add(1)
	if a.ring != nil {
		a.ring.Emit(trace.Event{Kind: trace.KindReplSnap, Arg: int64(len(buf)), Aux: int64(seq)})
	}
	return nil
}

func (a *Applier) dropConn() {
	if a.conn != nil {
		a.conn.Close()
		a.conn = nil
	}
}

// Close releases the connection to the primary. Turn holder only.
func (a *Applier) Close() { a.dropConn() }

// BindMetrics publishes the applier's gauges into reg.
func (a *Applier) BindMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("repl.applied", func() int64 { return int64(a.applied.Load()) })
	reg.GaugeFunc("repl.apply.lag", func() int64 { return int64(a.Lag()) })
	reg.GaugeFunc("repl.failures", func() int64 { return a.failures.Load() })
	reg.GaugeFunc("repl.apply.batches", func() int64 { return int64(a.batches.Load()) })
	reg.GaugeFunc("repl.apply.records", func() int64 { return int64(a.records.Load()) })
	reg.GaugeFunc("repl.snapshots", func() int64 { return int64(a.snaps.Load()) })
}
