package server

// Durability and failover: the server-side half of internal/wal and
// internal/replica.
//
// A primary appends every acknowledged mutation — a wire write or a
// procedure's effect — to its operation log through core.log (fsync
// batched on the clock tick) and serves the log to a polling standby
// without taking the turn, from the WAL's tail ring. A standby replays that
// stream on its own clock, holding the region's turn there exactly as a
// request does on the primary, and
// runs the full audit process in shadow mode: findings journaled, repairs
// deferred. When the standby's polls fail ReplFailLimit times in a row it
// promotes itself, flipping the audits live and accepting sessions.
//
// The log is also the range audit's repair source: every acknowledged
// write is appended before it is acked, so the tail ring holds each
// field's newest acknowledged value, and a corrupted dynamic field is
// restored from it (wal.Log.LastField) before the paper's reset/free is
// tried. Restores return the region to what the log already says, so they
// need no record of their own. The paper's reset and free are not logged
// yet: the standby and a crash image can still hold a record whose primary
// copy the audit freed, until the next logged alloc of the same slot.

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/audit"
	"repro/internal/replica"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// snapChunk is the bootstrap snapshot chunk size; it leaves headroom under
// wire.MaxDetail.
const snapChunk = 24 * 1024

const operatorPromotion = "operator-ordered promotion"

// role is the wire role code of a standby flag.
func role(standby bool) int {
	if standby {
		return wire.RoleStandby
	}
	return wire.RolePrimary
}

// walFault records a failed durability step: an event on the repl ring named
// for the step, and the first such error kept for Shutdown to return. A nil
// err is not a fault. Turn holder only.
func (c *core) walFault(step string, err error) {
	if err == nil {
		return
	}
	if c.walErr == nil {
		c.walErr = fmt.Errorf("server: wal %s: %w", step, err)
	}
	if c.replRing != nil {
		c.replRing.Emit(trace.Event{Kind: trace.KindWALRecover, Op: step, Detail: err.Error()})
	}
}

// log appends one mutation, already applied to the region, to the core's
// operation log. It is the server's only append: wire writes (record) and
// procedure effects (handleProcExec) both build their record next to the
// mutation and log it here. It returns the assigned log sequence — the
// write-acknowledgement token the client's router uses as its
// read-your-writes lease floor — or zero when nothing is logged: no log,
// or a standby, whose log only replication feeds. A failed append is
// journaled and returned as the "wal append" error the write answers
// instead of OK, with no token; the region keeps the mutation. Turn holder
// only.
func (c *core) log(rec wal.Record, tid uint64) (uint64, error) {
	if c.walLog == nil || c.standby.Load() {
		return 0, nil
	}
	rec.Trace = tid
	seq, err := c.walLog.Append(rec)
	if err != nil {
		c.walFault("append-error", err)
		return 0, fmt.Errorf("wal append: %v", err)
	}
	return seq, nil
}

// syncWAL batches pending appends into one fsync and writes a fresh
// checkpoint once enough log has accumulated. Clock tick only.
func (c *core) syncWAL() {
	if c.walLog == nil {
		return
	}
	if c.walLog.Pending() > 0 {
		c.walFault("sync-error", c.walLog.Sync())
	}
	if capBytes := c.srv.cfg.CheckpointCap; !c.standby.Load() && capBytes > 0 &&
		c.walLog.SizeSinceCheckpoint() >= capBytes {
		c.checkpointNow()
	}
}

// checkpointNow captures the live region as the log's new recovery base.
// Turn holder only.
func (c *core) checkpointNow() {
	if err := c.walLog.Checkpoint(c.db.SnapshotInto); err != nil {
		c.walFault("checkpoint-error", err)
		return
	}
	if c.replRing != nil {
		c.replRing.Emit(trace.Event{Kind: trace.KindWALCheckpoint,
			Aux: int64(c.walLog.CheckpointSeq())})
	}
}

// replStep is the standby's poll tick: one Applier round, promoting when
// the primary has been unreachable for the configured streak. Turn holder
// only (env ticker).
func (c *core) replStep() {
	if !c.standby.Load() || c.applier == nil {
		return
	}
	if c.applier.Step() {
		c.promote(fmt.Sprintf("primary unreachable for %d polls", c.srv.cfg.ReplFailLimit))
	}
}

// promote flips a standby into the primary role: replication stops, the
// audits leave shadow mode (the range audit then repairs from this node's
// own log, which replication filled), and sessions are accepted. This is
// the fifth escalation level of the recovery ladder — beyond field reset,
// record free, extent reload, and full reload, the service itself moves
// to the standby. Turn holder only (poll ticker or OpReplPromote).
func (c *core) promote(reason string) {
	if !c.standby.CompareAndSwap(true, false) {
		return
	}
	if c.replTicker != nil {
		c.replTicker.Stop()
	}
	if c.applier != nil {
		c.applier.Close()
	}
	c.setDetectOnly(false)
	f := audit.Finding{
		Class: audit.ClassFailover, Action: audit.ActionPromote,
		Table: -1, Record: -1, Field: -1, Offset: -1,
		Detail: reason,
	}
	c.noteFinding(f)
	if c.replRing != nil {
		c.replRing.Emit(trace.Event{Kind: trace.KindReplPromote, Detail: reason})
	}
	// Role coherence: one core's promotion (self-triggered or requested)
	// promotes the whole group. The CAS above makes the fan-out converge.
	c.srv.notePromote(reason)
}

// handleReplicate answers a standby poll without the turn: the shipper
// reads the WAL tail ring, which is safe from any goroutine, so shipping
// never costs the request path anything (resource isolation).
func (c *core) handleReplicate(q wire.Request) wire.Response {
	if c.shipper == nil || c.standby.Load() {
		return fail(q, wire.ErrNotPrimary)
	}
	if len(q.Vals) < 2 {
		return wire.ErrorResponse(q.Seq,
			fmt.Errorf("%w: Replicate carries %d values", wire.ErrBadFrame, len(q.Vals)))
	}
	after := wire.JoinU64(q.Vals[0], q.Vals[1])
	blob, lastSeq, err := c.shipper.Serve(after, q.Detail)
	if errors.Is(err, replica.ErrGap) {
		return fail(q, wire.ErrReplGap)
	}
	if err != nil {
		return fail(q, err)
	}
	lo, hi := wire.SplitU64(lastSeq)
	return wire.Response{Seq: q.Seq, Detail: string(blob), Vals: []uint32{lo, hi}}
}

// handleReplSnap serves one chunk of the bootstrap snapshot. The snapshot
// is captured atomically under the turn at offset 0 — log position and
// region image taken together — and retained per connection so every chunk
// comes from the same image. Turn holder only.
func (c *core) handleReplSnap(cn *conn, q wire.Request, _ uint64) wire.Response {
	slot := &cn.on[c.id]
	if c.walLog == nil {
		return fail(q, errors.New("server: replication disabled (no WAL)"))
	}
	off := int(q.Record)
	if off == 0 || slot.snap == nil {
		var buf bytes.Buffer
		if err := c.db.SnapshotInto(&buf); err != nil {
			return fail(q, err)
		}
		slot.snap = buf.Bytes()
		slot.snapSeq = c.walLog.LastSeq()
	}
	if off < 0 || off > len(slot.snap) {
		return wire.ErrorResponse(q.Seq,
			fmt.Errorf("%w: snapshot offset %d of %d", wire.ErrBadFrame, off, len(slot.snap)))
	}
	end := off + snapChunk
	if end > len(slot.snap) {
		end = len(slot.snap)
	}
	lo, hi := wire.SplitU64(slot.snapSeq)
	return wire.Response{
		Detail: string(slot.snap[off:end]),
		Vals:   []uint32{uint32(len(slot.snap)), lo, hi},
	}
}

// leaseFloor extracts a routed read's lease floor from the request's
// otherwise-unused value vector (Vals [seq-lo, seq-hi]); zero means the
// read carries no read-your-writes requirement.
func leaseFloor(q wire.Request) uint64 {
	if len(q.Vals) < 2 {
		return 0
	}
	return wire.JoinU64(q.Vals[0], q.Vals[1])
}

// behindLease reports whether this standby's applied position is below a
// routed read's lease floor. The applied sequence is monotonic and stored
// only after the record's effects are in the region, so applied >= floor
// here guarantees the subsequent region read observes everything up to the
// floor — the staleness bound's load-bearing comparison.
func (c *core) behindLease(q wire.Request) bool {
	floor := leaseFloor(q)
	if floor == 0 {
		return false
	}
	return c.applier == nil || c.applier.Applied() < floor
}

// standbyAllowed reports whether a standby answers op at all; everything
// else gets ErrStandby so clients re-resolve to the primary. Serve-reads
// mode additionally admits the read opcodes for the replica router.
func (s *Server) standbyAllowed(op wire.Op) bool {
	switch op {
	case wire.OpPing, wire.OpSweep, wire.OpStats2, wire.OpTrace,
		wire.OpHealth, wire.OpReplStatus, wire.OpReplPromote, wire.OpReplSnap,
		wire.OpReplicate:
		return true
	case wire.OpReadRec, wire.OpReadFld, wire.OpStatus:
		return s.cfg.ServeReads
	}
	return false
}

// roleTag names a standby's replication role for shadow-audit attribution
// in trace events and the health document; empty on a primary, whose
// findings need no tag.
func roleTag(standby, serveReads bool) string {
	switch {
	case !standby:
		return ""
	case serveReads:
		return "standby-serving"
	}
	return "standby"
}
