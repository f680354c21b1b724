package server

import (
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Read fast lane: the connection goroutine answers every read opcode
// (READ_REC, READ_FLD, STATUS) through the database's read view
// (memdb.View) without taking the region's turn, so reads never wait
// behind writes or audits for it. A view read holds the region read lock,
// which every mutation's write lock excludes, so it never sees a record
// half written.
//
// Three deliberate semantic deltas versus the memdb Client API
// (Client.ReadRec/ReadFld/Status), documented in DESIGN.md: a view read
// does not touch the advisory table locks (a transaction holding a table
// lock neither delays it nor makes it answer ErrLocked); it addresses
// records by the schema's true layout rather than the on-region catalog;
// and a session the progress-indicator audit has terminated can still be
// answered until the connection's next non-read request or its teardown
// takes the turn.

// fastTraceSample journals one in this many fast-lane reads: frequent
// enough to show in a TRACE tail, cheap enough to leave the hot path alone.
const fastTraceSample = 64

// fastLane answers a read opcode from the connection goroutine through
// the view; req.Record is core-local and the front end has already checked
// the session and the global bounds.
func (c *core) fastLane(cn *conn, req wire.Request) wire.Response {
	// Serve-reads standby: check the lease floor first — the applied
	// sequence is stored only after a record's effects reach the region, so
	// applied >= floor here guarantees the view read below observes
	// everything up to the floor (it may observe newer state; the bound is
	// one-sided).
	if c.standby.Load() && c.behindLease(req) {
		resp := fail(req, wire.ErrStale)
		c.noteFastLane(cn, req, resp, time.Now())
		return resp
	}
	t0 := time.Now()
	table, rec, field := int(req.Table), int(req.Record), int(req.Field)
	var resp wire.Response
	switch req.Op {
	case wire.OpReadRec:
		vals, err := c.view.ReadRec(table, rec)
		if err != nil {
			resp = fail(req, err)
		} else {
			resp = ok(vals...)
		}
	case wire.OpReadFld:
		v, err := c.view.ReadFld(table, rec, field)
		if err != nil {
			resp = fail(req, err)
		} else {
			resp = ok(v)
		}
	case wire.OpStatus:
		st, err := c.view.Status(table, rec)
		if err != nil {
			resp = fail(req, err)
		} else {
			resp = ok(uint32(st))
		}
	}
	resp.Seq = req.Seq
	c.noteFastLane(cn, req, resp, t0)
	return resp
}

// noteFastLane applies the same accounting a queued request gets from
// submit/execute — per-op counters, executed total, latency histogram —
// plus the sampled fast-read trace event.
func (c *core) noteFastLane(cn *conn, req wire.Request, resp wire.Response, t0 time.Time) {
	op := req.Op
	c.count(op, resp.Code)
	c.executed.Add(1)
	s := c.srv
	s.tel.latency[op].Observe(int64(time.Since(t0)))
	if c.fastSeq.Add(1)%fastTraceSample == 1 {
		s.srvRing.Emit(trace.Event{
			Kind: trace.KindFastRead, Trace: s.rec.NextTrace(),
			Op: op.String(), Code: int64(resp.Code),
			Arg: int64(time.Since(t0)), Aux: int64(cn.id),
		})
	}
}
