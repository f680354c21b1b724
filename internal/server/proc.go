package server

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/inject"
	"repro/internal/memdb"
	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// This file is the serving-plane face of the procedure subsystem: the PROC
// wire handlers, the control-flow finding that rides the audit escalation
// ladder, the logging of procedure effects, and the clock-driven text
// injector. Everything here runs holding the turn.

// procTelemetry is the procedure metric set: outcome counters, injection
// shots, a registered-count gauge, and one latency histogram per procedure
// (created lazily on first execution).
type procTelemetry struct {
	reg        *metrics.Registry
	execs      *metrics.Counter
	violations *metrics.Counter
	faults     *metrics.Counter
	reloads    *metrics.Counter
	shots      *metrics.Counter
	registered *metrics.Gauge
	latency    map[string]*metrics.Histogram
}

// newProcTelemetry follows the shard discipline of newTelemetry: counters
// and histograms on the plain registry, the Set-based gauge on the possibly
// shard-prefixed view.
func newProcTelemetry(reg, greg *metrics.Registry) *procTelemetry {
	return &procTelemetry{
		reg:        reg,
		execs:      reg.Counter("proc.execs"),
		violations: reg.Counter("proc.violations"),
		faults:     reg.Counter("proc.faults"),
		reloads:    reg.Counter("proc.reloads"),
		shots:      reg.Counter("proc.shots"),
		registered: greg.Gauge("proc.registered"),
		latency:    make(map[string]*metrics.Histogram),
	}
}

// histFor returns the per-procedure execution-latency histogram.
func (t *procTelemetry) histFor(name string) *metrics.Histogram {
	h, ok := t.latency[name]
	if !ok {
		h = t.reg.Histogram("proc.exec."+name, nil)
		t.latency[name] = h
	}
	return h
}

// handleProcExec runs a registered procedure for one PROC request. A PECOS
// violation here is the live-load detection the subsystem exists for: the
// abort surfaces to the client, the damage becomes a control-flow finding
// joined to this request's trace ID, and the registry reloads the pristine
// text so the next invocation runs clean.
func (c *core) handleProcExec(sess proc.Session, q wire.Request, tid uint64) wire.Response {
	p := c.procs.Get(q.Detail)
	if p == nil {
		return wire.ErrorResponse(q.Seq, fmt.Errorf("%s: %w", q.Detail, wire.ErrUnknownProc))
	}
	t0 := time.Now()
	res := c.procEng.Exec(p, sess, q.Vals, tid)
	c.procTel.execs.Inc()
	c.procTel.histFor(p.Name).ObserveSince(t0)
	seq, walErr := c.logApplied(res.Applied, tid)
	switch res.Status {
	case proc.StatusOK:
		if walErr != nil {
			// Not acknowledged, as a wire write; the region keeps the
			// procedure's writes.
			return wire.ErrorResponse(q.Seq, fmt.Errorf("%s: %v", p.Name, walErr))
		}
		resp := ok(res.Out...)
		resp.SetToken(seq)
		return resp
	case proc.StatusViolation:
		c.procTel.violations.Inc()
		c.noteProcDamage(p, tid,
			fmt.Sprintf("proc %s: assert pc=%d target=%d", p.Name, res.AssertPC, res.Target))
		return wire.ErrorResponse(q.Seq,
			fmt.Errorf("%s: %s: %w", p.Name, res.Reason, wire.ErrProcViolation))
	case proc.StatusCommitFail:
		// Lock contention with nothing applied (and clean text) is not a
		// fault: the table lock is advisory and non-blocking, so the
		// procedure answers the same retryable ErrLocked a direct write
		// against the table would.
		if len(res.Applied) == 0 && errors.Is(res.Err, memdb.ErrLocked) && !p.Damaged() {
			return wire.ErrorResponse(q.Seq, fmt.Errorf("%s: %w", p.Name, res.Err))
		}
		c.procTel.faults.Inc()
		if p.Damaged() {
			c.noteProcDamage(p, tid,
				fmt.Sprintf("proc %s: commit: %v (text damaged)", p.Name, res.Err))
		}
		return wire.ErrorResponse(q.Seq,
			fmt.Errorf("%s: commit: %v: %w", p.Name, res.Err, wire.ErrProcFault))
	default: // StatusFault
		c.procTel.faults.Inc()
		// A fault in a procedure whose live text differs from the pristine
		// image is detected text damage even when no PECOS assertion fired
		// (a flip can land on an opcode and trap before reaching a check):
		// it rides the same finding/reload ladder so the registry keeps
		// serving.
		if p.Damaged() {
			c.noteProcDamage(p, tid,
				fmt.Sprintf("proc %s: %s (text damaged)", p.Name, res.Reason))
		}
		return wire.ErrorResponse(q.Seq,
			fmt.Errorf("%s: %s: %w", p.Name, res.Reason, wire.ErrProcFault))
	}
}

// noteProcDamage turns detected procedure-text damage (a PECOS violation,
// or a fault/commit failure with the live text differing from pristine)
// into a control-flow finding on the audit escalation ladder and performs
// its recovery action: reload the procedure's live text from the pristine
// instrumented image. procTID is set around noteFinding so resolveShot
// joins the finding (and its recovery event) to the PROC request whose
// execution tripped the detection.
func (c *core) noteProcDamage(p *proc.Procedure, tid uint64, detail string) {
	f := audit.Finding{
		Class: audit.ClassControlFlow, Action: audit.ActionReloadText,
		Table: -1, Record: -1, Field: -1, Offset: -1,
		Detail: detail,
	}
	c.procTID = tid
	c.noteFinding(f)
	c.procTID = 0
	c.procs.Reload(p.Name)
	c.procTel.reloads.Inc()
	c.procRing.Emit(trace.Event{
		Kind: trace.KindProcLoad, Trace: tid, Op: "reload",
		Detail: p.Name, Code: int64(p.Version),
	})
}

// handleProcLoad registers (or replaces) a procedure from wire-supplied
// source: Detail is name + "\n" + source. Session-less, like the other
// control-plane ops.
func (c *core) handleProcLoad(_ *conn, q wire.Request, _ uint64) wire.Response {
	name, source, found := strings.Cut(q.Detail, "\n")
	if !found || source == "" {
		return wire.ErrorResponse(q.Seq,
			fmt.Errorf("%w: ProcLoad detail must be name + newline + source", wire.ErrBadFrame))
	}
	p, err := c.procs.Load(name, source)
	if err != nil {
		return fail(q, err)
	}
	c.procRing.Emit(trace.Event{
		Kind: trace.KindProcLoad, Op: "load",
		Detail: p.Name, Code: int64(p.Version), Arg: int64(p.Words()),
	})
	return ok(uint32(p.Words()), uint32(p.Blocks()), uint32(p.Version))
}

// handleProcList serves the registry inventory as a JSON document.
func (c *core) handleProcList(_ *conn, q wire.Request, _ uint64) wire.Response {
	data, err := proc.EncodeInfos(c.procs.Infos())
	if err != nil {
		return fail(q, err)
	}
	return wire.Response{Detail: string(data)}
}

// logApplied logs a procedure's applied mutations, in program order, on the
// core that owns each record, so procedure effects replicate and replay
// like any other write. The PROC request itself is not logged: replaying
// the program could diverge — only its applied effects are deterministic.
// It returns the highest sequence any core assigned — the reply's lease
// token, conservative across cores as the Server doc states — or the first
// append error. Runs under the procedure barrier, which makes the caller
// every log's only writer.
func (c *core) logApplied(applied []wal.Record, tid uint64) (uint64, error) {
	var top uint64
	for _, r := range applied {
		k, l, err := c.srv.place(int(r.Table), int(r.Rec))
		if err != nil {
			return 0, err // cannot happen: the session placed it
		}
		r.Rec = int32(l)
		seq, err := c.srv.cores[k].log(r, tid)
		if err != nil {
			return 0, err
		}
		top = max(top, seq)
	}
	return top, nil
}

// procInjectOnce is the procedure text injector (Config.ProcInjectPeriod):
// flip one bit in a random registered procedure's control words while real
// connections invoke it. Turn holder only (env ticker).
func (c *core) procInjectOnce() {
	if c.procFlip == nil || c.procs.Len() == 0 {
		return
	}
	names := c.procs.Names()
	name := names[c.procRNG.Intn(len(names))]
	p := c.procs.Get(name)
	addr, mask, flipped := c.procFlip.Flip(p.Text(), p.ControlWords())
	if !flipped {
		return
	}
	c.journalProcShot(p.Name, addr, mask)
}

// procInjectAt flips one bit of one registered procedure's live text — the
// deterministic variant for targeted tests. Turn holder only.
func (c *core) procInjectAt(name string, addr uint32, bit uint) bool {
	p := c.procs.Get(name)
	if p == nil {
		return false
	}
	flip := c.procFlip
	if flip == nil {
		flip = &inject.TextFlipper{}
	}
	mask, flipped := flip.FlipAt(p.Text(), addr, bit)
	if !flipped {
		return false
	}
	c.journalProcShot(name, addr, mask)
	return true
}

// journalProcShot records one text-segment shot on the inject ring. The
// shot deliberately does NOT enter the shot ledger: the ledger holds region
// byte offsets matched by Finding.Covers, and a VM text address would
// falsely join database findings.
func (c *core) journalProcShot(name string, addr, mask uint32) {
	c.procTel.shots.Inc()
	c.injRing.Emit(trace.Event{
		Kind: trace.KindShot, Trace: c.srv.rec.NextTrace(), Op: "textflip",
		Detail: name, Arg: int64(addr), Code: int64(mask),
	})
}

// spanSession is the proc.Session a procedure runs against: each call
// translates the global record index and runs on the owning core's session
// client. Only valid while the caller holds every core's turn (see
// Server.procExec).
type spanSession struct {
	s    *Server
	sess []*memdb.Client
}

// locate is the owning core's client and the local index of a global
// record, placed by the front end's striping decision (Server.place).
func (ss *spanSession) locate(table, rec int) (*memdb.Client, int, error) {
	k, l, err := ss.s.place(table, rec)
	if err != nil {
		return nil, 0, err
	}
	return ss.sess[k], l, nil
}

// global restates a not-active error with the record's global index; the
// owning core's client names its own, local one.
func global(err error, table, rec int) error {
	if errors.Is(err, memdb.ErrNotActive) {
		return fmt.Errorf("table %d record %d: %w", table, rec, memdb.ErrNotActive)
	}
	return err
}

func (ss *spanSession) ReadFld(table, rec, field int) (uint32, error) {
	cl, l, err := ss.locate(table, rec)
	if err != nil {
		return 0, err
	}
	return cl.ReadFld(table, l, field)
}

func (ss *spanSession) WriteFld(table, rec, field int, val uint32) error {
	cl, l, err := ss.locate(table, rec)
	if err != nil {
		return err
	}
	return global(cl.WriteFld(table, l, field, val), table, rec)
}

func (ss *spanSession) Free(table, rec int) error {
	cl, l, err := ss.locate(table, rec)
	if err != nil {
		return err
	}
	return cl.Free(table, l)
}

func (ss *spanSession) Move(table, rec, group int) error {
	cl, l, err := ss.locate(table, rec)
	if err != nil {
		return err
	}
	return global(cl.Move(table, l, group), table, rec)
}

// Alloc follows the front end's DBalloc routing (Server.allocRotate).
func (ss *spanSession) Alloc(table, group int) (int, error) {
	var ri int
	var err error
	if bad := ss.s.allocRotate(table, func(k int) bool {
		var l int
		l, err = ss.sess[k].Alloc(table, group)
		ri = memdb.GlobalIndex(l, k, len(ss.sess))
		return errors.Is(err, memdb.ErrNoFreeRecord)
	}); bad != nil {
		return 0, bad
	}
	if err != nil {
		return 0, err
	}
	return ri, nil
}
