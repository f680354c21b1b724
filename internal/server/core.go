package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/health"
	"repro/internal/inject"
	"repro/internal/ipc"
	"repro/internal/manager"
	"repro/internal/memdb"
	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// core is one region and everything that may touch it: the region's turn
// token with its bounded admission, the audit process and manager on the
// core's discrete-event clock, the fault injectors, the procedure registry,
// the operation log with its shipper or applier, and the fast-lane read
// view. It owns no socket; the Server front end decides which core a
// request reaches and hands it over through submit, fastLane, or
// onExecutor.
//
// memdb.DB has one writer at a time, so only the goroutine holding the
// turn touches db (apart from fast-lane reads through its View), the audit
// process, and the manager. A connection goroutine takes the turn and runs
// its own request; the core's clock goroutine takes it each ClockTick for
// the audits. A request that finds more than QueueDepth others waiting is
// shed at once with CodeOverload (backpressure, never unbounded waiting),
// with drop accounting in internal/ipc's DropStats shape. Audits sweep the
// live region between requests, never during one.
type core struct {
	srv *Server
	// id is the core's position in srv.cores: the region's shard id on the
	// wire and in "shard.<id>." gauge names.
	id int

	db    *memdb.DB
	env   *sim.Env
	audit *ipc.Queue
	mgr   *manager.Manager

	// checks are the audit techniques run by both the periodic element
	// and forced sweeps; turn holder only after construction. The concrete
	// checker pointers are retained so promotion can flip them out of
	// shadow mode.
	checks    []audit.FullChecker
	staticChk *audit.StaticCheck
	structChk *audit.StructuralCheck
	rangeChk  *audit.RangeCheck

	// Durability & failover. walLog is the turn holder's except for its
	// thread-safe tail ring, which shipper serves replication from without
	// the turn. standby flips exactly once, at promotion. walErr is the
	// first durability failure; turn holder only until done closes.
	walLog     *wal.Log
	walErr     error
	shipper    *replica.Shipper
	applier    *replica.Applier
	standby    atomic.Bool
	replTicker *sim.Ticker
	replRing   *trace.Ring // repl.*/wal.* events (nil without a log or a primary)

	// gauges mirrors single-writer counters into the registry; greg is the
	// view uniquely-named gauges bind into: the plain registry with one
	// core, "shard.<id>." with several.
	gauges   *coreGauges
	auditTel *audit.Telemetry
	procTel  *procTelemetry
	greg     *metrics.Registry

	// hbMisses is the manager's cumulative heartbeat-miss count for the
	// health plane's rate objective, and onRefresh the front end's ride on
	// this core's metrics refresh (set on core 0 only).
	hbMisses  atomic.Uint64
	onRefresh func()

	// view is the fast-lane read view; fastSeq drives the 1-in-N trace
	// sampling.
	view    *memdb.View
	fastSeq atomic.Uint64

	// Rings on the shared flight recorder.
	injRing     *trace.Ring
	procRing    *trace.Ring
	auditTracer *audit.Tracer

	// Fault injector state; turn holder only. The tickers are retained so
	// OpInjectCtl can re-arm the injectors at runtime; injTarget is the
	// targeting policy of the current mode, and staticWalk keeps its cursor
	// across re-arms. The shots themselves go to the health plane's ledger.
	injRNG        *sim.RNG
	injTicker     *sim.Ticker
	procInjTicker *sim.Ticker
	injTarget     faultTarget
	staticWalk    *inject.StaticWalk

	// Procedure subsystem (turn holder only). PROC_EXEC runs on core 0,
	// so only its registry is ever executed from. procTID carries the
	// current PROC request's trace ID across noteFinding so resolveShot can
	// join a control-flow finding to the request that detected it.
	procs    *proc.Registry
	procEng  *proc.Engine
	procFlip *inject.TextFlipper
	procRNG  *sim.RNG
	procTID  uint64

	// auditBuilder is the manager's audit-process factory; it retains the
	// elements of the process it built last, whose counters
	// refreshExecutorMetrics publishes.
	auditBuilder *audit.Builder

	// turn is the single-writer token, a channel of capacity 1: a goroutine
	// takes the turn by sending and gives it back by receiving, and blocked
	// takers queue in arrival order. waiting counts submitters blocked on
	// it, the admission bound QueueDepth applies to.
	turn     chan struct{}
	waiting  atomic.Int64
	stopping chan struct{} // closed: the clock goroutine takes the turn for good
	done     chan struct{} // closed: the core has stopped; the turn is never given back

	// Written by turn holders or connection goroutines, read by Stats().
	perOpOK  [wire.NumOps]atomic.Uint64
	perOpErr [wire.NumOps]atomic.Uint64
	executed atomic.Uint64
	findings atomic.Uint64
	restarts atomic.Int64

	// Admission drop accounting (ipc.DropStats semantics): written by
	// connection goroutines under dropMu.
	dropMu    sync.Mutex
	dropped   uint64
	curBurst  uint64
	maxBurst  uint64
	highWater int
}

// execFn is the work a request does while holding the turn.
type execFn func(c *core, cn *conn, q wire.Request, tid uint64) wire.Response

// faultTarget is the data injector's targeting policy: inject.Uniform in
// random mode, the core's *inject.StaticWalk in static mode.
type faultTarget interface {
	Next(rng *sim.RNG) (off int, bit uint, ok bool)
}

// coreGauges are the turn-refreshed gauges mirroring single-writer
// counters that live in the manager and the audit-process elements.
type coreGauges struct {
	mgrProbes, mgrReplies, mgrAlive      *metrics.Gauge
	hbReplies, progRecoveries, perSweeps *metrics.Gauge
}

// newCore builds core id of srv over db and its optional log, and returns
// holding its turn: the front end starts every core's clock once its own
// wiring (the health plane in particular) is complete, and the clock gives
// the turn back only once the audit stack is up.
func newCore(srv *Server, id int, db *memdb.DB, walLog *wal.Log, debt *health.DebtMeter) (*core, error) {
	cfg := &srv.cfg
	c := &core{
		srv: srv, id: id, db: db, walLog: walLog,
		// Distinct clock and injector streams per core; identical seeds
		// would corrupt the same stripe offsets in lockstep. Core k's
		// environment is seeded with k.
		env:      sim.NewEnv(int64(id)),
		turn:     make(chan struct{}, 1),
		stopping: make(chan struct{}),
		done:     make(chan struct{}),
	}
	c.turn <- struct{}{}
	db.SetClock(c.env.Now)
	if cfg.Guard {
		db.EnableConcurrencyCheck(nil)
	}
	c.view = db.ReadView()
	// With several cores, uniquely-named gauges live under the core's own
	// prefix so they cannot clobber a sibling's; counters and histograms keep
	// plain names and merge into registry-wide aggregates.
	reg := srv.reg
	c.greg = reg
	if len(srv.cores) > 1 {
		c.greg = reg.WithPrefix(fmt.Sprintf("shard.%d.", id))
	}
	c.auditTel = audit.NewTelemetry(reg)
	c.procTel = newProcTelemetry(reg, c.greg)
	c.gauges = &coreGauges{
		mgrProbes:      c.greg.Gauge("manager.probes"),
		mgrReplies:     c.greg.Gauge("manager.replies"),
		mgrAlive:       c.greg.Gauge("manager.alive"),
		hbReplies:      c.greg.Gauge("audit.heartbeat.replies"),
		progRecoveries: c.greg.Gauge("audit.progress.recoveries"),
		perSweeps:      c.greg.Gauge("audit.triggers.periodic"),
	}
	c.auditTracer = audit.NewTracer(srv.rec)
	c.auditTracer.Resolve = c.resolveShot
	// Shadow-audit attribution: a finding journaled on a standby is
	// DetectOnly evidence from the replica's copy, not the primary's — the
	// role tag keeps a read-serving standby's findings from being misread as
	// primary corruption in merged journals.
	c.auditTracer.Role = func() string { return roleTag(c.standby.Load(), cfg.ServeReads) }
	// The inject ring exists from the start — OpInjectCtl can arm the
	// injectors at runtime long after construction.
	c.injRing = srv.rec.Ring("inject", trace.DefaultRingSize)
	c.staticWalk = inject.NewStaticWalk(db)
	c.procRing = srv.rec.Ring("proc", trace.DefaultRingSize)

	// Procedure subsystem: registry preloaded with the built-in library so
	// PROC traffic works against a fresh server, engine wired to the proc
	// ring so violation events join request trace IDs.
	c.procs = proc.NewRegistry()
	for _, b := range proc.Library() {
		if _, err := c.procs.Load(b.Name, b.Source); err != nil {
			return nil, fmt.Errorf("server: builtin procedure %s: %w", b.Name, err)
		}
	}
	c.procEng = proc.NewEngine()
	c.procEng.Ring = c.procRing

	// Durability & failover wiring. The shipper exists whenever there is a
	// log — a promoted standby ships to the next standby with no rebuild.
	c.standby.Store(cfg.Standby)
	if walLog != nil {
		c.shipper = replica.NewShipper(walLog)
	}
	if cfg.Standby {
		startSeq := uint64(0)
		if walLog != nil {
			startSeq = walLog.LastSeq()
		}
		c.applier = replica.NewApplier(db, walLog, startSeq, replica.ApplierConfig{
			Primary:   cfg.PrimaryAddr,
			Shard:     id,
			Advertise: cfg.AdvertiseAddr,
			Timeout:   cfg.ReplTimeout,
			FailLimit: cfg.ReplFailLimit,
		})
	}
	if walLog != nil || cfg.Standby {
		c.replRing = srv.rec.Ring("repl", trace.DefaultRingSize)
		if c.shipper != nil {
			c.shipper.SetRing(c.replRing)
		}
		if c.applier != nil {
			c.applier.SetRing(c.replRing)
		}
	}

	rec := audit.Recovery{OnFinding: c.noteFinding}
	c.staticChk = audit.NewStaticCheck(db, rec)
	c.structChk = audit.NewStructuralCheck(db, rec)
	c.rangeChk = audit.NewRangeCheck(db, rec)
	// Shadow mode: a standby's audits diagnose and journal, but recovery
	// stays with the primary until promotion.
	c.setDetectOnly(cfg.Standby)
	if walLog != nil {
		// Log-sourced repair: the static image cannot restore dynamic
		// data, but the log holds each field's newest acknowledged value.
		// A standby's log is the primary's stream, so a promoted standby
		// repairs from it the same way.
		c.rangeChk.Restore = walLog.LastField
	}
	c.checks = []audit.FullChecker{c.staticChk, c.structChk, c.rangeChk}
	for i, ch := range c.checks {
		// The first check counts completed sweeps: every full pass
		// (periodic or forced) runs each check exactly once.
		c.checks[i] = audit.Instrument(ch, c.auditTel, c.auditTracer, i == 0)
	}

	if cfg.AuditPeriod > 0 {
		q, err := ipc.NewQueue(auditQueueDepth)
		if err != nil {
			return nil, fmt.Errorf("server: audit queue: %w", err)
		}
		c.audit = q
		db.EnableAudit(q)
		// debt, the audit-debt meter shared by every core and read by the
		// front end's health plane, is non-nil whenever audits run.
		c.auditBuilder = &audit.Builder{Env: c.env, DB: db, Period: cfg.AuditPeriod, Debt: debt, Recovery: rec}
		for _, ch := range c.checks {
			c.auditBuilder.Checks = append(c.auditBuilder.Checks, ch)
		}
		c.mgr = manager.New(c.env, q, c.auditBuilder.Build,
			manager.WithOnRestart(func(n int) {
				c.restarts.Store(int64(n))
				c.auditTracer.Ring().Emit(trace.Event{Kind: trace.KindRestart, Aux: int64(n)})
			}),
			manager.WithOnMiss(func(n int) {
				c.hbMisses.Store(uint64(n))
				c.auditTracer.Ring().Emit(trace.Event{Kind: trace.KindHeartbeatMiss, Aux: int64(n)})
			}))
	}
	c.registerMetrics()
	return c, nil
}

// setDetectOnly flips the three checkers in or out of shadow mode.
func (c *core) setDetectOnly(on bool) {
	c.staticChk.DetectOnly = on
	c.structChk.DetectOnly = on
	c.rangeChk.DetectOnly = on
}

// noteFinding observes every audit finding: the aggregate counter, the
// per-class/per-action telemetry, and the journal (where the finding is
// joined to the injected shot that caused it, when one covers it).
func (c *core) noteFinding(f audit.Finding) {
	c.findings.Add(1)
	c.auditTel.Note(f)
	c.auditTracer.Note(f)
}

// resolveShot joins an audit finding back to the newest injected shot in
// this core's ledger window whose offset it covers, catching that shot on
// its first finding. Turn holder only.
func (c *core) resolveShot(f audit.Finding) uint64 {
	if f.Class == audit.ClassControlFlow {
		// Control-flow findings carry no region offset: they join the
		// PROC request whose execution tripped the assertion.
		return c.procTID
	}
	return c.srv.health.Detect().Resolve(c.id, f.Covers, c.srv.rec.Now())
}

// registerMetrics wires the gauge functions that read the core's own
// lock-protected or atomic state, binds the memdb activity gauges, and
// exports the audit notification queue, all through c.greg.
func (c *core) registerMetrics() {
	reg := c.greg
	reg.GaugeFunc("server.queue.depth", func() int64 { return c.waiting.Load() })
	reg.GaugeFunc("server.queue.capacity", func() int64 { return int64(c.srv.cfg.QueueDepth) })
	reg.GaugeFunc("server.queue.dropped", func() int64 { return int64(c.reqDrops().Dropped) })
	reg.GaugeFunc("server.queue.drop_burst", func() int64 { return int64(c.reqDrops().Burst) })
	reg.GaugeFunc("server.queue.high_water", func() int64 { return int64(c.reqDrops().HighWater) })
	reg.GaugeFunc("server.executed", func() int64 { return int64(c.executed.Load()) })
	reg.GaugeFunc("server.audit.restarts", func() int64 { return c.restarts.Load() })
	reg.GaugeFunc("server.audit.findings", func() int64 { return int64(c.findings.Load()) })
	if c.audit != nil {
		c.audit.RegisterMetrics(reg, "audit.queue")
	}
	reg.GaugeFunc("repl.role", func() int64 { return int64(role(c.standby.Load())) })
	reg.GaugeFunc("repl.serve_reads", func() int64 {
		return b2i(!c.standby.Load() || c.srv.cfg.ServeReads)
	})
	if c.walLog != nil {
		c.walLog.BindMetrics(reg)
	}
	if c.shipper != nil {
		c.shipper.BindMetrics(reg)
	}
	if c.applier != nil {
		c.applier.BindMetrics(reg)
	}
	// Fastlane counters are plain: every core's view merges into one tally.
	c.view.BindMetrics(c.srv.reg)
	c.db.BindMetrics(reg)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// refreshExecutorMetrics publishes every single-writer counter — memdb
// table activity, manager probe accounting, audit element progress — into
// the registry's atomic gauges. Turn holder only; called on each clock
// tick, before STATS2 snapshots, and at drain.
func (c *core) refreshExecutorMetrics() {
	g := c.gauges
	c.db.RefreshMetrics()
	if c.mgr != nil {
		g.mgrProbes.Set(int64(c.mgr.Probes()))
		g.mgrReplies.Set(int64(c.mgr.Replies()))
		p := c.mgr.Process()
		g.mgrAlive.Set(b2i(p != nil && p.Alive()))
	}
	if b := c.auditBuilder; b != nil && b.Periodic != nil {
		g.hbReplies.Set(int64(b.Heartbeat.Replies()))
		g.progRecoveries.Set(int64(b.Progress.Recoveries()))
		g.perSweeps.Set(int64(b.Periodic.Sweeps()))
	}
	c.procTel.registered.Set(int64(c.procs.Len()))
	if c.onRefresh != nil {
		c.onRefresh()
	}
}

// take blocks until the caller holds the turn, behind every earlier taker,
// and reports false once the core has stopped: the stopping clock keeps
// the turn for good, so a later taker can only see done.
func (c *core) take() bool {
	select {
	case c.turn <- struct{}{}:
		return true
	case <-c.done:
		return false
	}
}

// give hands the turn to the next taker.
func (c *core) give() { <-c.turn }

// onExecutor runs f holding the turn and returns once it has run, or
// returns false without running it when the core has stopped. Safe from
// any goroutine that holds no turn; it is never shed and never times out.
func (c *core) onExecutor(f func()) bool {
	if !c.take() {
		return false
	}
	f()
	c.give()
	return true
}

// --- Clock ----------------------------------------------------------------

// clock is the core's one goroutine. Holding the turn newCore took, it
// starts the audit stack, the injectors and the replication poll, then
// gives the turn back; from then on it takes the turn once per ClockTick
// to advance the audit clock, so sweeps and heartbeats run in the gaps
// between requests. At stop it takes the turn for good.
func (c *core) clock() {
	cfg := &c.srv.cfg
	if c.mgr != nil {
		if err := c.mgr.Start(); err != nil {
			// Audits are wired in but cannot start; serve unaudited
			// rather than not at all. The condition is visible via
			// Stats (zero sweeps, zero restarts).
			c.mgr = nil
		}
	}
	if cfg.InjectPeriod > 0 || cfg.ProcInjectPeriod > 0 {
		// The injectors ride the core's clock: flips land between
		// requests (and between procedure executions), never during one.
		c.setInjectPeriods(cfg.InjectPeriod, cfg.ProcInjectPeriod, wire.InjectModeRandom)
	}
	if c.applier != nil {
		// Replication rides the clock too: the applier is the standby
		// region's single writer, interleaved with audits.
		if tk, err := c.env.NewTicker(cfg.ReplPoll, c.replStep); err == nil {
			c.replTicker = tk
		}
	}
	c.give()
	tick := time.NewTicker(cfg.ClockTick)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.turn <- struct{}{}
			c.advanceClock()
			c.give()
		case <-c.stopping:
			c.turn <- struct{}{}
			c.drainAndStop()
			close(c.done)
			return
		}
	}
}

// advanceClock runs the discrete-event environment up to the wall-clock
// elapsed time, firing due audit sweeps, heartbeats, and timeouts.
func (c *core) advanceClock() {
	target := time.Since(c.srv.start)
	if d := target - c.env.Now(); d > 0 {
		_ = c.env.Run(d)
	}
	c.syncWAL()
	c.refreshExecutorMetrics()
}

// drainAndStop runs one final certifying sweep and stops the audit stack.
// The clock calls it holding the turn for good, so every taker queued
// before it has already run, and none runs after it.
func (c *core) drainAndStop() {
	// The WAL tail must be durable BEFORE the certifying sweep: the sweep
	// may repair the region, and a crash after repairs but before fsync
	// would otherwise lose acknowledged writes that the repairs were
	// validated against.
	if c.walLog != nil {
		c.walFault("sync-error", c.walLog.Sync())
	}
	c.runSweep()
	if c.mgr != nil {
		c.mgr.Stop()
	}
	if c.audit != nil {
		c.db.DisableAudit()
	}
	if c.applier != nil {
		c.applier.Close()
	}
	if c.walLog != nil {
		// The final checkpoint captures the swept, certified region, so
		// the next start replays nothing.
		c.checkpointNow()
		c.walFault("close-error", c.walLog.Close())
	}
	c.refreshExecutorMetrics()
}

// setInjectPeriods stops the running injector tickers and re-arms them
// with the given periods (zero or negative leaves the respective injector
// off) and targeting mode. Called by the turn holder only: at startup
// for the Config.InjectPeriod/ProcInjectPeriod knobs, and from OpInjectCtl
// when a scenario timeline ramps a fault storm. Every core arms its data
// injector, so the aggregate shot rate scales with the core count; the text
// injector arms on core 0 only — a text shot into a registry nothing
// executes from could never be detected and would sit as false open debt.
func (c *core) setInjectPeriods(data, text time.Duration, mode int) {
	cfg := &c.srv.cfg
	c.injTarget = inject.Uniform(c.db.Size())
	if mode == wire.InjectModeStatic {
		c.injTarget = c.staticWalk
	}
	if c.injTicker != nil {
		c.injTicker.Stop()
		c.injTicker = nil
	}
	if data > 0 {
		if c.injRNG == nil {
			c.injRNG = sim.NewRNG(cfg.InjectSeed + int64(c.id))
		}
		if tk, err := c.env.NewTicker(data, c.injectOnce); err == nil {
			c.injTicker = tk
		}
	}
	if c.procInjTicker != nil {
		c.procInjTicker.Stop()
		c.procInjTicker = nil
	}
	if text > 0 && c.id == 0 {
		if c.procFlip == nil {
			c.procRNG = sim.NewRNG(cfg.ProcInjectSeed)
			c.procFlip = inject.NewTextFlipper(c.procRNG)
		}
		if tk, err := c.env.NewTicker(text, c.procInjectOnce); err == nil {
			c.procInjTicker = tk
		}
	}
}

// injectOnce is the data fault injector: flip one bit where the current
// targeting policy draws it and journal the shot, so the next audit pass
// demonstrably detects and recovers a known corruption. Turn holder only
// (env ticker).
func (c *core) injectOnce() {
	if off, bit, ok := c.injTarget.Next(c.injRNG); ok {
		c.injectAt(off, bit)
	}
}

// injectAt flips one bit at a region offset, records the shot in the
// ledger and journals it, returning the shot's correlation ID (0 when the
// flip failed). Turn holder only; tests use it for targeted shots.
func (c *core) injectAt(off int, bit uint) uint64 {
	if err := c.db.FlipBit(off, bit); err != nil {
		return 0
	}
	id := c.srv.rec.NextTrace()
	c.srv.health.Detect().Shot(c.id, id, off, c.srv.rec.Now())
	c.injRing.Emit(trace.Event{
		Kind: trace.KindShot, Trace: id, Op: "dbflip",
		Arg: int64(off), Code: int64(bit),
	})
	return id
}

// runSweep executes every audit technique over the whole region and
// returns the number of findings. Turn holder only.
func (c *core) runSweep() int {
	c.srv.tel.forcedSweeps.Inc()
	n := 0
	for _, ch := range c.checks {
		n += len(ch.CheckAll())
	}
	return n
}

// execute runs do for one request and finishes its response. Turn holder
// only.
func (c *core) execute(cn *conn, q wire.Request, do execFn, tid uint64, t0 time.Time) wire.Response {
	if tid != 0 {
		c.srv.srvRing.Emit(trace.Event{Kind: trace.KindReqExecute, Trace: tid, Op: q.Op.String()})
	}
	// Stage decomposition: everything before this instant was the wait for
	// the turn, do is the execute stage (reply_write is observed in
	// connWriter).
	tel, staged := c.srv.tel, !t0.IsZero()
	var e0 time.Time
	if staged {
		e0 = time.Now()
		tel.stageQueueWait.Observe(int64(e0.Sub(t0)))
	}
	resp := do(c, cn, q, tid)
	if staged {
		tel.stageExecute.Observe(int64(time.Since(e0)))
	}
	resp.Seq = q.Seq
	c.count(q.Op, resp.Code)
	c.executed.Add(1)
	return resp
}

// count books one answered request in the per-op counters.
func (c *core) count(op wire.Op, code wire.Code) {
	if !op.Valid() {
		return
	}
	if code == wire.CodeOK {
		c.perOpOK[int(op)].Add(1)
	} else {
		c.perOpErr[int(op)].Add(1)
	}
}

// ok builds a success response carrying vals.
func ok(vals ...uint32) wire.Response { return wire.Response{Vals: vals} }

// fail builds the error response for q.
func fail(q wire.Request, err error) wire.Response { return wire.ErrorResponse(q.Seq, err) }

// record executes one record-addressing Table 1 write (or DBalloc) against
// the connection's session on this core — q.Record is already core-local —
// and logs it. The reply carries the write's log sequence as its lease
// token; a write the log refused answers the append error instead.
func (c *core) record(cn *conn, q wire.Request, tid uint64) wire.Response {
	if c.standby.Load() {
		// Reads never take the turn (the fast lane answers them), so a
		// record call on a standby core is a write that raced this core's
		// promotion.
		return fail(q, wire.ErrStandby)
	}
	sess := cn.on[c.id].sess.Load()
	if sess == nil {
		return fail(q, wire.ErrNoSession)
	}
	table, rec, field := int(q.Table), int(q.Record), int(q.Field)
	lr := wal.Record{Table: q.Table, Rec: q.Record}
	var vals []uint32
	var err error
	switch q.Op {
	case wire.OpWriteRec:
		err = sess.WriteRec(table, rec, q.Vals)
		lr.Op, lr.Vals = wal.OpWriteRec, q.Vals
	case wire.OpWriteFld:
		if len(q.Vals) != 1 {
			return fail(q, fmt.Errorf("%w: DBwrite_fld carries %d values", wire.ErrBadFrame, len(q.Vals)))
		}
		err = sess.WriteFld(table, rec, field, q.Vals[0])
		lr.Op, lr.Field, lr.Vals = wal.OpWriteFld, q.Field, q.Vals
	case wire.OpMove:
		err = sess.Move(table, rec, int(q.Aux))
		lr.Op, lr.Aux = wal.OpMove, q.Aux
	case wire.OpAlloc:
		var ri int
		ri, err = sess.Alloc(table, int(q.Aux))
		vals = []uint32{uint32(ri)}
		// The log keeps the index the region chose, so replay is
		// deterministic.
		lr.Op, lr.Rec, lr.Aux = wal.OpAlloc, int32(ri), q.Aux
	case wire.OpFree:
		err = sess.Free(table, rec)
		lr.Op = wal.OpFree
	default:
		err = wire.ErrUnknownOp
	}
	if err != nil {
		return fail(q, err)
	}
	seq, err := c.log(lr, tid)
	if err != nil {
		return fail(q, err)
	}
	resp := ok(vals...)
	resp.SetToken(seq)
	return resp
}

// session executes this core's leg of a session call: DBinit, DBclose,
// DBbegin, DBcommit. A successful DBbegin answers [1] when the lock was
// newly taken here, [0] when the session already held it, so the front end
// knows what to undo if a later core refuses.
func (c *core) session(cn *conn, q wire.Request, _ uint64) wire.Response {
	if c.standby.Load() {
		return fail(q, wire.ErrStandby)
	}
	slot := &cn.on[c.id].sess
	sess := slot.Load()
	if q.Op == wire.OpInit {
		if sess != nil {
			return fail(q, wire.ErrSessionExists)
		}
		cl, err := c.db.Connect()
		if err != nil {
			return fail(q, err)
		}
		slot.Store(cl)
		return ok(uint32(cl.PID()))
	}
	if sess == nil {
		return fail(q, wire.ErrNoSession)
	}
	var err error
	switch q.Op {
	case wire.OpClose:
		err = sess.Close()
		slot.Store(nil)
	case wire.OpBegin:
		held := sess.InTxn(int(q.Table))
		if err = sess.Begin(int(q.Table)); err == nil {
			return ok(uint32(b2i(!held)))
		}
	case wire.OpCommit:
		err = sess.Commit()
	}
	if err != nil {
		return fail(q, err)
	}
	return ok()
}

// closeSession retires the connection's session here, releasing its locks.
// Turn holder only.
func (c *core) closeSession(cn *conn) {
	slot := &cn.on[c.id].sess
	if sess := slot.Load(); sess != nil {
		_ = sess.Close() // the session is gone either way
		slot.Store(nil)
	}
}

// unlock drops the session's transaction lock on table and nothing else.
// Commit releases every lock, so the others are taken again; they cannot be
// lost in between, because nothing else runs on the region meanwhile. Turn
// holder only.
func (c *core) unlock(cn *conn, table int) {
	sess := cn.on[c.id].sess.Load()
	if sess == nil {
		return
	}
	var keep []int
	for ti := range c.db.Schema().Tables {
		if ti != table && sess.InTxn(ti) {
			keep = append(keep, ti)
		}
	}
	_ = sess.Commit()
	for _, ti := range keep {
		_ = sess.Begin(ti)
	}
}

// sweep, refresh and promoteLeg are this core's legs of SWEEP, STATS2 and
// REPL_PROMOTE.
func (c *core) sweep(*conn, wire.Request, uint64) wire.Response {
	return ok(uint32(c.runSweep()))
}

func (c *core) refresh(*conn, wire.Request, uint64) wire.Response {
	c.refreshExecutorMetrics()
	return ok()
}

func (c *core) promoteLeg(_ *conn, q wire.Request, _ uint64) wire.Response {
	if !c.standby.Load() {
		return fail(q, wire.ErrNotStandby)
	}
	c.promote(operatorPromotion)
	return ok()
}

// handleInjectCtl decodes one OpInjectCtl request and retimes the
// injectors. Runs holding the turn, so the ticker swap cannot race a flip
// in progress.
func (c *core) handleInjectCtl(_ *conn, q wire.Request, _ uint64) wire.Response {
	if len(q.Vals) < 4 {
		return fail(q, fmt.Errorf("%w: InjectCtl carries %d values, want 4", wire.ErrBadFrame, len(q.Vals)))
	}
	data := time.Duration(wire.JoinU64(q.Vals[0], q.Vals[1]))
	text := time.Duration(wire.JoinU64(q.Vals[2], q.Vals[3]))
	if data < 0 || text < 0 {
		return fail(q, fmt.Errorf("%w: InjectCtl period must be >= 0", wire.ErrBadFrame))
	}
	mode := int(q.Aux)
	if mode != wire.InjectModeRandom && mode != wire.InjectModeStatic {
		return fail(q, fmt.Errorf("%w: InjectCtl mode %d", wire.ErrBadFrame, mode))
	}
	c.setInjectPeriods(data, text, mode)
	return ok()
}

// --- Admission ---------------------------------------------------------------

// submit runs do for req on the calling connection goroutine while holding
// the turn. A free turn is taken at once; otherwise the request waits
// behind the other waiters. It is shed when more than QueueDepth already
// wait, answers CodeTimeout after ReplyTimeout, and CodeShutdown when the
// core stops first — in all three cases without ever running. Once it
// holds the turn it runs to completion.
func (c *core) submit(cn *conn, req wire.Request, do execFn) wire.Response {
	s := c.srv
	select {
	case <-s.quit:
		return fail(req, wire.ErrShutdown)
	default:
	}
	// Latency is measured from enqueue to reply: turn wait plus execution.
	// Shed and timed-out requests are not observed — they would fold two
	// failure modes into the service-time distribution. An invalid op is
	// neither timed nor traced.
	valid := req.Op.Valid()
	var tid uint64
	var t0 time.Time
	if valid {
		t0 = time.Now()
		tid = s.rec.NextTrace()
		s.srvRing.Emit(trace.Event{
			Kind: trace.KindReqEnqueue, Trace: tid,
			Op: req.Op.String(), Aux: int64(cn.id),
		})
	}
	select {
	case c.turn <- struct{}{}:
		c.noteAdmit(0)
	default:
		if err := c.await(cn); err != nil {
			if err == wire.ErrOverload && valid {
				s.srvRing.Emit(trace.Event{
					Kind: trace.KindReqDrop, Trace: tid,
					Op: req.Op.String(), Aux: int64(cn.id),
				})
			}
			return fail(req, err)
		}
	}
	resp := c.execute(cn, req, do, tid, t0)
	c.give()
	if valid {
		d := int64(time.Since(t0))
		s.tel.latency[req.Op].Observe(d)
		s.srvRing.Emit(trace.Event{
			Kind: trace.KindReqReply, Trace: tid, Op: req.Op.String(),
			Code: int64(resp.Code), Arg: d, Aux: int64(cn.id),
		})
	}
	return resp
}

// await admits the caller as a waiter and blocks for the turn. A nil error
// means the caller holds the turn; otherwise it was shed (ErrOverload),
// timed out (ErrTimeout) or the core stopped (ErrShutdown), and holds
// nothing.
func (c *core) await(cn *conn) error {
	n := c.waiting.Add(1)
	defer c.waiting.Add(-1)
	if n > int64(c.srv.cfg.QueueDepth) {
		// Shed immediately rather than wait unboundedly — the same
		// discipline as the audit notification queue.
		c.noteDrop()
		return wire.ErrOverload
	}
	c.noteAdmit(int(n))
	// One timer per connection instead of a time.After allocation per wait;
	// stop-and-drain before Reset per pre-1.23 timer semantics.
	timeout := c.srv.cfg.ReplyTimeout
	if cn.rtimer == nil {
		cn.rtimer = time.NewTimer(timeout)
	} else {
		if !cn.rtimer.Stop() {
			select {
			case <-cn.rtimer.C:
			default:
			}
		}
		cn.rtimer.Reset(timeout)
	}
	select {
	case c.turn <- struct{}{}:
		return nil
	case <-cn.rtimer.C:
		return wire.ErrTimeout
	case <-c.done:
		return wire.ErrShutdown
	}
}

func (c *core) noteAdmit(depth int) {
	c.dropMu.Lock()
	c.curBurst = 0
	if depth > c.highWater {
		c.highWater = depth
	}
	c.dropMu.Unlock()
}

func (c *core) noteDrop() {
	c.dropMu.Lock()
	c.dropped++
	c.curBurst++
	if c.curBurst > c.maxBurst {
		c.maxBurst = c.curBurst
	}
	c.dropMu.Unlock()
}

// reqDrops snapshots the admission drop accounting.
func (c *core) reqDrops() ipc.DropStats {
	c.dropMu.Lock()
	defer c.dropMu.Unlock()
	return ipc.DropStats{Dropped: c.dropped, Burst: c.maxBurst, HighWater: c.highWater}
}
