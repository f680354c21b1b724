// Package server is the network serving subsystem: a concurrent TCP
// front-end over the audited in-memory controller database. It is the
// paper's API boundary (Table 1) lifted out of the discrete-event
// simulator and exposed to real clients over the wire protocol of
// internal/wire.
//
// # Architecture
//
// The package has two halves. A core (core.go) is one database region and
// its turn: memdb.DB is documented as not safe for concurrent use — the
// controller's database is one shared memory region with audits running
// live against it — so only the goroutine holding the region's turn token
// touches it. A connection goroutine takes the turn and makes its Table 1
// call itself, as the paper's call-processing thread does; the core's clock
// goroutine takes it each tick to run the audit process and the manager
// heartbeat on the discrete-event clock exactly as in the simulator.
// The Server (this file) is the front end over N >= 1 cores: listener,
// connections, sessions, routing, the control plane, and shutdown. New
// serves one region; NewSharded stripes the database over several, and is
// the same code with a longer core list.
//
// Shutdown is drain-then-stop: the listener closes, connection goroutines
// finish their in-flight request, every waiter for a turn runs, a final
// audit sweep certifies each region, and the stopped core keeps its turn.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/health"
	"repro/internal/ipc"
	"repro/internal/memdb"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Config tunes the serving subsystem. The zero value is usable: every
// field has a default applied by New.
type Config struct {
	// QueueDepth bounds how many requests may wait for one core's turn;
	// one more is shed with CodeOverload. Default 256.
	QueueDepth int
	// AuditPeriod is the periodic full-sweep interval on the core's
	// clock. Default 1s. Negative disables the audit process and manager
	// entirely (the "without audit" configuration).
	AuditPeriod time.Duration
	// ReplyTimeout bounds how long a request waits for the core's turn
	// before answering CodeTimeout. A request that times out never ran;
	// one that got the turn runs to completion. Default 10s.
	ReplyTimeout time.Duration
	// ClockTick is how often the core's clock takes the turn to advance
	// the audit clock. Default 20ms.
	ClockTick time.Duration
	// Guard, when set, arms the memdb concurrent-access detector for the
	// server's lifetime; any violation panics the turn holder — by contract
	// there can be none.
	Guard bool
	// Trace, when set, is the flight recorder the server emits structured
	// events into; nil creates a private one (read it with TraceEvents).
	Trace *trace.Recorder
	// Standby starts the server as a hot standby of PrimaryAddr: sessions
	// are refused (CodeStandby), the database is fed by replication, and
	// the audits run in shadow mode until promotion.
	Standby bool
	// PrimaryAddr is the primary this standby polls. Required with Standby.
	PrimaryAddr string
	// AdvertiseAddr is this node's own serving address, sent with every
	// poll as its peer identity: the primary tells standbys apart by it
	// for repl.peers and repl.lag. Standby only.
	AdvertiseAddr string
	// ServeReads lets a standby answer READ_REC/READ_FLD/STATUS itself —
	// session-less, through the fastlane read view — for a client-side
	// replica router. A routed read may carry a lease floor (Vals [seq-lo,
	// seq-hi]); the standby refuses with CodeStale when its applied
	// sequence is below it, which is what bounds staleness. Ignored without
	// Standby (a primary always serves reads).
	ServeReads bool
	// ReplPoll is the standby's replication poll interval on the core's
	// clock. Default 100ms.
	ReplPoll time.Duration
	// ReplFailLimit is the consecutive poll-failure streak after which the
	// standby promotes itself. Default 10; negative disables
	// self-promotion.
	ReplFailLimit int
	// ReplTimeout bounds each replication call to the primary. Default 1s.
	ReplTimeout time.Duration
	// CheckpointCap is the logged-bytes threshold that triggers an
	// automatic checkpoint. Default 4MiB; negative disables automatic
	// checkpoints.
	CheckpointCap int64
	// InjectPeriod, when positive, arms a server-side fault injector on
	// the core's clock: each period flips one random bit in the live
	// database region and journals it as an inject-shot event, so a trace
	// can follow shot → audit finding → recovery end to end. For tests
	// and demos only — it deliberately corrupts the region.
	InjectPeriod time.Duration
	// InjectSeed seeds the injector RNG.
	InjectSeed int64
	// ProcInjectPeriod, when positive, arms a procedure text injector on
	// the core's clock: each period flips one bit in a random registered
	// procedure's live text segment (targeting its control words), so PROC
	// traffic exercises the PECOS detection → finding → reload loop under
	// live load. For tests and demos only.
	ProcInjectPeriod time.Duration
	// ProcInjectSeed seeds the procedure text injector RNG.
	ProcInjectSeed int64
}

func (c *Config) applyDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.AuditPeriod == 0 {
		c.AuditPeriod = time.Second
	}
	if c.ReplyTimeout <= 0 {
		c.ReplyTimeout = 10 * time.Second
	}
	if c.ClockTick <= 0 {
		c.ClockTick = 20 * time.Millisecond
	}
	if c.ReplPoll <= 0 {
		c.ReplPoll = 100 * time.Millisecond
	}
	if c.ReplFailLimit == 0 {
		c.ReplFailLimit = 10
	}
	if c.ReplTimeout <= 0 {
		c.ReplTimeout = time.Second
	}
	if c.CheckpointCap == 0 {
		c.CheckpointCap = 4 << 20
	}
}

// Fixed serving parameters. Request frames are bounded by wire.MaxFrame,
// trace rings hold trace.DefaultRingSize events, and the health plane's
// objective bounds are the constants in health.go.
const (
	// auditQueueDepth bounds the DB→audit notification queue.
	auditQueueDepth = 4096
	// idleTimeout closes a connection with no complete request for this
	// long.
	idleTimeout = 2 * time.Minute
	// writeTimeout bounds each response write.
	writeTimeout = 10 * time.Second
)

// OpStat is the per-operation counter pair.
type OpStat struct {
	OK   uint64
	Errs uint64
}

// Stats is a point-in-time snapshot of the server's counters, summed (drop
// bursts and high-water marks: maxed) over the cores.
type Stats struct {
	// PerOp is indexed by wire.Op.
	PerOp [wire.NumOps]OpStat
	// ReqDrops accounts requests shed at the cores' bounded admission,
	// in internal/ipc's DropStats shape.
	ReqDrops ipc.DropStats
	// AuditDrops accounts DB→audit notifications shed by the ipc queues.
	AuditDrops ipc.DropStats
	// AuditFindings counts findings produced by live audits; Sweeps
	// counts completed full sweeps (periodic + forced).
	AuditFindings uint64
	Sweeps        uint64
	// Restarts counts audit-process restarts by the managers.
	Restarts int
	// ActiveConns / TotalConns track connections.
	ActiveConns int
	TotalConns  uint64
	// Executed counts requests the server answered.
	Executed uint64
}

// telemetry is the metric set shared by every core and connection:
// histograms and counters keep plain names, so several cores merge into one
// distribution.
type telemetry struct {
	// latency is indexed by wire.Op (index 0, the invalid op, stays nil).
	// Each histogram observes turn wait + execution, measured in submit;
	// fast-lane reads observe their in-goroutine service time instead.
	latency [wire.NumOps]*metrics.Histogram

	// Per-stage request latency: time waiting for the turn, time holding
	// it, and time spent encoding + buffering the response frame.
	// Together they decompose the per-op latency histograms, so a latency
	// regression is attributable to queueing vs execution vs the socket.
	stageQueueWait  *metrics.Histogram
	stageExecute    *metrics.Histogram
	stageReplyWrite *metrics.Histogram

	// forcedSweeps counts OpSweep-driven full sweeps (shutdown's certifying
	// sweep included); "audit.sweeps" counts all completed sweeps.
	forcedSweeps *metrics.Counter
}

func newTelemetry(reg *metrics.Registry) *telemetry {
	t := &telemetry{}
	for op := 1; op < wire.NumOps; op++ {
		t.latency[op] = reg.Histogram("server.latency."+wire.Op(op).String(), nil)
	}
	t.stageQueueWait = reg.Histogram("server.stage.queue_wait", nil)
	t.stageExecute = reg.Histogram("server.stage.execute", nil)
	t.stageReplyWrite = reg.Histogram("server.stage.reply_write", nil)
	t.forcedSweeps = reg.Counter("audit.sweeps.forced")
	return t
}

// Server is the client-facing front end over one or more cores: it owns the
// listener, the connections and their sessions, decides which core each
// request reaches, and answers the control plane from the cores in
// aggregate. With several cores the database is striped across them —
// global record g lives on core g mod N at local index g div N
// (memdb.ShardOf) — so unrelated records never serialize on one turn,
// while every audit technique runs unchanged per core because each stripe
// is a complete memdb region.
//
// Everything that spans cores follows one ordering discipline: cores are
// visited in ascending order, and a partial failure rolls back the lower
// cores before the error surfaces. The memdb table locks are non-blocking
// (DBbegin answers ErrLocked rather than waiting), so no lock-order
// deadlock is possible even against an adversarial interleaving; ascending
// order adds determinism — of two racing transactions, whichever wins core
// 0 wins everything. A request is admitted and accounted on the first core
// it visits; further cores' turns are taken with onExecutor, which never
// sheds, so a fan-out cannot be refused halfway. No code holding one core's
// turn waits for another's, except procExec under procMu.
//
// Semantics that depend on the core count, all conservative:
//   - Write tokens come from the owning core's WAL sequence space. A client
//     router keeps the max across cores, so a routed standby read may see a
//     lease floor from a busier core's space and answer STALE when it is
//     actually fresh — staleness bounds hold, at the cost of extra primary
//     fallbacks. A PROC reply carries, by the same rule, the highest
//     sequence its logged effects were assigned on any core.
//   - OpInjectCtl arms every core's data injector at the requested period,
//     so the aggregate shot rate is N times one core's.
//
// A standby must run with the same core count as its primary: each core's
// applier follows the matching stream (the wire shard id rides the
// otherwise-unused Table/Field words of the replication ops).
type Server struct {
	cfg   Config
	cores []*core

	// globalRecs[t] is table t's record count across all cores — the
	// bounds oracle, so out-of-range errors carry global limits.
	globalRecs []int

	// The observability planes: the registry and its shared metric set, the
	// flight recorder with the ring carrying connection/request lifecycle
	// events, and the health & SLO plane built from both.
	reg     *metrics.Registry
	tel     *telemetry
	rec     *trace.Recorder
	srvRing *trace.Ring
	health  *health.Plane

	// standby mirrors the cores' role for the front end's own decisions;
	// it flips once, with the first core's promotion.
	standby atomic.Bool

	// procMu serializes procedure barriers: one PROC_EXEC holds every
	// core's turn at a time. allocSeq is the DBalloc rotation cursor.
	procMu   sync.Mutex
	allocSeq atomic.Uint64

	quit     chan struct{} // closed: stop accepting/reading
	listener net.Listener
	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup

	mu         sync.Mutex
	conns      map[*conn]struct{}
	shutdown   bool
	totalConns atomic.Uint64

	// downErr is Shutdown's result, valid once down is closed.
	down    chan struct{}
	downErr error

	start time.Time
}

// conn is one client connection; on[k] is its state on core k.
type conn struct {
	nc net.Conn
	id uint64 // connection ordinal, tags this conn's trace events
	on []connSlot

	// rtimer bounds the wait for a busy turn, reused across requests (the
	// conn goroutine is its only user).
	rtimer *time.Timer
}

// connSlot is a connection's state on one core. sess is created and
// destroyed only by turn holders (session, closeSession) but read from the
// connection goroutine to answer ErrNoSession without taking the turn —
// hence the atomic pointer; the bootstrap-snapshot fields are turn holder
// only (ReplSnap chunks are served one request at a time under the turn).
type connSlot struct {
	sess    atomic.Pointer[memdb.Client]
	snap    []byte // retained bootstrap snapshot being chunked out
	snapSeq uint64 // WAL position the snapshot captured
}

func (s *Server) newConn(nc net.Conn) *conn {
	return &conn{nc: nc, on: make([]connSlot, len(s.cores))}
}

// defaultTraceTail is the TRACE reply's event cap when the request does
// not name one.
const defaultTraceTail = 256

// New builds a server over one region with no operation log. The database
// must not be touched by anyone else while the server runs — the server is
// its single writer (enable cfg.Guard to have violations fail loudly).
func New(db *memdb.DB, cfg Config) (*Server, error) {
	return NewSharded([]*memdb.DB{db}, nil, cfg)
}

// NewSharded builds a server over the per-core regions (derive them with
// memdb.ShardSchemas) and optional per-core operation logs (nil, or one
// entry per core, entries may be nil). A core with a log appends every
// acknowledged mutation to it, fsync batched on the clock tick; the server
// owns the logs from here on — Shutdown syncs, checkpoints, and closes
// them. Build each with wal.Open after wal.Recover. The metrics registry,
// the flight recorder and the health plane are shared by the cores.
func NewSharded(dbs []*memdb.DB, wals []*wal.Log, cfg Config) (*Server, error) {
	n := len(dbs)
	if n == 0 {
		return nil, errors.New("server: no database")
	}
	for _, db := range dbs {
		if db == nil {
			return nil, errors.New("server: nil database")
		}
	}
	if wals != nil && len(wals) != n {
		return nil, fmt.Errorf("server: %d shards but %d WALs", n, len(wals))
	}
	if cfg.Standby && cfg.PrimaryAddr == "" {
		return nil, errors.New("server: standby requires a primary address")
	}
	cfg.applyDefaults()

	// Every region must be one stripe of the same catalog: the layout
	// ShardSchemas produces. The second pass catches a full-size region
	// slipped in next to striped ones.
	base := dbs[0].Schema()
	globalRecs := make([]int, len(base.Tables))
	for k, db := range dbs {
		sch := db.Schema()
		if len(sch.Tables) != len(base.Tables) {
			return nil, fmt.Errorf("server: shard %d has %d tables, shard 0 has %d",
				k, len(sch.Tables), len(base.Tables))
		}
		for ti, t := range sch.Tables {
			if t.Name != base.Tables[ti].Name {
				return nil, fmt.Errorf("server: shard %d table %d is %q, shard 0 has %q",
					k, ti, t.Name, base.Tables[ti].Name)
			}
			globalRecs[ti] += t.NumRecords
		}
	}
	for k, db := range dbs {
		for ti, t := range db.Schema().Tables {
			if want := memdb.ShardRecords(globalRecs[ti], k, n); t.NumRecords != want {
				return nil, fmt.Errorf("server: shard %d table %q has %d records, want %d of a %d-record stripe set",
					k, t.Name, t.NumRecords, want, globalRecs[ti])
			}
		}
	}

	reg, rec := metrics.NewRegistry(), cfg.Trace
	if rec == nil {
		rec = trace.New()
	}
	s := &Server{
		cfg:        cfg,
		cores:      make([]*core, n),
		globalRecs: globalRecs,
		reg:        reg,
		tel:        newTelemetry(reg),
		rec:        rec,
		srvRing:    rec.Ring("server", trace.DefaultRingSize),
		quit:       make(chan struct{}),
		down:       make(chan struct{}),
		conns:      make(map[*conn]struct{}),
		start:      time.Now(),
	}
	s.standby.Store(cfg.Standby)
	var debt *health.DebtMeter
	if cfg.AuditPeriod > 0 {
		// N schedulers complete N sweeps per period; metering at period/N
		// makes Behind() the aggregate schedule debt across all cores.
		debt = health.NewDebtMeter(cfg.AuditPeriod / time.Duration(n))
	}
	for k, db := range dbs {
		var l *wal.Log
		if wals != nil {
			l = wals[k]
		}
		c, err := newCore(s, k, db, l, debt)
		if err != nil {
			return nil, fmt.Errorf("server: shard %d: %w", k, err)
		}
		s.cores[k] = c
	}
	s.buildHealthPlane(debt)
	s.registerMetrics()
	for _, c := range s.cores {
		go c.clock()
	}
	return s, nil
}

// registerMetrics publishes the front end's own gauges and, with several
// cores, republishes the consumer-facing plain gauge names as aggregates of
// the cores' "shard.<k>." ones: sums for monotonic tallies, max for
// high-water marks and lag. dbload -watch, /healthz, dbctl and the scenario
// sampler therefore read any server alike.
func (s *Server) registerMetrics() {
	reg := s.reg
	reg.GaugeFunc("server.conns.active", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.conns))
	})
	reg.GaugeFunc("server.conns.total", func() int64 { return int64(s.totalConns.Load()) })
	// Every ring the server will ever emit on exists by now, so ring
	// overflow (events lost to the bounded buffers) is first-class
	// telemetry from the start.
	s.rec.RegisterMetrics(reg)
	if len(s.cores) == 1 {
		return // the one core's gauges already carry the plain names
	}
	sum := func(per func(*core) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, c := range s.cores {
				t += per(c)
			}
			return t
		}
	}
	max := func(per func(*core) int64) func() int64 {
		return func() int64 {
			var m int64
			for _, c := range s.cores {
				if v := per(c); v > m {
					m = v
				}
			}
			return m
		}
	}
	reg.GaugeFunc("server.queue.depth", sum(func(c *core) int64 { return c.waiting.Load() }))
	reg.GaugeFunc("server.queue.capacity", sum(func(*core) int64 { return int64(s.cfg.QueueDepth) }))
	reg.GaugeFunc("server.queue.dropped", sum(func(c *core) int64 { return int64(c.reqDrops().Dropped) }))
	reg.GaugeFunc("server.queue.drop_burst", max(func(c *core) int64 { return int64(c.reqDrops().Burst) }))
	reg.GaugeFunc("server.queue.high_water", max(func(c *core) int64 { return int64(c.reqDrops().HighWater) }))
	reg.GaugeFunc("server.executed", sum(func(c *core) int64 { return int64(c.executed.Load()) }))
	reg.GaugeFunc("server.audit.restarts", sum(func(c *core) int64 { return c.restarts.Load() }))
	reg.GaugeFunc("server.audit.findings", sum(func(c *core) int64 { return int64(c.findings.Load()) }))
	reg.GaugeFunc("repl.role", func() int64 { return int64(role(s.standby.Load())) })
	reg.GaugeFunc("repl.serve_reads", func() int64 { return b2i(!s.standby.Load() || s.cfg.ServeReads) })
	reg.GaugeFunc("wal.flush_pending", sum(func(c *core) int64 {
		if c.walLog == nil {
			return 0
		}
		return c.walLog.Pending()
	}))
	reg.GaugeFunc("wal.last_seq", sum(func(c *core) int64 {
		if c.walLog == nil {
			return 0
		}
		return int64(c.walLog.LastSeq())
	}))
	reg.GaugeFunc("repl.lag", func() int64 { return int64(s.replLag()) })

	// memdb activity: the cores Set "shard.<k>.memdb..." gauges on their
	// refresh; the plain names sum those handles (get-or-create returns
	// the same storage the core binds).
	sumGauges := func(name string) {
		hs := make([]*metrics.Gauge, len(s.cores))
		for k := range hs {
			hs[k] = reg.Gauge(fmt.Sprintf("shard.%d.%s", k, name))
		}
		reg.GaugeFunc(name, func() int64 {
			var t int64
			for _, h := range hs {
				t += h.Load()
			}
			return t
		})
	}
	for _, t := range s.cores[0].db.Schema().Tables {
		p := "memdb.table." + t.Name
		sumGauges(p + ".reads")
		sumGauges(p + ".writes")
		sumGauges(p + ".errors_last")
		sumGauges(p + ".errors_all")
	}
	sumGauges("memdb.locks.held")
	sumGauges("memdb.clients")
	sumGauges("memdb.guard.violations")
}

// TraceEvents snapshots the merged journal, filtered to one kind (0 =
// every kind) and capped to the most recent n events (n <= 0 = all).
// Safe from any goroutine.
func (s *Server) TraceEvents(kind trace.Kind, n int) []trace.Event {
	return trace.Tail(trace.Filter(s.rec.Snapshot(), kind), n)
}

// SnapshotMetrics refreshes the turn-owned gauges and snapshots the
// registry, from any goroutine that holds no turn: the refresh takes each
// core's turn in turn, so the returned snapshot is current rather than one
// clock tick stale.
func (s *Server) SnapshotMetrics() metrics.Snapshot {
	return s.snapshot((*metrics.Registry).Snapshot)
}

// SnapshotMetricsFull is SnapshotMetrics with per-histogram bucket arrays
// included — the Prometheus exposition path. Same freshness contract.
func (s *Server) SnapshotMetricsFull() metrics.Snapshot {
	return s.snapshot((*metrics.Registry).SnapshotFull)
}

func (s *Server) snapshot(take func(*metrics.Registry) metrics.Snapshot) metrics.Snapshot {
	for _, c := range s.cores {
		c.onExecutor(c.refreshExecutorMetrics)
	}
	return take(s.reg)
}

// Addr returns the bound listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Serve runs the accept loop on ln, returning after Shutdown completes or
// on a fatal accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.listener != nil {
		s.mu.Unlock()
		return errors.New("server: already serving")
	}
	s.listener = ln
	// Shutdown closes whatever listener it finds registered; if it already
	// ran, it found nothing, so this Serve must close ln itself or the
	// accept loop below would block forever on a live socket.
	down := s.shutdown
	s.mu.Unlock()
	if down {
		ln.Close()
		return nil
	}

	s.acceptWG.Add(1)
	defer s.acceptWG.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil // orderly shutdown closed the listener
			default:
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		cn := s.newConn(nc)
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[cn] = struct{}{}
		s.mu.Unlock()
		cn.id = s.totalConns.Add(1)
		s.srvRing.Emit(trace.Event{Kind: trace.KindConnAccept, Aux: int64(cn.id)})
		s.connWG.Add(1)
		go s.serveConn(cn)
	}
}

// --- Connection goroutines ------------------------------------------------

// serveConn is one connection's loop: one goroutine per accepted connection
// decodes requests and encodes responses, so all parsing and serialization
// is parallel.
func (s *Server) serveConn(cn *conn) {
	defer s.connWG.Done()
	defer s.teardownConn(cn)
	br := bufio.NewReader(cn.nc)
	bw := bufio.NewWriter(cn.nc)
	w := connWriter{s: s, cn: cn, bw: bw}
	for {
		// Flush accumulated replies only before blocking for more input:
		// while a pipelined client's frames are still buffered, responses
		// pile up in bw and one socket write carries the whole batch back.
		// (A peer that sends half a frame and then stalls waits for its own
		// tail; the idle timeout bounds that.)
		if bw.Buffered() > 0 && br.Buffered() == 0 {
			if !w.flush() {
				return
			}
		}
		// Re-arm the idle deadline only when the read will actually block;
		// frames already buffered (the pipelined case) are covered by the
		// deadline from the read that fetched them.
		if br.Buffered() == 0 {
			if err := cn.nc.SetReadDeadline(time.Now().Add(idleTimeout)); err != nil {
				return
			}
		}
		// Checked after the re-arm: Shutdown closes quit and then pokes the
		// read deadline, so a poke the re-arm overwrote is still seen here.
		select {
		case <-s.quit:
			return
		default:
		}
		payload, err := wire.ReadFrame(br, wire.MaxFrame)
		if err != nil {
			// Idle timeout, peer close, shutdown poke, or garbage:
			// in every case the connection is done. A malformed
			// length prefix gets a parting diagnostic.
			if errors.Is(err, wire.ErrBadFrame) {
				if w.write(wire.ErrorResponse(0, err)) {
					w.flush()
				}
			}
			return
		}
		req, err := wire.ParseRequest(payload)
		if err != nil {
			// Frame arrived intact but the payload is malformed:
			// answer and keep the connection (framing is still
			// synchronized).
			w.write(wire.ErrorResponse(0, err))
			continue
		}
		resp := s.handle(cn, req)
		resp.Seq = req.Seq
		if !w.write(resp) {
			return
		}
	}
}

// connWriter batches response frames for one connection. Frames accumulate
// in the buffered writer and hit the socket when serveConn flushes before
// blocking for input (or when the buffer fills mid-batch). The write
// deadline is armed once per batch — when the first frame lands in an empty
// buffer — which still bounds every auto-flush the batch can trigger.
type connWriter struct {
	s   *Server
	cn  *conn
	bw  *bufio.Writer
	buf []byte
}

func (w *connWriter) write(resp wire.Response) bool {
	t0 := time.Now()
	w.buf = wire.AppendResponse(w.buf[:0], resp)
	if w.bw.Buffered() == 0 {
		if err := w.cn.nc.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			return false
		}
	}
	ok := wire.WriteFrame(w.bw, w.buf) == nil
	w.s.tel.stageReplyWrite.Observe(int64(time.Since(t0)))
	return ok
}

func (w *connWriter) flush() bool {
	if err := w.cn.nc.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return false
	}
	return w.bw.Flush() == nil
}

// teardownConn unregisters the connection and retires its DB sessions,
// taking each core's turn in ascending order.
func (s *Server) teardownConn(cn *conn) {
	cn.nc.Close()
	s.mu.Lock()
	delete(s.conns, cn)
	s.mu.Unlock()
	s.srvRing.Emit(trace.Event{Kind: trace.KindConnClose, Aux: int64(cn.id)})
	for _, c := range s.cores {
		// A stopped core's sessions died with it.
		c.onExecutor(func() { c.closeSession(cn) })
	}
}

// --- Request routing --------------------------------------------------------

// handle answers one parsed request on the connection goroutine: it is the
// server's one dispatch over the wire ops. Single-record calls go to the
// owning core (reads answered by its fast lane, writes under its turn),
// session calls and the per-core control ops fan out over every core, and
// the rest of the control plane takes core 0's turn so that it waits, sheds
// and is accounted like any other request.
func (s *Server) handle(cn *conn, q wire.Request) wire.Response {
	// A standby answers only the control/replication plane (plus routed
	// reads in serve-reads mode); everything else is refused with
	// CodeStandby so clients re-resolve to the primary.
	if s.standby.Load() && !s.standbyAllowed(q.Op) {
		return s.refuse(q, wire.ErrStandby)
	}
	home := s.cores[0]
	switch q.Op {
	case wire.OpReadRec, wire.OpReadFld, wire.OpStatus:
		c, lq, refused := s.locate(cn, q)
		if c == nil {
			return refused
		}
		return c.fastLane(cn, lq)
	case wire.OpWriteRec, wire.OpWriteFld, wire.OpMove, wire.OpFree:
		c, lq, refused := s.locate(cn, q)
		if c == nil {
			return refused
		}
		return c.submit(cn, lq, (*core).record)
	case wire.OpAlloc:
		return s.alloc(cn, q)

	case wire.OpInit:
		// One session per core, all or nothing; the reply carries core 0's
		// PID.
		rs := s.fan(cn, q, (*core).session, true)
		resp := reply(rs)
		if resp.Code != wire.CodeOK {
			for _, c := range s.cores[:len(rs)-1] {
				c.onExecutor(func() { c.closeSession(cn) })
			}
		}
		return resp
	case wire.OpClose, wire.OpCommit:
		// Every core is visited even after an error, so per-core session
		// state cannot diverge; the first error is the reply.
		return reply(s.fan(cn, q, (*core).session, false))
	case wire.OpBegin:
		// A lock refused by a later core is given back on the lower ones
		// that newly took it, leaving exactly the locks held before.
		rs := s.fan(cn, q, (*core).session, true)
		resp := reply(rs)
		if resp.Code == wire.CodeOK {
			return ok()
		}
		for k, c := range s.cores[:len(rs)-1] {
			if rs[k].Vals[0] == 1 {
				c.onExecutor(func() { c.unlock(cn, int(q.Table)) })
			}
		}
		return resp
	case wire.OpProcExec:
		return s.procExec(cn, q)
	case wire.OpProcLoad:
		// The procedure registry PROC_EXEC runs from is core 0's.
		return home.submit(cn, q, (*core).handleProcLoad)
	case wire.OpProcList:
		return home.submit(cn, q, (*core).handleProcList)

	case wire.OpSweep:
		rs := s.fan(cn, q, (*core).sweep, true)
		if resp := reply(rs); resp.Code != wire.CodeOK {
			return resp
		}
		total := uint32(0)
		for _, r := range rs {
			total += r.Vals[0]
		}
		return ok(total)
	case wire.OpInjectCtl:
		return reply(s.fan(cn, q, (*core).handleInjectCtl, true))
	case wire.OpStats2:
		if resp := reply(s.fan(cn, q, (*core).refresh, true)); resp.Code != wire.CodeOK {
			return resp
		}
		data, err := json.Marshal(s.reg.Snapshot())
		if err != nil {
			return fail(q, err)
		}
		return wire.Response{Detail: string(data)}

	case wire.OpReplicate, wire.OpReplSnap:
		// The shard id rides the otherwise-unused Table word.
		k := int(q.Table)
		if k < 0 || k >= len(s.cores) {
			return s.refuse(q, fmt.Errorf("%w: %v names shard %d of %d (mismatched -shards?)",
				wire.ErrBadFrame, q.Op, k, len(s.cores)))
		}
		c := s.cores[k]
		if q.Op == wire.OpReplSnap {
			return c.submit(cn, q, (*core).handleReplSnap)
		}
		// Replication polls never take the turn: the shipper reads the
		// WAL's thread-safe tail ring, so a standby catching up never
		// competes with call processing for the region.
		resp := c.handleReplicate(q)
		c.count(q.Op, resp.Code)
		return resp
	case wire.OpReplPromote:
		// Core 0 checks the role; its promotion already starts the others',
		// and waiting for them here makes the reply mean "promoted".
		resp := home.submit(cn, q, (*core).promoteLeg)
		if resp.Code == wire.CodeOK {
			for _, c := range s.cores[1:] {
				c.onExecutor(func() { c.promote(operatorPromotion) })
			}
		}
		return resp
	}
	return home.submit(cn, q, control)
}

// control answers, holding core 0's turn, the control ops that read the
// server as a whole; any other op reaching it is unknown.
func control(c *core, _ *conn, q wire.Request, _ uint64) wire.Response {
	s := c.srv
	var data []byte
	var err error
	switch q.Op {
	case wire.OpPing:
		return ok()
	case wire.OpReplStatus:
		return s.replStatus()
	case wire.OpHealth:
		data, err = s.Health().MarshalJSON()
	case wire.OpTrace:
		n := int(q.Aux)
		if n <= 0 {
			n = defaultTraceTail
		}
		evs := s.TraceEvents(trace.Kind(q.Table), n)
		data, err = trace.EncodeJSON(evs)
		for err == nil && len(data) > wire.MaxDetail && len(evs) > 0 {
			// The frame ceiling is hard: shed the oldest half and retry
			// until the journal fits. Newest events carry the evidence.
			evs = evs[(len(evs)+1)/2:]
			data, err = trace.EncodeJSON(evs)
		}
	default:
		err = wire.ErrUnknownOp
	}
	if err != nil {
		return fail(q, err)
	}
	return wire.Response{Detail: string(data)}
}

// refuse answers q with err from the connection goroutine, booked on core
// 0 as an executed request.
func (s *Server) refuse(q wire.Request, err error) wire.Response {
	resp := fail(q, err)
	s.cores[0].count(q.Op, resp.Code)
	s.cores[0].executed.Add(1)
	return resp
}

// locate validates a record-addressed request against the session
// requirement and the global bounds — bounds before anything a core checks,
// the lease included, because no owner can be named for an out-of-range
// record — and returns the owning core with the request rewritten to its
// local index. A nil core means the response is the final answer.
func (s *Server) locate(cn *conn, q wire.Request) (*core, wire.Request, wire.Response) {
	if !s.standby.Load() && cn.on[0].sess.Load() == nil {
		return nil, q, s.refuse(q, wire.ErrNoSession)
	}
	k, local, err := s.place(int(q.Table), int(q.Record))
	if err != nil {
		return nil, q, s.refuse(q, err)
	}
	q.Record = int32(local)
	return s.cores[k], q, wire.Response{}
}

// place is the striping decision for one global record: its owning core
// and local index there, or the bounds error, with global limits, of an
// address no core owns.
func (s *Server) place(table, rec int) (k, local int, err error) {
	if err := s.tableBounds(table); err != nil {
		return 0, 0, err
	}
	if rec < 0 || rec >= s.globalRecs[table] {
		return 0, 0, &memdb.BoundsError{What: "record", Index: rec, Limit: s.globalRecs[table]}
	}
	n := len(s.cores)
	return memdb.ShardOf(rec, n), memdb.LocalIndex(rec, n), nil
}

func (s *Server) tableBounds(table int) error {
	if table < 0 || table >= len(s.globalRecs) {
		return &memdb.BoundsError{What: "table", Index: table, Limit: len(s.globalRecs)}
	}
	return nil
}

// allocRotate is the DBalloc routing: after the table bounds check it
// offers the allocation to the cores starting from a rotating cursor, so
// allocations spread even when one stripe's free list runs dry. try makes
// core k's attempt and reports whether that stripe's table was exhausted;
// only then does the next core get one.
func (s *Server) allocRotate(table int, try func(k int) (exhausted bool)) error {
	if err := s.tableBounds(table); err != nil {
		return err
	}
	n := len(s.cores)
	start := int(s.allocSeq.Add(1)-1) % n
	for i := 0; i < n; i++ {
		if !try((start + i) % n) {
			break
		}
	}
	return nil
}

// alloc routes DBalloc through allocRotate and translates the winner's
// local index back to the global record ID. When every stripe is
// exhausted the answer is the last core's ErrNoFreeRecord.
func (s *Server) alloc(cn *conn, q wire.Request) wire.Response {
	if cn.on[0].sess.Load() == nil {
		return s.refuse(q, wire.ErrNoSession)
	}
	var resp wire.Response
	err := s.allocRotate(int(q.Table), func(k int) bool {
		resp = s.cores[k].submit(cn, q, (*core).record)
		if resp.Code == wire.CodeOK && len(resp.Vals) > 0 {
			resp.Vals[0] = uint32(memdb.GlobalIndex(int(resp.Vals[0]), k, len(s.cores)))
		}
		return resp.Code == wire.CodeNoFreeRecord
	})
	if err != nil {
		return s.refuse(q, err)
	}
	return resp
}

// fan runs do for q on every core in ascending order and returns the
// answers: core 0 as a submitted, accounted request, the others through
// onExecutor. With stopOnErr it stops at the first failure, which is then
// the last answer.
func (s *Server) fan(cn *conn, q wire.Request, do execFn, stopOnErr bool) []wire.Response {
	rs := make([]wire.Response, 0, len(s.cores))
	for k, c := range s.cores {
		var r wire.Response
		if k == 0 {
			r = c.submit(cn, q, do)
		} else {
			r = fail(q, wire.ErrShutdown)
			c.onExecutor(func() { r = do(c, cn, q, 0) })
		}
		rs = append(rs, r)
		if stopOnErr && r.Code != wire.CodeOK {
			break
		}
	}
	return rs
}

// reply is the verdict of a fan-out: the first error, else core 0's answer.
func reply(rs []wire.Response) wire.Response {
	for _, r := range rs {
		if r.Code != wire.CodeOK {
			return r
		}
	}
	return rs[0]
}

// procExec runs a procedure on core 0 — its registry, engine, telemetry and
// escalation ladder — while holding every other core's turn: the procedure
// barrier. With every region's turn held, the program owns every region and
// every WAL at once, which is what lets the engine's commit stage mutate
// records on any core mid-program. Cores 1..N-1 are taken before core 0,
// under procMu: the one place a turn holder waits for another turn.
func (s *Server) procExec(cn *conn, q wire.Request) wire.Response {
	sess := make([]*memdb.Client, len(s.cores))
	for k := range sess {
		if sess[k] = cn.on[k].sess.Load(); sess[k] == nil {
			return s.refuse(q, wire.ErrNoSession)
		}
	}
	s.procMu.Lock()
	defer s.procMu.Unlock()
	for _, c := range s.cores[1:] {
		// A stopped core keeps its turn: it is as held as it gets.
		if c.take() {
			defer c.give()
		}
	}
	return s.cores[0].submit(cn, q, func(c *core, _ *conn, q wire.Request, tid uint64) wire.Response {
		return c.handleProcExec(&spanSession{s: s, sess: sess}, q, tid)
	})
}

// --- Replication & control --------------------------------------------------

// replStatus reports role, log positions, and the router extension:
// whether this node answers routed reads, and its own lag estimate. Across
// streams it aggregates conservatively: last = total appended, applied =
// the minimum position (the only floor a cross-stream lease can trust), lag
// = the worst stream's estimate.
func (s *Server) replStatus() wire.Response {
	vals := make([]uint32, wire.NumReplStatusVals)
	standby := s.standby.Load()
	vals[wire.ReplRole] = uint32(role(standby))
	vals[wire.ReplServeReads] = uint32(b2i(!standby || s.cfg.ServeReads))
	var last uint64
	applied, seen := ^uint64(0), false
	for _, c := range s.cores {
		if c.walLog != nil {
			last += c.walLog.LastSeq()
		}
		var a uint64
		switch {
		case standby && c.applier != nil:
			a = c.applier.Applied()
		case !standby && c.shipper != nil:
			a = c.shipper.Acked()
		default:
			continue
		}
		seen = true
		if a < applied {
			applied = a
		}
	}
	if !seen {
		applied = 0
	}
	vals[wire.ReplLastLo], vals[wire.ReplLastHi] = wire.SplitU64(last)
	vals[wire.ReplAppliedLo], vals[wire.ReplAppliedHi] = wire.SplitU64(applied)
	vals[wire.ReplLagLo], vals[wire.ReplLagHi] = wire.SplitU64(s.replLag())
	return ok(vals...)
}

// notePromote follows a core's promotion — a core's applier hitting its
// failure limit, or an operator order — by promoting the whole group.
// Fire-and-forget per sibling: promote is CAS-guarded, so the fan-out
// converges however the calls interleave.
func (s *Server) notePromote(reason string) {
	if !s.standby.CompareAndSwap(true, false) {
		return
	}
	for _, c := range s.cores {
		go c.onExecutor(func() { c.promote(reason) })
	}
}

// --- Lifecycle ------------------------------------------------------------

// ErrShutdownTimeout is returned by Shutdown when draining exceeded the
// deadline.
var ErrShutdownTimeout = errors.New("server: shutdown deadline exceeded")

// Shutdown drains and stops the server: stop accepting, let every
// connection finish its in-flight request, then on each core in ascending
// order let every waiter for its turn run, run a final certifying audit
// sweep, stop the audit stack and close the log. timeout bounds the connection drain;
// zero means wait indefinitely. The result is ErrShutdownTimeout, else the
// first durability step that failed on any core, else nil; every call
// returns it once the server is down.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		<-s.down
		return s.downErr
	}
	s.shutdown = true
	ln := s.listener
	s.mu.Unlock()
	defer close(s.down)

	close(s.quit)
	if ln != nil {
		ln.Close()
	}
	s.acceptWG.Wait()

	// Poke blocked reads so connection goroutines notice the quit signal;
	// an in-flight request still completes because the cores keep giving
	// turns until connWG drains.
	s.mu.Lock()
	for cn := range s.conns {
		_ = cn.nc.SetReadDeadline(time.Now()) // a dead socket ends the goroutine anyway
	}
	s.mu.Unlock()

	connsDone := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(connsDone)
	}()
	var expired <-chan time.Time
	if timeout > 0 {
		expired = time.After(timeout)
	}
	select {
	case <-connsDone:
	case <-expired:
		s.downErr = ErrShutdownTimeout
		s.mu.Lock()
		for cn := range s.conns {
			cn.nc.Close()
		}
		s.mu.Unlock()
		<-connsDone
	}

	for _, c := range s.cores {
		close(c.stopping)
		<-c.done
		if s.downErr == nil {
			s.downErr = c.walErr
		}
		if s.cfg.Guard {
			c.db.DisableConcurrencyCheck()
		}
	}
	return s.downErr
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	var st Stats
	addDrops := func(into *ipc.DropStats, d ipc.DropStats) {
		into.Dropped += d.Dropped
		if d.Burst > into.Burst {
			into.Burst = d.Burst
		}
		if d.HighWater > into.HighWater {
			into.HighWater = d.HighWater
		}
	}
	for _, c := range s.cores {
		for i := range st.PerOp {
			st.PerOp[i].OK += c.perOpOK[i].Load()
			st.PerOp[i].Errs += c.perOpErr[i].Load()
		}
		addDrops(&st.ReqDrops, c.reqDrops())
		if c.audit != nil {
			addDrops(&st.AuditDrops, c.audit.Drops())
		}
		st.AuditFindings += c.findings.Load()
		st.Restarts += int(c.restarts.Load())
		st.Executed += c.executed.Load()
	}
	st.Sweeps = s.cores[0].auditTel.Sweeps()
	s.mu.Lock()
	st.ActiveConns = len(s.conns)
	s.mu.Unlock()
	st.TotalConns = s.totalConns.Load()
	return st
}
