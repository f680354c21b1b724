// Package repro_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation, each running the
// corresponding experiment at a reduced scale and reporting the headline
// metrics via b.ReportMetric, plus ablation benches for the design choices
// DESIGN.md calls out and micro-benchmarks of the substrates.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-scale reproductions (the EXPERIMENTS.md numbers) come from
// `go run ./cmd/reproduce -exp all -scale 1.0`.
package repro_test

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/inject"
	"repro/internal/ipc"
	"repro/internal/isa"
	"repro/internal/memdb"
	"repro/internal/metrics"
	"repro/internal/pecos"
	"repro/internal/robust"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/wal"
	"repro/internal/wire"
)

const benchScale = 0.15

// --- One benchmark per paper table/figure --------------------------------

func BenchmarkTable3AuditEffectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t3, err := experiment.RunTable3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t3.Without.EscapedPct(), "escaped%/noaudit")
		b.ReportMetric(t3.With.EscapedPct(), "escaped%/audit")
		b.ReportMetric(t3.With.CaughtPct(), "caught%")
		b.ReportMetric(float64(t3.With.AvgSetup.Milliseconds()), "setup-ms/audit")
	}
}

func BenchmarkTable4Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t4, err := experiment.RunTable4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		st := t4.Result.ByRegion["structural"]
		b.ReportMetric(float64(st.Detected), "structural-detected")
		b.ReportMetric(float64(t4.Result.EscapedByReason[experiment.EscapeTiming]), "timing-escapes")
	}
}

func BenchmarkFigure3EscapeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure3(0.07)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Points[0].EscapedPerRun(), "escapes-per-run@2s")
		b.ReportMetric(fig.Points[len(fig.Points)-1].EscapedPerRun(), "escapes-per-run@20s")
	}
}

func BenchmarkFigure4APIOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure4()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range fig.Rows {
			if r.Op == memdb.OpWriteRec {
				b.ReportMetric(r.OverheadPct, "DBwrite_rec-overhead%")
			}
			if r.Op == memdb.OpInit {
				b.ReportMetric(r.OverheadPct, "DBinit-overhead%")
			}
		}
	}
}

func BenchmarkFigure5Prioritized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure5(0.2)
		if err != nil {
			b.Fatal(err)
		}
		var u, p, iu, ip int
		for _, c := range fig.Comparisons {
			u += c.Unprioritized.Escaped
			iu += c.Unprioritized.Injected
			p += c.Prioritized.Escaped
			ip += c.Prioritized.Injected
		}
		b.ReportMetric(100*float64(u)/float64(iu), "escaped%/roundrobin")
		b.ReportMetric(100*float64(p)/float64(ip), "escaped%/prioritized")
	}
}

func BenchmarkFigure6Proportional(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure6(0.2)
		if err != nil {
			b.Fatal(err)
		}
		var u, iu int
		for _, c := range fig.Comparisons {
			u += c.Unprioritized.Escaped
			iu += c.Unprioritized.Injected
		}
		b.ReportMetric(100*float64(u)/float64(iu), "escaped%/roundrobin")
	}
}

func BenchmarkTable8Directed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t8, err := experiment.RunTable8(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*t8.Columns[0].Rate(inject.OutcomeSystem), "system%/bare")
		b.ReportMetric(100*t8.Columns[3].Rate(inject.OutcomeSystem), "system%/protected")
		b.ReportMetric(100*t8.Columns[2].Rate(inject.OutcomePECOS), "pecos%")
	}
}

func BenchmarkTable9Random(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t9, err := experiment.RunTable9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*t9.Columns[0].Rate(inject.OutcomeSystem), "system%/bare")
		b.ReportMetric(100*t9.Columns[3].Rate(inject.OutcomeSystem), "system%/protected")
		b.ReportMetric(100*t9.Columns[0].Rate(inject.OutcomeFSV), "fsv%/bare")
		b.ReportMetric(100*t9.Columns[3].Rate(inject.OutcomeFSV), "fsv%/protected")
	}
}

func BenchmarkTable10Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t10, err := experiment.RunTable10(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t10.Mixed[0], "coverage%/none")
		b.ReportMetric(t10.Mixed[1], "coverage%/audit")
		b.ReportMetric(t10.Mixed[2], "coverage%/pecos")
		b.ReportMetric(t10.Mixed[3], "coverage%/both")
	}
}

func BenchmarkSelectiveMonitoring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSelective(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DetectionPct(), "suspect-detection%")
		b.ReportMetric(res.FalsePositivePct(), "false-positive%")
	}
}

// --- Ablations ------------------------------------------------------------

func BenchmarkAblationAuditPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ab, err := experiment.RunAblationAuditPeriod(0.07)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ab.Escaped[0], "escaped%@2s")
		b.ReportMetric(ab.Escaped[len(ab.Escaped)-1], "escaped%@40s")
	}
}

func BenchmarkAblationTrigger(b *testing.B) {
	run := func(event bool) *experiment.EffectResult {
		cfg := experiment.DefaultEffectConfig()
		cfg.Runs = 4
		cfg.Duration = 400 * time.Second
		cfg.EventTriggered = event
		res, err := experiment.RunEffect(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	for i := 0; i < b.N; i++ {
		periodic := run(false)
		event := run(true)
		b.ReportMetric(periodic.EscapedPct(), "escaped%/periodic")
		b.ReportMetric(event.EscapedPct(), "escaped%/event+periodic")
		b.ReportMetric(float64(periodic.MeanDetectionLatency.Milliseconds()), "latency-ms/periodic")
		b.ReportMetric(float64(event.MeanDetectionLatency.Milliseconds()), "latency-ms/event+periodic")
	}
}

func BenchmarkAblationPECOSGranularity(b *testing.B) {
	run := func(g pecos.Granularity) *inject.Result {
		c := inject.DefaultCampaign(inject.DATAOF, true, true, false)
		c.Runs = 40
		c.Granularity = g
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	for i := 0; i < b.N; i++ {
		full := run(pecos.ProtectAll)
		partial := run(pecos.ProtectCallsReturns)
		b.ReportMetric(100*full.Rate(inject.OutcomePECOS), "pecos%/all-cfis")
		b.ReportMetric(100*partial.Rate(inject.OutcomePECOS), "pecos%/calls-returns")
	}
}

// BenchmarkRobustVerify and BenchmarkRobustRepair quantify the footnote-3
// trade-off: what a robust-structure pass would cost per audit cycle, the
// "unacceptable database downtime" the paper cites for not deploying it.
func BenchmarkRobustVerify(b *testing.B) {
	l := buildRobustList(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fs := l.Verify(); fs != nil {
			b.Fatalf("clean list has faults: %v", fs)
		}
	}
}

func BenchmarkRobustRepair(b *testing.B) {
	l := buildRobustList(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Corrupt one pointer, then detect and repair it — one full
		// recovery cycle, which holds the structure locked in a real
		// deployment.
		l.CorruptNext(100, 400)
		if len(l.Verify()) == 0 {
			b.Fatal("corruption not detected")
		}
		if _, err := l.Repair(); err != nil {
			b.Fatal(err)
		}
	}
}

func buildRobustList(b *testing.B, n int) *robust.List {
	b.Helper()
	l, err := robust.New(n + 8)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Insert(uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	return l
}

// --- Substrate micro-benchmarks -------------------------------------------

func newBenchDB(b *testing.B, audited bool) (*memdb.DB, *memdb.Client, int) {
	b.Helper()
	db, err := memdb.New(callproc.Schema(callproc.DefaultSchemaConfig()))
	if err != nil {
		b.Fatal(err)
	}
	if audited {
		q, err := ipc.NewQueue(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		db.EnableAudit(q)
	}
	c, err := db.Connect()
	if err != nil {
		b.Fatal(err)
	}
	ri, err := c.Alloc(callproc.TblConn, 1)
	if err != nil {
		b.Fatal(err)
	}
	return db, c, ri
}

func BenchmarkDBWriteRec(b *testing.B) {
	_, c, ri := newBenchDB(b, false)
	vals := []uint32{1, 42, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteRec(callproc.TblConn, ri, vals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBWriteRecAudited(b *testing.B) {
	db, c, ri := newBenchDB(b, true)
	vals := []uint32{1, 42, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteRec(callproc.TblConn, ri, vals); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			db.Counts() // keep the queue from filling unobserved
			_ = db
		}
	}
}

func BenchmarkDBReadFld(b *testing.B) {
	_, c, ri := newBenchDB(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadFld(callproc.TblConn, ri, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAuditFullSweep(b *testing.B) {
	db, _, _ := newBenchDB(b, false)
	checks := []audit.FullChecker{
		audit.NewStaticCheck(db, audit.Recovery{}),
		audit.NewStructuralCheck(db, audit.Recovery{}),
		audit.NewRangeCheck(db, audit.Recovery{}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, chk := range checks {
			// The allocated benchmark record is legitimately active and
			// consistent: a clean database yields no findings.
			if fs := chk.CheckAll(); len(fs) != 0 {
				b.Fatalf("clean sweep found %d errors via %s", len(fs), chk.Name())
			}
		}
	}
}

// benchmarkServerThroughput measures request round-trips over a loopback
// TCP connection to the serving subsystem: one synchronous client cycling
// write-field/read-field against an allocated Resource record. With
// auditPeriod > 0 the audit process sweeps the live region between
// requests, so the delta against the unaudited run is the paper's audit
// overhead as seen by a network client. disableMetrics turns the
// observability layer off, so audited vs audited-nometrics isolates the
// instrumentation cost (latency histograms + gauges; target < 5%).
// disableTrace likewise gates the flight recorder, so audited-traced vs
// audited pins the per-request journaling cost (target < 5%). A non-empty
// walDir appends every mutation to an operation log there, so audited-wal
// vs audited pins the durability cost — append + batched fsync on the
// executor clock, never an fsync on the request path (target < 10%).
// disableHealth gates the health & SLO plane (which needs both metrics and
// tracing), so audited-traced-health vs audited-traced pins the
// self-monitoring cost — recorder tap, SLO evaluation on the executor
// clock, stage histograms (target < 5%).
func benchmarkServerThroughput(b *testing.B, auditPeriod time.Duration, disableMetrics, disableTrace bool, walDir string, disableHealth bool) {
	db, err := memdb.New(callproc.Schema(callproc.DefaultSchemaConfig()))
	if err != nil {
		b.Fatal(err)
	}
	var walLog *wal.Log
	if walDir != "" {
		walLog, err = wal.Open(wal.Config{Dir: walDir}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	srv, err := server.New(db, server.Config{
		AuditPeriod:    auditPeriod,
		DisableMetrics: disableMetrics,
		DisableTrace:   disableTrace,
		DisableHealth:  disableHealth,
		WAL:            walLog,
	})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(10 * time.Second)

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Init(); err != nil {
		b.Fatal(err)
	}
	ri, err := c.Alloc(callproc.TblRes, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.WriteRec(callproc.TblRes, ri, []uint32{uint32(ri), 1, 50}); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if err := c.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, uint32(i%101)); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := c.ReadFld(callproc.TblRes, ri, callproc.FldResQuality); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
}

// benchmarkServerMulti measures aggregate throughput with conns concurrent
// clients against one audited core of the given shard count, each
// connection keeping window requests in flight (window 1 degenerates to one
// synchronous round trip at a time) against a private Resource record. The
// default mix matches the single-connection subruns — alternating
// write-field/read-field — so ops/s compares directly against "audited";
// writeOnly makes every op a field write, isolating executor scaling:
// under a sharded core the setup-time alloc rotation gives each connection
// a record on a different shard, so the write streams land on independent
// executors, where against shards=1 they serialize on the one. Besides
// aggregate ops/s it reports the server-side p99 read latency from the
// metrics snapshot, which covers both fast-lane and executor-served reads.
func benchmarkServerMulti(b *testing.B, shards, conns, window int, writeOnly bool) {
	schemas, err := memdb.ShardSchemas(callproc.Schema(callproc.DefaultSchemaConfig()), shards)
	if err != nil {
		b.Fatal(err)
	}
	dbs := make([]*memdb.DB, shards)
	for k := range dbs {
		if dbs[k], err = memdb.New(schemas[k]); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := server.NewSharded(dbs, nil, server.Config{
		AuditPeriod:  50 * time.Millisecond,
		DisableTrace: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(10 * time.Second)

	clients := make([]*wire.Conn, conns)
	recs := make([]int, conns)
	for w := 0; w < conns; w++ {
		c, err := wire.Dial(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Init(); err != nil {
			b.Fatal(err)
		}
		ri, err := c.Alloc(callproc.TblRes, w%callproc.ResourceBanks)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.WriteRec(callproc.TblRes, ri, []uint32{uint32(ri), 1, 50}); err != nil {
			b.Fatal(err)
		}
		clients[w], recs[w] = c, ri
	}

	drive := func(c *wire.Conn, ri, n int) error {
		p := c.Pipeline(window)
		recv := func() error {
			r, err := p.Recv()
			if err != nil {
				return err
			}
			return r.Err()
		}
		for i := 0; i < n; i++ {
			q := wire.Request{
				Op: wire.OpReadFld, Table: int32(callproc.TblRes),
				Record: int32(ri), Field: int32(callproc.FldResQuality),
			}
			if writeOnly || i%2 == 0 {
				q.Op, q.Vals = wire.OpWriteFld, []uint32{uint32(i % 101)}
			}
			// Drain half the window when it fills so both directions
			// batch: each flush carries window/2 frames instead of
			// degenerating to one-in/one-out at the window edge.
			if p.InFlight() >= window {
				for p.InFlight() > window/2 {
					if err := recv(); err != nil {
						return err
					}
				}
			}
			if _, err := p.Send(q); err != nil {
				return err
			}
		}
		for p.InFlight() > 0 {
			if err := recv(); err != nil {
				return err
			}
		}
		return nil
	}

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	workerErrs := make([]error, conns)
	per, rem := b.N/conns, b.N%conns
	for w := 0; w < conns; w++ {
		n := per
		if w < rem {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			workerErrs[w] = drive(clients[w], recs[w], n)
		}(w, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	for _, err := range workerErrs {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
	if raw, err := clients[0].Stats2(); err == nil {
		if snap, err := metrics.ParseSnapshot(raw); err == nil {
			if h := snap.Histograms["server.latency.DBread_fld"]; h.Count > 0 {
				b.ReportMetric(float64(h.P99)/1e3, "p99-read-µs")
			}
		}
	}
}

// benchmarkReplicaFanout measures routed read throughput over a replica
// set: one audited WAL-backed primary, read-serving standbys replicating
// off it, and conns router sessions reading at full tilt once their
// seeding writes have replicated. Each session still carries the lease
// token of its own seed write, so every routed read is a bounded-
// staleness read — the settled-session case the fan-out exists for (write
// throughput is benchmarked by the other subruns; a session that writes
// continuously pins its reads to the primary until the standbys catch
// up, by design). replica-read-share reports how much of the read
// traffic actually left the primary.
func benchmarkReplicaFanout(b *testing.B, standbys, conns int) {
	schema := callproc.Schema(callproc.DefaultSchemaConfig())
	newNode := func(cfg server.Config, withWAL bool) (*server.Server, string) {
		db, err := memdb.New(schema)
		if err != nil {
			b.Fatal(err)
		}
		if withWAL {
			l, err := wal.Open(wal.Config{Dir: b.TempDir()}, 0)
			if err != nil {
				b.Fatal(err)
			}
			cfg.WAL = l
		}
		cfg.AuditPeriod = 50 * time.Millisecond
		cfg.DisableTrace = true
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		if cfg.Standby {
			cfg.AdvertiseAddr = ln.Addr().String()
		}
		srv, err := server.New(db, cfg)
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ln)
		return srv, ln.Addr().String()
	}
	primarySrv, primary := newNode(server.Config{}, true)
	defer primarySrv.Shutdown(10 * time.Second)
	addrs := []string{primary}
	for i := 0; i < standbys; i++ {
		srv, addr := newNode(server.Config{
			Standby:       true,
			ServeReads:    true,
			PrimaryAddr:   primary,
			ReplPoll:      time.Millisecond,
			ReplFailLimit: -1,
			ReplTimeout:   time.Second,
		}, false)
		defer srv.Shutdown(10 * time.Second)
		addrs = append(addrs, addr)
	}

	rt, err := router.New(router.Config{Addrs: addrs, ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()

	sessions := make([]*router.Session, conns)
	recs := make([]int, conns)
	for w := 0; w < conns; w++ {
		s, err := rt.NewSession()
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		ri, err := s.Alloc(callproc.TblRes, w%callproc.ResourceBanks)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.WriteRec(callproc.TblRes, ri, []uint32{uint32(ri), 1, 50}); err != nil {
			b.Fatal(err)
		}
		sessions[w], recs[w] = s, ri
	}
	// Let the standbys absorb the seeding writes (and a probe sweep see
	// that) so the measured reads are routable rather than lease-pinned.
	time.Sleep(25 * time.Millisecond)

	drive := func(s *router.Session, ri, n int) error {
		for i := 0; i < n; i++ {
			if _, err := s.ReadFld(callproc.TblRes, ri, callproc.FldResQuality); err != nil {
				return err
			}
		}
		return nil
	}

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	workerErrs := make([]error, conns)
	per, rem := b.N/conns, b.N%conns
	for w := 0; w < conns; w++ {
		n := per
		if w < rem {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			workerErrs[w] = drive(sessions[w], recs[w], n)
		}(w, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	for _, err := range workerErrs {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
	st := rt.Stats()
	if total := st.ReplicaReads + st.PrimaryReads; total > 0 {
		b.ReportMetric(float64(st.ReplicaReads)/float64(total), "replica-read-share")
	}
}

func BenchmarkServerThroughput(b *testing.B) {
	// The flight recorder stays off in the first three subruns so
	// "audited" remains the metrics-only baseline; "audited-traced" is the
	// same configuration with per-request journaling on.
	b.Run("noaudit", func(b *testing.B) { benchmarkServerThroughput(b, -1, false, true, "", true) })
	b.Run("audited", func(b *testing.B) { benchmarkServerThroughput(b, 50*time.Millisecond, false, true, "", true) })
	b.Run("audited-nometrics", func(b *testing.B) { benchmarkServerThroughput(b, 50*time.Millisecond, true, true, "", true) })
	b.Run("audited-traced", func(b *testing.B) { benchmarkServerThroughput(b, 50*time.Millisecond, false, false, "", true) })
	b.Run("audited-traced-health", func(b *testing.B) { benchmarkServerThroughput(b, 50*time.Millisecond, false, false, "", false) })
	b.Run("audited-wal", func(b *testing.B) { benchmarkServerThroughput(b, 50*time.Millisecond, false, true, b.TempDir(), true) })
	// Scaling subruns: multiconn adds concurrent synchronous clients (one
	// request in flight each, capped at GOMAXPROCS so -cpu shrinks it);
	// fastlane-pipelined adds request pipelining on top, which is where the
	// connection-goroutine read lane and the batching executor pay off.
	b.Run("multiconn", func(b *testing.B) {
		conns := runtime.GOMAXPROCS(0)
		if conns > 4 {
			conns = 4
		}
		benchmarkServerMulti(b, 1, conns, 1, false)
	})
	b.Run("fastlane-pipelined", func(b *testing.B) { benchmarkServerMulti(b, 1, 4, 16, false) })
	// replica-fanout spreads a read-heavy routed workload over one primary
	// plus two read-serving standbys; replica-read-share reports how much
	// of the read traffic left the primary.
	b.Run("replica-fanout", func(b *testing.B) { benchmarkReplicaFanout(b, 2, 4) })
	// The sharded pair isolates executor scaling: identical client-side
	// setup (4 pipelined all-write connections, one record each on a
	// distinct stripe), one single-executor core vs a 4-shard core. The
	// ops/s ratio between them is the write-scaling headline the sharded
	// core exists for (expect ~linear on >= 4 CPUs, ~1x under -cpu 1).
	b.Run("sharded-baseline", func(b *testing.B) { benchmarkServerMulti(b, 1, 4, 16, true) })
	b.Run("sharded", func(b *testing.B) { benchmarkServerMulti(b, 4, 4, 16, true) })
}

func BenchmarkVMStep(b *testing.B) {
	text, err := isa.Assemble("loop: addi r1, r1, 1\ncmpi r1, 0\nbne loop\nhalt")
	if err != nil {
		b.Fatal(err)
	}
	m, err := vm.New(text, 1, vm.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	th := m.Thread(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(th)
	}
}

func BenchmarkVMStepInstrumented(b *testing.B) {
	prog, err := isa.AssembleWithInfo("loop: addi r1, r1, 1\ncmpi r1, 0\nbne loop\nhalt")
	if err != nil {
		b.Fatal(err)
	}
	ins, err := pecos.Instrument(prog, pecos.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	m, err := vm.New(ins.Text, 1, vm.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	m.OnTrap = pecos.NewRuntime(ins).OnTrap
	th := m.Thread(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(th)
	}
}

func BenchmarkSimEventLoop(b *testing.B) {
	env := sim.NewEnv(1)
	var chain func()
	n := 0
	chain = func() {
		n++
		env.Schedule(time.Microsecond, chain)
	}
	env.Schedule(0, chain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.Run(time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameworkCleanRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fw, err := core.New(core.DefaultConfig(
			callproc.Schema(callproc.DefaultSchemaConfig()), callproc.CallLoop()))
		if err != nil {
			b.Fatal(err)
		}
		wl, err := callproc.New(fw.Env(), fw.DB(), callproc.DefaultConfig(), callproc.Events{})
		if err != nil {
			b.Fatal(err)
		}
		fw.SetTerminator(wl.TerminateThread)
		if err := fw.Start(); err != nil {
			b.Fatal(err)
		}
		if err := wl.Start(); err != nil {
			b.Fatal(err)
		}
		if err := fw.Run(100 * time.Second); err != nil {
			b.Fatal(err)
		}
		wl.Stop()
		fw.Stop()
	}
}
