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
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/experiment"
	"repro/internal/framework"
	"repro/internal/inject"
	"repro/internal/ipc"
	"repro/internal/isa"
	"repro/internal/memdb"
	"repro/internal/pecos"
	"repro/internal/robust"
	"repro/internal/sim"
	"repro/internal/vm"
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
		fw, err := framework.New(framework.DefaultConfig(
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
