package health

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// at is a finding that covers exactly one region offset.
func at(off int) func(int) bool { return func(o int) bool { return o == off } }

func TestDetectorJoinAndWatermark(t *testing.T) {
	d := NewDetector()
	// Three shots; two caught at 100ms and 300ms, one left open.
	d.Shot(0, 1, 10, 1*time.Second)
	d.Shot(0, 2, 20, 1*time.Second)
	d.Shot(0, 3, 30, 2*time.Second)
	for _, r := range []struct {
		core, off int
		now       time.Duration
		want      uint64
	}{
		{0, 10, 1100 * time.Millisecond, 1},
		{0, 20, 1300 * time.Millisecond, 2},
		// A repeat finding on a caught shot keeps its ID and adds nothing.
		{0, 10, 1400 * time.Millisecond, 1},
		// A finding that covers no shot of its own core resolves to none.
		{0, 99, 1400 * time.Millisecond, 0},
		{1, 10, 1400 * time.Millisecond, 0},
	} {
		if got := d.Resolve(r.core, at(r.off), r.now); got != r.want {
			t.Fatalf("Resolve(core %d, off %d) = %d, want %d", r.core, r.off, got, r.want)
		}
	}

	s := d.Snapshot(3 * time.Second)
	if s.Shots != 3 || s.Joined != 2 || s.WindowJoined != 2 {
		t.Fatalf("shots/joined/window = %d/%d/%d, want 3/2/2", s.Shots, s.Joined, s.WindowJoined)
	}
	if s.P50 != 100*time.Millisecond || s.P99 != 300*time.Millisecond {
		t.Fatalf("p50/p99 = %v/%v, want 100ms/300ms", s.P50, s.P99)
	}
	if s.OpenShots != 1 || s.OldestOpen != 1*time.Second {
		t.Fatalf("open = %d oldest = %v, want 1 / 1s", s.OpenShots, s.OldestOpen)
	}
	if s.Overruns != 0 {
		t.Fatalf("overruns = %d, want 0", s.Overruns)
	}

	// Past the 2s bound the open shot becomes an overrun — counted once,
	// even across repeated snapshots and a late catch.
	s = d.Snapshot(5 * time.Second)
	if s.Overruns != 1 || s.OldestOpen != 3*time.Second {
		t.Fatalf("overruns = %d oldest = %v, want 1 / 3s", s.Overruns, s.OldestOpen)
	}
	d.Snapshot(6 * time.Second)
	if got := d.Resolve(0, at(30), 6*time.Second); got != 3 {
		t.Fatalf("late finding resolved to %d, want 3", got)
	}
	if s = d.Snapshot(7 * time.Second); s.Overruns != 1 {
		t.Fatalf("overrun double-counted: %d", s.Overruns)
	}
	if s.OpenShots != 0 || s.OldestOpen != 0 {
		t.Fatalf("watermark did not drain: open=%d oldest=%v", s.OpenShots, s.OldestOpen)
	}

	// Two shots at one offset: a finding resolves to the newer.
	d.Shot(0, 4, 40, 8*time.Second)
	d.Shot(0, 5, 40, 8*time.Second)
	if got := d.Resolve(0, at(40), 9*time.Second); got != 5 {
		t.Fatalf("finding resolved to %d, want the newest covering shot 5", got)
	}
	if s = d.Snapshot(9 * time.Second); s.Joined != 4 || s.OpenShots != 1 {
		t.Fatalf("joined/open = %d/%d, want 4/1", s.Joined, s.OpenShots)
	}
}

// TestDetectorEvictsAtCap: a shot that leaves its core's window uncaught
// stays open for good and counts in Evicted (a caught one leaves quietly),
// no later finding can catch it, its age keeps the watermark up, and it
// overruns the bound exactly once.
func TestDetectorEvictsAtCap(t *testing.T) {
	d := NewDetector()
	for i := 0; i < windowShots; i++ {
		d.Shot(0, uint64(i+1), i, time.Duration(i)*time.Millisecond)
	}
	if got := d.Resolve(0, at(1), 100*time.Millisecond); got != 2 {
		t.Fatalf("Resolve = %d, want 2", got)
	}
	// Another core's shots never push core 0's out.
	d.Shot(1, 1000, 0, 150*time.Millisecond)
	// Two more shots push out shot 1 (open) and shot 2 (caught).
	d.Shot(0, windowShots+1, windowShots, 200*time.Millisecond)
	d.Shot(0, windowShots+2, windowShots+1, 200*time.Millisecond)
	if got := d.Resolve(0, at(0), 250*time.Millisecond); got != 0 {
		t.Fatalf("finding resolved to %d after its shot left the window", got)
	}

	s := d.Snapshot(300 * time.Millisecond)
	const shots = windowShots + 3
	if s.Shots != shots || s.Joined != 1 || s.OpenShots != shots-1 || s.Evicted != 1 {
		t.Fatalf("shots=%d joined=%d open=%d evicted=%d, want %d/1/%d/1",
			s.Shots, s.Joined, s.OpenShots, s.Evicted, shots, shots-1)
	}
	if s.OldestOpen != 300*time.Millisecond {
		t.Fatalf("oldest = %v, want 300ms (the evicted shot 1)", s.OldestOpen)
	}
	// Past the bound every open shot overruns once, the evicted one too.
	if s = d.Snapshot(DetectBound + 500*time.Millisecond); s.Overruns != shots-1 {
		t.Fatalf("overruns = %d, want %d", s.Overruns, shots-1)
	}
	if s = d.Snapshot(3 * time.Second); s.Overruns != shots-1 || s.OldestOpen != 3*time.Second {
		t.Fatalf("overruns = %d oldest = %v, want %d / 3s", s.Overruns, s.OldestOpen, shots-1)
	}
}

func TestDebtMeterSchedule(t *testing.T) {
	m := NewDebtMeter(100 * time.Millisecond)
	at := time.Unix(1000, 0)
	m.nowFn = func() time.Time { return at }

	if m.Behind() != 0 {
		t.Fatal("unstarted meter reports debt")
	}
	sweep := func(names ...string) {
		m.SweepStart(len(names))
		for _, n := range names {
			m.ElementScheduled(n)
			m.ElementDone(n)
		}
		m.SweepEnd()
	}
	sweep("checksum", "semantic")
	if m.Behind() != 0 {
		t.Fatalf("on-schedule behind = %d, want 0", m.Behind())
	}

	// 500ms pass with no sweeps: 5 sweeps owed.
	at = at.Add(500 * time.Millisecond)
	if got := m.Behind(); got != 5 {
		t.Fatalf("behind = %d, want 5", got)
	}
	// The late sweep's start gap (>1.5x period) is an interval overrun,
	// and catch-up sweeps drain the debt to zero.
	for i := 0; i < 5; i++ {
		sweep("checksum", "semantic")
	}
	if got := m.Behind(); got != 0 {
		t.Fatalf("post-catch-up behind = %d, want 0", got)
	}
	st := m.Status()
	if st.IntervalOverruns != 1 {
		t.Fatalf("interval overruns = %d, want 1", st.IntervalOverruns)
	}
	if st.MaxBehind < 5 {
		t.Fatalf("max behind = %d, want >= 5", st.MaxBehind)
	}
	if st.SweepsStarted != 6 || st.SweepsCompleted != 6 {
		t.Fatalf("sweeps = %d/%d, want 6/6", st.SweepsCompleted, st.SweepsStarted)
	}
	if e := st.Elements["checksum"]; e.Scheduled != 6 || e.Completed != 6 {
		t.Fatalf("checksum element debt = %+v, want 6/6", e)
	}
	if st.ElementsScheduled != 12 || st.ElementsCompleted != 12 {
		t.Fatalf("elements = %d/%d, want 12/12", st.ElementsCompleted, st.ElementsScheduled)
	}
}

// TestConcurrentHealthReads is the race-detector stress test: health-state
// readers (Status, State, gauges and the latency histogram through a
// registry snapshot) run against concurrent ledger updates from two cores'
// injectors and audits, debt hooks, and evaluator ticks. Run with -race
// (the repo's `make test` does).
func TestConcurrentHealthReads(t *testing.T) {
	rec := trace.New()
	p := NewPlane(rec.Now)
	p.eval.win.period = time.Millisecond
	p.eval.win.minSamples = 1
	debt := NewDebtMeter(time.Millisecond)
	p.SetDebt(debt)
	p.AddObjective(Objective{
		Name: "detect-p99", Subsystem: "audit", Bound: 2000,
		Value: func(now time.Duration) float64 {
			return float64(p.Detect().Snapshot(now).P99.Milliseconds())
		},
	})
	p.AddObjective(Objective{
		Name: "audit-behind", Subsystem: "audit", Bound: 3,
		Value: func(time.Duration) float64 { return float64(debt.Behind()) },
	})
	reg := metrics.NewRegistry()
	p.RegisterMetrics(reg)
	det := p.Detect()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	work := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					f(i)
				}
			}
		}()
	}
	// Writers: each core's shots and findings, debt hooks, ticks.
	for core := 0; core < 2; core++ {
		work(func(i int) {
			det.Shot(core, rec.NextTrace(), i, rec.Now())
			det.Resolve(core, at(i), rec.Now())
		})
	}
	work(func(i int) {
		debt.SweepStart(1)
		debt.ElementScheduled("checksum")
		debt.ElementDone("checksum")
		debt.SweepEnd()
	})
	work(func(i int) { p.Tick() })
	// Readers.
	for r := 0; r < 3; r++ {
		work(func(i int) {
			st := p.Status()
			_ = st.State.String()
			_ = p.State()
			_ = reg.Snapshot()
		})
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	s := det.Snapshot(rec.Now())
	if s.Joined == 0 || s.Joined != s.Shots {
		t.Fatalf("stress run joined %d of %d shots", s.Joined, s.Shots)
	}
	if h := reg.Snapshot().Histograms["health.detect.latency"]; h.Count != s.Joined {
		t.Fatalf("latency histogram holds %d catches, ledger %d", h.Count, s.Joined)
	}
}

func TestStatusRoundTripAndText(t *testing.T) {
	rec := trace.New()
	p := NewPlane(rec.Now)
	debt := NewDebtMeter(200 * time.Millisecond)
	p.SetDebt(debt)
	p.AddObjective(Objective{
		Name: "shed-rate", Subsystem: "serving", Bound: 1,
		Value: func(time.Duration) float64 { return 0 },
	})
	debt.SweepStart(1)
	debt.ElementScheduled("checksum")
	debt.ElementDone("checksum")
	debt.SweepEnd()
	p.Tick()

	st := p.Status()
	data, err := st.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseStatus(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.State != st.State || len(back.Subsystems) != 1 || back.Subsystems[0].Name != "serving" {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if back.AuditDebt == nil || back.AuditDebt.SweepsCompleted != 1 {
		t.Fatalf("debt lost in round trip: %+v", back.AuditDebt)
	}
	if back.Detection == nil {
		t.Fatal("detection lost in round trip")
	}

	var sb strings.Builder
	if err := st.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"health: ok", "subsystem serving", "shed-rate", "detection:", "audit debt:"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, sb.String())
		}
	}

	if _, err := ParseStatus([]byte(`{"state":"nonsense"}`)); err == nil {
		t.Fatal("garbage state accepted")
	}
}
