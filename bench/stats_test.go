package main

import (
	"bufio"
	"bytes"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The expected values are statistics.quantiles(v, n=4) from CPython 3.11.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 5, 5}, 5, 5, 5},
	} {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestWindowMedians(t *testing.T) {
	sec := int64(time.Second)
	w := newWindows(sec, 3, true)
	// 10, 30 and 20 completions in windows 0..2; one beyond the last full
	// window and one before the phase are ignored.
	for i, n := range []int{10, 30, 20} {
		for k := 0; k < n; k++ {
			w.add(int64(i)*sec+int64(k), int64(1000*(k+1)))
		}
	}
	w.add(3*sec+1, 1)
	w.add(-1, 1)
	if got := w.medianRate(); got != 20 {
		t.Errorf("medianRate = %v, want 20", got)
	}
	// Per-window p50 is 5, 15 and 10 µs; the median across windows is 10.
	if got, n := w.medianPercentile(0.5, 1); got != 10 || n != 10 {
		t.Errorf("medianPercentile = %v (min samples %d), want 10 (10)", got, n)
	}
	// One group of all three windows: 60 samples, p50 is the 30th smallest.
	if got, n := w.medianPercentile(0.5, 3); n != 60 || got != 10 {
		t.Errorf("grouped medianPercentile = %v (%d samples)", got, n)
	}
	// A stall that inflates one window does not move the reported value.
	w.lat[1] = []float64{1e6, 1e6, 1e6}
	if got, _ := w.medianPercentile(0.5, 1); got != 10 {
		t.Errorf("medianPercentile after a one-window stall = %v, want 10", got)
	}
	o := newWindows(sec, 3, true)
	o.add(0, 7000)
	w.merge(o)
	if w.ops[0] != 11 || len(w.lat[0]) != 11 {
		t.Errorf("merge: window 0 has %d ops, %d samples", w.ops[0], len(w.lat[0]))
	}
}

func TestSnapDeltaAcrossReset(t *testing.T) {
	hist := func(n uint64, sum int64) metrics.HistogramSnapshot {
		return metrics.HistogramSnapshot{Count: n, Sum: sum}
	}
	before := metrics.Snapshot{
		Counters:   map[string]uint64{"audit.sweeps": 10, "proc.execs": 5},
		Gauges:     map[string]int64{"wal.appended": 100, "audit.triggers.periodic": 40, "server.queue.high_water": 3},
		Histograms: map[string]metrics.HistogramSnapshot{"server.stage.execute": hist(100, 5000), "audit.check.x": hist(9, 900)},
	}
	after := metrics.Snapshot{
		Counters: map[string]uint64{"audit.sweeps": 25, "proc.execs": 5, "fastlane.reads": 7},
		// audit.triggers.periodic was reset by an audit-process restart and
		// has counted 4 since.
		Gauges:     map[string]int64{"wal.appended": 160, "audit.triggers.periodic": 4, "server.queue.high_water": 6},
		Histograms: map[string]metrics.HistogramSnapshot{"server.stage.execute": hist(300, 25000), "audit.check.x": hist(2, 150)},
	}
	d := snapDelta(before, after)
	for name, want := range map[string]float64{"audit.sweeps": 15, "proc.execs": 0, "fastlane.reads": 7} {
		if d.counters[name] != want {
			t.Errorf("counter %s grew %v, want %v", name, d.counters[name], want)
		}
	}
	if d.gauges["wal.appended"] != 60 || d.gauges["audit.triggers.periodic"] != 4 {
		t.Errorf("gauge growth: %v", d.gauges)
	}
	if d.last["server.queue.high_water"] != 6 {
		t.Errorf("last reading: %v", d.last)
	}
	if d.histN["server.stage.execute"] != 200 || d.histSum["server.stage.execute"] != 20000 {
		t.Errorf("histogram delta: n %v sum %v", d.histN, d.histSum)
	}
	if d.histN["audit.check.x"] != 2 || d.histSum["audit.check.x"] != 150 {
		t.Errorf("histogram delta across a reset: n %v sum %v", d.histN["audit.check.x"], d.histSum["audit.check.x"])
	}
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Error("ratio")
	}
}

func planBytes(spec *workloadSpec, conn int, seed int64, n int) []byte {
	g := newGenerator(spec, conn, seed)
	var b []byte
	for i := 0; i < n; i++ {
		b = g.next().appendTo(b)
	}
	return b
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		a, b := planBytes(spec, 0, 42, 20000), planBytes(spec, 0, 42, 20000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different plans", spec.name)
		}
		if bytes.Equal(a, planBytes(spec, 0, 43, 20000)) {
			t.Errorf("%s: two seeds gave the same plan", spec.name)
		}
		if bytes.Equal(a, planBytes(spec, 1, 42, 20000)) {
			t.Errorf("%s: both connections got the same plan", spec.name)
		}
	}
}

func TestPlanHonoursTheMixAndTheRanges(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		m := spec.mix
		if sum := m.write + m.read + m.move + m.status + m.churn + m.txn + m.procTouch + m.procScan; sum != 100 {
			t.Errorf("%s: mix sums to %d", spec.name, sum)
		}
		for conn := 0; conn < numConns; conn++ {
			g := newGenerator(spec, conn, 7)
			var kinds [numKinds]int
			for n := 0; n < 50000; n++ {
				op := g.next()
				kinds[op.Kind]++
				if op.Kind == kBegin || op.Kind == kCommit {
					continue
				}
				if op.Slot < 0 || op.Slot >= spec.slots {
					t.Fatalf("%s: slot %d out of range", spec.name, op.Slot)
				}
				owned := false
				for _, tb := range spec.tables[conn] {
					owned = owned || tb == op.Table
				}
				if !owned {
					t.Fatalf("%s: conn %d addresses table %d", spec.name, conn, op.Table)
				}
				for f := 0; f < op.NVals && op.Kind != kProcTouch; f++ {
					field := f
					if op.Kind == kWriteFld {
						field = op.Field
					}
					if op.Vals[f] > fieldMax[op.Table][field] {
						t.Fatalf("%s: value %d exceeds field range", spec.name, op.Vals[f])
					}
				}
			}
			if kinds[kFree] != kinds[kAlloc] || kinds[kBegin] != kinds[kCommit] {
				t.Errorf("%s: unpaired units: %v", spec.name, kinds)
			}
			if (m.churn == 0) != (kinds[kFree] == 0) || (m.txn == 0) != (kinds[kBegin] == 0) ||
				(m.procScan == 0) != (kinds[kProcScan] == 0) || (m.read == 0) != (kinds[kReadFld] == 0) {
				t.Errorf("%s: kinds drawn do not match the mix: %v", spec.name, kinds)
			}
		}
	}
}

// fakeServer answers DBinit, DBalloc and every write with OK. After `after`
// requests it stops reading for `stall`, once.
func fakeServer(t *testing.T, after int, stall time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
		var buf []byte
		next := uint32(0)
		for n := 0; ; n++ {
			if n == after {
				time.Sleep(stall)
			}
			payload, err := wire.ReadFrame(br, wire.MaxFrame)
			if err != nil {
				return
			}
			q, err := wire.ParseRequest(payload)
			if err != nil {
				return
			}
			r := wire.Response{Seq: q.Seq}
			switch q.Op {
			case wire.OpInit:
				r.Vals = []uint32{1}
			case wire.OpAlloc:
				r.Vals = []uint32{next}
				next++
			}
			buf = wire.AppendResponse(buf[:0], r)
			if wire.WriteFrame(bw, buf) != nil {
				return
			}
			if br.Buffered() == 0 && bw.Flush() != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// A stalled server must show up as latency on every request that fell due
// during the stall; the schedule itself must not slow down.
func TestOpenLoopChargesAStallToLatencyNotToTheRate(t *testing.T) {
	spec, err := findWorkload("wal-write") // writes only: every reply is a bare OK
	if err != nil {
		t.Fatal(err)
	}
	const (
		stall    = 300 * time.Millisecond
		interval = time.Millisecond
		length   = time.Second
	)
	// 1 DBinit + 16 DBallocs precede the phase; stall 100 requests into it.
	addr := fakeServer(t, 1+spec.slots+100, stall)
	base := time.Now()
	cs, err := dialConn(addr, 0, spec, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.c.Close()
	if err := cs.preload(); err != nil {
		t.Fatal(err)
	}
	start := cs.now()
	end := start + int64(length)
	var want int64
	for s := newSchedule(1, 0, start, int64(interval)); s.due < end; s.advance() {
		want++
	}
	rec := &phaseRec{start: start, win: newWindows(int64(length), 1, true)}
	if err := cs.runOpen(newSchedule(1, 0, start, int64(interval)), end, rec); err != nil {
		t.Fatal(err)
	}
	if want < 900 || want > 1100 {
		t.Errorf("schedule holds %d requests at 1 per ms over 1 s", want)
	}
	if rec.sent != want || rec.done != want {
		t.Errorf("sent %d, completed %d, schedule holds %d requests", rec.sent, rec.done, want)
	}
	if n := cs.fail.total(); n != 0 {
		t.Errorf("%d failures: %s", n, cs.fail.first)
	}
	// Requests due in the first half of the stall waited at least the other
	// half: with a 300-ms stall at 1 request/ms that is about 150 requests.
	slow := 0
	for _, us := range rec.win.lat[0] {
		if us >= float64(stall.Microseconds())/2 {
			slow++
		}
	}
	if slow < 100 || slow > 200 {
		t.Errorf("%d requests were charged at least half the stall, want about 150", slow)
	}
}

func TestJoinPairsShotsWithTheirFirstFinding(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	j := journal{}
	for _, ev := range []trace.Event{
		{Seq: 1, At: ms(5), Kind: trace.KindShot, Op: "dbflip", Trace: 100}, // before the window
		{Seq: 2, At: ms(9), Kind: trace.KindFinding, Trace: 100},
		{Seq: 3, At: ms(10), Kind: trace.KindShot, Op: "dbflip", Trace: 101},
		{Seq: 4, At: ms(20), Kind: trace.KindShot, Op: "dbflip", Trace: 102},
		{Seq: 5, At: ms(50), Kind: trace.KindFinding, Trace: 101},
		{Seq: 6, At: ms(50), Kind: trace.KindFinding, Trace: 102},
		{Seq: 7, At: ms(90), Kind: trace.KindFinding, Trace: 101}, // a later finding of the same shot
		{Seq: 8, At: ms(60), Kind: trace.KindShot, Op: "textflip", Trace: 103},
		{Seq: 9, At: ms(70), Kind: trace.KindShot, Op: "dbflip", Trace: 104}, // never found
	} {
		j[ev.Seq] = ev
	}
	d := j.join(2)
	if d.shots != 3 || d.unjoined != 1 {
		t.Fatalf("join: %d shots, %d unjoined, want 3 and 1", d.shots, d.unjoined)
	}
	if len(d.latMs) != 2 || d.latMs[0] != 30 || d.latMs[1] != 40 {
		t.Errorf("latencies %v, want [30 40]", d.latMs)
	}
	if j.maxSeq() != 9 {
		t.Errorf("maxSeq = %d", j.maxSeq())
	}
}

// The workloads the driver knows must be the ones BENCHMARK.json declares,
// and the declared bounds must respect the contract.
func TestBenchmarkFileMatchesTheDriver(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the driver has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the driver", i, w.Name, workloads[i].name)
		}
	}
	setup := false
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}
