package server

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/callproc"
	"repro/internal/health"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestHealthEndToEnd is the health plane's acceptance test: a server with
// the fault injector armed serves live traffic while periodic audits sweep
// the region; the ledger must catch shots online, the debt meter must
// account sweeps, and the HEALTH wire op must carry a parseable Status
// document reporting all of it. After a final SWEEP the ledger's counts
// must equal a first-finding join over the trace journal of the same run —
// the join bench/run.go checks health.detect.joined against.
func TestHealthEndToEnd(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { testHealthEndToEnd(t, n) })
	}
}

func testHealthEndToEnd(t *testing.T, n int) {
	srv, addr := newTestServer(t, n, Config{
		AuditPeriod:  20 * time.Millisecond,
		InjectPeriod: 15 * time.Millisecond,
		InjectSeed:   3,
	})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Init(); err != nil {
		t.Fatal(err)
	}
	ri, err := c.Alloc(callproc.TblRes, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The shot and finding events, merged by sequence across polls so the
	// audit ring's check events cannot wrap findings away between them.
	journal := map[uint64]trace.Event{}
	poll := func() {
		for _, k := range []trace.Kind{trace.KindShot, trace.KindFinding} {
			for _, ev := range srv.TraceEvents(k, 0) {
				journal[ev.Seq] = ev
			}
		}
	}

	// Drive load until the ledger has caught a few shots (injections land
	// between requests; audits run live).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("too few shots caught within deadline")
		}
		for i := 0; i < 50; i++ {
			_ = c.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, uint32(i%101))
			_, _ = c.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
		}
		poll()
		if st := srv.Health(); st.Detection != nil && st.Detection.Joined >= 4 {
			break
		}
	}

	// The document crosses the wire and round-trips.
	doc, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	st, err := health.ParseStatus(doc)
	if err != nil {
		t.Fatalf("HEALTH returned unparseable status: %v", err)
	}
	if st.Detection == nil || st.Detection.Joined == 0 {
		t.Fatalf("wire status joined nothing: %+v", st.Detection)
	}
	if st.AuditDebt == nil || st.AuditDebt.SweepsCompleted == 0 {
		t.Fatalf("wire status carries no audit-debt accounting: %+v", st.AuditDebt)
	}
	if e := st.AuditDebt.Elements; len(e) == 0 {
		t.Fatal("no per-checker element accounting")
	}
	names := make(map[string]bool)
	for _, sub := range st.Subsystems {
		names[sub.Name] = true
	}
	if !names["serving"] || !names["audit"] {
		t.Fatalf("subsystems = %v, want serving and audit", names)
	}

	// Stop the shots, let a forced sweep catch what is still damaged, and
	// join the journal: each region shot pairs with the first finding
	// carrying its trace ID, as bench/detect.go pairs them.
	if err := c.InjectCtl(0, 0, wire.InjectModeRandom); err != nil {
		t.Fatalf("InjectCtl disarm: %v", err)
	}
	poll()
	if _, err := c.Sweep(); err != nil {
		t.Fatalf("SWEEP: %v", err)
	}
	poll()
	first := map[uint64]trace.Event{}
	var shots []trace.Event
	for _, ev := range journal {
		switch {
		case ev.Kind == trace.KindShot && ev.Op == "dbflip":
			shots = append(shots, ev)
		case ev.Kind == trace.KindFinding && ev.Trace != 0:
			if f, ok := first[ev.Trace]; !ok || ev.Seq < f.Seq {
				first[ev.Trace] = ev
			}
		}
	}
	joined := 0
	for _, sh := range shots {
		if f, ok := first[sh.Trace]; ok && f.At >= sh.At {
			joined++
		}
	}

	// Health gauges ride the ordinary STATS2 snapshot.
	snap := srv.SnapshotMetrics()
	for _, g := range []string{"health.state", "health.audit.state",
		"health.detect.joined", "audit.debt.sweeps_completed"} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("gauge %s missing from snapshot", g)
		}
	}
	if got := snap.Gauges["health.detect.shots"]; got != int64(len(shots)) {
		t.Errorf("health.detect.shots = %d, journal holds %d shots", got, len(shots))
	}
	if got := snap.Gauges["health.detect.joined"]; got != int64(joined) {
		t.Errorf("health.detect.joined = %d, journal join = %d", got, joined)
	}
	if got := snap.Gauges["health.detect.open_shots"]; got != int64(len(shots)-joined) {
		t.Errorf("health.detect.open_shots = %d, journal join leaves %d", got, len(shots)-joined)
	}
	if h := snap.Histograms["health.detect.latency"]; h.Count != uint64(joined) || h.Max <= 0 {
		t.Errorf("health.detect.latency count=%d max=%d, want %d catches", h.Count, h.Max, joined)
	}
}

// TestLedgerExactPastRingWrap injects more shots than the inject ring
// retains: the ledger still counts every one of them, while the journal,
// and so any join over it, has lost the oldest.
func TestLedgerExactPastRingWrap(t *testing.T) {
	const total = 5000
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			srv, addr := newTestServer(t, n, Config{})
			c := dialInit(t, addr)
			for k, core := range srv.cores {
				per := total / n
				if k == 0 {
					per += total % n
				}
				// Shots cycle through 32 offsets of a static extent, one bit each.
				if !core.onExecutor(func() {
					for i := 0; i < per; i++ {
						core.injectAt(320+5*(i%32), uint(i%8))
					}
				}) {
					t.Fatalf("core %d gone before injecting", k)
				}
			}
			if _, err := c.Sweep(); err != nil {
				t.Fatalf("SWEEP: %v", err)
			}
			g := srv.SnapshotMetrics().Gauges
			shots, joined, open := g["health.detect.shots"], g["health.detect.joined"], g["health.detect.open_shots"]
			if shots != total || joined+open != total || joined == 0 {
				t.Fatalf("shots=%d joined=%d open=%d, want %d shots, joined+open=%[1]d, some joined",
					shots, joined, open, total)
			}
			if got := len(srv.TraceEvents(trace.KindShot, 0)); got >= total {
				t.Fatalf("journal retains %d shot events, want fewer than %d", got, total)
			}
			doc, err := c.TraceJSON(int(trace.KindShot), trace.DefaultRingSize)
			if err != nil {
				t.Fatalf("TRACE: %v", err)
			}
			evs, err := trace.DecodeJSON(doc)
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) >= total {
				t.Fatalf("TRACE returned %d shot events, want fewer than %d", len(evs), total)
			}
		})
	}
}

// TestServedObjectiveBounds pins the bound of every objective a WAL-backed,
// audited server evaluates, as the HEALTH document carries them.
func TestServedObjectiveBounds(t *testing.T) {
	_, wals := openTestWALs(t, 1)
	_, addr := newTestServer(t, 1, Config{}, wals...)
	doc, err := dialInit(t, addr).Health()
	if err != nil {
		t.Fatal(err)
	}
	st, err := health.ParseStatus(doc)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, sub := range st.Subsystems {
		for _, o := range sub.Objectives {
			got[sub.Name+"/"+o.Name] = o.Bound
		}
	}
	want := map[string]float64{
		"serving/shed-rate":      1,
		"audit/detect-p99":       2000,
		"audit/detect-watermark": 2000,
		"audit/audit-behind":     3,
		"audit/heartbeat-miss":   1,
		"replication/repl-lag":   512,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("objective bounds = %v, want %v", got, want)
	}
}
