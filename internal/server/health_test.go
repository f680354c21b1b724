package server

import (
	"testing"
	"time"

	"repro/internal/callproc"
	"repro/internal/health"
	"repro/internal/wire"
)

// TestHealthEndToEnd is the health plane's acceptance test: a server with
// the fault injector armed serves live traffic while periodic audits sweep
// the region; the plane must join shots to findings online, the debt meter
// must account sweeps, and the HEALTH wire op must carry a parseable Status
// document reporting all of it.
func TestHealthEndToEnd(t *testing.T) {
	srv, addr := newTestServer(t, 1, Config{
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

	// Drive load until the detector has joined at least one shot to a
	// finding (injections land between requests; audits run live).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no shot joined to a finding within deadline")
		}
		for i := 0; i < 50; i++ {
			_ = c.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, uint32(i%101))
			_, _ = c.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
		}
		if st := srv.Health(); st.Detection != nil && st.Detection.Joined > 0 {
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

	// Health gauges ride the ordinary STATS2 snapshot.
	snap := srv.SnapshotMetrics()
	for _, g := range []string{"health.state", "health.audit.state",
		"health.detect.joined", "audit.debt.sweeps_completed"} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("gauge %s missing from snapshot", g)
		}
	}
	if snap.Gauges["health.detect.joined"] == 0 {
		t.Error("health.detect.joined gauge stuck at zero")
	}
}
