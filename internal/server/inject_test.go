package server

import (
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// TestInjectCtlArmsStaticInjector covers the runtime injector control op:
// a server started with no injection at all is armed mid-run in static
// mode, every journaled shot must land inside a non-catalog static extent,
// a forced sweep must join every shot to a finding by trace ID, and
// disarming must stop the shots.
func TestInjectCtlArmsStaticInjector(t *testing.T) {
	srv, addr := newTestServer(t, 1, Config{AuditPeriod: 10 * time.Millisecond})

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.InjectCtl(3*time.Millisecond, 0, wire.InjectModeStatic); err != nil {
		t.Fatalf("InjectCtl arm: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var shots []trace.Event
	for len(shots) < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d shots journaled within deadline", len(shots))
		}
		time.Sleep(10 * time.Millisecond)
		shots = trace.Filter(srv.TraceEvents(trace.KindShot, 0), trace.KindShot)
	}

	// Static mode must only ever hit the non-catalog static extents.
	catalog := srv.cores[0].db.CatalogExtent()
	for _, s := range shots {
		if s.Op != "dbflip" {
			t.Fatalf("unexpected shot model %q", s.Op)
		}
		off := int(s.Arg)
		if off >= catalog.Off && off < catalog.Off+catalog.Len {
			t.Fatalf("static-mode shot hit the catalog at %d", off)
		}
		in := false
		for _, e := range srv.cores[0].db.StaticExtents() {
			if e.Name != "catalog" && off >= e.Off && off < e.Off+e.Len {
				in = true
			}
		}
		if !in {
			t.Fatalf("static-mode shot at %d outside the static extents", off)
		}
	}

	// Disarm, then let in-flight ticks drain: the shot count must freeze.
	if err := c.InjectCtl(0, 0, wire.InjectModeRandom); err != nil {
		t.Fatalf("InjectCtl disarm: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	n := len(trace.Filter(srv.TraceEvents(trace.KindShot, 0), trace.KindShot))
	time.Sleep(50 * time.Millisecond)
	if m := len(trace.Filter(srv.TraceEvents(trace.KindShot, 0), trace.KindShot)); m != n {
		t.Fatalf("disarmed injector still firing: %d -> %d shots", n, m)
	}

	// One forced sweep repairs whatever is still damaged; every shot must
	// then join a finding carrying its trace ID.
	if _, err := c.Sweep(); err != nil {
		t.Fatalf("SWEEP: %v", err)
	}
	evs := srv.TraceEvents(0, 0)
	findings := map[uint64]bool{}
	for _, e := range trace.Filter(evs, trace.KindFinding) {
		findings[e.Trace] = true
	}
	for _, s := range trace.Filter(evs, trace.KindShot) {
		if !findings[s.Trace] {
			t.Errorf("shot seq=%d off=%d never joined a finding", s.Seq, s.Arg)
		}
	}
}

// TestInjectCtlValidates rejects malformed control requests.
func TestInjectCtlValidates(t *testing.T) {
	_, addr := newTestServer(t, 1, Config{})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.InjectCtl(time.Hour, 0, 9); err == nil {
		t.Error("unknown inject mode accepted")
	}
	if r, err := c.Call(wire.Request{Op: wire.OpInjectCtl, Vals: []uint32{1, 2}}); err != nil {
		t.Fatalf("Call: %v", err)
	} else if r.Err() == nil {
		t.Error("short InjectCtl value vector accepted")
	}
	// A well-formed disarm on a server that never injected is a no-op.
	if err := c.InjectCtl(0, 0, wire.InjectModeRandom); err != nil {
		t.Errorf("no-op disarm: %v", err)
	}
}
