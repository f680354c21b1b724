package server

import (
	"testing"
	"time"

	"repro/internal/callproc"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// TestStats2Snapshot is the observability layer's end-to-end test: drive
// real traffic over loopback, fetch the STATS2 snapshot through the wire
// protocol, and check that every layer published — per-opcode latency
// histograms, audit check runtimes and sweep/finding counters, queue
// gauges, and the memdb table activity bridge.
func TestStats2Snapshot(t *testing.T) {
	_, addr := newTestServer(t, 1, Config{QueueDepth: 64, AuditPeriod: 20 * time.Millisecond})
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
	for i := 0; i < 50; i++ {
		if err := c.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, uint32(i%101)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadRec(callproc.TblRes, ri); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := c.Sweep(); err != nil || n != 0 {
		t.Fatalf("sweep: %d findings, err %v", n, err)
	}

	doc, err := c.Stats2()
	if err != nil {
		t.Fatalf("Stats2: %v", err)
	}
	snap, err := metrics.ParseSnapshot(doc)
	if err != nil {
		t.Fatalf("ParseSnapshot: %v\ndocument:\n%s", err, doc)
	}

	// Per-opcode latency histograms: the ops driven above must have
	// observations with sane percentiles.
	for _, op := range []string{"DBwrite_fld", "DBread_rec", "DBalloc"} {
		h, ok := snap.Histograms["server.latency."+op]
		if !ok {
			t.Fatalf("snapshot has no server.latency.%s histogram", op)
		}
		if h.Count == 0 {
			t.Errorf("server.latency.%s: zero observations", op)
		}
		if h.P50 <= 0 || h.P95 < h.P50 || h.P99 < h.P95 || h.Max < h.P50 {
			t.Errorf("server.latency.%s: implausible percentiles %+v", op, h)
		}
	}
	if snap.Histograms["server.latency.DBwrite_fld"].Count != 50 {
		t.Errorf("DBwrite_fld count = %d, want 50",
			snap.Histograms["server.latency.DBwrite_fld"].Count)
	}

	// Audit layer: the forced sweep (and any periodic ones) timed every
	// check and counted the sweep.
	for _, check := range []string{"static-data", "structural", "dynamic-range"} {
		h, ok := snap.Histograms["audit.check."+check]
		if !ok {
			t.Fatalf("snapshot has no audit.check.%s histogram", check)
		}
		if h.Count == 0 {
			t.Errorf("audit.check.%s: zero runs", check)
		}
	}
	if snap.Counters["audit.sweeps"] == 0 {
		t.Error("audit.sweeps counter is zero after a forced sweep")
	}
	if snap.Counters["audit.sweeps.forced"] == 0 {
		t.Error("audit.sweeps.forced counter is zero after OpSweep")
	}

	// Queue and connection gauges.
	if got := snap.Gauges["server.queue.capacity"]; got != 64 {
		t.Errorf("server.queue.capacity = %d, want 64", got)
	}
	if snap.Gauges["server.queue.dropped"] != 0 {
		t.Errorf("server.queue.dropped = %d, want 0", snap.Gauges["server.queue.dropped"])
	}
	if snap.Gauges["server.conns.active"] < 1 {
		t.Errorf("server.conns.active = %d, want >= 1", snap.Gauges["server.conns.active"])
	}
	if snap.Gauges["server.executed"] < 100 {
		t.Errorf("server.executed = %d, want >= 100", snap.Gauges["server.executed"])
	}
	if snap.Gauges["server.audit.findings"] != 0 {
		t.Errorf("server.audit.findings = %d, want 0", snap.Gauges["server.audit.findings"])
	}

	// memdb activity bridge: the Resource table saw the traffic.
	if snap.Gauges["memdb.table.Resource.writes"] == 0 {
		t.Error("memdb.table.Resource.writes gauge is zero")
	}
	if snap.Gauges["memdb.table.Resource.reads"] == 0 {
		t.Error("memdb.table.Resource.reads gauge is zero")
	}
	if snap.Gauges["memdb.clients"] < 1 {
		t.Errorf("memdb.clients = %d, want >= 1", snap.Gauges["memdb.clients"])
	}
}
