package server

import (
	"fmt"
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

// shotStreams are the first 32 (offset, bit) pairs each core's data
// injector draws with InjectSeed 3, per region count and targeting mode.
var shotStreams = map[[2]int][][][2]int64{
	{1, wire.InjectModeRandom}: {{
		{1714, 6}, {3318, 1}, {3983, 7}, {3202, 6}, {276, 0}, {2684, 5}, {2331, 7}, {1547, 5},
		{3270, 1}, {3397, 3}, {844, 6}, {269, 2}, {2539, 2}, {1791, 5}, {2014, 1}, {1460, 3},
		{2988, 3}, {248, 0}, {1124, 3}, {1588, 5}, {2128, 3}, {2166, 1}, {937, 7}, {2934, 6},
		{3707, 4}, {4155, 0}, {709, 0}, {1046, 1}, {664, 5}, {828, 6}, {1759, 5}, {2575, 5},
	}},
	{1, wire.InjectModeStatic}: {{
		{320, 2}, {325, 6}, {330, 6}, {335, 1}, {340, 7}, {345, 7}, {350, 2}, {355, 6},
		{360, 4}, {365, 0}, {370, 4}, {375, 5}, {380, 3}, {385, 7}, {390, 3}, {395, 5},
		{400, 6}, {405, 1}, {410, 5}, {415, 3}, {420, 4}, {425, 6}, {430, 5}, {435, 2},
		{440, 3}, {445, 2}, {450, 7}, {455, 5}, {460, 6}, {465, 1}, {470, 4}, {475, 3},
	}},
	{2, wire.InjectModeRandom}: {{
		{1362, 6}, {606, 1}, {1303, 7}, {2218, 6}, {1948, 0}, {1284, 5}, {1579, 7}, {83, 5},
		{1646, 1}, {1917, 3}, {1940, 6}, {181, 2}, {747, 2}, {39, 5}, {646, 1}, {1180, 3},
		{1836, 3}, {680, 0}, {2180, 3}, {28, 5}, {320, 3}, {1558, 1}, {385, 7}, {1550, 6},
		{363, 4}, {483, 0}, {2197, 0}, {1326, 1}, {88, 5}, {1764, 6}, {2311, 5}, {1599, 5},
	}, {
		{1860, 7}, {114, 3}, {1671, 4}, {286, 7}, {46, 6}, {1749, 2}, {1206, 6}, {898, 4},
		{154, 2}, {1714, 7}, {1801, 4}, {1711, 6}, {1202, 6}, {2154, 5}, {1390, 4}, {257, 5},
		{133, 7}, {1523, 6}, {206, 5}, {753, 4}, {541, 0}, {833, 1}, {2219, 2}, {1103, 6},
		{780, 7}, {2136, 2}, {244, 0}, {1126, 6}, {1309, 0}, {849, 5}, {1409, 3}, {436, 0},
	}},
	{2, wire.InjectModeStatic}: {{
		{320, 2}, {325, 6}, {330, 6}, {335, 1}, {340, 7}, {345, 7}, {350, 2}, {355, 6},
		{360, 4}, {365, 0}, {370, 4}, {375, 5}, {380, 3}, {385, 7}, {390, 3}, {395, 5},
		{400, 6}, {405, 1}, {410, 5}, {415, 3}, {420, 4}, {425, 6}, {430, 5}, {435, 2},
		{440, 3}, {445, 2}, {450, 7}, {455, 5}, {460, 6}, {465, 1}, {470, 4}, {475, 3},
	}, {
		{320, 4}, {325, 7}, {330, 2}, {335, 3}, {340, 7}, {345, 4}, {350, 6}, {355, 7},
		{360, 6}, {365, 6}, {370, 5}, {375, 2}, {380, 6}, {385, 6}, {390, 2}, {395, 4},
		{400, 2}, {405, 2}, {410, 2}, {415, 7}, {420, 1}, {425, 4}, {430, 7}, {435, 6},
		{440, 2}, {445, 6}, {450, 2}, {455, 5}, {460, 6}, {465, 4}, {470, 1}, {475, 5},
	}},
}

// TestShotStreamPinned pins the data injector's draw order: the first 32
// shots TRACE returns, in random mode (armed by Config) and static mode
// (armed by InjectCtl), must carry the recorded (offset, bit) pairs. With two
// regions both cores share the inject ring, so the journal may hold any
// interleaving of the two per-core streams.
func TestShotStreamPinned(t *testing.T) {
	for _, n := range []int{1, 2} {
		for _, mode := range []int{wire.InjectModeRandom, wire.InjectModeStatic} {
			t.Run(fmt.Sprintf("n=%d/mode=%d", n, mode), func(t *testing.T) {
				cfg := Config{InjectSeed: 3}
				if mode == wire.InjectModeRandom {
					cfg.InjectPeriod = time.Millisecond
				}
				_, addr := newTestServer(t, n, cfg)
				c, err := wire.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if mode == wire.InjectModeStatic {
					if err := c.InjectCtl(time.Millisecond, 0, mode); err != nil {
						t.Fatalf("InjectCtl arm: %v", err)
					}
				}
				var shots []trace.Event
				for deadline := time.Now().Add(5 * time.Second); len(shots) < 32; {
					if time.Now().After(deadline) {
						t.Fatalf("only %d shots journaled within deadline", len(shots))
					}
					time.Sleep(10 * time.Millisecond)
					doc, err := c.TraceJSON(int(trace.KindShot), 0)
					if err != nil {
						t.Fatal(err)
					}
					if shots, err = trace.DecodeJSON(doc); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.InjectCtl(0, 0, wire.InjectModeRandom); err != nil {
					t.Fatalf("InjectCtl disarm: %v", err)
				}
				got := make([][2]int64, 32)
				for i, s := range shots[:32] {
					if s.Op != "dbflip" {
						t.Fatalf("shot %d: model %q", i, s.Op)
					}
					got[i] = [2]int64{s.Arg, s.Code}
				}
				if !interleaves(got, shotStreams[[2]int{n, mode}]) {
					t.Fatalf("first 32 shots %v are no interleaving of the recorded per-core streams", got)
				}
			})
		}
	}
}

// interleaves reports whether got is an interleaving of prefixes of the
// streams (at most two), tracking every reachable pair of stream positions.
func interleaves(got [][2]int64, streams [][][2]int64) bool {
	if len(streams) == 1 {
		streams = append(streams, nil)
	}
	a, b := streams[0], streams[1]
	reach := map[[2]int]bool{{0, 0}: true}
	for _, g := range got {
		next := map[[2]int]bool{}
		for p := range reach {
			if p[0] < len(a) && a[p[0]] == g {
				next[[2]int{p[0] + 1, p[1]}] = true
			}
			if p[1] < len(b) && b[p[1]] == g {
				next[[2]int{p[0], p[1] + 1}] = true
			}
		}
		if len(next) == 0 {
			return false
		}
		reach = next
	}
	return true
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
