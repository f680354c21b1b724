package server

import (
	"testing"
	"time"

	"repro/internal/callproc"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestTraceJournalJoinsShotsToRecovery is the flight recorder's acceptance
// test: a server with the fault injector armed serves live traffic while
// periodic audits sweep the region; the merged journal must be
// time-ordered, join every request's enqueue → execute → reply chain by
// trace ID, and follow at least one injected shot through its audit
// finding to the recovery that repaired it.
func TestTraceJournalJoinsShotsToRecovery(t *testing.T) {
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

	// Drive load until a shot → finding → recovery chain appears in the
	// journal (injections land between requests; audits run live). Against
	// a fault-injecting server individual ops may legitimately fail.
	deadline := time.Now().Add(10 * time.Second)
	var chainShot, chainFinding, chainRecovery trace.Event
	found := false
	for !found {
		if time.Now().After(deadline) {
			t.Fatal("no shot → finding → recovery chain within deadline")
		}
		for i := 0; i < 50; i++ {
			_ = c.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, uint32(i%101))
			_, _ = c.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
		}
		evs := srv.TraceEvents(0, 0)
		byTrace := make(map[uint64][]trace.Event)
		for _, e := range evs {
			if e.Trace != 0 {
				byTrace[e.Trace] = append(byTrace[e.Trace], e)
			}
		}
		for _, s := range trace.Filter(evs, trace.KindShot) {
			var f, r trace.Event
			for _, e := range byTrace[s.Trace] {
				switch e.Kind {
				case trace.KindFinding:
					if f.Seq == 0 {
						f = e
					}
				case trace.KindRecovery:
					if r.Seq == 0 {
						r = e
					}
				}
			}
			if f.Seq != 0 && r.Seq != 0 {
				chainShot, chainFinding, chainRecovery = s, f, r
				found = true
				break
			}
		}
	}

	// Causal order along the chain: injected, then detected, then repaired.
	if !(chainShot.Seq < chainFinding.Seq && chainFinding.Seq < chainRecovery.Seq) {
		t.Fatalf("chain out of order: shot seq %d, finding seq %d, recovery seq %d",
			chainShot.Seq, chainFinding.Seq, chainRecovery.Seq)
	}
	if chainShot.Op != "dbflip" {
		t.Fatalf("shot Op = %q", chainShot.Op)
	}

	evs := srv.TraceEvents(0, 0)
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("merged journal out of order at %d: seq %d then %d",
				i, evs[i-1].Seq, evs[i].Seq)
		}
	}

	// The connection was journaled, and request chains join by trace ID:
	// every reply has a matching enqueue, executed in between.
	if len(trace.Filter(evs, trace.KindConnAccept)) == 0 {
		t.Fatal("no conn-accept events")
	}
	chains := 0
	reqEvents := make(map[uint64][3]bool) // tid → saw enqueue/execute/reply
	for _, e := range evs {
		switch e.Kind {
		case trace.KindReqEnqueue, trace.KindReqExecute, trace.KindReqReply:
			saw := reqEvents[e.Trace]
			saw[int(e.Kind-trace.KindReqEnqueue)] = true
			reqEvents[e.Trace] = saw
		}
	}
	for _, saw := range reqEvents {
		if saw[0] && saw[1] && saw[2] {
			chains++
		}
	}
	if chains == 0 {
		t.Fatal("no complete enqueue → execute → reply chain shares a trace ID")
	}

	// The journal crosses the wire as JSON and round-trips.
	doc, err := c.TraceJSON(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wired, err := trace.DecodeJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(wired) == 0 {
		t.Fatal("TRACE returned an empty journal")
	}
	// Kind filtering happens server-side.
	doc, err = c.TraceJSON(int(trace.KindShot), 5)
	if err != nil {
		t.Fatal(err)
	}
	shots, err := trace.DecodeJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(shots) == 0 || len(shots) > 5 {
		t.Fatalf("filtered TRACE returned %d events, want 1..5", len(shots))
	}
	for _, s := range shots {
		if s.Kind != trace.KindShot {
			t.Fatalf("filtered TRACE leaked %v event", s.Kind)
		}
	}
}
