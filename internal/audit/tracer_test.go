package audit

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// fakeChecker is a FullChecker returning a fixed finding list.
type fakeChecker struct{ findings []Finding }

func (f fakeChecker) Name() string                   { return "fake" }
func (f fakeChecker) CheckTable(table int) []Finding { return f.findings }
func (f fakeChecker) CheckAll() []Finding            { return f.findings }

func TestTracerNoteEmitsFindingAndRecovery(t *testing.T) {
	rec := trace.New()
	tr := NewTracer(rec)
	tr.Resolve = func(Finding) uint64 { return 42 }

	tr.Note(Finding{Class: ClassRange, Action: ActionReset, Table: 2, Offset: 64, Detail: "oob"})
	evs := rec.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want finding + recovery", len(evs))
	}
	f, r := evs[0], evs[1]
	if f.Kind != trace.KindFinding || r.Kind != trace.KindRecovery {
		t.Fatalf("kinds = %v, %v", f.Kind, r.Kind)
	}
	if f.Trace != 42 || r.Trace != 42 {
		t.Fatalf("correlation IDs = %d, %d, want 42 (Resolve)", f.Trace, r.Trace)
	}
	if f.Op != ClassRange.String() || f.Code != int64(ActionReset) || f.Arg != 64 || f.Aux != 2 {
		t.Fatalf("finding payload = %+v", f)
	}
	if r.Op != ActionReset.String() || r.Arg != 64 {
		t.Fatalf("recovery payload = %+v", r)
	}
	if f.Detail != "oob" {
		t.Fatalf("Detail = %q", f.Detail)
	}

	// ActionNone means nothing was recovered: no recovery event.
	tr.Note(Finding{Class: ClassSuspect, Action: ActionNone})
	evs = rec.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events after ActionNone note, want 3", len(evs))
	}
	if evs[2].Kind != trace.KindFinding || evs[2].Trace != 42 {
		t.Fatalf("third event = %+v", evs[2])
	}
}

// TestTracerRolePrefixesFindingDetail: with a Role hook installed, a
// finding's journal entry names the node it was detected on — shadow-audit
// findings on a read-serving standby must not read as primary corruption
// in merged journals.
func TestTracerRolePrefixesFindingDetail(t *testing.T) {
	rec := trace.New()
	tr := NewTracer(rec)
	role := "standby-serving"
	tr.Role = func() string { return role }

	tr.Note(Finding{Class: ClassRange, Action: ActionNone, Detail: "oob"})
	tr.Note(Finding{Class: ClassRange, Action: ActionNone})
	role = "" // a promoted standby is the primary: no prefix
	tr.Note(Finding{Class: ClassRange, Action: ActionNone, Detail: "oob"})

	evs := rec.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3 findings", len(evs))
	}
	for i, want := range []string{"standby-serving: oob", "standby-serving", "oob"} {
		if evs[i].Detail != want {
			t.Fatalf("finding %d Detail = %q, want %q", i, evs[i].Detail, want)
		}
	}
}

// TestInstrumentBracketsPasses checks the one audit-check decorator: each
// pass is journaled as check-start/check-end, timed into the per-check
// histogram with the same runtime the check-end event carries, and only a
// sweep-counting technique's CheckAll counts a sweep.
func TestInstrumentBracketsPasses(t *testing.T) {
	rec := trace.New()
	tr := NewTracer(rec)
	reg := metrics.NewRegistry()
	tel := NewTelemetry(reg)
	fake := fakeChecker{findings: []Finding{{Class: ClassStatic}, {Class: ClassRange}}}
	chk := Instrument(fake, tel, tr, true)

	if n := len(chk.CheckAll()); n != 2 {
		t.Fatalf("CheckAll returned %d findings", n)
	}
	if n := len(chk.CheckTable(3)); n != 2 {
		t.Fatalf("CheckTable returned %d findings", n)
	}

	evs := rec.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want start/end per pass", len(evs))
	}
	for i, want := range []trace.Kind{trace.KindCheckStart, trace.KindCheckEnd, trace.KindCheckStart, trace.KindCheckEnd} {
		if evs[i].Kind != want {
			t.Fatalf("event %d kind = %v, want %v", i, evs[i].Kind, want)
		}
		if evs[i].Op != "fake" {
			t.Fatalf("event %d Op = %q", i, evs[i].Op)
		}
	}
	if evs[1].Code != 2 || evs[3].Code != 2 {
		t.Fatalf("check-end finding counts = %d, %d, want 2", evs[1].Code, evs[3].Code)
	}
	if evs[3].Aux != 3 {
		t.Fatalf("CheckTable end Aux = %d, want table 3", evs[3].Aux)
	}
	// Sequence numbers strictly increase: the journal's total order.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("sequence not increasing at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}

	h := reg.Snapshot().Histograms["audit.check.fake"]
	if h.Count != 2 || h.Sum != evs[1].Arg+evs[3].Arg {
		t.Fatalf("audit.check.fake count=%d sum=%d, want 2 passes summing the check-end runtimes %d",
			h.Count, h.Sum, evs[1].Arg+evs[3].Arg)
	}
	if tel.Sweeps() != 1 {
		t.Fatalf("sweeps = %d after one CheckAll and one CheckTable, want 1", tel.Sweeps())
	}
	Instrument(fake, tel, tr, false).CheckAll()
	if tel.Sweeps() != 1 {
		t.Fatalf("a technique without countSweeps counted a sweep: %d", tel.Sweeps())
	}
}
