package proc

import (
	"testing"

	"repro/internal/callproc"
	"repro/internal/memdb"
	"repro/internal/trace"
	"repro/internal/wal"
)

func newDB(t *testing.T) (*memdb.DB, *memdb.Client) {
	t.Helper()
	db, err := memdb.New(callproc.Schema(callproc.SchemaConfig{CallRecords: 32}))
	if err != nil {
		t.Fatalf("memdb.New: %v", err)
	}
	sess, err := db.Connect()
	if err != nil {
		t.Fatalf("db.Connect: %v", err)
	}
	return db, sess
}

func loadAll(t *testing.T, r *Registry) {
	t.Helper()
	for _, b := range Library() {
		if _, err := r.Load(b.Name, b.Source); err != nil {
			t.Fatalf("Load(%s): %v", b.Name, err)
		}
	}
}

func TestRegistryLoadListReload(t *testing.T) {
	r := NewRegistry()
	loadAll(t, r)
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	want := []string{"res_touch", "res_scan", "call_setup"}
	for i, n := range r.Names() {
		if n != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, n, want[i])
		}
	}
	p := r.Get("res_touch")
	if p == nil || p.Version != 1 || p.Blocks() == 0 {
		t.Fatalf("res_touch: %+v", p)
	}
	if p.Damaged() {
		t.Fatal("fresh procedure reports damaged")
	}

	// Re-load bumps the version.
	if _, err := r.Load("res_touch", SrcResTouch); err != nil {
		t.Fatalf("re-load: %v", err)
	}
	if v := r.Get("res_touch").Version; v != 2 {
		t.Fatalf("version after re-load = %d, want 2", v)
	}

	// Corrupt the live text, then reload restores it.
	p = r.Get("res_touch")
	p.Text()[0] ^= 1 << 7
	if !p.Damaged() {
		t.Fatal("flip not visible via Damaged")
	}
	if !r.Reload("res_touch") {
		t.Fatal("Reload returned false for a registered name")
	}
	if p.Damaged() {
		t.Fatal("still damaged after Reload")
	}
	if p.Reloads != 1 || p.Version != 3 {
		t.Fatalf("after reload: reloads=%d version=%d", p.Reloads, p.Version)
	}
	if r.Reload("nope") {
		t.Fatal("Reload of unknown name returned true")
	}

	// Invalid names are rejected.
	for _, bad := range []string{"", "has space", "tab\tname"} {
		if _, err := r.Load(bad, SrcResTouch); err == nil {
			t.Fatalf("Load(%q) accepted an invalid name", bad)
		}
	}
	if _, err := r.Load("syntax_err", "bogus r1, r2\n"); err == nil {
		t.Fatal("Load accepted unassemblable source")
	}
}

func TestInfosRoundTrip(t *testing.T) {
	r := NewRegistry()
	loadAll(t, r)
	data, err := EncodeInfos(r.Infos())
	if err != nil {
		t.Fatalf("EncodeInfos: %v", err)
	}
	infos, err := DecodeInfos(data)
	if err != nil {
		t.Fatalf("DecodeInfos: %v", err)
	}
	if len(infos) != 3 || infos[0].Name != "res_touch" || infos[0].Blocks == 0 {
		t.Fatalf("round-trip drift: %+v", infos)
	}
}

func TestExecResTouchCommits(t *testing.T) {
	_, sess := newDB(t)
	r := NewRegistry()
	loadAll(t, r)
	e := NewEngine()
	p := r.Get("res_touch")

	ri, err := sess.Alloc(callproc.TblRes, 0)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	res := e.Exec(p, sess, []uint32{uint32(ri), 77}, 42)
	if res.Status != StatusOK {
		t.Fatalf("status = %v (%s): %v", res.Status, res.Reason, res.Err)
	}
	if len(res.Out) != 2 || res.Out[0] != 77 || res.Out[1] != uint32(ri) {
		t.Fatalf("Out = %v, want [77 %d]", res.Out, ri)
	}
	v, err := sess.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
	if err != nil || v != 77 {
		t.Fatalf("quality after commit = %d (%v), want 77", v, err)
	}
	if len(res.Applied) != 1 || res.Applied[0].Op != wal.OpWriteFld {
		t.Fatalf("Applied = %+v", res.Applied)
	}
	if p.Execs != 1 {
		t.Fatalf("Execs = %d", p.Execs)
	}

	// Clamp path: quality 500 commits as 100.
	res = e.Exec(p, sess, []uint32{uint32(ri), 500}, 43)
	if res.Status != StatusOK || res.Out[0] != 100 {
		t.Fatalf("clamp: status=%v out=%v", res.Status, res.Out)
	}
}

func TestExecCallSetupLifecycle(t *testing.T) {
	_, sess := newDB(t)
	r := NewRegistry()
	loadAll(t, r)
	e := NewEngine()
	p := r.Get("call_setup")

	res := e.Exec(p, sess, []uint32{1, 9001}, 7)
	if res.Status != StatusOK {
		t.Fatalf("status = %v (%s): %v", res.Status, res.Reason, res.Err)
	}
	if len(res.Out) != 4 || res.Out[0] != 9001 {
		t.Fatalf("Out = %v", res.Out)
	}
	// The staged teardown committed: every allocated record is free again.
	for _, tb := range []int{callproc.TblProc, callproc.TblConn, callproc.TblRes} {
		st, err := sess.Status(tb, 0)
		if err != nil {
			t.Fatalf("Status(%d,0): %v", tb, err)
		}
		if st != memdb.StatusFree {
			t.Fatalf("table %d record 0 status = %v, want free", tb, st)
		}
	}
	// alloc ×3, writefld ×4, move, free ×3 all in the applied list.
	if len(res.Applied) != 11 {
		t.Fatalf("len(Applied) = %d, want 11: %+v", len(res.Applied), res.Applied)
	}
}

func TestExecViolationAbortsBeforeCommit(t *testing.T) {
	_, sess := newDB(t)
	r := NewRegistry()
	loadAll(t, r)
	rec := trace.New()
	e := NewEngine()
	e.Ring = rec.Ring("test", 64)
	p := r.Get("res_touch")

	ri, err := sess.Alloc(callproc.TblRes, 0)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	before, _ := sess.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)

	addr, okc := p.CriticalWord()
	if !okc {
		t.Fatal("res_touch has no critical word")
	}
	p.Text()[addr] ^= 1 << 3

	res := e.Exec(p, sess, []uint32{uint32(ri), 88}, 4242)
	if res.Status != StatusViolation {
		t.Fatalf("status = %v (%s), want violation", res.Status, res.Reason)
	}
	if res.Applied != nil {
		t.Fatalf("violation applied mutations: %+v", res.Applied)
	}
	after, _ := sess.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
	if after != before {
		t.Fatalf("field mutated across an aborted procedure: %d -> %d", before, after)
	}
	if p.Violations != 1 {
		t.Fatalf("Violations = %d", p.Violations)
	}

	// The PECOS event carries the caller's trace ID.
	evs := rec.Snapshot()
	found := false
	for _, ev := range evs {
		if ev.Kind == trace.KindPECOS && ev.Trace == 4242 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no KindPECOS event with trace 4242 in %d events", len(evs))
	}

	// Reload recovers the program.
	r.Reload("res_touch")
	res = e.Exec(p, sess, []uint32{uint32(ri), 88}, 4243)
	if res.Status != StatusOK {
		t.Fatalf("post-reload status = %v (%s)", res.Status, res.Reason)
	}
}

func TestExecRollbackFreesEagerAllocs(t *testing.T) {
	_, sess := newDB(t)
	r := NewRegistry()
	// Allocate, then spin: the step budget expires with the thread runnable
	// and the engine must compensate the eager allocation.
	src := `
        movi r1, 1
        movi r2, 0
        sys 5            ; ALLOC process
spin:
        jmp spin
`
	if _, err := r.Load("spinner", src); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res := NewEngine().Exec(r.Get("spinner"), sess, nil, 1)
	if res.Status != StatusFault {
		t.Fatalf("status = %v, want fault (hang)", res.Status)
	}
	st, err := sess.Status(callproc.TblProc, 0)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st != memdb.StatusFree {
		t.Fatalf("eager alloc not compensated: status = %v", st)
	}
}

func TestExecFaultOnDivZero(t *testing.T) {
	_, sess := newDB(t)
	r := NewRegistry()
	src := `
        movi r1, 1
        movi r2, 0
        div r3, r1, r2   ; divide by zero outside any assertion
        halt
`
	if _, err := r.Load("crasher", src); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res := NewEngine().Exec(r.Get("crasher"), sess, nil, 1)
	if res.Status != StatusFault {
		t.Fatalf("status = %v (%s), want fault", res.Status, res.Reason)
	}
	if r.Get("crasher").Faults != 1 {
		t.Fatalf("Faults = %d", r.Get("crasher").Faults)
	}
}

func TestExecReadYourWrites(t *testing.T) {
	_, sess := newDB(t)
	r := NewRegistry()
	loadAll(t, r)
	e := NewEngine()

	// res_scan over records written by res_touch in the same test: the scan
	// reads committed state, proving commit ordering end to end.
	for i := 0; i < 4; i++ {
		ri, err := sess.Alloc(callproc.TblRes, 0)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if err := sess.WriteFld(callproc.TblRes, ri, callproc.FldResStatus, 1); err != nil {
			t.Fatalf("WriteFld: %v", err)
		}
		res := e.Exec(r.Get("res_touch"), sess, []uint32{uint32(ri), uint32(10 * (i + 1))}, 1)
		if res.Status != StatusOK {
			t.Fatalf("res_touch[%d]: %v (%s)", i, res.Status, res.Reason)
		}
	}
	res := e.Exec(r.Get("res_scan"), sess, []uint32{0, 4}, 2)
	if res.Status != StatusOK {
		t.Fatalf("res_scan: %v (%s)", res.Status, res.Reason)
	}
	if len(res.Out) != 1 || res.Out[0] != 10+20+30+40 {
		t.Fatalf("scan sum = %v, want [100]", res.Out)
	}
}
