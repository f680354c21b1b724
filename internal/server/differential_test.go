package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/callproc"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The differential test replays one wire script against a one-, two- and
// four-region server and compares the transcripts. The N=1 transcript must
// be byte-identical to testdata/differential_n1.golden, which was recorded
// from the single-node Server of the commit before the front ends were
// merged; N=2 and N=4 must equal N=1 once returned DBalloc ids are replaced
// by the order they were handed out in and per-region "shard.<k>." gauge
// names are folded onto their plain names.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/differential_n1.golden from this run")

const diffGolden = "testdata/differential_n1.golden"

// diffRun is one replay: the connections, the records DBalloc has handed
// out so far, and the two renderings of the transcript.
type diffRun struct {
	t     *testing.T
	n     int
	conns map[string]*wire.Conn
	// recs maps (table, record id) to the allocation ordinal; the symbolic
	// transcript prints "$<ordinal>" wherever a step says a value is a
	// record id, so transcripts compare across region counts.
	recs map[[2]int]int
	raw  strings.Builder
	sym  strings.Builder
}

// step is one request plus the annotations the symbolic rendering needs.
type step struct {
	conn string
	q    wire.Request
	// recTable >= 0 marks q.Record as a record id of that table.
	recTable int
	// valRecs marks request values, outRecs response values, that are
	// record ids: position -> table.
	valRecs map[int]int
	outRecs map[int]int
	// shape replaces the response detail by the sorted key set of the JSON
	// document it carries.
	shape bool
}

var (
	shardPrefix = regexp.MustCompile(`shard\.\d+\.`)
	// heldSince is the lock-holder age memdb puts into ErrLocked texts.
	heldSince = regexp.MustCompile(`since [0-9.]+(ns|µs|ms|s)`)
)

// aggregateOnly names the gauges a multi-region server republishes even
// without a log; a one-region server has them only with a WAL. dbload -watch
// and bench read the names, so both shapes are pinned.
var aggregateOnly = map[string]bool{
	"/gauges/repl.lag": true, "/gauges/wal.flush_pending": true, "/gauges/wal.last_seq": true,
}

func (r *diffRun) recName(table int, id uint32) string {
	if k, ok := r.recs[[2]int{table, int(id)}]; ok {
		return fmt.Sprintf("$%d", k)
	}
	return "$?"
}

// do sends one request and appends it and its reply to both transcripts.
func (r *diffRun) do(s step) wire.Response {
	r.t.Helper()
	c := r.conns[s.conn]
	resp, err := c.Call(s.q)
	if err != nil {
		r.t.Fatalf("n=%d %s %v: transport: %v", r.n, s.conn, s.q.Op, err)
	}
	if s.q.Op == wire.OpAlloc && resp.Code == wire.CodeOK && len(resp.Vals) == 1 {
		r.recs[[2]int{int(s.q.Table), int(resp.Vals[0])}] = len(r.recs)
		if s.outRecs == nil {
			s.outRecs = map[int]int{0: int(s.q.Table)}
		}
	}
	if s.q.Op == wire.OpFree && resp.Code == wire.CodeOK {
		defer delete(r.recs, [2]int{int(s.q.Table), int(s.q.Record)})
	}
	for _, symbolic := range []bool{false, true} {
		w := &r.raw
		if symbolic {
			w = &r.sym
		}
		rec := fmt.Sprint(s.q.Record)
		if symbolic && s.recTable >= 0 {
			rec = r.recName(s.recTable, uint32(s.q.Record))
		}
		fmt.Fprintf(w, "%s> %v t=%d r=%s f=%d a=%d v=%s d=%q\n", s.conn, s.q.Op, s.q.Table, rec,
			s.q.Field, s.q.Aux, r.vals(s.q.Vals, s.valRecs, symbolic), s.q.Detail)
		detail := fmt.Sprintf("%q", heldSince.ReplaceAllString(resp.Detail, "since T"))
		if s.shape && resp.Code == wire.CodeOK {
			detail = jsonShape(r.t, resp.Detail, symbolic)
		}
		fmt.Fprintf(w, "%s< code=%d idx=%d lim=%d v=%s d=%s\n", s.conn, resp.Code, resp.Index,
			resp.Limit, r.vals(resp.Vals, s.outRecs, symbolic), detail)
	}
	return resp
}

func (r *diffRun) vals(vals []uint32, recs map[int]int, symbolic bool) string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprint(v)
		if table, ok := recs[i]; ok && symbolic {
			out[i] = r.recName(table, v)
		}
	}
	return "[" + strings.Join(out, " ") + "]"
}

// jsonShape renders a JSON document as its sorted set of key paths. Objects
// carrying a string "name" or "kind" contribute that value too, so health
// objectives and trace event kinds are part of the shape. The symbolic form
// folds "shard.<k>." metric names onto the plain name.
func jsonShape(t *testing.T, doc string, symbolic bool) string {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(doc), &v); err != nil {
		t.Fatalf("shape: %v in %.80q", err, doc)
	}
	set := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for _, tag := range []string{"name", "kind"} {
				if s, ok := x[tag].(string); ok {
					path += "{" + tag + "=" + s + "}"
				}
			}
			for k, e := range x {
				if symbolic {
					k = shardPrefix.ReplaceAllString(k, "")
				}
				if !symbolic || !aggregateOnly[path+"/"+k] {
					set[path+"/"+k] = true
				}
				walk(path+"/"+k, e)
			}
		case []any:
			for _, e := range x {
				walk(path+"[]", e)
			}
		}
	}
	walk("", v)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return "shape{" + strings.Join(keys, " ") + "}"
}

// rawFrame sends payload as one frame on a fresh connection and records the
// reply: the malformed-payload path of the connection loop.
func (r *diffRun) rawFrame(addr string, payload []byte) {
	r.t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		r.t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(nc, payload); err != nil {
		r.t.Fatal(err)
	}
	p, err := wire.ReadFrame(nc, wire.MaxFrame)
	if err != nil {
		r.t.Fatalf("raw frame reply: %v", err)
	}
	resp, err := wire.ParseResponse(p)
	if err != nil {
		r.t.Fatal(err)
	}
	for _, w := range []*strings.Builder{&r.raw, &r.sym} {
		fmt.Fprintf(w, "raw> %d bytes\nraw< seq=%d code=%d d=%q\n", len(payload), resp.Seq, resp.Code, resp.Detail)
	}
}

func (r *diffRun) dial(name, addr string) {
	r.t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		r.t.Fatal(err)
	}
	c.Timeout = 10 * time.Second
	r.t.Cleanup(func() { c.Close() })
	r.conns[name] = c
}

// req builds a step addressed by table only.
func req(conn string, op wire.Op, table int) step {
	return step{conn: conn, q: wire.Request{Op: op, Table: int32(table)}, recTable: -1}
}

// onRec builds a step addressing record id rec of table, marked as a record
// id for the symbolic transcript.
func onRec(conn string, op wire.Op, table int, rec uint32) step {
	s := req(conn, op, table)
	s.q.Record = int32(rec)
	s.recTable = table
	return s
}

func (s step) field(f int) step       { s.q.Field = int32(f); return s }
func (s step) aux(a int) step         { s.q.Aux = int32(a); return s }
func (s step) vals(v ...uint32) step  { s.q.Vals = v; return s }
func (s step) detail(d string) step   { s.q.Detail = d; return s }
func (s step) record(rec int) step    { s.q.Record = int32(rec); return s }
func (s step) shaped() step           { s.shape = true; return s }
func (s step) valRec(i, tbl int) step { s.valRecs = map[int]int{i: tbl}; return s }
func (s step) outRec(m map[int]int) step {
	s.outRecs = m
	return s
}

// diffScript is the wire script: every op's success path, its error paths,
// lock contention between two sessions, allocation to exhaustion, the
// procedure ops, the control plane, and a plain and a read-serving standby.
func diffScript(r *diffRun, primary, standby, serving string) {
	const (
		cfgT = callproc.TblConfig
		prcT = callproc.TblProc
		conT = callproc.TblConn
		resT = callproc.TblRes
	)
	recordOps := []wire.Op{wire.OpReadRec, wire.OpReadFld, wire.OpWriteRec, wire.OpWriteFld,
		wire.OpMove, wire.OpFree, wire.OpStatus}

	r.dial("A", primary)
	r.do(req("A", wire.OpPing, 0))

	// No session yet: every session op refuses, whatever it addresses.
	for _, op := range recordOps {
		r.do(req("A", op, resT).vals(1))
		r.do(req("A", op, 99).record(-1).vals(1))
	}
	for _, op := range []wire.Op{wire.OpAlloc, wire.OpBegin, wire.OpCommit, wire.OpClose} {
		r.do(req("A", op, resT))
	}
	r.do(req("A", wire.OpProcExec, 0).detail("res_touch").vals(0, 1))

	r.do(req("A", wire.OpInit, 0))
	r.do(req("A", wire.OpInit, 0)) // double DBinit

	// Bad table, bad record, bad field, inactive record, for every
	// record-addressed op.
	for _, op := range append(recordOps, wire.OpAlloc, wire.OpBegin) {
		r.do(req("A", op, 99).vals(1))
		r.do(req("A", op, -1).vals(1))
	}
	for _, op := range recordOps {
		r.do(req("A", op, resT).record(99999).vals(1))
		r.do(req("A", op, resT).record(64).vals(1))
		r.do(req("A", op, resT).record(-1).vals(1))
		r.do(req("A", op, resT).record(5).vals(1, 1, 1)) // free record
	}
	r.do(req("A", wire.OpReadFld, resT).field(99))
	r.do(req("A", wire.OpReadFld, resT).field(-1))

	// Success paths on two allocated records.
	a := r.do(req("A", wire.OpAlloc, resT).aux(0)).Vals[0]
	b := r.do(req("A", wire.OpAlloc, resT).aux(1)).Vals[0]
	r.do(req("A", wire.OpAlloc, resT).aux(99)) // bad group
	r.do(onRec("A", wire.OpWriteRec, resT, a).vals(uint32(a), 1, 50))
	r.do(onRec("A", wire.OpWriteRec, resT, a).vals(1))          // wrong value count
	r.do(onRec("A", wire.OpWriteRec, resT, a).vals(1, 2, 3, 4)) // wrong value count
	r.do(onRec("A", wire.OpWriteFld, resT, a).field(callproc.FldResQuality).vals(42))
	r.do(onRec("A", wire.OpWriteFld, resT, a).field(callproc.FldResQuality))            // no value
	r.do(onRec("A", wire.OpWriteFld, resT, a).field(callproc.FldResQuality).vals(1, 2)) // two values
	r.do(onRec("A", wire.OpWriteFld, resT, a).field(99).vals(1))
	r.do(onRec("A", wire.OpReadFld, resT, a).field(callproc.FldResQuality))
	r.do(onRec("A", wire.OpReadFld, resT, a).field(99))
	r.do(onRec("A", wire.OpReadRec, resT, a).outRec(map[int]int{0: resT}))
	r.do(onRec("A", wire.OpStatus, resT, a))
	r.do(onRec("A", wire.OpMove, resT, a).aux(2))
	r.do(onRec("A", wire.OpMove, resT, a).aux(99))
	r.do(onRec("A", wire.OpFree, resT, b))
	r.do(onRec("A", wire.OpStatus, resT, b))
	r.do(onRec("A", wire.OpFree, resT, b)) // double free
	for rec := 0; rec < 16; rec++ {        // the static table, every stripe
		r.do(req("A", wire.OpReadRec, cfgT).record(rec))
	}
	r.do(req("A", wire.OpReadFld, cfgT).record(3).field(1))
	r.do(req("A", wire.OpStatus, cfgT).record(15))

	// Two sessions contend for table locks.
	r.dial("B", primary)
	r.do(req("B", wire.OpInit, 0))
	r.do(req("A", wire.OpBegin, resT))
	r.do(req("B", wire.OpBegin, resT))
	r.do(onRec("B", wire.OpWriteFld, resT, a).field(callproc.FldResQuality).vals(9))
	r.do(req("B", wire.OpAlloc, resT))
	r.do(onRec("B", wire.OpReadFld, resT, a).field(callproc.FldResQuality))
	r.do(req("A", wire.OpBegin, conT))
	r.do(req("A", wire.OpBegin, resT)) // already held
	r.do(req("B", wire.OpBegin, conT))
	r.do(req("B", wire.OpBegin, prcT))
	r.do(req("A", wire.OpBegin, prcT)) // loses; must keep res and conn
	r.do(onRec("A", wire.OpWriteFld, resT, a).field(callproc.FldResQuality).vals(43))
	r.do(req("A", wire.OpProcExec, 0).detail("res_touch").vals(a, 44).valRec(0, resT).outRec(map[int]int{1: resT}))
	r.do(req("B", wire.OpProcExec, 0).detail("res_touch").vals(a, 45).valRec(0, resT))
	r.do(req("A", wire.OpCommit, 0))
	r.do(req("B", wire.OpBegin, resT))
	r.do(req("A", wire.OpBegin, resT))
	r.do(req("B", wire.OpCommit, 0))
	r.do(req("B", wire.OpCommit, 0)) // nothing held

	// Procedures.
	r.do(req("A", wire.OpProcList, 0))
	r.do(req("A", wire.OpProcLoad, 0).detail("noop\n        movi r1, 7\n        sys 8\n        halt\n"))
	r.do(req("A", wire.OpProcLoad, 0).detail("noname"))
	r.do(req("A", wire.OpProcLoad, 0).detail("broken\n        frobnicate r1\n"))
	r.do(req("A", wire.OpProcExec, 0).detail("noop"))
	r.do(req("A", wire.OpProcExec, 0).detail("ghost"))
	r.do(req("A", wire.OpProcExec, 0).detail("res_touch").vals(a, 300).valRec(0, resT).outRec(map[int]int{1: resT}))
	r.do(req("A", wire.OpProcExec, 0).detail("res_touch").vals(64, 1))
	r.do(req("A", wire.OpProcExec, 0).detail("res_touch").vals(5, 1)) // free record
	r.do(req("A", wire.OpProcExec, 0).detail("res_touch"))            // missing args
	r.do(req("A", wire.OpProcExec, 0).detail("res_scan").vals(0, 16))
	r.do(req("A", wire.OpProcExec, 0).detail("call_setup").vals(1, 77).outRec(map[int]int{1: prcT, 2: conT, 3: resT}))
	r.do(req("A", wire.OpProcExec, 0).detail("call_setup").vals(9, 77)) // bad group

	// DBalloc until the table is full, then past it.
	for i := 0; i < 64; i++ {
		r.do(req("A", wire.OpAlloc, prcT).aux(i % 4))
	}
	r.do(req("A", wire.OpAlloc, prcT))
	r.do(req("A", wire.OpProcExec, 0).detail("call_setup").vals(1, 78))
	r.do(req("A", wire.OpProcList, 0))

	// Control plane.
	r.do(req("A", wire.OpInjectCtl, 0))
	r.do(req("A", wire.OpInjectCtl, 0).vals(0, 0x80000000, 0, 0))
	r.do(req("A", wire.OpInjectCtl, 0).vals(0, 0, 0, 0x80000000))
	r.do(req("A", wire.OpInjectCtl, 0).aux(7).vals(0, 0, 0, 0))
	r.do(req("A", wire.OpInjectCtl, 0).aux(wire.InjectModeStatic).vals(0, 0, 0, 0))
	r.do(req("A", wire.OpSweep, 0))
	r.do(req("A", wire.OpReplStatus, 0))
	r.do(req("A", wire.OpReplPromote, 0))
	r.do(req("A", wire.OpReplicate, 0).vals(0, 0))
	r.do(req("A", wire.OpReplicate, 0))
	r.do(req("A", wire.OpReplSnap, 0))
	r.do(req("A", wire.OpReplFetch, cfgT).record(0))
	r.do(req("A", wire.OpReplFetch, 99).record(0))
	r.do(req("A", wire.OpHealth, 0).shaped())
	r.do(req("A", wire.OpStats2, 0).shaped())
	r.do(req("A", wire.OpTrace, int(trace.KindConnAccept)).aux(1).shaped())
	r.do(req("A", wire.Op(0), 0))
	r.do(req("A", wire.Op(200), 0))
	r.do(req("A", wire.Op(wire.NumOps), 0))
	r.rawFrame(primary, []byte{1, 2, 3})

	// Session end.
	r.do(req("A", wire.OpClose, 0))
	r.do(onRec("A", wire.OpReadFld, resT, a))
	r.do(req("A", wire.OpClose, 0))
	r.do(req("A", wire.OpInit, 0))
	r.do(onRec("A", wire.OpReadFld, resT, a).field(callproc.FldResQuality))

	// A plain standby refuses everything but the control plane, until it is
	// promoted.
	r.dial("S", standby)
	r.do(req("S", wire.OpPing, 0))
	for _, op := range []wire.Op{wire.OpInit, wire.OpReadFld, wire.OpWriteFld, wire.OpAlloc,
		wire.OpBegin, wire.OpProcExec, wire.OpProcLoad, wire.OpProcList, wire.OpInjectCtl, wire.OpReplicate} {
		r.do(req("S", op, cfgT).vals(0, 0))
	}
	r.do(req("S", wire.OpReadFld, 99))
	r.do(req("S", wire.OpSweep, 0))
	r.do(req("S", wire.OpReplStatus, 0))
	r.do(req("S", wire.OpHealth, 0).shaped())
	r.do(req("S", wire.OpReplPromote, 0))
	r.do(req("S", wire.OpReplPromote, 0))
	r.do(req("S", wire.OpReplStatus, 0))
	r.do(req("S", wire.OpInit, 0))
	r.do(req("S", wire.OpAlloc, resT))

	// A read-serving standby answers session-less reads under the lease.
	r.dial("R", serving)
	r.do(req("R", wire.OpReadFld, cfgT).record(3).field(1))
	r.do(req("R", wire.OpReadRec, cfgT).record(7))
	r.do(req("R", wire.OpStatus, resT).record(5))
	r.do(req("R", wire.OpReadFld, cfgT).record(3).field(1).vals(5, 0)) // lease floor ahead of applied
	r.do(req("R", wire.OpReadFld, cfgT).record(99999))
	r.do(req("R", wire.OpReadFld, 99))
	r.do(req("R", wire.OpWriteFld, cfgT).vals(1))
	r.do(req("R", wire.OpInit, 0))
	r.do(req("R", wire.OpReplStatus, 0))
}

func runDiff(t *testing.T, n int) (raw, sym string) {
	t.Helper()
	// No periodic sweep fires inside the script, so the health and metrics
	// documents have the same keys on every run; nothing answers on port 1,
	// so the standbys never apply a record.
	base := Config{AuditPeriod: time.Hour}
	sb := Config{AuditPeriod: time.Hour, Standby: true, PrimaryAddr: "127.0.0.1:1", ReplFailLimit: -1}
	serving := sb
	serving.ServeReads = true
	r := &diffRun{t: t, n: n, conns: map[string]*wire.Conn{}, recs: map[[2]int]int{}}
	addr := func(cfg Config) string {
		_, a := newTestServer(t, n, cfg)
		return a
	}
	diffScript(r, addr(base), addr(sb), addr(serving))
	return r.raw.String(), r.sym.String()
}

func TestDifferentialTranscripts(t *testing.T) {
	raw1, sym1 := runDiff(t, 1)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(diffGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(diffGolden, []byte(raw1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(diffGolden)
	if err != nil {
		t.Fatal(err)
	}
	if d := firstDiff(string(want), raw1); d != "" {
		t.Errorf("n=1 transcript differs from %s:\n%s", diffGolden, d)
	}
	for _, n := range []int{2, 4} {
		_, sym := runDiff(t, n)
		if d := firstDiff(sym1, sym); d != "" {
			t.Errorf("n=%d transcript differs from n=1:\n%s", n, d)
		}
	}
}

// firstDiff describes the first differing line (with the request line before
// it for context), or returns "" when the transcripts are equal. Each side
// is shown as the words the other lacks, which for a shape{...} line is the
// keys only that side has.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("  line %d, after %.200s\n    only want: %.600s\n    only got:  %.600s",
				i+1, w[max(i-1, 0)], wordsOnlyIn(w[i], g[i]), wordsOnlyIn(g[i], w[i]))
		}
	}
	if len(w) != len(g) {
		return fmt.Sprintf("  %d lines, want %d", len(g), len(w))
	}
	return ""
}

func wordsOnlyIn(a, b string) string {
	in := map[string]bool{}
	for _, k := range strings.Fields(b) {
		in[k] = true
	}
	var only []string
	for _, k := range strings.Fields(a) {
		if !in[k] {
			only = append(only, k)
		}
	}
	return strings.Join(only, " ")
}
