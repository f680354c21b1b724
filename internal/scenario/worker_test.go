package scenario

import (
	"strings"
	"testing"

	"repro/internal/callproc"
	"repro/internal/router"
	"repro/internal/wire"
)

// TestWorkerCatchesWrongValue applies the paper's method to the client-side
// verifier: inject the fault, prove it was caught. A second connection
// overwrites the worker's record behind its back; on every transport a
// strict worker must fail the run on the golden-copy check (a routed one by
// booking staleness violations) and a lax one must count every wrong read
// and finish.
func TestWorkerCatchesWrongValue(t *testing.T) {
	addr := startServer(t)
	const ops = 64
	for _, tc := range []struct {
		name   string
		window int
		routed bool
	}{
		{"sync", 1, false},
		{"window-16", 16, false},
		{"routed", 1, true},
	} {
		for _, lax := range []bool{false, true} {
			name := tc.name + "/strict"
			if lax {
				name = tc.name + "/lax"
			}
			t.Run(name, func(t *testing.T) {
				w := &worker{addrs: []string{addr}, lax: lax, window: tc.window}
				if tc.routed {
					rt, err := router.New(router.Config{Addrs: []string{addr}})
					if err != nil {
						t.Fatal(err)
					}
					defer rt.Close()
					w.rt = rt
				}
				if err := w.open(1); err != nil {
					t.Fatal(err)
				}
				defer w.close()

				intruder, err := wire.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer intruder.Close()
				if _, err := intruder.Init(); err != nil {
					t.Fatal(err)
				}
				s := w.slots[0]
				if err := intruder.WriteFld(callproc.TblRes, s.ri, fldQuality, s.golden[fldQuality]+1); err != nil {
					t.Fatal(err)
				}

				// All reads, every 8th the whole record.
				w.err = w.replay(fieldMix(0, 100, 8), ops)
				res, err := collect([]*worker{w}, lax)
				switch {
				case lax:
					if err != nil {
						t.Fatalf("lax run failed: %v", err)
					}
					if got := res.Mismatches + res.Stale; got != ops || len(res.Lats) != ops {
						t.Errorf("counted %d wrong reads over %d ops, want %d of %d", got, len(res.Lats), ops, ops)
					}
				case err == nil:
					t.Fatal("strict run passed over a wrong value")
				case tc.routed:
					if res == nil || res.Stale != ops || !strings.Contains(err.Error(), "staleness") {
						t.Errorf("routed strict run: result %+v, err %v; want %d staleness violations", res, err, ops)
					}
				case !strings.Contains(err.Error(), "golden"):
					t.Errorf("strict run failed with %v, want a golden-copy mismatch", err)
				}
			})
		}
	}
}

// shortRec answers every request with a one-value reply.
type shortRec struct{}

func (shortRec) Call(q wire.Request) (wire.Response, error) {
	return wire.Response{Seq: q.Seq, Vals: []uint32{7}}, nil
}
func (shortRec) Close() error { return nil }

// TestShortReadRecReplyIsAMismatch: a READ_REC reply shorter than the
// golden record is a mismatch — not an index panic, not a silent pass —
// even though the one value it does carry is the right one.
func TestShortReadRecReplyIsAMismatch(t *testing.T) {
	newWorker := func() *worker {
		return &worker{t: shortRec{}, slots: []slotState{{ri: 7, golden: [resFields]uint32{7, 1, 50}}}}
	}
	w := newWorker()
	if err := w.exec(plannedOp{Kind: OpReadRec}); err == nil || !strings.Contains(err.Error(), "golden") {
		t.Errorf("strict: exec = %v, want a golden-copy mismatch", err)
	}
	w = newWorker()
	w.lax = true
	if err := w.exec(plannedOp{Kind: OpReadRec}); err != nil || w.Mismatches != 1 {
		t.Errorf("lax: exec = %v with %d mismatches, want nil with 1", err, w.Mismatches)
	}
	w = newWorker()
	w.rt = new(router.Router) // only marks the transport as routed here
	if err := w.exec(plannedOp{Kind: OpReadRec}); err != nil || w.Stale != 1 {
		t.Errorf("routed: exec = %v with %d staleness violations, want nil with 1", err, w.Stale)
	}
	// The same reply is exactly right for a field read.
	w = newWorker()
	w.slots[0].golden[fldQuality] = 7
	if err := w.exec(plannedOp{Kind: OpReadFld}); err != nil {
		t.Errorf("field read: exec = %v", err)
	}
}

// TestLoadPatternsKeepTheirOrder pins the built-in patterns' op order: the
// six-op call cycle with its procedure share, and the field mix with and
// without the routed transport's whole-record forms.
func TestLoadPatternsKeepTheirOrder(t *testing.T) {
	kinds := func(next func(int) plannedOp, n int) string {
		var names []string
		for i := 0; i < n; i++ {
			op := next(i)
			name := op.Kind.String()
			if op.Kind == OpProc && op.Arg != 0 {
				name = "scan"
			}
			names = append(names, name)
		}
		return strings.Join(names, " ")
	}
	for _, c := range []struct {
		name string
		next func(int) plannedOp
		n    int
		want string
	}{
		{"call cycle", Load{ReadPct: -1}.pattern(0), 7, "write-fld write-rec read-rec read-fld move txn write-fld"},
		{"call cycle, proc-pct 5", Load{ReadPct: -1, ProcPct: 5}.pattern(0), 7, "proc proc proc proc scan txn write-fld"},
		{"field mix", Load{ReadPct: 2}.pattern(0), 4, "read-fld read-fld write-fld write-fld"},
		{"routed field mix", Load{ReadPct: 8, Router: new(router.Router)}.pattern(0), 18,
			"read-fld read-fld read-fld read-fld read-fld read-fld read-fld read-rec" +
				" write-fld write-fld write-fld write-fld write-fld write-fld write-fld write-rec write-fld write-fld"},
	} {
		if got := kinds(c.next, c.n); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if op := callCycle(3, 0)(0); op.Val != 3 {
		t.Errorf("first write value = %d, want the worker id", op.Val)
	}
}
