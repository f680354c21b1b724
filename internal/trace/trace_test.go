package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestEmitAndSnapshotOrdered(t *testing.T) {
	r := New()
	a := r.Ring("alpha", 8)
	b := r.Ring("beta", 8)
	a.Emit(Event{Kind: KindReqEnqueue, Op: "DBread_fld", Trace: 1})
	b.Emit(Event{Kind: KindFinding, Op: "range", Trace: 2})
	a.Emit(Event{Kind: KindReqReply, Op: "DBread_fld", Trace: 1, Arg: 42})

	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("snapshot has %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
		if i > 0 && e.At < evs[i-1].At {
			t.Fatalf("event %d time %v before predecessor %v", i, e.At, evs[i-1].At)
		}
	}
	if evs[1].Ring != "beta" || evs[1].Kind != KindFinding {
		t.Fatalf("merge order wrong: %+v", evs[1])
	}
}

func TestRingGetOrCreate(t *testing.T) {
	r := New()
	a := r.Ring("x", 4)
	if r.Ring("x", 99) != a {
		t.Fatal("Ring did not return the existing ring")
	}
	if a.Cap() != 4 {
		t.Fatalf("capacity %d, want 4", a.Cap())
	}
	if r.Ring("y", 0).Cap() != DefaultRingSize {
		t.Fatal("non-positive capacity did not default")
	}
}

func TestOverflowDropsOldest(t *testing.T) {
	r := New()
	g := r.Ring("g", 4)
	for i := 0; i < 10; i++ {
		g.Emit(Event{Kind: KindShot, Arg: int64(i)})
	}
	if d := g.Drops(); d != 6 {
		t.Fatalf("drops = %d, want 6", d)
	}
	if g.Len() != 4 {
		t.Fatalf("len = %d, want 4", g.Len())
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(evs))
	}
	// The retained events are the newest four, still in order.
	for i, e := range evs {
		if e.Arg != int64(6+i) {
			t.Fatalf("event %d is shot %d, want %d", i, e.Arg, 6+i)
		}
	}
	if got := r.Drops()["g"]; got != 6 {
		t.Fatalf("recorder drops = %d, want 6", got)
	}
}

// BenchmarkEmit prices one request-sized event on a full ring of the
// default capacity: the cost every journaled request, shot and finding
// pays on its producer's path.
func BenchmarkEmit(b *testing.B) {
	g := New().Ring("server", DefaultRingSize)
	ev := Event{Kind: KindReqReply, Op: "DBwrite_fld", Trace: 7, Aux: 3, Arg: 1234}
	for i := 0; i < DefaultRingSize; i++ {
		g.Emit(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Emit(ev)
	}
}

// TestSaturatedEmitNeverBlocksOrAllocates is the overflow satellite: a
// producer hammering a full ring must neither wait for a consumer (the
// loop completes without any reader) nor allocate on the emit path.
func TestSaturatedEmitNeverBlocksOrAllocates(t *testing.T) {
	r := New()
	g := r.Ring("hot", 16)
	for i := 0; i < 64; i++ { // saturate before measuring
		g.Emit(Event{Kind: KindReqEnqueue, Op: "DBwrite_fld"})
	}
	ev := Event{Kind: KindReqReply, Op: "DBwrite_fld", Trace: 7, Code: 0, Arg: 1234}
	allocs := testing.AllocsPerRun(1000, func() {
		g.Emit(ev)
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %.1f times per call on a saturated ring, want 0", allocs)
	}
	if g.Drops() == 0 {
		t.Fatal("saturated ring recorded no drops")
	}
}

func TestConcurrentEmitters(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		g := r.Ring([]string{"a", "b", "c", "d"}[p], 1024)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g.Emit(Event{Kind: KindReqExecute, Arg: int64(i)})
			}
		}()
	}
	wg.Wait()
	evs := r.Snapshot()
	if len(evs) != 2000 {
		t.Fatalf("snapshot has %d events, want 2000", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("sequence not strictly increasing at %d", i)
		}
	}
	if r.Events() != 2000 {
		t.Fatalf("Events() = %d, want 2000", r.Events())
	}
}

func TestNextTrace(t *testing.T) {
	r := New()
	if a, b := r.NextTrace(), r.NextTrace(); a == 0 || b == a {
		t.Fatalf("trace IDs not fresh: %d, %d", a, b)
	}
}

func TestWithNow(t *testing.T) {
	var tick time.Duration
	r := New(WithNow(func() time.Duration { tick += time.Millisecond; return tick }))
	g := r.Ring("sim", 4)
	g.Emit(Event{Kind: KindShot})
	g.Emit(Event{Kind: KindShot})
	evs := r.Snapshot()
	if evs[0].At != time.Millisecond || evs[1].At != 2*time.Millisecond {
		t.Fatalf("custom clock not used: %v, %v", evs[0].At, evs[1].At)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := New()
	g := r.Ring("server", 8)
	g.Emit(Event{Kind: KindReqEnqueue, Op: "DBwrite_rec", Trace: 3, Aux: 1})
	g.Emit(Event{Kind: KindFinding, Op: "range", Trace: 9, Code: 2, Arg: 4096, Detail: "field 2 out of range"})
	g.Emit(Event{Kind: KindPECOS, Code: 1, Arg: 17, Aux: 99})
	evs := r.Snapshot()

	data, err := EncodeJSON(evs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"finding"`) {
		t.Fatalf("kinds not encoded as names: %s", data)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(evs) {
		t.Fatalf("round-trip has %d events, want %d", len(back), len(evs))
	}
	for i := range evs {
		if back[i] != evs[i] {
			t.Fatalf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, back[i], evs[i])
		}
	}
	if _, err := DecodeJSON([]byte(`[{"kind":"no-such-kind"}]`)); err == nil {
		t.Fatal("unknown kind decoded without error")
	}
}

func TestKindNames(t *testing.T) {
	for k := Kind(1); k < kindMax; k++ {
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := KindFromString(name)
		if !ok || back != k {
			t.Fatalf("kind %d name %q does not round-trip", k, name)
		}
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Fatal("bogus kind resolved")
	}
}

func TestFilterAndTail(t *testing.T) {
	r := New()
	g := r.Ring("g", 16)
	for i := 0; i < 6; i++ {
		k := KindReqEnqueue
		if i%2 == 1 {
			k = KindFinding
		}
		g.Emit(Event{Kind: k, Arg: int64(i)})
	}
	evs := r.Snapshot()
	if got := Filter(evs, KindFinding); len(got) != 3 {
		t.Fatalf("filter kept %d events, want 3", len(got))
	}
	if got := Filter(evs, 0); len(got) != 6 {
		t.Fatalf("kind 0 filter kept %d events, want all 6", len(got))
	}
	tail := Tail(evs, 2)
	if len(tail) != 2 || tail[1].Arg != 5 {
		t.Fatalf("tail wrong: %+v", tail)
	}
	if got := Tail(evs, 0); len(got) != 6 {
		t.Fatal("Tail(0) did not return everything")
	}
}

func TestMergeDedupes(t *testing.T) {
	r := New()
	g := r.Ring("g", 16)
	for i := 0; i < 5; i++ {
		g.Emit(Event{Kind: KindShot, Arg: int64(i)})
	}
	evs := r.Snapshot()
	merged := Merge(evs[2:], evs[:3], evs)
	if len(merged) != 5 {
		t.Fatalf("merge has %d events, want 5", len(merged))
	}
	for i, e := range merged {
		if e.Seq != uint64(i+1) {
			t.Fatalf("merge out of order at %d: seq %d", i, e.Seq)
		}
	}
}

func TestWriteText(t *testing.T) {
	r := New()
	g := r.Ring("audit", 8)
	g.Emit(Event{Kind: KindFinding, Op: "range", Trace: 4, Code: 2, Arg: 128, Detail: "reset"})
	var buf bytes.Buffer
	if err := WriteText(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	for _, want := range []string{"#1", "finding", "audit", "trace=4", "op=range", "arg=128", "reset"} {
		if !strings.Contains(line, want) {
			t.Fatalf("text line missing %q: %s", want, line)
		}
	}
}

func TestRegisterMetrics(t *testing.T) {
	r := New()
	g := r.Ring("hot", 2)
	reg := metrics.NewRegistry()
	r.RegisterMetrics(reg)
	for i := 0; i < 5; i++ {
		g.Emit(Event{Kind: KindShot})
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["trace.hot.drops"]; got != 3 {
		t.Fatalf("trace.hot.drops = %d, want 3", got)
	}
	if got := snap.Gauges["trace.events"]; got != 5 {
		t.Fatalf("trace.events = %d, want 5", got)
	}
}
