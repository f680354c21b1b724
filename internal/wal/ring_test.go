package wal

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// ringRecord is the record the ring tests log at seq. Every field is a
// function of seq and the value count varies, so a slot shipped under the
// wrong seq, or a batch cut at the wrong byte, is caught.
func ringRecord(seq uint64) Record {
	r := Record{Seq: seq, Trace: seq * 7, Op: OpWriteRec, Table: 1, Rec: int32(seq)}
	for i := uint64(0); i < seq%3; i++ {
		r.Vals = append(r.Vals, uint32(seq+i))
	}
	return r
}

// shippedSeqs decodes a Since batch into its sequence numbers.
func shippedSeqs(t *testing.T, blob []byte) []uint64 {
	t.Helper()
	var seqs []uint64
	dec := NewDecoder(blob)
	for {
		r, err := dec.Next()
		if err == io.EOF {
			return seqs
		}
		if err != nil {
			t.Fatalf("shipped batch: %v", err)
		}
		seqs = append(seqs, r.Seq)
	}
}

// TestSinceTailAndGap model-checks Since at the eviction edge: after every
// append, through two wraparounds of the ring, every afterSeq and three batch
// bounds are compared against a model holding every appended record. ok
// holds iff afterSeq ≥ head-n, and the batch is the model's suffix after
// afterSeq, cut before the first record that would overflow maxBytes except
// that the first record always ships.
func TestSinceTailAndGap(t *testing.T) {
	bounds := []int{0, 1, 3 * EncodedSize(Record{Vals: []uint32{0}})}
	for _, tailCap := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("tail=%d", tailCap), func(t *testing.T) {
			l, err := Open(Config{Dir: t.TempDir(), TailCap: tailCap}, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var model []Record // model[i] holds seq i+1
			for len(model) < 2*tailCap+3 {
				r := ringRecord(uint64(len(model) + 1))
				if _, err := l.Append(r); err != nil {
					t.Fatal(err)
				}
				model = append(model, r)
				head := uint64(len(model))
				n := uint64(min(tailCap, len(model)))
				for after := uint64(0); after <= head; after++ {
					for _, maxBytes := range bounds {
						blob, last, ok := l.Since(after, maxBytes)
						if last != head || ok != (after >= head-n) {
							t.Fatalf("head %d: Since(%d, %d) last=%d ok=%v, want last=%d ok=%v",
								head, after, maxBytes, last, ok, head, after >= head-n)
						}
						var want []byte
						if ok {
							for _, r := range model[after:] {
								if maxBytes > 0 && len(want) > 0 && len(want)+EncodedSize(r) > maxBytes {
									break
								}
								want = AppendRecord(want, r)
							}
						}
						if !bytes.Equal(blob, want) {
							t.Fatalf("head %d: Since(%d, %d) shipped seqs %v, want %v",
								head, after, maxBytes, shippedSeqs(t, blob), shippedSeqs(t, want))
						}
					}
				}
			}
		})
	}
}

// TestSinceRacesAppend ships a log while it is written: one goroutine
// appends 50k records into an 8-slot ring while two pollers ship from their
// last seq, one unbounded and one three records per batch. Every batch must
// decode, start at afterSeq+1 and carry exactly the records appended at
// those seqs; a gap is legal only once afterSeq has left the ring
// (afterSeq < head-n), and a poller that gets one re-bootstraps at head.
func TestSinceRacesAppend(t *testing.T) {
	const tailCap, total = 8, 50000
	l, err := Open(Config{Dir: t.TempDir(), TailCap: tailCap}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		errs = make(chan error, 2)
	)
	for _, maxBytes := range []int{0, 3 * EncodedSize(ringRecord(2))} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var after uint64
			for after < total && !stop.Load() {
				blob, head, ok := l.Since(after, maxBytes)
				if !ok {
					if after+tailCap >= head {
						errs <- fmt.Errorf("Since(%d) reported a gap at head %d with %d slots", after, head, tailCap)
						return
					}
					after = head
					continue
				}
				if after < head && len(blob) == 0 {
					errs <- fmt.Errorf("Since(%d) at head %d shipped nothing", after, head)
					return
				}
				if len(blob) == 0 {
					runtime.Gosched()
				}
				dec := NewDecoder(blob)
				for {
					r, err := dec.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						errs <- fmt.Errorf("Since(%d): %v", after, err)
						return
					}
					if want := ringRecord(after + 1); !reflect.DeepEqual(r, want) {
						errs <- fmt.Errorf("Since shipped %+v, want %+v", r, want)
						return
					}
					after++
				}
				if after > head {
					errs <- fmt.Errorf("Since shipped through %d past head %d", after, head)
					return
				}
			}
		}()
	}
	for seq := uint64(1); seq <= total; seq++ {
		if _, err := l.Append(ringRecord(seq)); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLastField pins the range audit's repair read: the newest logged value
// of (table 1, record 5, field 2), walked from the ring's head. A write of
// that field or of the whole record is a hit; an alloc or free of the record
// ends the walk with a miss, as does the ring's end, whether the write was
// evicted or a checkpoint install emptied the ring.
func TestLastField(t *testing.T) {
	fld := func(table, rec, field int32, v uint32) Record {
		return Record{Op: OpWriteFld, Table: table, Rec: rec, Field: field, Vals: []uint32{v}}
	}
	wrec := func(vals ...uint32) Record { return Record{Op: OpWriteRec, Table: 1, Rec: 5, Vals: vals} }
	life := func(op Op) Record { return Record{Op: op, Table: 1, Rec: 5} }
	cases := []struct {
		name    string
		tailCap int
		recs    []Record
		install bool // install a checkpoint past the head after appending
		want    uint32
		ok      bool
	}{
		{name: "write-fld", recs: []Record{fld(1, 5, 2, 42)}, want: 42, ok: true},
		{name: "write-rec", recs: []Record{wrec(7, 8, 9)}, want: 9, ok: true},
		{name: "newest wins", recs: []Record{wrec(7, 8, 9), fld(1, 5, 2, 42), fld(1, 5, 2, 43)}, want: 43, ok: true},
		{name: "write-rec after write-fld", recs: []Record{fld(1, 5, 2, 42), wrec(7, 8, 9)}, want: 9, ok: true},
		{name: "skips others and move", recs: []Record{
			fld(1, 5, 2, 42), fld(1, 5, 1, 9), fld(1, 6, 2, 10), fld(2, 5, 2, 11),
			{Op: OpMove, Table: 1, Rec: 5, Aux: 3},
		}, want: 42, ok: true},
		{name: "write after alloc", recs: []Record{life(OpAlloc), fld(1, 5, 2, 42)}, want: 42, ok: true},
		{name: "free stops", recs: []Record{fld(1, 5, 2, 42), life(OpFree)}},
		{name: "alloc stops", recs: []Record{fld(1, 5, 2, 42), life(OpFree), life(OpAlloc)}},
		{name: "short write-rec", recs: []Record{fld(1, 5, 2, 42), wrec(7, 8)}},
		{name: "never written", recs: []Record{fld(1, 6, 2, 42)}},
		{name: "empty log"},
		{name: "last slot", tailCap: 4, recs: []Record{
			fld(1, 5, 2, 42), fld(1, 6, 2, 1), fld(1, 6, 2, 2), fld(1, 6, 2, 3),
		}, want: 42, ok: true},
		{name: "wrapped", tailCap: 4, recs: []Record{
			fld(1, 6, 2, 1), fld(1, 6, 2, 2), fld(1, 5, 2, 42), fld(1, 6, 2, 3), fld(1, 6, 2, 4), fld(1, 6, 2, 5),
		}, want: 42, ok: true},
		{name: "evicted", tailCap: 4, recs: []Record{
			fld(1, 5, 2, 42), fld(1, 6, 2, 1), fld(1, 6, 2, 2), fld(1, 6, 2, 3), fld(1, 6, 2, 4),
		}},
		{name: "checkpoint install", recs: []Record{fld(1, 5, 2, 42)}, install: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Open(Config{Dir: t.TempDir(), TailCap: tc.tailCap}, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			for _, r := range tc.recs {
				if _, err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if tc.install {
				if err := l.InstallCheckpoint(l.LastSeq()+5, nil); err != nil {
					t.Fatal(err)
				}
			}
			if v, ok := l.LastField(1, 5, 2); v != tc.want || ok != tc.ok {
				t.Fatalf("LastField = %d, %v; want %d, %v", v, ok, tc.want, tc.ok)
			}
		})
	}
}

// TestAppendFullRingAllocs pins Append at zero allocations once the tail
// ring is full and the encode buffer warm: eviction overwrites a slot.
func TestAppendFullRingAllocs(t *testing.T) {
	const tailCap = 64
	l, err := Open(Config{Dir: t.TempDir(), TailCap: tailCap}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r := Record{Op: OpWriteFld, Table: 3, Rec: 5, Field: 2, Vals: []uint32{42}}
	for i := 0; i < tailCap; i++ {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append on a full %d-slot ring: %.1f allocations per call, want 0", tailCap, allocs)
	}
}

// BenchmarkAppend times Append on a full tail ring at two sizes three orders
// of magnitude apart; matching ns/op is the O(1) claim. Every 64k appends a
// checkpoint (off the clock) prunes the segments so the directory stays a
// few MiB however long the run.
func BenchmarkAppend(b *testing.B) {
	for _, tailCap := range []int{8, 8192} {
		b.Run(fmt.Sprintf("tail=%d", tailCap), func(b *testing.B) {
			l, err := Open(Config{Dir: b.TempDir(), TailCap: tailCap}, 0)
			if err != nil {
				b.Fatal(err)
			}
			// Cleanup, not defer: Close fsyncs, and must stay off the clock.
			b.Cleanup(func() { l.Close() })
			r := Record{Op: OpWriteFld, Table: 3, Rec: 5, Field: 2, Vals: []uint32{42}}
			for i := 0; i < tailCap; i++ {
				if _, err := l.Append(r); err != nil {
					b.Fatal(err)
				}
			}
			noSnapshot := func(io.Writer) error { return nil }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if _, err := l.Append(r); err != nil {
					b.Fatal(err)
				}
				if i%(1<<16) == 0 {
					b.StopTimer()
					if err := l.Checkpoint(noSnapshot); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}
