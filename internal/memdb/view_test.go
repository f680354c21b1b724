package memdb

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// viewSchema is a single dynamic table whose invariant the stress test
// checks: every committed write leaves all three fields of a record equal,
// so any read observing unequal fields is a torn read.
func viewSchema() Schema {
	return Schema{Tables: []TableSpec{{
		Name:       "Mirror",
		Dynamic:    true,
		NumRecords: 8,
		Groups:     2,
		Fields: []FieldSpec{
			{Name: "A", Kind: Dynamic},
			{Name: "B", Kind: Dynamic},
			{Name: "C", Kind: Dynamic},
		},
	}}}
}

func TestReadViewMatchesClient(t *testing.T) {
	db, err := New(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	v := db.ReadView()

	const table = 3 // Resource
	ri, err := cl.Alloc(table, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{7, 1}
	if err := cl.WriteRec(table, ri, want); err != nil {
		t.Fatal(err)
	}

	got, err := v.ReadRec(table, ri)
	if err != nil {
		t.Fatalf("view ReadRec: %v", err)
	}
	for fi := range want {
		if got[fi] != want[fi] {
			t.Fatalf("view ReadRec field %d = %d, want %d", fi, got[fi], want[fi])
		}
		fv, err := v.ReadFld(table, ri, fi)
		if err != nil || fv != want[fi] {
			t.Fatalf("view ReadFld(%d) = %d, %v, want %d", fi, fv, err, want[fi])
		}
	}
	st, err := v.Status(table, ri)
	if err != nil || st != StatusActive {
		t.Fatalf("view Status = %d, %v, want active", st, err)
	}
	if v.Reads() == 0 {
		t.Fatal("view read counter did not advance")
	}

	// Bounds errors must be byte-identical to the executor path's so the
	// wire mapping does not depend on which lane served the read.
	var be *BoundsError
	if _, err := v.ReadRec(99, 0); !errors.As(err, &be) || be.What != "table" {
		t.Fatalf("table bounds error = %v", err)
	}
	if _, err := v.ReadRec(table, 99999); !errors.As(err, &be) || be.What != "record" || be.Index != 99999 {
		t.Fatalf("record bounds error = %v", err)
	}
	if _, err := v.ReadFld(table, ri, 99); !errors.As(err, &be) || be.What != "field" {
		t.Fatalf("field bounds error = %v", err)
	}
}

func TestFoldViewReads(t *testing.T) {
	db, err := New(viewSchema())
	if err != nil {
		t.Fatal(err)
	}
	v := db.ReadView()
	before := db.TableStats(0).Reads
	for i := 0; i < 10; i++ {
		if _, err := v.ReadRec(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	db.FoldViewReads()
	if got := db.TableStats(0).Reads; got != before+10 {
		t.Fatalf("folded reads = %d, want %d", got, before+10)
	}
	db.FoldViewReads() // second fold must be a no-op
	if got := db.TableStats(0).Reads; got != before+10 {
		t.Fatalf("reads after empty fold = %d, want %d", got, before+10)
	}
}

// TestReadViewStress hammers View reads from several goroutines while a
// single writer runs API mutations, audit repairs, reloads, and log
// replays against the same records — the full set of region mutators the
// mutate bracket covers. Every committed state keeps a record's fields
// equal, so any unequal triple is a torn read, and every read is in bounds,
// so any reader error fails the test. Run under -race this also proves the
// fast lane is data-race-free against every mutation path.
func TestReadViewStress(t *testing.T) {
	db, err := New(viewSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Armed guard with nil handler: a View read entering the API bracket
	// (it must not) would panic the test.
	db.EnableConcurrencyCheck(nil)
	cl, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	v := db.ReadView()

	const (
		table   = 0
		readers = 4
		reads   = 30000
	)
	nRecs := db.Schema().Tables[table].NumRecords

	done := make(chan struct{})
	var writerWg, readerWg sync.WaitGroup
	writerWg.Add(1)
	go func() { // single writer: API ops + audit repairs + replays
		defer writerWg.Done()
		ext, _ := db.TableExtent(table)
		last := 0 // the record the last Alloc claimed
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			ri := i % nRecs
			x := uint32(i)
			switch i % 13 {
			case 0:
				last, _ = cl.Alloc(table, i%2)
			case 1:
				_ = cl.Move(table, last, i%2)
			case 2:
				_ = cl.WriteRec(table, ri, []uint32{x, x, x})
			case 3:
				_ = db.Replay(OpWriteRec, table, ri, 0, 0, []uint32{x, x, x})
			case 4:
				_ = db.Replay(OpAlloc, table, ri, 0, i%2, nil)
			case 5: // the record step 4 activated
				_ = db.Replay(OpMove, table, (i-1)%nRecs, 0, i%2, nil)
			case 6:
				_ = db.ReloadExtent(ext.Off, ext.Len)
			case 7:
				_ = db.RewriteHeader(table, ri)
			case 8:
				_ = cl.Free(table, ri)
			case 9:
				_ = db.FreeRecordDirect(table, ri)
			case 10:
				_ = db.Replay(OpFree, table, ri, 0, 0, nil)
			case 11:
				db.ReloadAll()
			case 12:
				_, _ = db.RebuildGroups(table)
			}
		}
	}()

	var readerErr error
	var mu sync.Mutex
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func(seed int64) {
			defer readerWg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < reads; i++ {
				ri := rng.Intn(nRecs)
				switch i % 3 {
				case 0:
					vals, err := v.ReadRec(table, ri)
					if err != nil {
						mu.Lock()
						readerErr = err
						mu.Unlock()
						return
					}
					if vals[0] != vals[1] || vals[1] != vals[2] {
						mu.Lock()
						readerErr = errors.New("torn read: unequal fields")
						mu.Unlock()
						return
					}
				case 1:
					if _, err := v.ReadFld(table, ri, i%3); err != nil {
						mu.Lock()
						readerErr = err
						mu.Unlock()
						return
					}
				case 2:
					st, err := v.Status(table, ri)
					if err == nil && st != StatusFree && st != StatusActive {
						err = errors.New("torn status byte")
					}
					if err != nil {
						mu.Lock()
						readerErr = err
						mu.Unlock()
						return
					}
				}
			}
		}(int64(r) + 1)
	}

	readerWg.Wait()
	close(done)
	writerWg.Wait()

	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if v.Reads() == 0 {
		t.Fatal("stress run recorded no validated reads")
	}
	if db.GuardViolations() != 0 {
		t.Fatalf("guard violations = %d, want 0", db.GuardViolations())
	}
	t.Logf("reads=%d", v.Reads())
}

// TestDirectReadsDoNotAllocate pins the read path the audits sweep and the
// fast lane serve: a true-offset read computes nothing per call, so it
// allocates nothing — once per field per record on every audit sweep.
func TestDirectReadsDoNotAllocate(t *testing.T) {
	db, err := New(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	v := db.ReadView()
	const table, rec = 3, 1 // Resource
	for name, read := range map[string]func(){
		"TrueRecordOffset": func() { _, _ = db.TrueRecordOffset(table, rec) },
		"ReadFieldDirect":  func() { _, _ = db.ReadFieldDirect(table, rec, 1) },
		"StatusDirect":     func() { _, _ = db.StatusDirect(table, rec) },
		"View.ReadFld":     func() { _, _ = v.ReadFld(table, rec, 1) },
	} {
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("%s allocates %v per call, want 0", name, n)
		}
	}
}
