package memdb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveAlloc predicts DBalloc with the plain first-fit scan: resolve the
// table through its live catalog descriptor and claim the lowest free
// index, scanning every record from 0. It reads the region without Raw, so
// predicting leaves the free floors alone.
func naiveAlloc(db *DB, table, group int) (int, error) {
	td, err := readTableDesc(db.region, table)
	if err != nil {
		return 0, err
	}
	spec := db.schema.Tables[table]
	if spec.Groups > 0 && (group < 0 || group >= spec.Groups) {
		return 0, &BoundsError{What: "group", Index: group, Limit: spec.Groups}
	}
	if spec.Groups == 0 && (group < 0 || group > 0xFFFF) {
		return 0, &BoundsError{What: "group", Index: group, Limit: 0x10000}
	}
	for ri := 0; ri < td.NumRecords; ri++ {
		off, err := recordOffset(db.region, td, ri)
		if err != nil {
			return 0, err
		}
		if db.region[off+1] != StatusFree {
			continue
		}
		if spec.Groups > 0 && ri >= spec.NumRecords {
			// A damaged descriptor claims more records than the group
			// chains can link.
			return 0, &BoundsError{What: "record", Index: ri, Limit: spec.NumRecords}
		}
		return ri, nil
	}
	return 0, fmt.Errorf("table %d: %w", table, ErrNoFreeRecord)
}

// TestAllocFirstFit runs seeded random mixes of the Client mutators and of
// every other kind of region writer — status-byte bit flips, catalog
// descriptor flips, the audit's direct free, replay's direct alloc, full
// reloads, snapshot restores and writes through Raw — and checks every
// DBalloc, index and error alike, against naiveAlloc.
func TestAllocFirstFit(t *testing.T) {
	schema := chainedSchema()
	schema.Tables[1].NumRecords = 8
	var allocs, above0 int
	for seed := int64(1); seed <= 8; seed++ {
		db, err := New(schema)
		if err != nil {
			t.Fatal(err)
		}
		c, err := db.Connect()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var saved []byte
		for step := 0; step < 4000; step++ {
			ti := rng.Intn(len(schema.Tables))
			spec := schema.Tables[ti]
			ri := rng.Intn(spec.NumRecords)
			group := rng.Intn(max(spec.Groups, 3))
			off, err := db.TrueRecordOffset(ti, ri)
			if err != nil {
				t.Fatal(err)
			}
			status := off + 1 // the record's status byte
			switch k := rng.Intn(100); {
			case k < 40:
				if rng.Intn(25) == 0 {
					group = []int{-1, spec.Groups, 0x10000}[rng.Intn(3)]
				}
				want, wantErr := naiveAlloc(db, ti, group)
				got, err := c.Alloc(ti, group)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && got != want) {
					t.Fatalf("seed %d step %d: Alloc(%d, %d) = %d, %v; first fit gives %d, %v",
						seed, step, ti, group, got, err, want, wantErr)
				}
				if err == nil {
					allocs++
					if got > 0 {
						above0++
					}
				}
			case k < 60:
				_ = c.Free(ti, ri)
			case k < 65:
				_ = c.Move(ti, ri, group)
			case k < 70:
				_ = c.WriteFld(ti, ri, 0, uint32(rng.Intn(100)))
			case k < 72:
				_ = c.WriteRec(ti, ri, make([]uint32, len(spec.Fields)))
			case k < 78:
				_ = db.FlipBit(status, uint(rng.Intn(8)))
			case k < 82:
				_ = db.FreeRecordDirect(ti, ri)
			case k < 86:
				_ = db.Replay(OpAlloc, ti, ri, 0, group, nil)
			case k < 90:
				db.Raw()[status] = byte(rng.Intn(2))
			case k < 92:
				// One bit of the table's catalog descriptor: the API
				// then addresses the table through a damaged layout.
				_ = db.FlipBit(catalogHdrSize+tableDescSize*ti+rng.Intn(tableDescSize), uint(rng.Intn(8)))
			case k < 95:
				db.ReloadAll()
			case k < 97:
				var buf bytes.Buffer
				if err := db.SnapshotInto(&buf); err != nil {
					t.Fatal(err)
				}
				saved = buf.Bytes()
			default:
				if saved != nil {
					_ = db.RestoreFrom(bytes.NewReader(saved))
				}
			}
		}
	}
	t.Logf("%d successful allocs, %d above index 0", allocs, above0)
	if allocs < 1000 || above0 < allocs/2 {
		t.Fatalf("only %d successful allocs, %d above index 0: the mix does not exercise the floors", allocs, above0)
	}
}

// TestAllocGroupsReplay pins DBalloc's group bound to replay's: every
// Alloc the API accepts must replay through DB.Replay to the same region,
// and every group Replay refuses the API must refuse too, or
// an acknowledged, logged allocation is lost at recovery.
func TestAllocGroupsReplay(t *testing.T) {
	for ti, spec := range chainedSchema().Tables {
		for _, group := range []int{-1, 0, 3, 4, 0xFFFF, 0x10000, math.MaxInt32} {
			live, c := chainedDB(t)
			replica, _ := chainedDB(t)
			ri, err := c.Alloc(ti, group)
			rerr := replica.Replay(OpAlloc, ti, 0, 0, group, nil)
			switch {
			case err == nil && rerr != nil:
				t.Errorf("%s: Alloc accepted group %d that replay refuses: %v", spec.Name, group, rerr)
			case err != nil && rerr == nil:
				t.Errorf("%s: Alloc refused group %d that replay accepts: %v", spec.Name, group, err)
			case err == nil && (ri != 0 || !bytes.Equal(live.Raw(), replica.Raw())):
				t.Errorf("%s: replay of Alloc(group %d) = record %d does not reproduce the region", spec.Name, group, ri)
			}
		}
	}
}
