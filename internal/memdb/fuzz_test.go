package memdb

import (
	"bytes"
	"testing"
)

// fuzzSchema keeps snapshots small, so the fuzzer spends its time on the
// decoder rather than on long inputs: one chained table of two records.
func fuzzSchema() Schema {
	return Schema{Tables: []TableSpec{{
		Name: "Pair", Dynamic: true, NumRecords: 2, Groups: 2,
		Fields: []FieldSpec{{Name: "X", Kind: Dynamic, Default: 5}},
	}}}
}

// fuzzDB is the database FuzzRestoreFrom restores into, with live state
// that no seed snapshot holds, so a refused restore that leaves bytes
// behind shows.
func fuzzDB(t *testing.T) *DB {
	db, err := New(fuzzSchema())
	if err != nil {
		t.Fatal(err)
	}
	c := mustClient(t, db)
	ri, err := c.Alloc(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFld(0, ri, 0, 3); err != nil {
		t.Fatal(err)
	}
	return db
}

// FuzzRestoreFrom drives the snapshot decoder with arbitrary bytes: a
// checkpoint file or a REPL_SNAP chunk off the network reaches RestoreFrom
// as they are. It must never panic; when it refuses the bytes the region
// is byte for byte unchanged, and when it accepts them the region is the
// snapshot's body. The checked-in corpus (testdata/fuzz/FuzzRestoreFrom)
// holds a valid snapshot of fuzzSchema and four damaged ones: truncated,
// bad magic, wrong layout CRC, and a body whose catalog is corrupt.
func FuzzRestoreFrom(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		db := fuzzDB(t)
		before := bytes.Clone(db.region)
		if err := db.RestoreFrom(bytes.NewReader(data)); err != nil {
			if !bytes.Equal(db.region, before) {
				t.Fatalf("RestoreFrom failed (%v) but changed the region", err)
			}
			return
		}
		if body := data[snapHeaderSize:]; !bytes.HasPrefix(body, db.region) {
			t.Fatal("RestoreFrom succeeded but the region is not the snapshot body")
		}
	})
}
