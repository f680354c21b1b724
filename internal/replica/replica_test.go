package replica

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/callproc"
	"repro/internal/memdb"
	"repro/internal/wal"
)

func testSchema() memdb.Schema {
	return callproc.Schema(callproc.SchemaConfig{ConfigRecords: 4, ConfigFields: 4, CallRecords: 16})
}

// driveOps applies a deterministic mutation mix to db, logging each op.
func driveOps(t *testing.T, db *memdb.DB, l *wal.Log, n int) {
	t.Helper()
	ti := int32(callproc.TblRes)
	for i := 0; i < n; i++ {
		// Each group of four ops hits one record: alloc, write, move, free.
		ri := int32((i / 4) % 8)
		group := int32(i % callproc.ResourceBanks)
		var r wal.Record
		switch i % 4 {
		case 0:
			r = wal.Record{Op: wal.OpAlloc, Table: ti, Rec: ri, Aux: group}
		case 1:
			r = wal.Record{Op: wal.OpWriteFld, Table: ti, Rec: ri,
				Field: int32(callproc.FldResQuality), Vals: []uint32{uint32(i%50 + 1)}}
		case 2:
			r = wal.Record{Op: wal.OpMove, Table: ti, Rec: ri, Aux: (group + 1) % callproc.ResourceBanks}
		default:
			r = wal.Record{Op: wal.OpFree, Table: ti, Rec: ri}
		}
		if err := wal.Apply(db, r); err != nil {
			t.Fatalf("%v %d: %v", r.Op, i, err)
		}
		if _, err := l.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

// TestShipApply ships a primary's log through the Shipper and replays it
// with the Applier's batch path; the standby region must converge to the
// primary's byte for byte.
func TestShipApply(t *testing.T) {
	schema := testSchema()
	primary, err := memdb.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(wal.Config{Dir: t.TempDir()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	driveOps(t, primary, l, 40)

	standby, err := memdb.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(l)
	ap := NewApplier(standby, nil, 0, ApplierConfig{Primary: "unused"})

	for {
		blob, lastSeq, err := sh.Serve(ap.Applied(), "standby:1")
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		if len(blob) == 0 {
			if ap.Applied() != lastSeq {
				t.Fatalf("caught up at %d, primary at %d", ap.Applied(), lastSeq)
			}
			break
		}
		if err := ap.applyBatch(blob); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	if !bytes.Equal(primary.Raw(), standby.Raw()) {
		t.Fatal("standby region does not match primary after replay")
	}
	if sh.Lag() != 0 {
		t.Fatalf("lag = %d after catch-up", sh.Lag())
	}
}

// TestShipperGap verifies a position evicted from the tail ring reports
// ErrGap, and that a duplicate-overlapping batch applies cleanly.
func TestShipperGap(t *testing.T) {
	const tailCap = 8
	schema := testSchema()
	primary, err := memdb.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(wal.Config{Dir: t.TempDir(), TailCap: tailCap}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	driveOps(t, primary, l, 40)

	sh := NewShipper(l)
	if _, _, err := sh.Serve(0, ""); !errors.Is(err, ErrGap) {
		t.Fatalf("expected ErrGap, got %v", err)
	}
	// The ring has wrapped several times and holds exactly the newest
	// tailCap records: one position further back than their start is gone.
	last := l.LastSeq()
	if _, _, err := sh.Serve(last-tailCap-1, ""); !errors.Is(err, ErrGap) {
		t.Fatalf("Serve(%d) at last %d: %v, want ErrGap", last-tailCap-1, last, err)
	}

	// A poll inside the retained window succeeds, and records at or below
	// the applied watermark are skipped as duplicates. The standby holds
	// the same history up to seq 34, so the batch overlaps by two records.
	blob, _, err := sh.Serve(last-tailCap, "")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	standby, err := memdb.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := wal.Open(wal.Config{Dir: t.TempDir()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	driveOps(t, standby, sl, 34)
	ap := NewApplier(standby, nil, 34, ApplierConfig{Primary: "unused"})
	if err := ap.applyBatch(blob); err != nil {
		t.Fatalf("apply overlapping batch: %v", err)
	}
	if ap.Applied() != l.LastSeq() {
		t.Fatalf("applied = %d, want %d", ap.Applied(), l.LastSeq())
	}
	if !bytes.Equal(primary.Raw(), standby.Raw()) {
		t.Fatal("standby region does not match primary after overlap apply")
	}
}

// TestApplierSeqGap: a batch that skips ahead must flag re-bootstrap, not
// apply.
func TestApplierSeqGap(t *testing.T) {
	schema := testSchema()
	db, err := memdb.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	ap := NewApplier(db, nil, 0, ApplierConfig{Primary: "unused"})
	blob := wal.AppendRecord(nil, wal.Record{Seq: 5, Op: wal.OpFree, Table: int32(callproc.TblRes)})
	if err := ap.applyBatch(blob); err == nil {
		t.Fatal("expected sequence-gap error")
	}
	if !ap.needBoot {
		t.Fatal("gap must force re-bootstrap")
	}
	if ap.Applied() != 0 {
		t.Fatalf("applied advanced to %d on gapped batch", ap.Applied())
	}
}
