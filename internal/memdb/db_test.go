package memdb

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestSnapshotMatchesPristineRegion(t *testing.T) {
	db := mustDB(t)
	if !bytes.Equal(db.Raw(), db.SnapshotBytes()) {
		t.Fatal("snapshot differs from pristine region")
	}
}

func TestFlipBitAndReload(t *testing.T) {
	db := mustDB(t)
	off := db.Size() / 2
	orig := db.Raw()[off]
	if err := db.FlipBit(off, 3); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	if db.Raw()[off] == orig {
		t.Fatal("FlipBit did not change the byte")
	}
	if err := db.ReloadExtent(off, 1); err != nil {
		t.Fatalf("ReloadExtent: %v", err)
	}
	if db.Raw()[off] != orig {
		t.Fatal("ReloadExtent did not restore the byte")
	}
}

func TestFlipBitBounds(t *testing.T) {
	db := mustDB(t)
	if err := db.FlipBit(-1, 0); err == nil {
		t.Fatal("FlipBit(-1) succeeded")
	}
	if err := db.FlipBit(db.Size(), 0); err == nil {
		t.Fatal("FlipBit(size) succeeded")
	}
	if err := db.FlipBit(0, 8); err == nil {
		t.Fatal("FlipBit(bit 8) succeeded")
	}
}

func TestReloadAllRestoresEverything(t *testing.T) {
	db := mustDB(t)
	c := mustClient(t, db)
	_, _ = c.Alloc(tblConn, 1)
	for i := 0; i < 50; i++ {
		_ = db.FlipBit(i*7%db.Size(), uint(i%8))
	}
	db.ReloadAll()
	if !bytes.Equal(db.Raw(), db.SnapshotBytes()) {
		t.Fatal("ReloadAll did not restore the pristine image")
	}
}

func TestReloadExtentBounds(t *testing.T) {
	db := mustDB(t)
	if err := db.ReloadExtent(-1, 4); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := db.ReloadExtent(0, db.Size()+1); err == nil {
		t.Fatal("oversized extent accepted")
	}
	if err := db.ReloadExtent(4, -1); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestCatalogExtentCoversDescriptors(t *testing.T) {
	db := mustDB(t)
	ext := db.CatalogExtent()
	if ext.Off != 0 {
		t.Fatalf("catalog offset = %d, want 0", ext.Off)
	}
	_, tableOffs, _ := layoutSize(db.Schema())
	if ext.Len != tableOffs[0] {
		t.Fatalf("catalog length = %d, want %d", ext.Len, tableOffs[0])
	}
}

func TestStaticExtents(t *testing.T) {
	db := mustDB(t)
	exts := db.StaticExtents()
	// Catalog + the one static table (SysConfig).
	if len(exts) != 2 {
		t.Fatalf("StaticExtents = %d extents, want 2", len(exts))
	}
	if exts[0].Name != "catalog" || exts[1].Name != "SysConfig" {
		t.Fatalf("extent names = %q, %q", exts[0].Name, exts[1].Name)
	}
	te, err := db.TableExtent(tblConfig)
	if err != nil {
		t.Fatal(err)
	}
	if exts[1] != te {
		t.Fatalf("static table extent %+v != TableExtent %+v", exts[1], te)
	}
}

func TestTableExtentBounds(t *testing.T) {
	db := mustDB(t)
	if _, err := db.TableExtent(-1); err == nil {
		t.Fatal("TableExtent(-1) succeeded")
	}
	if _, err := db.TableExtent(99); err == nil {
		t.Fatal("TableExtent(99) succeeded")
	}
}

func TestRewriteHeaderRepairsIdentity(t *testing.T) {
	db := mustDB(t)
	c := mustClient(t, db)
	ri, _ := c.Alloc(tblConn, 7)
	off, _ := db.TrueRecordOffset(tblConn, ri)
	// Corrupt the record identifier.
	db.Raw()[off+2] ^= 0xA5
	h := db.HeaderAt(off)
	if h.RecordID == ri {
		t.Fatal("corruption did not change RecordID")
	}
	if err := db.RewriteHeader(tblConn, ri); err != nil {
		t.Fatalf("RewriteHeader: %v", err)
	}
	h = db.HeaderAt(off)
	if h.RecordID != ri || h.TableID != tblConn {
		t.Fatalf("header after repair = %+v", h)
	}
	// Status and group survive the repair.
	if h.Status != StatusActive || h.GroupID != 7 {
		t.Fatalf("repair clobbered status/group: %+v", h)
	}
}

func TestDirectFieldAccess(t *testing.T) {
	db := mustDB(t)
	ver := db.Version(tblProc, 2)
	if err := db.WriteFieldDirect(tblProc, 2, 1, 42); err != nil {
		t.Fatalf("WriteFieldDirect: %v", err)
	}
	if got := db.Version(tblProc, 2); got != ver+1 {
		t.Fatalf("version after WriteFieldDirect = %d, want %d", got, ver+1)
	}
	v, err := db.ReadFieldDirect(tblProc, 2, 1)
	if err != nil || v != 42 {
		t.Fatalf("ReadFieldDirect = (%d,%v), want 42", v, err)
	}
	if _, err := db.ReadFieldDirect(tblProc, 2, 99); err == nil {
		t.Fatal("ReadFieldDirect with bad field succeeded")
	}
	if err := db.WriteFieldDirect(tblProc, 99, 0, 1); err == nil {
		t.Fatal("WriteFieldDirect with bad record succeeded")
	}
}

func TestFreeRecordDirect(t *testing.T) {
	db := mustDB(t)
	c := mustClient(t, db)
	ri, _ := c.Alloc(tblRes, 3)
	_ = c.WriteFld(tblRes, ri, 0, 5)
	verBefore := db.Version(tblRes, ri)
	if err := db.FreeRecordDirect(tblRes, ri); err != nil {
		t.Fatalf("FreeRecordDirect: %v", err)
	}
	st, _ := db.StatusDirect(tblRes, ri)
	if st != StatusFree {
		t.Fatalf("status = %d, want free", st)
	}
	v, _ := db.ReadFieldDirect(tblRes, ri, 0)
	if v != db.Schema().Tables[tblRes].Fields[0].Default {
		t.Fatalf("field after free = %d, want default", v)
	}
	if db.Version(tblRes, ri) != verBefore+1 {
		t.Fatal("FreeRecordDirect did not bump the version")
	}
}

func TestNoteAuditErrorAndCycle(t *testing.T) {
	db := mustDB(t)
	db.NoteAuditError(tblConn)
	db.NoteAuditError(tblConn)
	db.NoteAuditError(tblRes)
	ts := db.TableStats(tblConn)
	if ts.ErrorsLast != 2 || ts.ErrorsAll != 2 {
		t.Fatalf("TableStats = %+v", ts)
	}
	cycle := db.EndAuditCycle()
	if cycle[tblConn] != 2 || cycle[tblRes] != 1 || cycle[tblProc] != 0 {
		t.Fatalf("cycle = %v", cycle)
	}
	ts = db.TableStats(tblConn)
	if ts.ErrorsLast != 0 || ts.ErrorsAll != 2 {
		t.Fatalf("after cycle: %+v", ts)
	}
	db.NoteAuditError(-1) // out of range: no panic
	db.NoteAuditError(99)
}

func TestMetaBounds(t *testing.T) {
	db := mustDB(t)
	if _, err := db.Meta(99, 0); err == nil {
		t.Fatal("Meta with bad table succeeded")
	}
	if db.Version(99, 0) != 0 {
		t.Fatal("Version with bad table nonzero")
	}
	if (db.TableStats(99) != TableStats{}) {
		t.Fatal("TableStats with bad table nonzero")
	}
}

func TestLockHolderBounds(t *testing.T) {
	db := mustDB(t)
	if _, _, held := db.LockHolder(-1); held {
		t.Fatal("LockHolder(-1) reported held")
	}
	if _, _, held := db.LockHolder(99); held {
		t.Fatal("LockHolder(99) reported held")
	}
}

func TestNewRejectsInvalidSchema(t *testing.T) {
	_, err := New(Schema{})
	if err == nil {
		t.Fatal("New with empty schema succeeded")
	}
}

func TestConnectAssignsUniquePIDs(t *testing.T) {
	db := mustDB(t)
	seen := make(map[int]bool)
	for i := 0; i < 10; i++ {
		c := mustClient(t, db)
		if seen[c.PID()] {
			t.Fatalf("duplicate PID %d", c.PID())
		}
		seen[c.PID()] = true
	}
}

// Property: a write through the API is always observable through both the
// API read path and the direct audit path, for any in-range field value.
func TestPropertyWriteReadAgreement(t *testing.T) {
	db := mustDB(t)
	c := mustClient(t, db)
	ri, err := c.Alloc(tblConn, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(v uint32) bool {
		if err := c.WriteFld(tblConn, ri, 1, v); err != nil {
			return false
		}
		api, err := c.ReadFld(tblConn, ri, 1)
		if err != nil {
			return false
		}
		direct, err := db.ReadFieldDirect(tblConn, ri, 1)
		if err != nil {
			return false
		}
		return api == v && direct == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping a bit and flipping it back always restores region
// equality with the snapshot (on a fresh database).
func TestPropertyFlipIsInvolution(t *testing.T) {
	db := mustDB(t)
	f := func(rawOff uint16, bit uint8) bool {
		off := int(rawOff) % db.Size()
		b := uint(bit % 8)
		if err := db.FlipBit(off, b); err != nil {
			return false
		}
		if bytes.Equal(db.Raw(), db.SnapshotBytes()) {
			return false // flip must be visible
		}
		if err := db.FlipBit(off, b); err != nil {
			return false
		}
		return bytes.Equal(db.Raw(), db.SnapshotBytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestErrLockedWraps(t *testing.T) {
	db := mustDB(t)
	a := mustClient(t, db)
	b := mustClient(t, db)
	if err := a.Begin(tblProc); err != nil {
		t.Fatal(err)
	}
	err := b.Begin(tblProc)
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("Begin on held table: %v", err)
	}
}
