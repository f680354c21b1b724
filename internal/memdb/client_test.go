package memdb

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ipc"
)

const (
	tblConfig = 0
	tblProc   = 1
	tblConn   = 2
	tblRes    = 3
)

func TestAllocWriteReadFree(t *testing.T) {
	db := mustDB(t)
	c := mustClient(t, db)

	ri, err := c.Alloc(tblConn, 5)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := c.WriteRec(tblConn, ri, []uint32{3, 777, 2}); err != nil {
		t.Fatalf("WriteRec: %v", err)
	}
	got, err := c.ReadRec(tblConn, ri)
	if err != nil {
		t.Fatalf("ReadRec: %v", err)
	}
	want := []uint32{3, 777, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReadRec = %v, want %v", got, want)
		}
	}
	st, err := c.Status(tblConn, ri)
	if err != nil || st != StatusActive {
		t.Fatalf("Status = (%d,%v), want active", st, err)
	}
	if err := c.Free(tblConn, ri); err != nil {
		t.Fatalf("Free: %v", err)
	}
	st, err = c.Status(tblConn, ri)
	if err != nil || st != StatusFree {
		t.Fatalf("Status after Free = (%d,%v), want free", st, err)
	}
	// Freed record's fields reset to defaults.
	vals, err := c.ReadRec(tblConn, ri)
	if err != nil {
		t.Fatalf("ReadRec after free: %v", err)
	}
	for i, f := range db.Schema().Tables[tblConn].Fields {
		if vals[i] != f.Default {
			t.Fatalf("field %d after free = %d, want default %d", i, vals[i], f.Default)
		}
	}
}

func TestWriteFldAndReadFld(t *testing.T) {
	db := mustDB(t)
	c := mustClient(t, db)
	ri, err := c.Alloc(tblProc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFld(tblProc, ri, 1, 3); err != nil {
		t.Fatalf("WriteFld: %v", err)
	}
	v, err := c.ReadFld(tblProc, ri, 1)
	if err != nil || v != 3 {
		t.Fatalf("ReadFld = (%d,%v), want 3", v, err)
	}
	if _, err := c.ReadFld(tblProc, ri, 99); err == nil {
		t.Fatal("ReadFld with bad field index succeeded")
	}
	if err := c.WriteFld(tblProc, ri, -1, 0); err == nil {
		t.Fatal("WriteFld with negative field index succeeded")
	}
}

func TestWriteToFreeRecordRejected(t *testing.T) {
	db := mustDB(t)
	c := mustClient(t, db)
	err := c.WriteRec(tblProc, 0, []uint32{0, 0})
	if !errors.Is(err, ErrNotActive) {
		t.Fatalf("WriteRec on free record: %v, want ErrNotActive", err)
	}
	err = c.WriteFld(tblProc, 0, 0, 1)
	if !errors.Is(err, ErrNotActive) {
		t.Fatalf("WriteFld on free record: %v, want ErrNotActive", err)
	}
	err = c.Move(tblProc, 0, 2)
	if !errors.Is(err, ErrNotActive) {
		t.Fatalf("Move on free record: %v, want ErrNotActive", err)
	}
}

func TestWriteRecWrongArity(t *testing.T) {
	db := mustDB(t)
	c := mustClient(t, db)
	ri, _ := c.Alloc(tblProc, 0)
	if err := c.WriteRec(tblProc, ri, []uint32{1}); err == nil {
		t.Fatal("WriteRec with wrong value count succeeded")
	}
}

func TestMoveChangesGroup(t *testing.T) {
	db := mustDB(t)
	c := mustClient(t, db)
	ri, _ := c.Alloc(tblRes, 1)
	if err := c.Move(tblRes, ri, 9); err != nil {
		t.Fatalf("Move: %v", err)
	}
	off, _ := db.TrueRecordOffset(tblRes, ri)
	if h := db.HeaderAt(off); h.GroupID != 9 {
		t.Fatalf("GroupID = %d, want 9", h.GroupID)
	}
	if err := c.Move(tblRes, ri, -1); err == nil {
		t.Fatal("Move to negative group succeeded")
	}
}

func TestAllocExhaustion(t *testing.T) {
	db := mustDB(t)
	c := mustClient(t, db)
	n := db.Schema().Tables[tblProc].NumRecords
	for i := 0; i < n; i++ {
		if _, err := c.Alloc(tblProc, 0); err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
	}
	_, err := c.Alloc(tblProc, 0)
	if !errors.Is(err, ErrNoFreeRecord) {
		t.Fatalf("Alloc on full table: %v, want ErrNoFreeRecord", err)
	}
	// Freeing one makes allocation possible again, reusing that slot.
	if err := c.Free(tblProc, 3); err != nil {
		t.Fatal(err)
	}
	ri, err := c.Alloc(tblProc, 0)
	if err != nil || ri != 3 {
		t.Fatalf("Alloc after free = (%d,%v), want slot 3", ri, err)
	}
}

func TestClosedClientRejectsOps(t *testing.T) {
	db := mustDB(t)
	c := mustClient(t, db)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close: %v, want ErrClosed", err)
	}
	if _, err := c.ReadRec(tblProc, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadRec after Close: %v", err)
	}
	if _, err := c.Alloc(tblProc, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Alloc after Close: %v", err)
	}
	if err := c.Begin(tblProc); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin after Close: %v", err)
	}
}

func TestLockContention(t *testing.T) {
	db := mustDB(t)
	a := mustClient(t, db)
	b := mustClient(t, db)
	if err := a.Begin(tblConn); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if !a.InTxn(tblConn) {
		t.Fatal("InTxn = false after Begin")
	}
	_, err := b.Alloc(tblConn, 0)
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("Alloc under foreign lock: %v, want ErrLocked", err)
	}
	// The holder can keep operating.
	if _, err := a.Alloc(tblConn, 0); err != nil {
		t.Fatalf("holder Alloc: %v", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Alloc(tblConn, 0); err != nil {
		t.Fatalf("Alloc after Commit: %v", err)
	}
}

func TestAbandonLeavesLockHeld(t *testing.T) {
	clock := time.Duration(0)
	db := mustDB(t, WithClock(func() time.Duration { return clock }))
	a := mustClient(t, db)
	b := mustClient(t, db)
	if err := a.Begin(tblConn); err != nil {
		t.Fatal(err)
	}
	clock = 5 * time.Second
	a.Abandon()
	if !a.Closed() {
		t.Fatal("Closed = false after Abandon")
	}
	pid, heldFor, held := db.LockHolder(tblConn)
	if !held || pid != a.PID() {
		t.Fatalf("LockHolder = (%d,%v,%v), want held by %d", pid, heldFor, held, a.PID())
	}
	if heldFor != 5*time.Second {
		t.Fatalf("heldFor = %v, want 5s", heldFor)
	}
	if _, err := b.Alloc(tblConn, 0); !errors.Is(err, ErrLocked) {
		t.Fatalf("Alloc with abandoned lock: %v, want ErrLocked", err)
	}
	// Progress-indicator style recovery: force-release.
	if n := db.ReleaseAllLocks(a.PID()); n != 1 {
		t.Fatalf("ReleaseAllLocks = %d, want 1", n)
	}
	if _, err := b.Alloc(tblConn, 0); err != nil {
		t.Fatalf("Alloc after forced release: %v", err)
	}
}

func TestCloseReleasesLocks(t *testing.T) {
	db := mustDB(t)
	a := mustClient(t, db)
	b := mustClient(t, db)
	if err := a.Begin(tblConn); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Alloc(tblConn, 0); err != nil {
		t.Fatalf("Alloc after holder Close: %v", err)
	}
}

func TestShadowMetadataTracksAccess(t *testing.T) {
	clock := 3 * time.Second
	db := mustDB(t, WithClock(func() time.Duration { return clock }))
	c := mustClient(t, db)
	ri, _ := c.Alloc(tblProc, 0)
	_ = c.WriteFld(tblProc, ri, 0, 1)
	clock = 7 * time.Second
	_, _ = c.ReadRec(tblProc, ri)
	m, err := db.Meta(tblProc, ri)
	if err != nil {
		t.Fatal(err)
	}
	if m.LastPID != c.PID() {
		t.Fatalf("LastPID = %d, want %d", m.LastPID, c.PID())
	}
	if m.LastAccess != 7*time.Second {
		t.Fatalf("LastAccess = %v, want 7s", m.LastAccess)
	}
	if m.Writes != 2 || m.Reads != 1 { // alloc + writefld, readrec
		t.Fatalf("Reads/Writes = %d/%d, want 1/2", m.Reads, m.Writes)
	}
	if m.Version != 2 {
		t.Fatalf("Version = %d, want 2", m.Version)
	}
	ts := db.TableStats(tblProc)
	if ts.Writes != 2 || ts.Reads != 1 {
		t.Fatalf("TableStats = %+v", ts)
	}
}

func TestAuditNotificationsPosted(t *testing.T) {
	db := mustDB(t)
	q, err := ipc.NewQueue(100)
	if err != nil {
		t.Fatal(err)
	}
	db.EnableAudit(q)
	if !db.Audited() {
		t.Fatal("Audited = false after EnableAudit")
	}
	c := mustClient(t, db)
	ri, _ := c.Alloc(tblConn, 0)
	_ = c.WriteRec(tblConn, ri, []uint32{1, 2, 3})
	_, _ = c.ReadFld(tblConn, ri, 0)

	msgs := q.DrainAll()
	if len(msgs) != 4 { // init, alloc, write, read
		t.Fatalf("got %d messages, want 4: %+v", len(msgs), msgs)
	}
	kinds := []ipc.MsgKind{ipc.MsgDBAccess, ipc.MsgDBWrite, ipc.MsgDBWrite, ipc.MsgDBAccess}
	for i, m := range msgs {
		if m.Kind != kinds[i] {
			t.Fatalf("message %d kind = %v, want %v", i, m.Kind, kinds[i])
		}
	}
	if msgs[2].Op != "DBwrite_rec" || msgs[2].Table != tblConn || msgs[2].Record != ri {
		t.Fatalf("write message = %+v", msgs[2])
	}
	if msgs[2].PID != c.PID() {
		t.Fatalf("write message PID = %d, want %d", msgs[2].PID, c.PID())
	}
}

func TestAuditOverheadCharged(t *testing.T) {
	m := DefaultCostModel()
	plain := m.Cost(OpWriteRec, false)
	audited := m.Cost(OpWriteRec, true)
	wantRatio := 1.452
	gotRatio := float64(audited) / float64(plain)
	if gotRatio < wantRatio-0.001 || gotRatio > wantRatio+0.001 {
		t.Fatalf("audited/plain = %v, want %v", gotRatio, wantRatio)
	}
	db := mustDB(t)
	c := mustClient(t, db)
	ri, _ := c.Alloc(tblConn, 0)
	before := db.Counts().Time[OpWriteRec]
	_ = c.WriteRec(tblConn, ri, []uint32{0, 0, 0})
	d := db.Counts().Time[OpWriteRec] - before
	if d != plain {
		t.Fatalf("unaudited WriteRec charged %v, want %v", d, plain)
	}
	q, _ := ipc.NewQueue(10)
	db.EnableAudit(q)
	before = db.Counts().Time[OpWriteRec]
	_ = c.WriteRec(tblConn, ri, []uint32{0, 0, 0})
	d = db.Counts().Time[OpWriteRec] - before
	if d != audited {
		t.Fatalf("audited WriteRec charged %v, want %v", d, audited)
	}
	db.DisableAudit()
	if db.Audited() {
		t.Fatal("Audited = true after DisableAudit")
	}
}

func TestOpStrings(t *testing.T) {
	want := map[Op]string{
		OpInit: "DBinit", OpClose: "DBclose", OpReadRec: "DBread_rec",
		OpReadFld: "DBread_fld", OpWriteRec: "DBwrite_rec", OpWriteFld: "DBwrite_fld",
		OpMove: "DBmove", OpAlloc: "DBalloc", OpFree: "DBfree", Op(0): "unknown",
	}
	for op, name := range want {
		if op.String() != name {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), name)
		}
	}
}

func TestClientByPID(t *testing.T) {
	db := mustDB(t)
	c := mustClient(t, db)
	if db.ClientByPID(c.PID()) != c {
		t.Fatal("ClientByPID did not return the client")
	}
	_ = c.Close()
	if db.ClientByPID(c.PID()) != nil {
		t.Fatal("ClientByPID returned a closed client")
	}
}

// TestClientCallsDoNotAllocate pins the served write path's admission: a
// lock-taking call takes and releases its table lock without building a
// closure, so with the concurrency guard off none of these calls allocates.
// Both tables of chainedSchema run, so DBalloc, DBmove and DBfree cover the
// chained and the plain group paths.
func TestClientCallsDoNotAllocate(t *testing.T) {
	db, c := chainedDB(t)
	for ti, spec := range db.Schema().Tables {
		ri, err := c.Alloc(ti, 1)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]uint32, len(spec.Fields))
		for name, call := range map[string]func(){
			"WriteRec":   func() { _ = c.WriteRec(ti, ri, vals) },
			"WriteFld":   func() { _ = c.WriteFld(ti, ri, 0, 7) },
			"Move":       func() { _ = c.Move(ti, ri, 2) },
			"Alloc+Free": func() { r, _ := c.Alloc(ti, 3); _ = c.Free(ti, r) },
			"ReadFld":    func() { _, _ = c.ReadFld(ti, ri, 0) },
			"Status":     func() { _, _ = c.Status(ti, ri) },
		} {
			if n := testing.AllocsPerRun(100, call); n != 0 {
				t.Errorf("%s: %s allocates %v per call, want 0", spec.Name, name, n)
			}
		}
	}
}
