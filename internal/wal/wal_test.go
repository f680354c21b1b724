package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/callproc"
	"repro/internal/memdb"
)

func testSchema() memdb.Schema {
	return callproc.Schema(callproc.SchemaConfig{ConfigRecords: 4, ConfigFields: 4, CallRecords: 16})
}

func TestRecordRoundtrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, Trace: 42, Op: OpAlloc, Table: 3, Rec: 7, Field: -1, Aux: 2},
		{Seq: 2, Op: OpWriteRec, Table: 3, Rec: 7, Field: -1, Aux: -1, Vals: []uint32{1, 2, 3}},
		{Seq: 3, Trace: 99, Op: OpWriteFld, Table: 1, Rec: 0, Field: 1, Vals: []uint32{0xDEADBEEF}},
		{Seq: 4, Op: OpMove, Table: 3, Rec: 7, Aux: 1},
		{Seq: 5, Op: OpFree, Table: 3, Rec: 7},
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	dec := NewDecoder(buf)
	for i, want := range recs {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Trace != want.Trace || got.Op != want.Op ||
			got.Table != want.Table || got.Rec != want.Rec || got.Field != want.Field ||
			got.Aux != want.Aux || len(got.Vals) != len(want.Vals) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		for j := range want.Vals {
			if got.Vals[j] != want.Vals[j] {
				t.Fatalf("record %d val %d: got %d want %d", i, j, got.Vals[j], want.Vals[j])
			}
		}
	}
	if _, err := dec.Next(); err == nil {
		t.Fatal("decoder did not end")
	}
}

func TestDecoderTorn(t *testing.T) {
	good := AppendRecord(nil, Record{Seq: 1, Op: OpFree, Table: 1, Rec: 2})
	cases := map[string][]byte{
		"half header":  good[:4],
		"half payload": good[:len(good)-3],
		"bad crc": func() []byte {
			b := append([]byte(nil), good...)
			b[5] ^= 0xFF
			return b
		}(),
		"bad op": func() []byte {
			b := AppendRecord(nil, Record{Seq: 1, Op: 0, Table: 1})
			return b
		}(),
		"wild length": func() []byte {
			b := append([]byte(nil), good...)
			b[0] = 0xFF
			b[1] = 0xFF
			b[2] = 0xFF
			return b
		}(),
	}
	for name, buf := range cases {
		dec := NewDecoder(buf)
		if _, err := dec.Next(); err == nil {
			t.Errorf("%s: decoded a corrupt frame", name)
		} else if dec.Offset() != 0 {
			t.Errorf("%s: offset advanced to %d past corruption", name, dec.Offset())
		}
	}
}

// driveOps performs a deterministic op mix through the API while logging
// each mutation, mirroring what the server executor does.
func driveOps(t *testing.T, db *memdb.DB, l *Log, n int) {
	t.Helper()
	c, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	logIt := func(r Record) {
		t.Helper()
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	var live []int
	for i := 0; i < n; i++ {
		switch {
		case len(live) < 4 || i%5 == 0:
			g := i % callproc.ResourceBanks
			ri, err := c.Alloc(callproc.TblRes, g)
			if err != nil {
				break // table full: fine, keep mixing
			}
			live = append(live, ri)
			logIt(Record{Op: OpAlloc, Table: callproc.TblRes, Rec: int32(ri), Aux: int32(g)})
		case i%5 == 1:
			ri := live[i%len(live)]
			vals := []uint32{uint32(i % 16), uint32(i % 3), uint32(i % 101)}
			if err := c.WriteRec(callproc.TblRes, ri, vals); err != nil {
				t.Fatal(err)
			}
			logIt(Record{Op: OpWriteRec, Table: callproc.TblRes, Rec: int32(ri), Vals: vals})
		case i%5 == 2:
			ri := live[i%len(live)]
			v := uint32(i % 101)
			if err := c.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, v); err != nil {
				t.Fatal(err)
			}
			logIt(Record{Op: OpWriteFld, Table: callproc.TblRes, Rec: int32(ri),
				Field: callproc.FldResQuality, Vals: []uint32{v}})
		case i%5 == 3:
			ri := live[i%len(live)]
			g := (i + 1) % callproc.ResourceBanks
			if err := c.Move(callproc.TblRes, ri, g); err != nil {
				t.Fatal(err)
			}
			logIt(Record{Op: OpMove, Table: callproc.TblRes, Rec: int32(ri), Aux: int32(g)})
		default:
			ri := live[0]
			live = live[1:]
			if err := c.Free(callproc.TblRes, ri); err != nil {
				t.Fatal(err)
			}
			logIt(Record{Op: OpFree, Table: callproc.TblRes, Rec: int32(ri)})
		}
	}
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	db, err := memdb.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	// A small segment cap forces several rotations over the run.
	l, err := Open(Config{Dir: dir, SegmentCap: 512}, 0)
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, db, l, 120)
	last := l.LastSeq()
	if last == 0 {
		t.Fatal("nothing logged")
	}
	if l.Pending() == 0 {
		t.Fatal("expected unsynced records before Sync")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Pending() != 0 || l.SyncedSeq() != last {
		t.Fatalf("after sync: pending=%d synced=%d last=%d", l.Pending(), l.SyncedSeq(), last)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := listFiles(dir, "wal-", segSuffix); len(segs) < 2 {
		t.Fatalf("segment cap 512 produced only %d segments", len(segs))
	}

	res, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if res.LastSeq != last || res.Replayed != int(last) || res.Skipped != 0 || res.Truncated {
		t.Fatalf("recover: %+v, want last=%d", res, last)
	}
	if !bytes.Equal(res.DB.Raw(), db.Raw()) {
		t.Fatal("recovered region differs from live region")
	}
}

func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	db, err := memdb.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Dir: dir}, 0)
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, db, l, 60)
	last := l.LastSeq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop three bytes off the single segment, as a
	// crash mid-write would.
	segs := listFiles(dir, "wal-", segSuffix)
	path := filepath.Join(dir, segs[len(segs)-1])
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	res, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("torn tail not reported")
	}
	if res.LastSeq != last-1 {
		t.Fatalf("recovered through seq %d, want %d", res.LastSeq, last-1)
	}
	// The recovered state must equal a model built from the first last-1
	// records alone.
	model, err := memdb.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(buf)
	for {
		rec, derr := dec.Next()
		if derr != nil {
			break
		}
		if err := Apply(model, rec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(res.DB.Raw(), model.Raw()) {
		t.Fatal("recovered region differs from model of surviving records")
	}
	// The file was physically cut: a second recovery sees a clean log.
	res2, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Truncated || res2.LastSeq != last-1 {
		t.Fatalf("second recovery: %+v", res2)
	}
}

func TestCheckpointPruneAndRecover(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	db, err := memdb.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Dir: dir, SegmentCap: 512}, 0)
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, db, l, 80)
	if err := l.Checkpoint(db.SnapshotInto); err != nil {
		t.Fatal(err)
	}
	ckSeq := l.CheckpointSeq()
	if ckSeq != l.LastSeq() {
		t.Fatalf("checkpoint seq %d, last %d", ckSeq, l.LastSeq())
	}
	if l.SizeSinceCheckpoint() != 0 {
		t.Fatal("checkpoint did not reset the size trigger")
	}
	if segs := listFiles(dir, "wal-", segSuffix); len(segs) != 1 {
		t.Fatalf("prune left %d segments", len(segs))
	}
	driveOps(t, db, l, 40)
	last := l.LastSeq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointSeq != ckSeq {
		t.Fatalf("recovered from checkpoint %d, want %d", res.CheckpointSeq, ckSeq)
	}
	if res.LastSeq != last || res.Replayed != int(last-ckSeq) {
		t.Fatalf("recover: %+v, want last=%d replayed=%d", res, last, last-ckSeq)
	}
	if !bytes.Equal(res.DB.Raw(), db.Raw()) {
		t.Fatal("checkpoint+tail recovery differs from live region")
	}
}

func TestInstallCheckpointStandbyNumbering(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	db, err := memdb.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := db.SnapshotInto(&snap); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Dir: dir}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The standby logged seqs 1..3 before it fell behind.
	for i := 0; i < 3; i++ {
		if _, err := l.Append(Record{Op: OpFree, Table: callproc.TblRes, Rec: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Re-bootstrapping at primary seq 10 installs the shipped snapshot,
	// then appends with the primary's numbering.
	if err := l.InstallCheckpoint(10, snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 10 {
		t.Fatalf("lastSeq %d after checkpoint install", l.LastSeq())
	}
	if _, err := l.Append(Record{Seq: 11, Op: OpAlloc, Table: callproc.TblRes, Rec: 0, Aux: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Seq: 13, Op: OpFree, Table: callproc.TblRes, Rec: 0}); err == nil {
		t.Fatal("gap in explicit numbering accepted")
	}
	// The ring holds no records for 4..10: a poller from before the
	// checkpoint must re-bootstrap, not receive 1..3 followed by 11.
	for _, after := range []uint64{0, 5} {
		if blob, _, ok := l.Since(after, 0); ok {
			t.Fatalf("Since(%d) across the installed checkpoint: ok with seqs %v, want a gap", after, shippedSeqs(t, blob))
		}
	}
	blob, last, ok := l.Since(10, 0)
	if got := shippedSeqs(t, blob); !ok || last != 11 || len(got) != 1 || got[0] != 11 {
		t.Fatalf("Since(10): ok=%v last=%d seqs %v, want [11]", ok, last, got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointSeq != 10 || res.LastSeq != 11 || res.Replayed != 1 {
		t.Fatalf("standby recovery: %+v", res)
	}
}

// TestReplayStampsLikeTheClient pins replay's shadow metadata to the API's:
// every logged mutation replayed through Apply counts one access and bumps
// one version, exactly as the Client call it repeats, so a standby's or a
// recovered server's write counters (memdb.table.*.writes) match the
// primary's.
func TestReplayStampsLikeTheClient(t *testing.T) {
	schema := testSchema()
	live, err := memdb.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	c, err := live.Connect()
	if err != nil {
		t.Fatal(err)
	}
	const ti = callproc.TblRes
	var recs []Record
	logged := func(err error, r Record) {
		t.Helper()
		if err != nil {
			t.Fatalf("%v: %v", r.Op, err)
		}
		recs = append(recs, r)
	}
	touched := map[int]bool{}
	for k := 0; k < 2; k++ {
		ri, err := c.Alloc(ti, k)
		logged(err, Record{Op: OpAlloc, Table: ti, Rec: int32(ri), Aux: int32(k)})
		touched[ri] = true
		vals := []uint32{uint32(k), 1, 50}
		logged(c.WriteRec(ti, ri, vals), Record{Op: OpWriteRec, Table: ti, Rec: int32(ri), Vals: vals})
		for v := uint32(1); v <= 5; v++ {
			logged(c.WriteFld(ti, ri, callproc.FldResQuality, v),
				Record{Op: OpWriteFld, Table: ti, Rec: int32(ri), Field: callproc.FldResQuality, Vals: []uint32{v}})
		}
		logged(c.Move(ti, ri, k+2), Record{Op: OpMove, Table: ti, Rec: int32(ri), Aux: int32(k + 2)})
		if k == 1 {
			logged(c.Free(ti, ri), Record{Op: OpFree, Table: ti, Rec: int32(ri)})
		}
	}

	replica, err := memdb.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := Apply(replica, r); err != nil {
			t.Fatalf("apply %v: %v", r.Op, err)
		}
	}
	if !bytes.Equal(replica.Raw(), live.Raw()) {
		t.Fatal("replayed region differs from the live region")
	}
	if got, want := replica.TableStats(ti).Writes, live.TableStats(ti).Writes; got != want {
		t.Errorf("table writes: replayed %d, live %d", got, want)
	}
	for ri := range touched {
		got, _ := replica.Meta(ti, ri)
		want, _ := live.Meta(ti, ri)
		if got.Writes != want.Writes || got.Version != want.Version {
			t.Errorf("record %d: replayed writes %d version %d, live writes %d version %d",
				ri, got.Writes, got.Version, want.Writes, want.Version)
		}
	}
}
