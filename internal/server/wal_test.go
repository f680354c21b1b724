package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/callproc"
	"repro/internal/memdb"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// walDriver runs a deterministic mutating workload through a wire
// connection against an n-region server and records, for every acknowledged
// mutation, its replay (memdb.DB.Replay) on the owning region in that
// region's stream order — the replay oracle each recovered region is
// compared against byte for byte.
type walDriver struct {
	conn *wire.Conn
	n    int
	ops  [][]func(*memdb.DB) error // per region
}

func newWALDriver(conn *wire.Conn, n int) *walDriver {
	return &walDriver{conn: conn, n: n, ops: make([][]func(*memdb.DB) error, n)}
}

// runCycles performs alloc/write/proc/move/free cycles on the resource
// table; the PROC res_touch rewrites the record's quality.
// Odd cycles leave their record active so the final state mixes free and
// active records. All values stay inside the catalog ranges so audits have
// nothing to repair.
func (d *walDriver) runCycles(t *testing.T, cycles int) {
	t.Helper()
	ti := callproc.TblRes
	for c := 0; c < cycles; c++ {
		group := c % callproc.ResourceBanks
		ri, err := d.conn.Alloc(ti, group)
		if err != nil {
			t.Fatalf("cycle %d: alloc: %v", c, err)
		}
		k, l := memdb.ShardOf(ri, d.n), memdb.LocalIndex(ri, d.n)
		record := func(op func(*memdb.DB) error) { d.ops[k] = append(d.ops[k], op) }
		record(func(db *memdb.DB) error { return db.Replay(memdb.OpAlloc, ti, l, 0, group, nil) })

		vals := []uint32{uint32(c % 10), uint32(c % 3), uint32(c % 101)}
		if err := d.conn.WriteRec(ti, ri, vals); err != nil {
			t.Fatalf("cycle %d: writerec: %v", c, err)
		}
		record(func(db *memdb.DB) error { return db.Replay(memdb.OpWriteRec, ti, l, 0, 0, vals) })

		q := uint32(c%50 + 1)
		if err := d.conn.WriteFld(ti, ri, callproc.FldResQuality, q); err != nil {
			t.Fatalf("cycle %d: writefld: %v", c, err)
		}
		record(func(db *memdb.DB) error {
			return db.Replay(memdb.OpWriteFld, ti, l, callproc.FldResQuality, 0, []uint32{q})
		})

		// A procedure's effect logs on the record's owning region like a
		// direct write.
		pq := uint32((c*7)%50 + 1)
		if _, err := d.conn.ProcExec("res_touch", []uint32{uint32(ri), pq}); err != nil {
			t.Fatalf("cycle %d: proc res_touch: %v", c, err)
		}
		record(func(db *memdb.DB) error {
			return db.Replay(memdb.OpWriteFld, ti, l, callproc.FldResQuality, 0, []uint32{pq})
		})

		ng := (group + 1) % callproc.ResourceBanks
		if err := d.conn.Move(ti, ri, ng); err != nil {
			t.Fatalf("cycle %d: move: %v", c, err)
		}
		record(func(db *memdb.DB) error { return db.Replay(memdb.OpMove, ti, l, 0, ng, nil) })

		if c%2 == 0 {
			if err := d.conn.Free(ti, ri); err != nil {
				t.Fatalf("cycle %d: free: %v", c, err)
			}
			record(func(db *memdb.DB) error { return db.Replay(memdb.OpFree, ti, l, 0, 0, nil) })
		}
	}
}

// model replays the first count recorded operations of region k against a
// fresh region-k database.
func (d *walDriver) model(t *testing.T, k, count int) *memdb.DB {
	t.Helper()
	db, err := memdb.New(testSchemas(t, d.n)[k])
	if err != nil {
		t.Fatal(err)
	}
	if count > len(d.ops[k]) {
		t.Fatalf("region %d: recovered %d ops but only %d were acknowledged", k, count, len(d.ops[k]))
	}
	for i := 0; i < count; i++ {
		if err := d.ops[k][i](db); err != nil {
			t.Fatalf("region %d model op %d: %v", k, i, err)
		}
	}
	return db
}

// openTestWALs opens one fresh log per region.
func openTestWALs(t *testing.T, n int) (dirs []string, wals []*wal.Log) {
	t.Helper()
	for k := 0; k < n; k++ {
		dirs = append(dirs, t.TempDir())
		wals = append(wals, openTestWAL(t, dirs[k], wal.Config{}))
	}
	return dirs, wals
}

func openTestWAL(t *testing.T, dir string, cfg wal.Config) *wal.Log {
	t.Helper()
	cfg.Dir = dir
	l, err := wal.Open(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func dialInit(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	conn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Init(); err != nil {
		t.Fatalf("init: %v", err)
	}
	return conn
}

// TestWALShutdownRecoverIdentical drives a workload through a WAL-backed
// server, shuts down (one certifying checkpoint per region), and recovers
// every stream independently: each recovered region must byte-match both
// the server's final region and the replay of exactly the client
// operations that region's stream owns.
func TestWALShutdownRecoverIdentical(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		dirs, wals := openTestWALs(t, n)
		srv, addr := newTestServer(t, n, Config{}, wals...)
		d := newWALDriver(dialInit(t, addr), n)
		d.runCycles(t, 16)

		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		for k, dir := range dirs {
			res, err := wal.Recover(dir, testSchemas(t, n)[k])
			if err != nil {
				t.Fatalf("region %d: recover: %v", k, err)
			}
			if want := uint64(len(d.ops[k])); res.CheckpointSeq != want {
				t.Errorf("region %d: checkpoint seq = %d, want %d (one per owned mutation)", k, res.CheckpointSeq, want)
			}
			if res.Replayed != 0 {
				t.Errorf("region %d: replayed %d records past the shutdown checkpoint", k, res.Replayed)
			}
			if !bytes.Equal(res.DB.Raw(), srv.cores[k].db.Raw()) {
				t.Errorf("region %d: recovered region differs from the server's final region", k)
			}
			if !bytes.Equal(res.DB.Raw(), d.model(t, k, len(d.ops[k])).Raw()) {
				t.Errorf("region %d: recovered region differs from the client-op replay oracle", k)
			}
		}
	})
}

// TestWALCrashRecovery takes a crash image of every stream mid-run — no
// shutdown, no final checkpoint — and recovers from the copies: each region
// must land byte-identical to the replay of exactly the prefix of its
// acknowledged operations that reached its log, and none may recover past
// what the client observed.
func TestWALCrashRecovery(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		dirs, wals := openTestWALs(t, n)
		_, addr := newTestServer(t, n, Config{ClockTick: 2 * time.Millisecond}, wals...)
		d := newWALDriver(dialInit(t, addr), n)
		d.runCycles(t, 16)

		// Give the executor clocks a tick to fsync the tails, then snapshot
		// the directories — the simulated kill point. The live server keeps
		// running underneath; the copies are frozen.
		time.Sleep(50 * time.Millisecond)
		for k, dir := range dirs {
			res, err := wal.Recover(copyWALDir(t, dir), testSchemas(t, n)[k])
			if err != nil {
				t.Fatalf("region %d: recover from crash image: %v", k, err)
			}
			oracle := d.model(t, k, int(res.LastSeq))
			if !bytes.Equal(res.DB.Raw(), oracle.Raw()) {
				t.Errorf("region %d: crash-recovered region differs from the %d-op oracle prefix", k, res.LastSeq)
			}
		}
	})
}

// copyWALDir snapshots a WAL directory into a fresh temp dir: the crash
// image.
func copyWALDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestWALFailureSurfaces closes the log underneath a running server: the
// failed fsync must be journaled, not dropped, and Shutdown must return it
// so the daemon exits nonzero.
func TestWALFailureSurfaces(t *testing.T) {
	_, wals := openTestWALs(t, 1)
	srv, err := NewSharded(testDBs(t, 1), wals, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !srv.cores[0].onExecutor(func() { _ = wals[0].Close() }) {
		t.Fatal("executor gone before the log was closed")
	}
	err = srv.Shutdown(5 * time.Second)
	if err == nil || !strings.Contains(err.Error(), "sync-error") {
		t.Fatalf("Shutdown = %v, want the failed pre-sweep fsync", err)
	}
	if again := srv.Shutdown(time.Second); again != err {
		t.Errorf("second Shutdown = %v, want the same %v", again, err)
	}
	journaled := false
	for _, e := range srv.TraceEvents(trace.KindWALRecover, 0) {
		journaled = journaled || e.Op == "sync-error"
	}
	if !journaled {
		t.Error("no sync-error event on the journal")
	}
}

// TestWALAppendFailureNotAcked closes every region's log under a running
// server: a write the log cannot take must not be acknowledged, whether it
// is a direct WRITE_FLD or a PROC whose committed writes fail to log. Each
// answers CodeInternal without a lease token, the append error is
// journaled, and Shutdown returns it.
func TestWALAppendFailureNotAcked(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			_, wals := openTestWALs(t, n)
			srv, err := NewSharded(testDBs(t, n), wals, Config{ClockTick: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveErr := make(chan error, 1)
			go func() { serveErr <- srv.Serve(ln) }()
			conn := dialInit(t, ln.Addr().String())
			ri, err := conn.Alloc(callproc.TblRes, 0)
			if err != nil {
				t.Fatal(err)
			}
			token := conn.LastToken()
			for k, c := range srv.cores {
				if !c.onExecutor(func() { _ = wals[k].Close() }) {
					t.Fatalf("core %d gone before its log was closed", k)
				}
			}

			for _, q := range []wire.Request{
				{Op: wire.OpWriteFld, Table: int32(callproc.TblRes), Record: int32(ri),
					Field: int32(callproc.FldResQuality), Vals: []uint32{7}},
				{Op: wire.OpProcExec, Detail: "res_touch", Vals: []uint32{uint32(ri), 42}},
			} {
				r, err := conn.Call(q)
				if err != nil {
					t.Fatalf("%v: %v", q.Op, err)
				}
				if r.Code != wire.CodeInternal || !strings.Contains(r.Detail, "wal append") {
					t.Errorf("%v answered code %d %q, want CodeInternal with a wal append detail",
						q.Op, r.Code, r.Detail)
				}
			}
			if got := conn.LastToken(); got != token {
				t.Errorf("lease token moved from %d to %d on unlogged writes", token, got)
			}

			if err := srv.Shutdown(5 * time.Second); err == nil {
				t.Error("Shutdown returned nil after failed appends")
			}
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}
			journaled := false
			for _, e := range srv.TraceEvents(trace.KindWALRecover, 0) {
				journaled = journaled || e.Op == "append-error"
			}
			if !journaled {
				t.Error("no append-error event on the journal")
			}
		})
	}
}

// TestProcReplyCarriesWriteToken: a PROC whose effects are logged answers
// with a lease token like any other logged write — the owning core's log
// position after the procedure's append — so a routed read after it
// cannot miss the procedure's write.
func TestProcReplyCarriesWriteToken(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			_, wals := openTestWALs(t, n)
			srv, addr := newTestServer(t, n, Config{}, wals...)
			conn := dialInit(t, addr)
			ri, err := conn.Alloc(callproc.TblRes, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.WriteRec(callproc.TblRes, ri, []uint32{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			before := conn.LastToken()
			if _, err := conn.ProcExec("res_touch", []uint32{uint32(ri), 42}); err != nil {
				t.Fatalf("res_touch: %v", err)
			}
			owner := srv.cores[memdb.ShardOf(ri, n)].walLog
			if got, want := conn.LastToken(), owner.LastSeq(); got != want || got <= before {
				t.Fatalf("token after PROC = %d (before %d), want the owning log's last seq %d",
					got, before, want)
			}
		})
	}
}

// TestWALTornTailRecovery snapshots the WAL directory mid-life (the crash
// image), tears the final record, and recovers: replay must truncate at
// the torn record and land exactly on the state of every preceding
// acknowledged operation.
func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openTestWAL(t, dir, wal.Config{})
	srv, addr := newTestServer(t, 1, Config{CheckpointCap: -1}, l)
	conn := dialInit(t, addr)

	d := newWALDriver(conn, 1)
	d.runCycles(t, 10)
	n := uint64(len(d.ops[0]))

	// Wait for the executor clock to fsync the tail, then take the crash
	// image while the server is still running — no shutdown checkpoint.
	deadline := time.Now().Add(3 * time.Second)
	for l.SyncedSeq() != n || l.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tail never synced: synced=%d pending=%d want %d", l.SyncedSeq(), l.Pending(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	crash := copyWALDir(t, dir)
	segs, err := filepath.Glob(filepath.Join(crash, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment in crash image (%v)", err)
	}
	seg := segs[len(segs)-1]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	_ = srv // keeps running; recovery works on the copied image
	res, err := wal.Recover(crash, callproc.Schema(callproc.DefaultSchemaConfig()))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !res.Truncated {
		t.Fatal("torn tail not reported")
	}
	if res.LastSeq != n-1 || res.Replayed != int(n-1) {
		t.Fatalf("recovered to seq %d (replayed %d), want %d", res.LastSeq, res.Replayed, n-1)
	}
	if !bytes.Equal(res.DB.Raw(), d.model(t, 0, int(n-1)).Raw()) {
		t.Fatal("recovered region differs from the oracle replay of all-but-torn ops")
	}

	// Recovery is idempotent over its own truncation.
	res2, err := wal.Recover(crash, callproc.Schema(callproc.DefaultSchemaConfig()))
	if err != nil {
		t.Fatalf("second recover: %v", err)
	}
	if res2.LastSeq != n-1 || !bytes.Equal(res2.DB.Raw(), res.DB.Raw()) {
		t.Fatal("second recovery diverged")
	}
}

// TestAllocGroupBoundNotLogged sends DBalloc with group -1 to the Process
// table, which has no group directory. The header stores the label in 16
// bits and replay refuses it, so the executor must answer CodeBounds and
// log nothing: an acknowledged allocation that replay skips is lost at
// recovery and stalls a standby's applier.
func TestAllocGroupBoundNotLogged(t *testing.T) {
	l := openTestWAL(t, t.TempDir(), wal.Config{})
	_, addr := newTestServer(t, 1, Config{}, l)
	conn := dialInit(t, addr)

	_, err := conn.Alloc(callproc.TblProc, -1)
	var be *memdb.BoundsError
	if !errors.As(err, &be) || be.What != "group" || be.Index != -1 {
		t.Fatalf("DBalloc(Process, group -1) = %v, want a CodeBounds group error", err)
	}
	if seq := l.LastSeq(); seq != 0 {
		t.Fatalf("refused DBalloc left the log at seq %d, want 0", seq)
	}
	if _, err := conn.Alloc(callproc.TblProc, 0); err != nil {
		t.Fatalf("DBalloc(Process, group 0): %v", err)
	}
	if seq := l.LastSeq(); seq != 1 {
		t.Fatalf("accepted DBalloc left the log at seq %d, want 1", seq)
	}
}

// TestStats2SurfacesWALTelemetry: the STATS2 document must carry the WAL
// gauges (flush-pending backlog above all — it is what dbload -watch
// shows) and the replication role.
func TestStats2SurfacesWALTelemetry(t *testing.T) {
	dir := t.TempDir()
	_, addr := newTestServer(t, 1, Config{}, openTestWAL(t, dir, wal.Config{}))
	conn := dialInit(t, addr)
	newWALDriver(conn, 1).runCycles(t, 2)

	doc, err := conn.Stats2()
	if err != nil {
		t.Fatalf("stats2: %v", err)
	}
	for _, name := range []string{"wal.flush_pending", "wal.last_seq", "wal.synced_seq", "repl.role"} {
		if !strings.Contains(string(doc), name) {
			t.Errorf("STATS2 document missing %q", name)
		}
	}
}
