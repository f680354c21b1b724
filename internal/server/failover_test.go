package server

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/memdb"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// startPair boots a WAL-backed primary and a hot standby polling it.
// The primary's tail ring is kept tiny so a standby that joins after the
// workload starts must bootstrap through the snapshot path.
func startPair(t *testing.T) (primary, standby *Server, addrP, addrS string) {
	t.Helper()
	schema := callproc.Schema(callproc.DefaultSchemaConfig())

	newNode := func(cfg Config, walCfg wal.Config, dir string) (*Server, string) {
		db, err := memdb.New(schema)
		if err != nil {
			t.Fatal(err)
		}
		walCfg.Dir = dir
		l, err := wal.Open(walCfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.AuditPeriod = 50 * time.Millisecond
		cfg.ClockTick = 5 * time.Millisecond
		cfg.Guard = true
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Standby {
			cfg.AdvertiseAddr = ln.Addr().String()
		}
		srv, err := NewSharded([]*memdb.DB{db}, []*wal.Log{l}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()
		t.Cleanup(func() {
			if err := srv.Shutdown(5 * time.Second); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}
		})
		return srv, ln.Addr().String()
	}

	// InjectPeriod arms the shot journal for targeted injections without
	// ever firing on its own.
	primary, addrP = newNode(Config{InjectPeriod: time.Hour},
		wal.Config{TailCap: 16}, t.TempDir())
	standby, addrS = newNode(Config{
		Standby:       true,
		PrimaryAddr:   addrP,
		ReplPoll:      10 * time.Millisecond,
		ReplFailLimit: 5,
		ReplTimeout:   300 * time.Millisecond,
	}, wal.Config{}, t.TempDir())
	return primary, standby, addrP, addrS
}

func waitFor(t *testing.T, what string, deadline time.Duration, cond func() bool) {
	t.Helper()
	end := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailoverEndToEnd is the subsystem acceptance test: bootstrap + catch-
// up replication, log-sourced audit repair joined to its shot by trace ID,
// primary loss ending in standby self-promotion with zero lost fsynced
// writes, and the promoted standby repairing from its own log.
func TestFailoverEndToEnd(t *testing.T) {
	primary, standby, addrP, addrS := startPair(t)
	connP := dialInit(t, addrP)

	// Workload before the standby can have seen anything: with a 16-record
	// tail ring this forces the snapshot bootstrap, then incremental polls.
	d := newWALDriver(connP, 1)
	d.runCycles(t, 10)

	connS, err := wire.Dial(addrS)
	if err != nil {
		t.Fatal(err)
	}
	defer connS.Close()

	// A standby refuses sessions outright.
	if _, err := connS.Init(); !errors.Is(err, wire.ErrStandby) {
		t.Fatalf("standby Init error = %v, want ErrStandby", err)
	}

	caughtUp := func() {
		t.Helper()
		waitFor(t, "standby catch-up", 5*time.Second, func() bool {
			st, err := connS.ReplStatus()
			return err == nil && st.Role == wire.RoleStandby && st.Applied == primary.cores[0].walLog.LastSeq()
		})
	}
	caughtUp()
	// One more acknowledged write once the standby is polling, so it is
	// shipped as a record into the standby's log, not folded into a
	// bootstrap snapshot.
	lastRi := lastActiveRecord(t, connP)
	const goldenQ = 64
	if err := connP.WriteFld(callproc.TblRes, lastRi, callproc.FldResQuality, goldenQ); err != nil {
		t.Fatal(err)
	}
	caughtUp()

	// The replicated copy holds the client's data.
	sc := standby.cores[0]
	var st int
	var v uint32
	sc.onExecutor(func() {
		st, _ = sc.db.StatusDirect(callproc.TblRes, lastRi)
		v, _ = sc.db.ReadFieldDirect(callproc.TblRes, lastRi, callproc.FldResQuality)
	})
	if st != memdb.StatusActive || v != goldenQ {
		t.Fatalf("standby copy = status %d quality %d, want active quality %d", st, v, goldenQ)
	}

	// Targeted shot: flip the MSB of that record's quality field. The
	// static image cannot repair dynamic data, but the primary's log holds
	// the acknowledged value, so the audit restores goldenQ and spares the
	// record the preemptive free.
	assertLogRestore(t, primary, connP, lastRi, goldenQ)

	// Every write acknowledged so far is applied on the standby (checked
	// above), so killing the primary must lose nothing.
	if err := primary.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}
	waitFor(t, "standby self-promotion", 5*time.Second, func() bool {
		st, err := connS.ReplStatus()
		return err == nil && st.Role == wire.RolePrimary
	})
	if len(standby.TraceEvents(trace.KindReplPromote, 1)) != 1 {
		t.Fatal("promotion not journaled")
	}

	// The promoted standby serves sessions, with the full replicated state,
	// and repairs from its own log, which replication filled.
	connS2 := dialInit(t, addrS)
	v, err = connS2.ReadFld(callproc.TblRes, lastRi, callproc.FldResQuality)
	if err != nil {
		t.Fatalf("read from promoted standby: %v", err)
	}
	if v != goldenQ {
		t.Fatalf("promoted standby quality = %d, want %d (lost write)", v, goldenQ)
	}
	assertLogRestore(t, standby, connS2, lastRi, goldenQ)
}

// assertLogRestore shoots the top bit of Resource record ri's quality on
// srv's core 0, sweeps through conn, and requires a log-restore finding
// joined to the shot's trace ID that put back want and left the record
// active.
func assertLogRestore(t *testing.T, srv *Server, conn *wire.Conn, ri int, want uint32) {
	t.Helper()
	c := srv.cores[0]
	var tid uint64
	c.onExecutor(func() {
		if off, err := qualityMSB(c, ri); err == nil {
			tid = c.injectAt(off, 7)
		}
	})
	if tid == 0 {
		t.Fatal("targeted injection failed")
	}
	if _, err := conn.Sweep(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range srv.TraceEvents(trace.KindFinding, 0) {
		found = found || ev.Trace == tid && ev.Code == int64(audit.ActionLogRestore)
	}
	if !found {
		t.Fatal("no log-restore finding joined to the shot")
	}
	v, err := conn.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
	if err != nil {
		t.Fatal(err)
	}
	if v != want {
		t.Fatalf("after log repair quality = %d, want %d", v, want)
	}
	if st, err := conn.Status(callproc.TblRes, ri); err != nil || st != memdb.StatusActive {
		t.Fatalf("record freed despite log restore (status %d, err %v)", st, err)
	}
}

// lastActiveRecord scans the resource table through the API for the
// highest-indexed active record.
func lastActiveRecord(t *testing.T, conn *wire.Conn) int {
	t.Helper()
	n := callproc.Schema(callproc.DefaultSchemaConfig()).Tables[callproc.TblRes].NumRecords
	last := -1
	for ri := 0; ri < n; ri++ {
		st, err := conn.Status(callproc.TblRes, ri)
		if err != nil {
			t.Fatal(err)
		}
		if st == memdb.StatusActive {
			last = ri
		}
	}
	if last < 0 {
		t.Fatal("no active record")
	}
	return last
}
