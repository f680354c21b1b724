package server

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/callproc"
	"repro/internal/memdb"
	"repro/internal/wal"
	"repro/internal/wire"
)

// stallTurn holds c's turn from a helper goroutine until the returned
// release is called — at the latest at test cleanup, which runs before the
// server's shutdown.
func stallTurn(t *testing.T, c *core) (release func()) {
	t.Helper()
	held, free := make(chan struct{}), make(chan struct{})
	go c.onExecutor(func() { close(held); <-free })
	<-held
	var once sync.Once
	release = func() { once.Do(func() { close(free) }) }
	t.Cleanup(release)
	return release
}

// TestStalledTurnDrain proves that writers waiting behind a held turn all
// run once it is given back: each answers OK and the region holds every
// write.
func TestStalledTurnDrain(t *testing.T) {
	srv, addr := newTestServer(t, 1, Config{})

	const writers = 3
	conns := make([]*wire.Conn, writers)
	recs := make([]int, writers)
	for i := range conns {
		conns[i] = dialInit(t, addr)
		ri, err := conns[i].Alloc(callproc.TblRes, i%callproc.ResourceBanks)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = ri
	}

	release := stallTurn(t, srv.cores[0])
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = conns[i].WriteFld(callproc.TblRes, recs[i], callproc.FldResQuality, uint32(10+i))
		}(i)
	}
	waitFor(t, "every write waiting for the turn", 5*time.Second, func() bool {
		return srv.cores[0].waiting.Load() == writers
	})
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	for i, c := range conns {
		if v, err := c.ReadFld(callproc.TblRes, recs[i], callproc.FldResQuality); err != nil || v != uint32(10+i) {
			t.Errorf("writer %d: quality = %d (%v), want %d", i, v, err, 10+i)
		}
	}
}

// TestTimedOutRequestNotApplied pins the timeout contract: a request that
// answers CodeTimeout never ran. A DBalloc that waited out its deadline
// behind a held turn must leave no record allocated and nothing logged once
// the turn is given back — otherwise it would own a record no client knows
// of, and a client retrying the write would apply it twice.
func TestTimedOutRequestNotApplied(t *testing.T) {
	log := openTestWAL(t, t.TempDir(), wal.Config{})
	srv, addr := newTestServer(t, 1, Config{AuditPeriod: -1, ReplyTimeout: 50 * time.Millisecond}, log)
	c0 := srv.cores[0]
	active := func() int {
		n := 0
		for ri := 0; ri < c0.db.Schema().Tables[callproc.TblRes].NumRecords; ri++ {
			if st, err := c0.view.Status(callproc.TblRes, ri); err == nil && st == memdb.StatusActive {
				n++
			}
		}
		return n
	}
	conn := dialInit(t, addr)
	before, seq := active(), log.LastSeq()

	release := stallTurn(t, c0)
	if _, err := conn.Alloc(callproc.TblRes, 0); !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("DBalloc behind a held turn: err = %v, want ErrTimeout", err)
	}
	release()
	// A round trip through the turn: anything still owed to the timed-out
	// request would run before it.
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
	if after := active(); after != before {
		t.Errorf("DBalloc answered timeout but %d -> %d active Resource records", before, after)
	}
	if got := log.LastSeq(); got != seq {
		t.Errorf("DBalloc answered timeout but the log moved from seq %d to %d", seq, got)
	}
}

// TestTurnStress runs every kind of turn taker at once on two cores under
// the concurrency guard — writers on both cores, PROC_EXEC barriers, STATS2
// and SWEEP fans, BEGIN/COMMIT, connection churn, and SnapshotMetrics from
// a goroutine that is no connection — then shuts down. No turn may be lost
// or deadlocked: everything finishes within the deadline, no request times
// out or is shed, and the guard sees no concurrent region access.
func TestTurnStress(t *testing.T) {
	srv, addr := newTestServer(t, 2, Config{})
	const runFor, deadline = 300 * time.Millisecond, 60 * time.Second
	// ErrLocked is the one expected refusal: BEGIN, the churners' open
	// transactions and the procedures contend for the Resource table lock.
	tolerate := func(err error) error {
		if errors.Is(err, memdb.ErrLocked) {
			return nil
		}
		return err
	}
	alloc := func(c *wire.Conn) (int, error) {
		for {
			ri, err := c.Alloc(callproc.TblRes, 0)
			if !errors.Is(err, memdb.ErrLocked) {
				return ri, err
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	// loop runs step on its own connection until stop; setup runs first.
	loop := func(name string, setup func(*wire.Conn) error, step func(*wire.Conn) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err == nil {
				defer c.Close()
				if _, err = c.Init(); err == nil && setup != nil {
					err = setup(c)
				}
			}
			for err == nil {
				select {
				case <-stop:
					return
				default:
				}
				err = tolerate(step(c))
			}
			errc <- fmt.Errorf("%s: %w", name, err)
		}()
	}

	for w := 0; w < 2; w++ {
		// Allocation rotates over the cores, so two records land on both.
		var recs [2]int
		loop(fmt.Sprintf("writer %d", w), func(c *wire.Conn) (err error) {
			for i := range recs {
				if recs[i], err = alloc(c); err != nil {
					return err
				}
			}
			return nil
		}, func(c *wire.Conn) error {
			for _, ri := range recs {
				if err := tolerate(c.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, 7)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	var procRec int
	loop("proc", func(c *wire.Conn) (err error) {
		procRec, err = alloc(c)
		return err
	}, func(c *wire.Conn) error {
		_, err := c.ProcExec("res_touch", []uint32{uint32(procRec), 9})
		return err
	})
	loop("stats2", nil, func(c *wire.Conn) error {
		_, err := c.Stats2()
		return err
	})
	loop("sweep", nil, func(c *wire.Conn) error {
		_, err := c.Sweep()
		return err
	})
	var txnRec int
	loop("txn", func(c *wire.Conn) (err error) {
		txnRec, err = alloc(c)
		return err
	}, func(c *wire.Conn) error {
		if err := c.Begin(callproc.TblRes); err != nil {
			return err
		}
		if err := c.WriteFld(callproc.TblRes, txnRec, callproc.FldResQuality, 3); err != nil {
			return err
		}
		return c.Commit()
	})
	// Churn: each step opens a session, takes a lock and vanishes, so the
	// teardown takes every core's turn to release it.
	loop("churn", nil, func(*wire.Conn) error {
		c, err := wire.Dial(addr)
		if err != nil {
			return err
		}
		defer c.Close()
		if _, err := c.Init(); err != nil {
			return err
		}
		return c.Begin(callproc.TblRes)
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.SnapshotMetrics()
		}
	}()

	finished := make(chan struct{})
	go func() {
		time.Sleep(runFor)
		close(stop)
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(deadline):
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("turn stress: load still running %v after stop\n%s", deadline, buf[:runtime.Stack(buf, true)]))
	}
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if v := srv.SnapshotMetrics().Gauges["memdb.guard.violations"]; v != 0 {
		t.Errorf("memdb.guard.violations = %d, want 0", v)
	}
	st := srv.Stats()
	if st.ReqDrops.Dropped != 0 {
		t.Errorf("%d requests shed", st.ReqDrops.Dropped)
	}
	for _, op := range []wire.Op{wire.OpWriteFld, wire.OpProcExec, wire.OpStats2, wire.OpSweep, wire.OpBegin, wire.OpInit} {
		if n := st.PerOp[op]; n.OK+n.Errs == 0 {
			t.Errorf("no %v was answered", op)
		}
	}

	down := make(chan error, 1)
	go func() { down <- srv.Shutdown(deadline) }()
	select {
	case err := <-down:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(deadline + 5*time.Second):
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("turn stress: shutdown still running\n%s", buf[:runtime.Stack(buf, true)]))
	}
}

// BenchmarkSubmitWriteFld prices one WRITE_FLD through the front end's
// dispatch and the core's turn without a socket: one in-process connection
// and a clock that never ticks, so every write finds the turn free.
func BenchmarkSubmitWriteFld(b *testing.B) {
	db, err := memdb.New(callproc.Schema(callproc.DefaultSchemaConfig()))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(db, Config{AuditPeriod: -1, ClockTick: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(time.Second)
	cn := srv.newConn(&net.TCPConn{}) // never written: handle is called directly
	if r := srv.handle(cn, wire.Request{Op: wire.OpInit}); r.Code != wire.CodeOK {
		b.Fatalf("init: code %d", r.Code)
	}
	r := srv.handle(cn, wire.Request{Op: wire.OpAlloc, Table: int32(callproc.TblRes)})
	if r.Code != wire.CodeOK {
		b.Fatalf("alloc: code %d", r.Code)
	}
	q := wire.Request{
		Op: wire.OpWriteFld, Table: int32(callproc.TblRes), Record: int32(r.Vals[0]),
		Field: int32(callproc.FldResQuality), Vals: []uint32{7},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Seq = uint32(i)
		if r := srv.handle(cn, q); r.Code != wire.CodeOK {
			b.Fatalf("write %d: code %d", i, r.Code)
		}
	}
}
