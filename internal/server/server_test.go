package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/callproc"
	"repro/internal/memdb"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// testSchemas is the controller schema striped over n regions.
func testSchemas(t *testing.T, n int) []memdb.Schema {
	t.Helper()
	schemas, err := memdb.ShardSchemas(callproc.Schema(callproc.DefaultSchemaConfig()), n)
	if err != nil {
		t.Fatal(err)
	}
	return schemas
}

// testDBs is a fresh controller database striped over n regions.
func testDBs(t *testing.T, n int) []*memdb.DB {
	t.Helper()
	dbs := make([]*memdb.DB, n)
	for k, schema := range testSchemas(t, n) {
		var err error
		if dbs[k], err = memdb.New(schema); err != nil {
			t.Fatal(err)
		}
	}
	return dbs
}

// newTestServer builds an n-region controller-schema database and serves it
// on a loopback listener with fast audit pacing and the concurrent-access
// guard armed. wals is empty (no durability) or one log per region. Cleanup
// shuts the server down (t.Error on drain failure).
func newTestServer(t *testing.T, n int, cfg Config, wals ...*wal.Log) (*Server, string) {
	t.Helper()
	return serveTestDBs(t, testDBs(t, n), cfg, wals...)
}

// serveTestDBs is newTestServer over regions the caller built (a recovered
// database, say).
func serveTestDBs(t *testing.T, dbs []*memdb.DB, cfg Config, wals ...*wal.Log) (*Server, string) {
	t.Helper()
	if cfg.AuditPeriod == 0 {
		cfg.AuditPeriod = 50 * time.Millisecond
	}
	if cfg.ClockTick == 0 {
		cfg.ClockTick = 5 * time.Millisecond
	}
	cfg.Guard = true
	srv, err := NewSharded(dbs, wals, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
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

// forEachN runs f as a subtest for one, two and four regions.
func forEachN(t *testing.T, f func(t *testing.T, n int)) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { f(t, n) })
	}
}

// TestEndToEndMixedWorkloadWithLiveAudits is the subsystem's acceptance
// test: concurrent connections run a mixed read/write workload over
// loopback while periodic audit sweeps run live against the shared region;
// after drain, every record must equal the client-side golden copy and a
// final sweep must be clean.
func TestEndToEndMixedWorkloadWithLiveAudits(t *testing.T) {
	forEachN(t, testEndToEndMixedWorkload)
}

func testEndToEndMixedWorkload(t *testing.T, n int) {
	srv, addr := newTestServer(t, n, Config{})

	const workers = 4
	const opsPerWorker = 400

	type golden struct {
		rec  int
		vals []uint32 // ProcID, Status, Quality
	}
	models := make([]golden, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			report := func(err error) { errs <- fmt.Errorf("worker %d: %w", w, err) }
			// Table locks are advisory and non-blocking: while another
			// session holds TblRes in an open transaction (case 7), every
			// op on the table fails fast with ErrLocked. Real clients
			// retry; so do the workers.
			retry := func(op func() error) error {
				deadline := time.Now().Add(10 * time.Second)
				for {
					err := op()
					if !errors.Is(err, memdb.ErrLocked) || time.Now().After(deadline) {
						return err
					}
					time.Sleep(time.Millisecond)
				}
			}
			c, err := wire.Dial(addr)
			if err != nil {
				report(err)
				return
			}
			defer c.Close()
			if _, err := c.Init(); err != nil {
				report(err)
				return
			}
			group := w % callproc.ResourceBanks
			var ri int
			if err := retry(func() (err error) {
				ri, err = c.Alloc(callproc.TblRes, group)
				return err
			}); err != nil {
				report(err)
				return
			}
			// Local golden copy of the record; every write updates it,
			// every read is checked against it.
			model := []uint32{uint32(ri), 1, 50}
			if err := retry(func() error { return c.WriteRec(callproc.TblRes, ri, model) }); err != nil {
				report(err)
				return
			}
			for i := 0; i < opsPerWorker; i++ {
				switch i % 8 {
				case 0: // DBwrite_fld: Quality stays in its 0..100 range
					v := uint32((i * 7) % 101)
					if err := retry(func() error {
						return c.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, v)
					}); err != nil {
						report(err)
						return
					}
					model[callproc.FldResQuality] = v
				case 1: // DBwrite_rec, all fields in range
					next := []uint32{uint32(ri), uint32(i % 3), uint32(i % 101)}
					if err := retry(func() error {
						return c.WriteRec(callproc.TblRes, ri, next)
					}); err != nil {
						report(err)
						return
					}
					model = next
				case 2: // DBread_fld against the golden copy
					var v uint32
					if err := retry(func() (err error) {
						v, err = c.ReadFld(callproc.TblRes, ri, callproc.FldResStatus)
						return err
					}); err != nil {
						report(err)
						return
					}
					if v != model[callproc.FldResStatus] {
						report(fmt.Errorf("op %d: Status=%d, golden %d", i, v, model[callproc.FldResStatus]))
						return
					}
				case 3: // DBread_rec against the golden copy
					var vals []uint32
					if err := retry(func() (err error) {
						vals, err = c.ReadRec(callproc.TblRes, ri)
						return err
					}); err != nil {
						report(err)
						return
					}
					for fi := range model {
						if vals[fi] != model[fi] {
							report(fmt.Errorf("op %d: field %d=%d, golden %d", i, fi, vals[fi], model[fi]))
							return
						}
					}
				case 4: // DBmove between channel banks
					next := (group + 1) % callproc.ResourceBanks
					if err := retry(func() error {
						return c.Move(callproc.TblRes, ri, next)
					}); err != nil {
						report(err)
						return
					}
					group = next
				case 5: // DBstatus: the record stays active
					st, err := c.Status(callproc.TblRes, ri)
					if err != nil {
						report(err)
						return
					}
					if st != memdb.StatusActive {
						report(fmt.Errorf("op %d: status %d, want active", i, st))
						return
					}
				case 6: // read a static configuration field via the API
					if _, err := c.ReadFld(callproc.TblConfig, 0, 0); err != nil {
						report(err)
						return
					}
				case 7: // transaction: lock, write, commit
					if err := retry(func() error { return c.Begin(callproc.TblRes) }); err != nil {
						report(err)
						return
					}
					v := uint32(i % 101)
					if err := c.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, v); err != nil {
						report(err)
						return
					}
					model[callproc.FldResQuality] = v
					if err := c.Commit(); err != nil {
						report(err)
						return
					}
				}
			}
			models[w] = golden{rec: ri, vals: append([]uint32(nil), model...)}
			if err := c.CloseSession(); err != nil {
				report(err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// A forced sweep over the live region must be clean: the workload only
	// wrote in-range values through the API.
	ctl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	found, err := ctl.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if found != 0 {
		t.Fatalf("live audit sweep found %d errors in a clean workload", found)
	}
	if d := srv.Stats().ReqDrops.Dropped; d != 0 {
		t.Fatalf("%d requests dropped with queue depth %d", d, srv.cfg.QueueDepth)
	}

	// Drain-then-shutdown, then check golden-record equality directly
	// against the region and that audits really ran live.
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for w, g := range models {
		db := srv.cores[memdb.ShardOf(g.rec, n)].db
		for fi, want := range g.vals {
			got, err := db.ReadFieldDirect(callproc.TblRes, memdb.LocalIndex(g.rec, n), fi)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("worker %d rec %d field %d = %d after drain, golden %d",
					w, g.rec, fi, got, want)
			}
		}
	}
	st := srv.Stats()
	if st.AuditFindings != 0 {
		t.Errorf("live audits produced %d findings on a clean workload", st.AuditFindings)
	}
	if st.Sweeps < 2 {
		t.Errorf("only %d audit sweeps ran; audits were not live", st.Sweeps)
	}
	if st.Restarts != 0 {
		t.Errorf("audit process restarted %d times during a healthy run", st.Restarts)
	}
	if got := st.PerOp[wire.OpWriteFld].OK; got == 0 {
		t.Error("per-op stats recorded no DBwrite_fld successes")
	}
	if st.Executed == 0 {
		t.Error("executor counted no requests")
	}
	for k, c := range srv.cores {
		if v := c.db.GuardViolations(); v != 0 {
			t.Errorf("region %d: single-writer guard recorded %d violations", k, v)
		}
	}
}

// TestProtocolErrorsCrossTheWire exercises the error mapping end to end:
// each failure mode produced server-side must decode to the matching
// sentinel or typed error client-side.
func TestProtocolErrorsCrossTheWire(t *testing.T) {
	_, addr := newTestServer(t, 1, Config{})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Any session op before DBinit.
	if _, err := c.ReadFld(0, 0, 0); !errors.Is(err, wire.ErrNoSession) {
		t.Fatalf("pre-init read: %v, want ErrNoSession", err)
	}
	if _, err := c.Init(); err != nil {
		t.Fatal(err)
	}
	// Double DBinit.
	if _, err := c.Init(); !errors.Is(err, wire.ErrSessionExists) {
		t.Fatalf("double init: %v, want ErrSessionExists", err)
	}
	// Bounds errors carry their What/Index/Limit across the wire.
	var be *memdb.BoundsError
	_, err = c.ReadFld(0, 99999, 0)
	if !errors.As(err, &be) {
		t.Fatalf("out-of-range read: %v, want BoundsError", err)
	}
	if be.Index != 99999 {
		t.Fatalf("BoundsError index %d, want 99999", be.Index)
	}
	// Writing an inactive record.
	if err := c.WriteFld(callproc.TblRes, 5, 0, 1); !errors.Is(err, memdb.ErrNotActive) {
		t.Fatalf("write to free record: %v, want ErrNotActive", err)
	}
	// Unknown opcode.
	r, err := c.Call(wire.Request{Op: wire.Op(200)})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(r.Err(), wire.ErrUnknownOp) {
		t.Fatalf("unknown op: %v, want ErrUnknownOp", r.Err())
	}
	// Exhaust a table.
	got := 0
	for {
		if _, err := c.Alloc(callproc.TblProc, 0); err != nil {
			if !errors.Is(err, memdb.ErrNoFreeRecord) {
				t.Fatalf("alloc to exhaustion: %v, want ErrNoFreeRecord", err)
			}
			break
		}
		got++
		if got > 1000 {
			t.Fatal("table never exhausted")
		}
	}
	// Lock contention: a second session cannot lock a table held by an
	// open transaction.
	if err := c.Begin(callproc.TblRes); err != nil {
		t.Fatal(err)
	}
	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Alloc(callproc.TblRes, 0); !errors.Is(err, memdb.ErrLocked) {
		t.Fatalf("alloc on locked table: %v, want ErrLocked", err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Alloc(callproc.TblRes, 0); err != nil {
		t.Fatalf("alloc after commit: %v", err)
	}
}

// TestSessionLocksReleasedOnDisconnect verifies that a connection dying
// with an open transaction does not wedge the table: teardown closes the
// session holding the turn, releasing its locks.
func TestSessionLocksReleasedOnDisconnect(t *testing.T) {
	_, addr := newTestServer(t, 1, Config{})
	c1, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Init(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Begin(callproc.TblRes); err != nil {
		t.Fatal(err)
	}
	c1.Close() // vanish mid-transaction

	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Init(); err != nil {
		t.Fatal(err)
	}
	// The teardown is asynchronous (the connection goroutine's exit path);
	// poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err = c2.Alloc(callproc.TblRes, 0)
		if err == nil {
			return
		}
		if !errors.Is(err, memdb.ErrLocked) {
			t.Fatalf("alloc: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("table still locked 2s after lock holder disconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownRejectsNewConnections verifies drain semantics: after
// Shutdown no new connection is served.
func TestShutdownRejectsNewConnections(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		srv, addr := newTestServer(t, n, Config{})
		if err := srv.Shutdown(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		c, err := wire.Dial(addr)
		if err != nil {
			return // refused outright: fine
		}
		defer c.Close()
		c.Timeout = 500 * time.Millisecond
		if err := c.Ping(); err == nil {
			t.Fatal("ping succeeded after shutdown")
		}
	})
}

// TestRequestQueueDropAccounting exercises the backpressure path directly:
// with core 0's turn held and QueueDepth submitters already waiting, every
// further submission must be shed with CodeOverload and accounted in
// DropStats shape, and the waiters must time out.
func TestRequestQueueDropAccounting(t *testing.T) {
	db, err := memdb.New(callproc.Schema(callproc.DefaultSchemaConfig()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db, Config{QueueDepth: 2, AuditPeriod: -1, ReplyTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	c0 := srv.cores[0]
	stallTurn(t, c0) // its cleanup gives the turn back before the shutdown

	codes := make(chan wire.Code, 6)
	submit := func(i int) {
		cn := srv.newConn(&net.TCPConn{}) // never written
		codes <- c0.submit(cn, wire.Request{Seq: uint32(i), Op: wire.OpPing}, control).Code
	}
	for i := 0; i < 2; i++ {
		go submit(i)
	}
	waitFor(t, "two waiters", 5*time.Second, func() bool { return c0.waiting.Load() == 2 })
	for i := 2; i < 6; i++ {
		submit(i)
	}
	var overloads, timeouts int
	for i := 0; i < 6; i++ {
		switch code := <-codes; code {
		case wire.CodeOverload:
			overloads++
		case wire.CodeTimeout:
			timeouts++
		default:
			t.Fatalf("submit answered code %d", code)
		}
	}
	if overloads != 4 || timeouts != 2 {
		t.Fatalf("got %d overloads and %d timeouts, want 4 and 2", overloads, timeouts)
	}
	st := srv.Stats()
	if st.ReqDrops.Dropped != 4 {
		t.Fatalf("ReqDrops.Dropped = %d, want 4", st.ReqDrops.Dropped)
	}
	if st.ReqDrops.Burst != 4 {
		t.Fatalf("ReqDrops.Burst = %d, want 4 (consecutive sheds)", st.ReqDrops.Burst)
	}
	if st.ReqDrops.HighWater != 2 {
		t.Fatalf("ReqDrops.HighWater = %d, want 2", st.ReqDrops.HighWater)
	}
}

// TestNewShardedValidates covers the constructor's layout checks, and that
// one region through NewSharded is the server New builds.
func TestNewShardedValidates(t *testing.T) {
	if _, err := NewSharded(nil, nil, Config{}); err == nil {
		t.Error("no regions accepted")
	}
	if _, err := NewSharded(testDBs(t, 2), []*wal.Log{nil}, Config{}); err == nil {
		t.Error("mismatched WAL count accepted")
	}
	// Mismatched regions (one full-size, one striped) must be caught.
	if _, err := NewSharded([]*memdb.DB{testDBs(t, 2)[0], testDBs(t, 1)[0]}, nil, Config{}); err == nil {
		t.Error("inconsistent shard schemas accepted")
	}

	// N=1 behaves as New: same plain gauge names, no "shard." namespace.
	one, err := NewSharded(testDBs(t, 1), nil, Config{AuditPeriod: -1})
	if err != nil {
		t.Fatalf("one region: %v", err)
	}
	defer one.Shutdown(time.Second)
	viaNew, err := New(testDBs(t, 1)[0], Config{AuditPeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer viaNew.Shutdown(time.Second)
	a, b := one.SnapshotMetrics(), viaNew.SnapshotMetrics()
	if len(a.Gauges) != len(b.Gauges) {
		t.Errorf("NewSharded(1 region) publishes %d gauges, New %d", len(a.Gauges), len(b.Gauges))
	}
	for name := range a.Gauges {
		if _, ok := b.Gauges[name]; !ok || strings.HasPrefix(name, "shard.") {
			t.Errorf("gauge %q of NewSharded(1 region) is not one of New's", name)
		}
	}
}

// TestRoutingRoundTrip drives every record-addressed op through the
// front end across records spanning all shards and checks each against
// global addressing: what a client writes at global record g it must read
// back at global record g, whatever shard owns it, with bounds errors
// carrying global limits.
func TestRoutingRoundTrip(t *testing.T) { forEachN(t, testRoutingRoundTrip) }

func testRoutingRoundTrip(t *testing.T, n int) {
	sd, addr := newTestServer(t, n, Config{})
	c := dialInit(t, addr)

	ti := callproc.TblRes
	total := sd.globalRecs[ti]

	// Allocate four records via the rotating cursor — it visits the regions
	// in turn — and write a distinct value to each.
	recs := make([]int, 0, 4)
	for len(recs) < cap(recs) {
		ri, err := c.Alloc(ti, len(recs)%callproc.ResourceBanks)
		if err != nil {
			t.Fatalf("alloc %d: %v", len(recs), err)
		}
		if ri < 0 || ri >= total {
			t.Fatalf("alloc returned out-of-range global record %d (limit %d)", ri, total)
		}
		if got, want := memdb.ShardOf(ri, n), len(recs)%n; got != want {
			t.Fatalf("alloc %d landed on region %d, want %d (records %v + %d)", len(recs), got, want, recs, ri)
		}
		recs = append(recs, ri)
	}

	for i, ri := range recs {
		vals := []uint32{uint32(i + 1), 1, uint32(10 * (i + 1))}
		if err := c.WriteRec(ti, ri, vals); err != nil {
			t.Fatalf("writerec %d: %v", ri, err)
		}
	}
	for i, ri := range recs {
		got, err := c.ReadRec(ti, ri)
		if err != nil {
			t.Fatalf("readrec %d: %v", ri, err)
		}
		want := []uint32{uint32(i + 1), 1, uint32(10 * (i + 1))}
		for f := range want {
			if got[f] != want[f] {
				t.Fatalf("record %d field %d = %d, want %d", ri, f, got[f], want[f])
			}
		}
		if v, err := c.ReadFld(ti, ri, callproc.FldResQuality); err != nil || v != want[callproc.FldResQuality] {
			t.Fatalf("readfld %d = %d (%v), want %d", ri, v, err, want[callproc.FldResQuality])
		}
		if st, err := c.Status(ti, ri); err != nil || st == 0 {
			t.Fatalf("status %d = %d (%v), want active", ri, st, err)
		}
	}

	// Move and free route to the owning shard too.
	if err := c.Move(ti, recs[1], 1%callproc.ResourceBanks); err != nil {
		t.Fatalf("move: %v", err)
	}
	if err := c.Free(ti, recs[2]); err != nil {
		t.Fatalf("free: %v", err)
	}
	if st, err := c.Status(ti, recs[2]); err != nil || st != 0 {
		t.Fatalf("freed record status = %d (%v), want 0", st, err)
	}

	// Bounds errors must carry the GLOBAL record limit, not a shard's.
	if _, err := c.ReadRec(ti, total); err == nil || !strings.Contains(err.Error(), fmt.Sprint(total)) {
		t.Fatalf("out-of-bounds read err = %v, want global limit %d in message", err, total)
	}
	if _, err := c.ReadRec(len(sd.globalRecs), 0); err == nil {
		t.Fatal("out-of-bounds table accepted")
	}

	// STATS must count exactly one execution per request, whichever side
	// of the front end served it.
	st := sd.Stats()
	if st.PerOp[wire.OpWriteRec].OK != uint64(len(recs)) {
		t.Fatalf("WriteRec OK = %d, want %d", st.PerOp[wire.OpWriteRec].OK, len(recs))
	}
	if st.PerOp[wire.OpAlloc].OK != uint64(len(recs)) {
		t.Fatalf("Alloc OK = %d, want %d", st.PerOp[wire.OpAlloc].OK, len(recs))
	}
}

// TestAllocFullRotation exhausts the whole table through the
// front end: every stripe must fill before the table reports full, and
// the resulting global IDs must cover every record exactly once.
func TestAllocFullRotation(t *testing.T) { forEachN(t, testAllocFullRotation) }

func testAllocFullRotation(t *testing.T, n int) {
	sd, addr := newTestServer(t, n, Config{})
	c := dialInit(t, addr)

	ti := callproc.TblRes
	total := sd.globalRecs[ti]
	seen := map[int]bool{}
	for i := 0; i < total; i++ {
		ri, err := c.Alloc(ti, i%callproc.ResourceBanks)
		if err != nil {
			t.Fatalf("alloc %d of %d: %v", i, total, err)
		}
		if seen[ri] {
			t.Fatalf("alloc %d returned duplicate global record %d", i, ri)
		}
		seen[ri] = true
	}
	if _, err := c.Alloc(ti, 0); !errors.Is(err, memdb.ErrNoFreeRecord) {
		t.Fatalf("alloc past capacity err = %v, want ErrNoFreeRecord", err)
	}
}

// TestBeginOrdering covers the cross-shard transaction fan-out: a
// held table lock excludes a second session on every shard, a partial
// conflict rolls the winner's lower shards back cleanly, and two sessions
// hammering Begin/Commit from opposite ends never deadlock (the locks are
// non-blocking and acquired in ascending shard order).
func TestBeginOrdering(t *testing.T) { forEachN(t, testBeginOrdering) }

func testBeginOrdering(t *testing.T, n int) {
	_, addr := newTestServer(t, n, Config{})
	a := dialInit(t, addr)
	b := dialInit(t, addr)

	ti := callproc.TblRes
	if err := a.Begin(ti); err != nil {
		t.Fatalf("A begin: %v", err)
	}
	if err := b.Begin(ti); !errors.Is(err, memdb.ErrLocked) {
		t.Fatalf("B begin while A holds = %v, want ErrLocked", err)
	}
	// The failed fan-out must have rolled back completely: A still holds
	// every shard (its writes proceed), and after A commits B can begin.
	ri, err := a.Alloc(ti, 0)
	if err != nil {
		t.Fatalf("A alloc under txn: %v", err)
	}
	if err := a.WriteFld(ti, ri, callproc.FldResQuality, 7); err != nil {
		t.Fatalf("A write under txn: %v", err)
	}
	if err := b.WriteFld(ti, ri, callproc.FldResQuality, 8); !errors.Is(err, memdb.ErrLocked) {
		t.Fatalf("B write against A's lock = %v, want ErrLocked", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatalf("A commit: %v", err)
	}
	if err := b.Begin(ti); err != nil {
		t.Fatalf("B begin after A commit: %v", err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("B commit: %v", err)
	}

	// A Begin on a second table while holding the first must not disturb
	// the held lock when it loses the race (rollback re-acquires only what
	// was newly taken).
	if err := a.Begin(ti); err != nil {
		t.Fatalf("A re-begin: %v", err)
	}
	if err := b.Begin(callproc.TblConn); err != nil {
		t.Fatalf("B begin trunk: %v", err)
	}
	if err := a.Begin(callproc.TblConn); !errors.Is(err, memdb.ErrLocked) {
		t.Fatalf("A begin trunk while B holds = %v, want ErrLocked", err)
	}
	if err := a.WriteFld(ti, ri, callproc.FldResQuality, 9); err != nil {
		t.Fatalf("A lost trunk race but must still hold res: %v", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	// Adversarial interleaving: two sessions race Begin/Commit on two
	// tables in opposite orders. Non-blocking locks mean no deadlock is
	// possible; the test simply has to finish.
	done := make(chan error, 2)
	contend := func(c *wire.Conn, first, second int) {
		for i := 0; i < 200; i++ {
			if err := c.Begin(first); err != nil {
				if errors.Is(err, memdb.ErrLocked) {
					continue
				}
				done <- err
				return
			}
			if err := c.Begin(second); err != nil && !errors.Is(err, memdb.ErrLocked) {
				done <- err
				return
			}
			if err := c.Commit(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}
	go contend(a, callproc.TblRes, callproc.TblConn)
	go contend(b, callproc.TblConn, callproc.TblRes)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("contender: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("cross-shard Begin contention deadlocked")
		}
	}
}

// TestProcBarrier runs procedures whose mutations land on different
// shards: the all-shard barrier must let one program read and write
// records on any shard with its effects visible to routed reads after.
func TestProcBarrier(t *testing.T) { forEachN(t, testProcBarrier) }

func testProcBarrier(t *testing.T, n int) {
	sd, addr := newTestServer(t, n, Config{})
	c := dialInit(t, addr)

	ti := callproc.TblRes
	recs := make([]int, n)
	for i := range recs {
		ri, err := c.Alloc(ti, i%callproc.ResourceBanks)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = ri
	}
	// One res_touch per record: each execution's committed write lands on
	// a different shard through the same shard0-hosted program.
	for i, ri := range recs {
		want := uint32(40 + i)
		out, err := c.ProcExec("res_touch", []uint32{uint32(ri), want})
		if err != nil {
			t.Fatalf("ProcExec(res_touch, rec %d): %v", ri, err)
		}
		if len(out) != 2 || out[0] != want {
			t.Fatalf("res_touch out = %v, want [%d, ...]", out, want)
		}
		if v, err := c.ReadFld(ti, ri, callproc.FldResQuality); err != nil || v != want {
			t.Fatalf("quality after proc = %d (%v), want %d", v, err, want)
		}
	}
	// A procedure addressing a record past the global bounds must answer
	// the global bounds error, same as a direct write would.
	if _, err := c.ProcExec("res_touch", []uint32{uint32(sd.globalRecs[ti]), 1}); err == nil {
		t.Fatal("res_touch past global bounds succeeded")
	}
	// PROC requests must still be trace-joined: each execution emits a
	// req-enqueue/req-reply pair on the journal.
	evs := sd.TraceEvents(trace.KindReqReply, 0)
	procReplies := 0
	for _, e := range evs {
		if e.Op == wire.OpProcExec.String() {
			procReplies++
		}
	}
	if procReplies < len(recs) {
		t.Fatalf("PROC req-reply events = %d, want >= %d", procReplies, len(recs))
	}
}

// TestShardedInjectionDetectJoin arms the data injector across the
// front end and requires the single-server acceptance loop to hold per
// shard: shots journal, sweeps find and repair them, and every shot joins
// a finding by trace ID — the IDs coming from whichever shard's audit
// detected the damage.
func TestShardedInjectionDetectJoin(t *testing.T) {
	sd, addr := newTestServer(t, 4, Config{AuditPeriod: 10 * time.Millisecond})
	c := dialInit(t, addr)

	if err := c.InjectCtl(2*time.Millisecond, 0, wire.InjectModeStatic); err != nil {
		t.Fatalf("InjectCtl arm: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("too few shots journaled within deadline")
		}
		time.Sleep(10 * time.Millisecond)
		if len(sd.TraceEvents(trace.KindShot, 0)) >= 8 {
			break
		}
	}
	if err := c.InjectCtl(0, 0, wire.InjectModeRandom); err != nil {
		t.Fatalf("InjectCtl disarm: %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	if _, err := c.Sweep(); err != nil {
		t.Fatalf("SWEEP: %v", err)
	}
	evs := sd.TraceEvents(0, 0)
	findings := map[uint64]bool{}
	for _, e := range trace.Filter(evs, trace.KindFinding) {
		findings[e.Trace] = true
	}
	shots := trace.Filter(evs, trace.KindShot)
	if len(shots) == 0 {
		t.Fatal("no shots on the shared journal")
	}
	for _, s := range shots {
		if s.Op != "dbflip" {
			continue
		}
		if !findings[s.Trace] {
			t.Errorf("shot seq=%d trace=%d never joined a finding", s.Seq, s.Trace)
		}
	}
	// The damage and repairs happened on individual shards; a second sweep
	// must now certify the whole region clean.
	if n, err := c.Sweep(); err != nil || n != 0 {
		t.Fatalf("certifying sweep = %d findings (%v), want 0", n, err)
	}
}

// TestShardedHotShardWorkload is the scaling e2e: several pipelined
// writers saturate ONE shard's executor while background sessions touch
// the others and the per-shard audits keep sweeping. After drain, every
// record must match its writer's golden copy, a forced sweep must certify
// clean, and the untouched shards' audits must have kept running — the
// isolation the partitioning exists to provide. Run with -race in CI.
func TestShardedHotShardWorkload(t *testing.T) {
	const n = 4
	const hotWriters = 3
	const opsPerWriter = 300
	sd, addr := newTestServer(t, n, Config{AuditPeriod: 20 * time.Millisecond})

	ti := callproc.TblRes
	// Pick the hot shard, then give every hot writer its own record ON
	// that shard (allocating and freeing until the rotating cursor lands
	// there — ownership is global, the stripe is what we are aiming at).
	setup := dialInit(t, addr)
	hotRec, err := setup.Alloc(ti, 0)
	if err != nil {
		t.Fatal(err)
	}
	hot := memdb.ShardOf(hotRec, n)
	// One claimer at a time: concurrent claimers advancing the shared cursor
	// in lockstep can each keep landing on the same wrong stripe.
	var claimMu sync.Mutex
	claim := func(c *wire.Conn, shard int, group int) (int, error) {
		claimMu.Lock()
		defer claimMu.Unlock()
		for tries := 0; tries < 64; tries++ {
			ri, err := c.Alloc(ti, group)
			if err != nil {
				return 0, err
			}
			if memdb.ShardOf(ri, n) == shard {
				return ri, nil
			}
			if err := c.Free(ti, ri); err != nil {
				return 0, err
			}
		}
		return 0, fmt.Errorf("could not land an allocation on shard %d", shard)
	}

	var wg sync.WaitGroup
	errs := make(chan error, hotWriters+1)

	// Hot writers: pipelined field writes, all to records on `hot`.
	for w := 0; w < hotWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if _, err := c.Init(); err != nil {
				errs <- err
				return
			}
			ri, err := claim(c, hot, w%callproc.ResourceBanks)
			if err != nil {
				errs <- err
				return
			}
			last := uint32(0)
			for i := 0; i < opsPerWriter; i++ {
				last = uint32((w*opsPerWriter + i) % 101)
				if err := c.WriteFld(ti, ri, callproc.FldResQuality, last); err != nil {
					errs <- fmt.Errorf("hot writer %d op %d: %w", w, i, err)
					return
				}
			}
			if v, err := c.ReadFld(ti, ri, callproc.FldResQuality); err != nil || v != last {
				errs <- fmt.Errorf("hot writer %d: final quality = %d (%v), want %d", w, v, err, last)
				return
			}
			errs <- nil
		}(w)
	}

	// One background session exercises the other shards while the hot
	// stripe is saturated.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := wire.Dial(addr)
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		if _, err := c.Init(); err != nil {
			errs <- err
			return
		}
		ri, err := claim(c, (hot+1)%n, 0)
		if err != nil {
			errs <- err
			return
		}
		for i := 0; i < opsPerWriter/2; i++ {
			if err := c.WriteFld(ti, ri, callproc.FldResQuality, uint32(i%101)); err != nil {
				errs <- fmt.Errorf("background op %d: %w", i, err)
				return
			}
			if _, err := c.ReadFld(ti, ri, callproc.FldResQuality); err != nil {
				errs <- fmt.Errorf("background read %d: %w", i, err)
				return
			}
		}
		errs <- nil
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The per-shard audit schedulers keep certifying through and after the
	// stampede; every shard contributes to the aggregate sweep counter.
	deadline := time.Now().Add(5 * time.Second)
	for sd.Stats().Sweeps < uint64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d sweeps across %d shards", sd.Stats().Sweeps, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n, err := setup.Sweep(); err != nil || n != 0 {
		t.Fatalf("final sweep = %d findings (%v), want clean", n, err)
	}
}

// TestStatsAggregation checks the wire-compatible observability
// surface: STATS2 must carry both the plain aggregate gauges a single
// server publishes and the per-shard "shard.<k>." namespace, HEALTH must
// answer with the health plane's document, and SWEEP must report the
// shard totals.
func TestStatsAggregation(t *testing.T) { forEachN(t, testStatsAggregation) }

func testStatsAggregation(t *testing.T, n int) {
	sd, addr := newTestServer(t, n, Config{})
	c := dialInit(t, addr)

	ti := callproc.TblRes
	ri, err := c.Alloc(ti, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.WriteFld(ti, ri, callproc.FldResQuality, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := c.Stats2()
	if err != nil {
		t.Fatalf("STATS2: %v", err)
	}
	snap, err := metrics.ParseSnapshot(raw)
	if err != nil {
		t.Fatalf("STATS2 decode: %v", err)
	}
	for _, name := range []string{
		"server.queue.depth", "server.queue.capacity", "server.executed",
		"server.conns.active", "server.audit.findings", "memdb.clients",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("aggregate gauge %q missing from STATS2", name)
		}
	}
	// One region publishes the plain names only; several add their own
	// "shard.<k>." namespace underneath the aggregates.
	for k := 0; k < n; k++ {
		if _, ok := snap.Gauges[fmt.Sprintf("shard.%d.server.queue.depth", k)]; ok != (n > 1) {
			t.Errorf("per-region gauge shard.%d.server.queue.depth present = %v with %d regions", k, ok, n)
		}
	}
	if snap.Gauges["server.executed"] < 11 {
		t.Errorf("aggregate server.executed = %d, want >= 11", snap.Gauges["server.executed"])
	}
	// The executed aggregate must equal the Stats() sum (single-counting).
	if st := sd.Stats(); snap.Gauges["server.executed"] > int64(st.Executed) {
		t.Errorf("gauge executed %d > Stats executed %d", snap.Gauges["server.executed"], st.Executed)
	}

	if _, err := c.Health(); err != nil {
		t.Fatalf("HEALTH: %v", err)
	}
	if st := sd.Health(); st.Role != "primary" {
		t.Fatalf("Health = %+v, want primary role", st)
	}
	if _, err := c.Sweep(); err != nil {
		t.Fatalf("SWEEP: %v", err)
	}
	// The legacy STATS opcode is retired: reserved, and unknown to the server.
	if r, err := c.Call(wire.Request{Op: wire.Op(15)}); err != nil || !errors.Is(r.Err(), wire.ErrUnknownOp) {
		t.Fatalf("retired STATS op = %v (%v), want ErrUnknownOp", r.Err(), err)
	}
}

// TestRoutedReadBoundsBeforeLease: a routed read that is both out of range
// and behind its lease floor answers the bounds error at every region count
// — no owner can be named for the record, so nothing can judge its lease.
func TestRoutedReadBoundsBeforeLease(t *testing.T) {
	forEachN(t, func(t *testing.T, n int) {
		// Nothing answers on port 1: the standby never applies a record, so
		// any nonzero lease floor is ahead of it.
		_, addr := newTestServer(t, n, Config{
			Standby: true, ServeReads: true, PrimaryAddr: "127.0.0.1:1", ReplFailLimit: -1,
		})
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		stale := wire.Request{Op: wire.OpReadFld, Table: callproc.TblRes, Record: 3, Vals: []uint32{9, 0}}
		if r, err := c.Call(stale); err != nil || r.Code != wire.CodeStale {
			t.Fatalf("in-range stale read = code %d (%v), want CodeStale", r.Code, err)
		}
		stale.Record = 99999
		var be *memdb.BoundsError
		if r, err := c.Call(stale); err != nil || !errors.As(r.Err(), &be) || be.What != "record" {
			t.Fatalf("out-of-range stale read = %v (%v), want the record bounds error", r.Err(), err)
		}
	})
}
