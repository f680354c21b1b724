package router

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/callproc"
	"repro/internal/memdb"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// startNode boots one server (primary or standby) on a loopback listener.
// Only primaries need a WAL (the write-ack token is its log sequence);
// standbys replicate into a bare region.
func startNode(t *testing.T, cfg server.Config, withWAL bool) string {
	t.Helper()
	db, err := memdb.New(callproc.Schema(callproc.DefaultSchemaConfig()))
	if err != nil {
		t.Fatal(err)
	}
	var wals []*wal.Log
	if withWAL {
		l, err := wal.Open(wal.Config{Dir: t.TempDir()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		wals = []*wal.Log{l}
	}
	cfg.ClockTick = 5 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Standby {
		cfg.AdvertiseAddr = ln.Addr().String()
	}
	srv, err := server.NewSharded([]*memdb.DB{db}, wals, cfg)
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
	return ln.Addr().String()
}

// startReplicaSet boots a WAL-backed primary plus read-serving standbys.
func startReplicaSet(t *testing.T, standbys int, poll time.Duration) (primary string, replicas []string) {
	t.Helper()
	primary = startNode(t, server.Config{}, true)
	for i := 0; i < standbys; i++ {
		replicas = append(replicas, startNode(t, server.Config{
			Standby:       true,
			ServeReads:    true,
			PrimaryAddr:   primary,
			ReplPoll:      poll,
			ReplFailLimit: -1, // the primary stays up; never self-promote
			ReplTimeout:   300 * time.Millisecond,
		}, false))
	}
	return primary, replicas
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

// replState queries one node's REPL_STATUS over a throwaway connection.
func replState(t *testing.T, addr string) wire.ReplState {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRoutedReadYourWrites is the staleness-bound acceptance test: under
// live replication lag, a session that interleaves writes and routed reads
// must never observe state older than its own last acknowledged write —
// whichever node serves the read. Workers race a fast-polling replica set;
// every read is checked against the worker's golden value.
func TestRoutedReadYourWrites(t *testing.T) {
	primary, replicas := startReplicaSet(t, 2, 5*time.Millisecond)
	rt, err := New(Config{
		Addrs:         append([]string{primary}, replicas...),
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const workers, iters = 3, 150
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			errs[wi] = func() error {
				sess, err := rt.NewSession()
				if err != nil {
					return err
				}
				defer sess.Close()
				ri, err := sess.Alloc(callproc.TblRes, wi%callproc.ResourceBanks)
				if err != nil {
					return err
				}
				if err := sess.WriteRec(callproc.TblRes, ri, []uint32{uint32(ri), 1, 50}); err != nil {
					return err
				}
				for i := 0; i < iters; i++ {
					want := uint32(i % 101)
					if err := sess.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, want); err != nil {
						return err
					}
					if sess.Token() == 0 {
						return errors.New("acknowledged write returned no token")
					}
					got, err := sess.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
					if err != nil {
						return err
					}
					if got != want {
						return fmt.Errorf("iter %d: routed read = %d, want %d (stale past the lease)", i, got, want)
					}
				}
				return nil
			}()
		}(wi)
	}
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", wi, err)
		}
	}

	// Settled phase: once every standby has applied the primary's full log,
	// routed reads must leave the primary — the whole point of the fan-out.
	sess, err := rt.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ri, err := sess.Alloc(callproc.TblRes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, 77); err != nil {
		t.Fatal(err)
	}
	token := sess.Token()
	waitFor(t, "standby catch-up", 5*time.Second, func() bool {
		for _, addr := range replicas {
			if replState(t, addr).Applied < token {
				return false
			}
		}
		return true
	})
	rt.sweep() // fold the catch-up into the routing snapshot now
	// Reads are sticky per session, so spreading needs a second session:
	// pickReplica rotates which replica each session lands on.
	sess2, err := rt.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	before := rt.Stats()
	for i := 0; i < 10; i++ {
		for _, s := range []*Session{sess, sess2} {
			v, err := s.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
			if err != nil {
				t.Fatal(err)
			}
			if v != 77 {
				t.Fatalf("settled read = %d, want 77", v)
			}
		}
	}
	after := rt.Stats()
	if got := after.ReplicaReads - before.ReplicaReads; got != 20 {
		t.Fatalf("settled phase served %d reads from replicas, want all 20", got)
	}
	for _, addr := range replicas {
		if after.PerTarget[addr] == 0 {
			t.Fatalf("replica %s served no reads: %v", addr, after.PerTarget)
		}
	}
}

// TestRoutedLeasePinsOnLaggingReplica wedges the only standby (its poll
// interval never fires), so the session's lease must pin every routed read
// to the primary — and a read forced onto the standby with a future lease
// floor must be refused with CodeStale, not answered stale.
func TestRoutedLeasePinsOnLaggingReplica(t *testing.T) {
	primary, replicas := startReplicaSet(t, 1, time.Hour)
	standby := replicas[0]

	rt, err := New(Config{
		Addrs:         []string{primary, standby},
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	waitFor(t, "standby probe", 2*time.Second, func() bool {
		st := replState(t, standby)
		return st.Role == wire.RoleStandby && st.ServeReads
	})

	sess, err := rt.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ri, err := sess.Alloc(callproc.TblRes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, 42); err != nil {
		t.Fatal(err)
	}
	token := sess.Token()
	if token == 0 {
		t.Fatal("write returned no lease token")
	}

	for i := 0; i < 10; i++ {
		v, err := sess.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
		if err != nil {
			t.Fatal(err)
		}
		if v != 42 {
			t.Fatalf("read %d = %d, want 42", i, v)
		}
	}
	st := rt.Stats()
	if st.ReplicaReads != 0 {
		t.Fatalf("%d reads reached the wedged standby (applied=0 < token=%d)", st.ReplicaReads, token)
	}
	if st.LeasePins == 0 {
		t.Fatal("no lease pins recorded: reads fell back for the wrong reason")
	}

	// The server-side half of the bound: present the lease floor to the
	// lagging standby directly — it must refuse rather than serve old state.
	c, err := wire.Dial(standby)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lo, hi := wire.SplitU64(token)
	resp, err := c.Call(wire.Request{
		Op: wire.OpReadFld, Table: int32(callproc.TblRes),
		Record: int32(ri), Field: int32(callproc.FldResQuality),
		Vals: []uint32{lo, hi},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != wire.CodeStale || !errors.Is(resp.Err(), wire.ErrStale) {
		t.Fatalf("lagging standby answered code %d (%v), want CodeStale", resp.Code, resp.Err())
	}
}

// TestRouterFailsOverOnReplicaLoss kills one of two serving standbys
// mid-run: routed reads must keep succeeding (redirected to the surviving
// replica or the primary) and the loss must be visible in the counters.
func TestRouterFailsOverOnReplicaLoss(t *testing.T) {
	primary, replicas := startReplicaSet(t, 1, 5*time.Millisecond)
	// The victim is booted outside the shared helper so the test can stop
	// it without tripping the cleanup assertions.
	db, err := memdb.New(callproc.Schema(callproc.DefaultSchemaConfig()))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	victim, err := server.New(db, server.Config{
		Standby:       true,
		ServeReads:    true,
		PrimaryAddr:   primary,
		ReplPoll:      5 * time.Millisecond,
		ReplFailLimit: -1,
		ReplTimeout:   300 * time.Millisecond,
		ClockTick:     5 * time.Millisecond,
		AdvertiseAddr: ln.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	go victim.Serve(ln)
	victimAddr := ln.Addr().String()

	rt, err := New(Config{
		Addrs:         []string{primary, replicas[0], victimAddr},
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	sess, err := rt.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ri, err := sess.Alloc(callproc.TblRes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, 9); err != nil {
		t.Fatal(err)
	}
	token := sess.Token()
	waitFor(t, "both standbys caught up", 5*time.Second, func() bool {
		return replState(t, replicas[0]).Applied >= token &&
			replState(t, victimAddr).Applied >= token
	})
	rt.sweep()

	readOK := func() {
		t.Helper()
		v, err := sess.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
		if err != nil {
			t.Fatal(err)
		}
		if v != 9 {
			t.Fatalf("read = %d, want 9", v)
		}
	}
	// Warm both replicas into the rotation, then kill one mid-stream.
	for i := 0; i < 6; i++ {
		readOK()
	}
	if err := victim.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		readOK()
	}
	st := rt.Stats()
	if st.PerTarget[replicas[0]] == 0 {
		t.Fatalf("surviving replica served nothing: %v", st.PerTarget)
	}
	waitFor(t, "probe to mark the dead replica down", 2*time.Second, func() bool {
		tg, _ := rt.pickReplica(0)
		return tg == nil || tg.addr != victimAddr
	})
}
