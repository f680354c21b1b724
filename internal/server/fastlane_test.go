package server

import (
	"testing"

	"repro/internal/callproc"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// TestFastLaneCountersInSnapshot drives reads through the fast lane and
// checks the fastlane.reads counter reaches the STATS2 snapshot clients
// poll.
func TestFastLaneCountersInSnapshot(t *testing.T) {
	_, addr := newTestServer(t, 1, Config{})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Init(); err != nil {
		t.Fatal(err)
	}
	ri, err := c.Alloc(callproc.TblRes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, 42); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v, err := c.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
		if err != nil {
			t.Fatal(err)
		}
		if v != 42 {
			t.Fatalf("read %d = %d, want 42", i, v)
		}
	}

	raw, err := c.Stats2()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := metrics.ParseSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["fastlane.reads"] < 100 {
		t.Errorf("fastlane.reads = %d, want >= 100", snap.Counters["fastlane.reads"])
	}
}

// TestReadsIgnoreHeldTableLock pins the one read semantics: reads are
// answered by the fast lane, which does not take the advisory table locks,
// so a transaction holding Resource and writing it in a loop never turns
// another session's read of that table into CodeLocked.
func TestReadsIgnoreHeldTableLock(t *testing.T) {
	_, addr := newTestServer(t, 1, Config{})
	dial := func() *wire.Conn {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, err := c.Init(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := dial(), dial()
	ri, err := a.Alloc(callproc.TblRes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Begin(callproc.TblRes); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-done:
				writerErr <- nil
				return
			default:
			}
			if err := a.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, uint32(i%101)); err != nil {
				writerErr <- err
				return
			}
		}
	}()
	for i := 0; i < 10000; i++ {
		if _, err := b.ReadFld(callproc.TblRes, ri, callproc.FldResQuality); err != nil {
			close(done)
			t.Fatalf("read %d while session A holds Resource: %v", i, err)
		}
	}
	close(done)
	if err := <-writerErr; err != nil {
		t.Fatalf("writer holding the lock: %v", err)
	}
}
