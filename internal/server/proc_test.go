package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/callproc"
	"repro/internal/proc"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestProcExecDetectionJoinRecovery is the deterministic spine of the
// procedure subsystem's acceptance loop: a targeted text-segment flip into
// a registered procedure's critical control word must produce (1) a PECOS
// abort surfaced to the client, (2) a pecos-violation trace event joined to
// the PROC request's trace ID, (3) a control-flow finding and reload-text
// recovery on the audit ladder carrying the same ID, (4) a recovered
// procedure on the next call, and (5) a clean certifying sweep.
func TestProcExecDetectionJoinRecovery(t *testing.T) {
	srv, addr := newTestServer(t, 1, Config{})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Init(); err != nil {
		t.Fatal(err)
	}

	// The built-in library is preloaded and listable.
	data, err := c.ProcList()
	if err != nil {
		t.Fatalf("ProcList: %v", err)
	}
	infos, err := proc.DecodeInfos(data)
	if err != nil {
		t.Fatalf("DecodeInfos: %v", err)
	}
	if len(infos) != 3 {
		t.Fatalf("builtin inventory = %d entries, want 3", len(infos))
	}

	// Wire-loaded procedures register and report instrumentation facts.
	words, blocks, version, err := c.ProcLoad("noop", "        movi r1, 7\n        sys 8\n        halt\n")
	if err != nil {
		t.Fatalf("ProcLoad: %v", err)
	}
	if words == 0 || version != 1 {
		t.Fatalf("ProcLoad: words=%d blocks=%d version=%d", words, blocks, version)
	}
	if out, err := c.ProcExec("noop", nil); err != nil || len(out) != 1 || out[0] != 7 {
		t.Fatalf("ProcExec(noop) = %v, %v", out, err)
	}
	if _, err := c.ProcExec("ghost", nil); !errors.Is(err, wire.ErrUnknownProc) {
		t.Fatalf("ProcExec(ghost) err = %v, want ErrUnknownProc", err)
	}

	// A clean res_touch commits.
	ri, err := c.Alloc(callproc.TblRes, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.ProcExec("res_touch", []uint32{uint32(ri), 42})
	if err != nil {
		t.Fatalf("ProcExec(res_touch): %v", err)
	}
	if len(out) != 2 || out[0] != 42 {
		t.Fatalf("res_touch out = %v", out)
	}
	if v, err := c.ReadFld(callproc.TblRes, ri, callproc.FldResQuality); err != nil || v != 42 {
		t.Fatalf("committed quality = %d (%v), want 42", v, err)
	}

	// Targeted shot: flip the critical valid-target word of res_touch
	// holding the turn, exactly as the injector ticker would.
	flipped := make(chan bool, 1)
	srv.cores[0].onExecutor(func() {
		p := srv.cores[0].procs.Get("res_touch")
		addr, ok := p.CriticalWord()
		if !ok {
			flipped <- false
			return
		}
		flipped <- srv.cores[0].procInjectAt("res_touch", addr, 3)
	})
	if !<-flipped {
		t.Fatal("targeted text flip failed")
	}

	// The corrupted procedure must abort with a PECOS violation and must
	// not have committed its write.
	if _, err := c.ProcExec("res_touch", []uint32{uint32(ri), 99}); !errors.Is(err, wire.ErrProcViolation) {
		t.Fatalf("corrupted exec err = %v, want ErrProcViolation", err)
	}
	if v, _ := c.ReadFld(callproc.TblRes, ri, callproc.FldResQuality); v != 42 {
		t.Fatalf("aborted procedure mutated the region: quality = %d", v)
	}

	// Trace join: the pecos-violation event's trace ID must match a
	// ProcExec request-enqueue event, and the finding/recovery pair must
	// carry the same ID with the new class and action.
	var vtid uint64
	for _, ev := range srv.TraceEvents(trace.KindPECOS, 100) {
		if ev.Trace != 0 {
			vtid = ev.Trace
		}
	}
	if vtid == 0 {
		t.Fatal("no pecos-violation event with a nonzero trace ID")
	}
	joined := false
	for _, ev := range srv.TraceEvents(trace.KindReqEnqueue, 1000) {
		if ev.Trace == vtid && ev.Op == wire.OpProcExec.String() {
			joined = true
		}
	}
	if !joined {
		t.Fatalf("pecos trace %d does not join any ProcExec request", vtid)
	}
	foundFinding, foundRecovery := false, false
	for _, ev := range srv.TraceEvents(trace.KindFinding, 100) {
		if ev.Trace == vtid && ev.Op == "control-flow" {
			foundFinding = true
		}
	}
	for _, ev := range srv.TraceEvents(trace.KindRecovery, 100) {
		if ev.Trace == vtid && ev.Op == "reload-text" {
			foundRecovery = true
		}
	}
	if !foundFinding || !foundRecovery {
		t.Fatalf("finding/recovery join: finding=%v recovery=%v", foundFinding, foundRecovery)
	}

	// Registry recovered: the next call runs clean and the inventory
	// records the violation and the reload.
	if out, err := c.ProcExec("res_touch", []uint32{uint32(ri), 55}); err != nil || out[0] != 55 {
		t.Fatalf("post-reload exec = %v, %v", out, err)
	}
	data, err = c.ProcList()
	if err != nil {
		t.Fatal(err)
	}
	infos, _ = proc.DecodeInfos(data)
	var touch proc.Info
	for _, in := range infos {
		if in.Name == "res_touch" {
			touch = in
		}
	}
	if touch.Violations != 1 || touch.Reloads != 1 {
		t.Fatalf("inventory: violations=%d reloads=%d, want 1/1", touch.Violations, touch.Reloads)
	}

	// Certifying sweep: program-text corruption never became DB corruption.
	if n, err := c.Sweep(); err != nil || n != 0 {
		t.Fatalf("final sweep: %d findings (%v), want 0", n, err)
	}
}

// TestProcConcurrentTrafficWithInjection drives concurrent PROC traffic
// while the executor-clock text injector flips bits in the registered
// procedures' control words: the live-load acceptance criterion. Aborts
// are tolerated per call; the invariants are that detections join request
// trace IDs, recovery keeps the registry serving, committed writes match
// the client-side golden copy, and the final sweep is clean.
func TestProcConcurrentTrafficWithInjection(t *testing.T) {
	srv, addr := newTestServer(t, 1, Config{
		ProcInjectPeriod: 2 * time.Millisecond,
		ProcInjectSeed:   7,
	})

	const workers = 4
	const opsPerWorker = 150
	golden := make([]uint32, workers) // last committed quality per worker record
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
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
			ri, err := c.Alloc(callproc.TblRes, 0)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < opsPerWorker; i++ {
				q := uint32(1 + (w*opsPerWorker+i)%100)
				out, err := c.ProcExec("res_touch", []uint32{uint32(ri), q})
				switch {
				case err == nil:
					if len(out) != 2 || out[0] != q {
						errs <- fmt.Errorf("worker %d: out = %v, want quality %d", w, out, q)
						return
					}
					golden[w] = q
				case errors.Is(err, wire.ErrProcViolation) || errors.Is(err, wire.ErrProcFault):
					// Detected abort under injection: the procedure
					// committed nothing; the next call runs the reloaded
					// text.
				default:
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if i%10 == 0 {
					if _, err := c.ProcExec("res_scan", []uint32{uint32(ri), 1}); err != nil &&
						!errors.Is(err, wire.ErrProcViolation) && !errors.Is(err, wire.ErrProcFault) {
						errs <- fmt.Errorf("worker %d scan: %w", w, err)
						return
					}
				}
			}
			// Golden readback: the record holds the last committed value.
			if golden[w] != 0 {
				v, err := c.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
				if err != nil || v != golden[w] {
					errs <- fmt.Errorf("worker %d: final quality = %d (%v), want %d", w, v, err, golden[w])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// At least one detection, joined to a request.
	pecos := srv.TraceEvents(trace.KindPECOS, 1000)
	if len(pecos) == 0 {
		t.Fatal("no PECOS detections under sustained injection")
	}
	reqs := make(map[uint64]bool)
	for _, ev := range srv.TraceEvents(trace.KindReqEnqueue, 4096) {
		if ev.Op == wire.OpProcExec.String() {
			reqs[ev.Trace] = true
		}
	}
	joined := 0
	for _, ev := range pecos {
		if reqs[ev.Trace] {
			joined++
		}
	}
	if joined == 0 {
		t.Fatalf("%d detections, none joined to a ProcExec request", len(pecos))
	}

	// Final certifying sweep: zero undetected DB corruption.
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n, err := c.Sweep(); err != nil || n != 0 {
		t.Fatalf("final sweep: %d findings (%v), want 0", n, err)
	}
}
