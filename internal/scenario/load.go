package scenario

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/router"
)

// Load is a count-bounded closed-loop run: Conns workers, each replaying
// Ops/Conns ops of a built-in pattern back to back over one private
// Resource record.
type Load struct {
	Addrs      []string
	Conns, Ops int
	// Window is the requests each direct connection keeps in flight. Above
	// 1 the worker pipelines and is no longer failover-aware: replaying a
	// half-acknowledged window after a reconnect would be ambiguous.
	Window  int
	ReadPct int  // >= 0: the field mix at that read share; < 0: the call cycle
	ProcPct int  // share of call-cycle ops sent through the server-side procedures
	Lax     bool // count mismatches and per-op errors instead of failing on them
	// Router, when set, carries the ops over routed sessions instead; a read
	// that misses the golden copy is then booked as a staleness violation.
	Router *router.Router
}

// LoadResult is what the workers of a Load measured.
type LoadResult struct {
	Elapsed time.Duration
	Lats    []time.Duration // one per op, ascending
	Tally
}

// pattern returns worker id's op sequence as a function of the op index,
// so the order is fixed before the first byte hits the wire.
func (l Load) pattern(id int) func(i int) plannedOp {
	if l.ReadPct < 0 {
		return callCycle(id, l.ProcPct)
	}
	recEvery := 0
	if l.Router != nil {
		recEvery = 8
	}
	return fieldMix(id, l.ReadPct, recEvery)
}

// callCycle is the mixed call-processing workload: cycle field and record
// writes, verified reads, moves, and transactions over the record, with
// procPct of every hundred ops going through the server-side procedures
// instead — mostly res_touch, with a res_scan sprinkled in.
func callCycle(id, procPct int) func(i int) plannedOp {
	return func(i int) plannedOp {
		if i%100 < procPct {
			if i%5 == 4 {
				return plannedOp{Kind: OpProc, Arg: 1}
			}
			return plannedOp{Kind: OpProc, Val: uint32((id + i*7) % 101)}
		}
		switch i % 6 {
		case 0:
			return plannedOp{Kind: OpWriteFld, Val: uint32((id + i*13) % 101)}
		case 1:
			return plannedOp{Kind: OpWriteRec, Arg: i % 3, Val: uint32(i % 101)}
		case 2:
			return plannedOp{Kind: OpReadRec}
		case 3:
			return plannedOp{Kind: OpReadFld}
		case 4:
			return plannedOp{Kind: OpMove, Arg: 1}
		}
		return plannedOp{Kind: OpTxn, Val: uint32(i % 101)}
	}
}

// fieldMix is the read/write mix: readPct of every hundred ops read the
// Quality field, the rest write it. With recEvery > 0 every recEvery-th
// read and write is the whole-record form. The read share is the routed
// transport's scaling lever: each write advances the session's lease
// token, pinning its reads to the primary until the standbys re-apply past
// it, so a read-heavy session routes nearly everything while a write-heavy
// one stays pinned.
func fieldMix(id, readPct, recEvery int) func(i int) plannedOp {
	reads, writes := 0, 0
	return func(i int) plannedOp {
		if i%100 < readPct {
			if reads++; recEvery > 0 && reads%recEvery == 0 {
				return plannedOp{Kind: OpReadRec}
			}
			return plannedOp{Kind: OpReadFld}
		}
		if writes++; recEvery > 0 && writes%recEvery == 0 {
			return plannedOp{Kind: OpWriteRec, Arg: i % 3, Val: uint32(i % 101)}
		}
		return plannedOp{Kind: OpWriteFld, Val: uint32((id + i*13) % 101)}
	}
}

// replay drives n ops of a count-bounded pattern back to back.
func (w *worker) replay(next func(i int) plannedOp, n int) error {
	for i := 0; i < n; i++ {
		if err := w.exec(next(i)); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return w.drain(0)
}

// RunLoad drives the load to completion. A worker that fails fails the
// run; staleness violations fail it after the fact, with the result still
// returned for the report.
func RunLoad(l Load) (*LoadResult, error) {
	per := max(l.Ops/l.Conns, 1)
	workers := make([]*worker, l.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		w := &worker{id: i, addrs: l.Addrs, lax: l.Lax, window: l.Window, rt: l.Router}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.err = w.open(1); w.err == nil {
				w.err = w.replay(l.pattern(w.id), per)
			}
			if err := w.close(); w.err == nil && !w.lax {
				w.err = err
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	res, err := collect(workers, l.Lax)
	if res != nil {
		res.Elapsed = elapsed
	}
	return res, err
}

// collect folds the finished workers' tallies into one result.
func collect(workers []*worker, lax bool) (*LoadResult, error) {
	res := &LoadResult{}
	for _, w := range workers {
		if w.err != nil {
			return nil, fmt.Errorf("worker %d: %w", w.id, w.err)
		}
		for _, lats := range w.lats {
			res.Lats = append(res.Lats, lats...)
		}
		res.Mismatches += w.Mismatches
		res.Stale += w.Stale
		res.Reconnects += w.Reconnects
		res.ProcCalls += w.ProcCalls
		res.ProcAborts += w.ProcAborts
	}
	sort.Slice(res.Lats, func(i, j int) bool { return res.Lats[i] < res.Lats[j] })
	if res.Stale != 0 && !lax {
		return res, fmt.Errorf("routed reads observed %d staleness-bound violations", res.Stale)
	}
	return res, nil
}
