package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/wire"
)

// span is one traced interval of the driver: a phase, or one request from
// its send to its verified reply. Phase spans are numbered from 1; a request
// span's id is (connection+1)<<32 | the connection's request count.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	ID     int64  `json:"id"`
}

// maxSpans bounds the request spans one connection keeps per run, so a
// traced read-pipelined run cannot grow without limit; the counters cover
// every request either way.
const maxSpans = 100_000

// slot is one record a connection owns, with the golden copy every read of
// it is checked against.
type slot struct {
	rec     int
	vals    []uint32
	pending bool // DBfree sent, the DBalloc reply naming the new record not yet seen
}

// failures classifies everything that counts against fail_ratio.
type failures struct {
	errors, timeouts, sheds, mismatches int64
	first                               string // first violation, for the log
}

func (f *failures) total() int64 { return f.errors + f.timeouts + f.sheds + f.mismatches }

// add folds another connection's failures into f.
func (f *failures) add(o failures) {
	f.errors += o.errors
	f.timeouts += o.timeouts
	f.sheds += o.sheds
	f.mismatches += o.mismatches
	if f.first == "" {
		f.first = o.first
	}
}

func (f *failures) note(class *int64, format string, args ...any) {
	*class++
	if f.first == "" {
		f.first = fmt.Sprintf(format, args...)
	}
}

// inflight is one request awaiting its reply.
type inflight struct {
	op     planOp
	slot   *slot
	expect [3]uint32
	nexp   int // -1: reply values are not checked
	due    int64
	sent   int64
	id     int64
}

// phaseRec is what one connection measured in one phase.
type phaseRec struct {
	start  int64 // ns since the run's time base
	win    *windows
	sent   int64
	done   int64
	rttSum int64 // Σ reply − send, ns
	late   []float64
	kinds  [numKinds]int64 // replies per request kind
	spanID int64           // nonzero: record a span per request under this phase span
}

// connState drives one load connection. It is owned by one goroutine at a
// time: the set-up code first, then the phase runner.
type connState struct {
	id    int
	spec  *workloadSpec
	base  time.Time
	c     *wire.Conn
	p     *wire.Pipeline
	gen   *generator
	slots [numTables][]slot
	// scanStarts lists the Resource records from which scanLen consecutive
	// records all belong to this connection, so a res_scan result can be
	// checked against the golden copy.
	scanStarts []int
	queue      []inflight // requests in flight, oldest at head
	head       int
	rec        *phaseRec // the running phase's record, nil outside timed phases
	reqs       int64     // requests sent so far: the span request id
	fail       failures
	spans      []span
	scratch    [3]uint32
}

func (cs *connState) now() int64 { return int64(time.Since(cs.base)) }

func dialConn(addr string, id int, spec *workloadSpec, base time.Time, seed int64) (*connState, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := wire.NewConn(nc)
	cs := &connState{id: id, spec: spec, base: base, c: c, gen: newGenerator(spec, id, seed)}
	cs.p = c.Pipeline(openWindow)
	if _, err := c.Init(); err != nil {
		c.Close()
		return nil, fmt.Errorf("DBinit: %w", err)
	}
	return cs, nil
}

// preload allocates the connection's records. A fresh record holds the
// schema defaults, so nothing is written: the golden copy starts there.
func (cs *connState) preload() error {
	for _, t := range cs.spec.tables[cs.id] {
		cs.slots[t] = make([]slot, cs.spec.slots)
		sent, got := 0, 0
		for got < cs.spec.slots {
			for sent < cs.spec.slots && cs.p.InFlight() < openWindow {
				if _, err := cs.p.Send(wire.Request{Op: wire.OpAlloc, Table: int32(t), Aux: int32(sent % resBanks)}); err != nil {
					return err
				}
				sent++
			}
			r, err := cs.p.Recv()
			if err != nil {
				return err
			}
			if err := r.Err(); err != nil {
				return fmt.Errorf("preload DBalloc table %d: %w", t, err)
			}
			if len(r.Vals) != 1 {
				return fmt.Errorf("preload DBalloc reply carries %d values", len(r.Vals))
			}
			cs.slots[t][got] = slot{rec: int(r.Vals[0]), vals: append([]uint32(nil), fieldDefault[t]...)}
			got++
		}
	}
	if cs.spec.mix.procScan > 0 {
		owned := map[int]bool{}
		for _, s := range cs.slots[tblRes] {
			owned[s.rec] = true
		}
		for _, s := range cs.slots[tblRes] {
			all := true
			for k := 0; k < scanLen && all; k++ {
				all = owned[s.rec+k]
			}
			if all {
				cs.scanStarts = append(cs.scanStarts, s.rec)
			}
		}
		if len(cs.scanStarts) == 0 {
			return fmt.Errorf("conn %d owns no run of %d consecutive Resource records", cs.id, scanLen)
		}
	}
	return nil
}

// send resolves op against the golden copy, writes the request into the
// pipeline (not flushed) and queues the expectation its reply must meet.
// The golden copy is updated here, in send order: the server executes one
// connection's requests in the order they were sent.
func (cs *connState) send(op planOp, due int64) error {
	q := wire.Request{Table: int32(op.Table), Field: int32(op.Field), Aux: int32(op.Aux)}
	in := inflight{op: op, due: due, nexp: 0}
	var sl *slot
	switch op.Kind {
	case kBegin, kCommit:
	default:
		sl = &cs.slots[op.Table][op.Slot]
		// The slot's new record is named by a reply still in flight.
		for sl.pending && op.Kind != kAlloc {
			if err := cs.recv(); err != nil {
				return err
			}
		}
		q.Record = int32(sl.rec)
		in.slot = sl
	}
	switch op.Kind {
	case kWriteFld:
		q.Op = wire.OpWriteFld
		cs.scratch[0] = op.Vals[0]
		q.Vals = cs.scratch[:1]
		sl.vals[op.Field] = op.Vals[0]
	case kWriteRec:
		q.Op = wire.OpWriteRec
		q.Vals = cs.scratch[:copy(cs.scratch[:], op.Vals[:op.NVals])]
		copy(sl.vals, op.Vals[:op.NVals])
	case kReadFld:
		q.Op = wire.OpReadFld
		in.expect[0], in.nexp = sl.vals[op.Field], 1
	case kReadRec:
		q.Op = wire.OpReadRec
		in.nexp = copy(in.expect[:], sl.vals)
	case kMove:
		q.Op = wire.OpMove
	case kStatus:
		q.Op = wire.OpStatus
		in.expect[0], in.nexp = 1, 1 // memdb.StatusActive
	case kFree:
		q.Op = wire.OpFree
		sl.pending = true
	case kAlloc:
		q.Op, q.Record = wire.OpAlloc, 0
		in.nexp = -1
	case kBegin:
		q.Op = wire.OpBegin
	case kCommit:
		q.Op, q.Table = wire.OpCommit, 0
	case kProcTouch:
		quality := op.Vals[0]
		if quality > 100 {
			quality = 100
		}
		q = wire.Request{Op: wire.OpProcExec, Detail: "res_touch"}
		cs.scratch[0], cs.scratch[1] = uint32(sl.rec), op.Vals[0]
		q.Vals = cs.scratch[:2]
		sl.vals[fldResQual] = quality
		in.expect[0], in.expect[1], in.nexp = quality, uint32(sl.rec), 2
	case kProcScan:
		start := cs.scanStarts[op.Slot%len(cs.scanStarts)]
		q = wire.Request{Op: wire.OpProcExec, Detail: "res_scan"}
		cs.scratch[0], cs.scratch[1] = uint32(start), scanLen
		q.Vals = cs.scratch[:2]
		in.expect[0], in.nexp = cs.scanSum(start), 1
	default:
		return fmt.Errorf("plan op kind %d", op.Kind)
	}
	cs.reqs++
	in.id, in.sent = cs.reqs, cs.now()
	if _, err := cs.p.Send(q); err != nil {
		return err
	}
	if cs.head > openWindow && cs.head*2 >= len(cs.queue) {
		cs.queue = cs.queue[:copy(cs.queue, cs.queue[cs.head:])]
		cs.head = 0
	}
	cs.queue = append(cs.queue, in)
	return nil
}

func (cs *connState) inFlight() int { return len(cs.queue) - cs.head }

// scanSum is what res_scan must return: the quality of the busy (status 1)
// records among scanLen consecutive ones, all of which this connection owns.
func (cs *connState) scanSum(start int) uint32 {
	var sum uint32
	for i := range cs.slots[tblRes] {
		s := &cs.slots[tblRes][i]
		if s.rec >= start && s.rec < start+scanLen && s.vals[fldResStatus] == 1 {
			sum += s.vals[fldResQual]
		}
	}
	return sum
}

// recv reads the oldest in-flight reply and checks it. A transport error is
// returned (the connection is unusable); a wrong or refused reply is
// counted and the run goes on.
func (cs *connState) recv() error {
	r, err := cs.p.Recv()
	if err != nil {
		return err
	}
	now := cs.now()
	in := cs.queue[cs.head]
	cs.head++
	if cs.head == len(cs.queue) {
		cs.queue, cs.head = cs.queue[:0], 0
	}
	name := kindNames[in.op.Kind]
	switch {
	case r.Code == wire.CodeOverload:
		cs.fail.note(&cs.fail.sheds, "conn %d %s: shed", cs.id, name)
	case r.Code == wire.CodeTimeout:
		cs.fail.note(&cs.fail.timeouts, "conn %d %s: server timeout", cs.id, name)
	case r.Code != wire.CodeOK:
		cs.fail.note(&cs.fail.errors, "conn %d %s: %v", cs.id, name, r.Err())
	case in.nexp >= 0 && !slices.Equal(r.Vals, in.expect[:in.nexp]):
		cs.fail.note(&cs.fail.mismatches, "conn %d %s table %d slot %d: got %v, golden %v",
			cs.id, name, in.op.Table, in.op.Slot, r.Vals, in.expect[:in.nexp])
	}
	if in.op.Kind == kAlloc {
		in.slot.pending = false
		if r.Code == wire.CodeOK && len(r.Vals) == 1 {
			in.slot.rec = int(r.Vals[0])
			copy(in.slot.vals, fieldDefault[in.op.Table])
		} else if r.Code == wire.CodeOK {
			cs.fail.note(&cs.fail.mismatches, "conn %d alloc reply carries %d values", cs.id, len(r.Vals))
		}
	}
	if rec := cs.rec; rec != nil {
		rec.done++
		rec.kinds[in.op.Kind]++
		rec.rttSum += now - in.sent
		rec.win.add(now-rec.start, now-in.due)
		if rec.spanID != 0 && len(cs.spans) < maxSpans {
			cs.spans = append(cs.spans, span{
				Name: name, Start: in.sent, End: now, Parent: rec.spanID, ID: int64(cs.id+1)<<32 | in.id,
			})
		}
	}
	return nil
}

// drain waits for every in-flight reply.
func (cs *connState) drain() error {
	for cs.inFlight() > 0 {
		if err := cs.recv(); err != nil {
			return err
		}
	}
	return nil
}

// runClosed keeps `window` requests in flight until end: the next request
// goes out when a window slot frees, so a slower server is offered less.
func (cs *connState) runClosed(window int, end int64, rec *phaseRec) error {
	cs.rec = rec
	defer func() { cs.rec = nil }()
	for cs.now() < end {
		for cs.inFlight() < window {
			if err := cs.send(cs.gen.next(), cs.now()); err != nil {
				return err
			}
			rec.sent++
		}
		if err := cs.recv(); err != nil {
			return err
		}
	}
	return cs.drain()
}

// schedule is one connection's open-loop send times: a Poisson process of
// the given mean interval, drawn from the seed. Evenly spaced sends would
// alias with the server's own periodic work (the 20-ms clock tick, audit
// sweeps, garbage-collection cycles): the phase a run happens to start in
// would then pick its median latency. Exponential gaps visit every phase in
// every run, and independent callers arrive this way.
type schedule struct {
	rng  *rand.Rand
	mean float64 // ns
	due  int64   // next send time, ns on the connection's clock
}

func newSchedule(seed int64, conn int, start, meanInterval int64) *schedule {
	s := &schedule{rng: rand.New(rand.NewSource(seed*15485863 + int64(conn)*32452843 + 2)), mean: float64(meanInterval), due: start}
	s.advance()
	return s
}

func (s *schedule) advance() { s.due += int64(s.rng.ExpFloat64() * s.mean) }

// runOpen sends each request at its scheduled time whatever the server does.
// Latency is timed from that due time, so a stall is charged to every
// request it delays; requests that fall due while the connection waits for
// a reply go out as one burst afterwards (at most openWindow in flight), and
// the schedule is never skipped. Every request due before end is sent.
//
// The server answers one connection's requests in order, so a request held
// back here during a stall completes when it would have had it been written
// to the socket on time. What the generator itself adds is the overshoot of
// its own sleep: rec.late keeps that for every send that followed one.
func (cs *connState) runOpen(sched *schedule, end int64, rec *phaseRec) error {
	cs.rec = rec
	defer func() { cs.rec = nil }()
	slept := false
	wake := cs.newWaker()
	defer wake.stop()
	for sched.due < end {
		now := cs.now()
		for sched.due <= now && sched.due < end && cs.inFlight() < openWindow {
			if err := cs.send(cs.gen.next(), sched.due); err != nil {
				return err
			}
			rec.sent++
			if slept {
				rec.late = append(rec.late, float64(now-sched.due)/1e3)
				slept = false
			}
			sched.advance()
		}
		if cs.inFlight() > 0 {
			if err := cs.recv(); err != nil {
				return err
			}
			continue
		}
		if sched.due < end && sched.due > cs.now() {
			wake.at(sched.due)
			slept = true
		}
	}
	return cs.drain()
}

// waker sleeps on behalf of a connection goroutine, in nanosleep(2) on a
// thread of its own. The connection goroutine must not sleep that way itself:
// a goroutine inside a raw blocking system call keeps its scheduler slot, and
// replies to the other connection then sit unread in the socket until the
// sleeper returns (seen as a latency spike at exactly the other connection's
// next send). time.Sleep is no substitute: the runtime poller's timeout is
// rounded up to a millisecond when the process is otherwise idle, longer than
// the gap between two requests of every workload here.
type waker struct {
	until chan int64    // absolute wake-up times, ns on the connection's clock
	woke  chan struct{} // one token per wake-up; closed when the goroutine has exited
}

func (cs *connState) newWaker() *waker {
	w := &waker{until: make(chan int64), woke: make(chan struct{})}
	go func() {
		defer close(w.woke)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		// Timer slack is 50 µs by default and per thread.
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, 29 /* PR_SET_TIMERSLACK */, 1, 0)
		for t := range w.until {
			if wait := t - cs.now(); wait > 0 {
				ts := syscall.NsecToTimespec(wait)
				_ = syscall.Nanosleep(&ts, nil) // an early return is re-checked by the caller's loop
			}
			w.woke <- struct{}{}
		}
	}()
	return w
}

// at blocks the caller until time t.
func (w *waker) at(t int64) {
	w.until <- t
	<-w.woke
}

// stop ends the waker's goroutine and waits for it.
func (w *waker) stop() {
	close(w.until)
	<-w.woke
}

// readBack re-reads every owned record outside the timed phases and checks
// status and contents against the golden copy, so a workload that never
// reads is verified too. It returns the number of requests it made.
func (cs *connState) readBack() (int64, error) {
	var n int64
	// A phase may end inside a multi-request unit; finish it, so no record
	// is left freed and no table locked.
	for len(cs.gen.queue) > 0 {
		if err := cs.send(cs.gen.next(), 0); err != nil {
			return n, err
		}
		n++
	}
	if err := cs.drain(); err != nil {
		return n, err
	}
	for _, t := range cs.spec.tables[cs.id] {
		for s := range cs.slots[t] {
			for _, k := range []opKind{kStatus, kReadRec} {
				for cs.inFlight() >= openWindow {
					if err := cs.recv(); err != nil {
						return n, err
					}
				}
				if err := cs.send(planOp{Kind: k, Table: t, Slot: s}, 0); err != nil {
					return n, err
				}
				n++
			}
		}
	}
	return n, cs.drain()
}
