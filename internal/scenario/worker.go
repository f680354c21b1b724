package scenario

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/callproc"
	"repro/internal/memdb"
	"repro/internal/router"
	"repro/internal/wire"
)

// transport carries a worker's requests to the server: a *wire.Conn
// straight to the primary, or a *router.Session fanning reads out across a
// replica set. A Conn leaves the reply code in the Response where a Session
// also folds it into the error; request folds it either way.
type transport interface {
	Call(q wire.Request) (wire.Response, error)
	Close() error
}

// The retry ladder's numbers. The lock retry sits inside, the failover
// reconnect outside; the shard and failover smokes run under these.
const (
	// lockRetryWindow and lockRetryBackoff pace the ErrLocked rung: table
	// locks are advisory and non-blocking, so a busy table answers
	// ErrLocked immediately and the client is expected to come back.
	lockRetryWindow  = 30 * time.Second
	lockRetryBackoff = time.Millisecond
	// failoverWindow bounds how long a worker keeps re-resolving the
	// primary before giving up on an operation. It comfortably covers a
	// standby's promotion streak (fail-limit × poll interval) at the
	// defaults. Right after a primary dies no node claims the role while
	// that streak builds, hence the poll.
	failoverWindow = 15 * time.Second
	reconnectPoll  = 50 * time.Millisecond
)

const (
	resFields  = 3 // fields of a Resource record
	fldQuality = callproc.FldResQuality
)

// slotState is one Resource record a worker owns: its index, current
// bank, and the golden copy reads are verified against.
type slotState struct {
	ri     int
	bank   int
	golden [resFields]uint32
}

// pending is one issued op awaiting its reply: what was asked, and the
// values the reply must carry — the golden copy as of send time. The
// server processes a connection's frames in order, so a read observes
// exactly the writes sent before it, whichever lane serves it.
type pending struct {
	at   time.Time
	op   plannedOp
	want [resFields]uint32
	n    int // values of want the reply must equal; -1 = reply not checked
}

// worker is the one load driver: it replays planned ops over the transport
// it holds — a direct connection with window requests in flight, or a
// routed session — keeping a golden copy of every record it owns and
// checking each read against it. With lax set, mismatches and per-op
// errors are counted instead of aborting: against a fault-injecting
// server, reads may legitimately observe corruption or its repair, and a
// failover may lose an acknowledgement that never reached the standby.
type worker struct {
	id     int
	addrs  []string
	lax    bool
	window int            // direct transport: requests in flight (<= 1 = synchronous)
	rt     *router.Router // non-nil selects the routed transport

	t    transport
	conn *wire.Conn     // t when direct; nil when routed (the Session owns its failover)
	pipe *wire.Pipeline // conn at window > 1
	fifo []pending      // mirrors pipe's in-flight window

	slots     []slotState
	done      atomic.Int64
	lats      [numOpKinds][]time.Duration
	phaseDone []int
	phaseEnd  []time.Duration
	Tally
	err error
}

// Tally is what a worker — or, summed, a whole load — counted besides
// latencies.
type Tally struct {
	Mismatches int
	// Stale counts routed reads that missed the golden copy. Only the
	// worker writes its records and the session's lease token covers its
	// last acknowledged write, so that can only be a replica serving state
	// older than the lease floor (or a corrupt region) — a violation the
	// run fails on rather than a tolerated mismatch.
	Stale      int
	Reconnects int
	ProcCalls  int
	ProcAborts int // PECOS violations and faults (detected, nothing committed)
}

// open connects the transport and claims the worker's records.
func (w *worker) open(slots int) error {
	if err := w.connect(); err != nil {
		return err
	}
	for si := 0; si < slots; si++ {
		s, err := w.allocSeed((w.id + si) % callproc.ResourceBanks)
		if err != nil {
			return err
		}
		w.slots = append(w.slots, s)
	}
	return nil
}

// connect makes a fresh session the worker's transport: a routed one, or a
// direct one on the current primary.
func (w *worker) connect() error {
	if w.rt != nil {
		s, err := w.rt.NewSession()
		if err == nil {
			w.t = s
		}
		return err
	}
	c, err := DialPrimary(w.addrs)
	if err != nil {
		return err
	}
	if _, err := c.Init(); err != nil {
		c.Close()
		return fmt.Errorf("DBinit: %w", err)
	}
	w.t, w.conn, w.pipe = c, c, nil
	if w.window > 1 {
		w.pipe = c.Pipeline(w.window)
	}
	return nil
}

// close releases the records and the session. After a failed run the
// server may be gone, so only a clean worker tears down politely.
func (w *worker) close() error {
	if w.t == nil {
		return nil
	}
	var first error
	if w.err == nil {
		for _, s := range w.slots {
			if _, err := w.request(wire.Request{Op: wire.OpFree, Table: callproc.TblRes, Record: int32(s.ri)}); err != nil && first == nil {
				first = fmt.Errorf("DBfree: %w", err)
			}
		}
		if w.conn != nil { // a Session closes its own
			if _, err := w.request(wire.Request{Op: wire.OpClose}); err != nil && first == nil {
				first = fmt.Errorf("DBclose: %w", err)
			}
		}
	}
	w.t.Close()
	w.t = nil
	return first
}

// call runs op under the retry ladder: lock contention inside, failover
// outside. A failover-class error on a direct connection re-resolves the
// primary (a promoted standby) and retries the same operation there until
// the failover window closes.
func (w *worker) call(op func() error) error {
	start := time.Now()
	for {
		err := op()
		switch {
		case err == nil:
			return nil
		case errors.Is(err, memdb.ErrLocked) && time.Since(start) < lockRetryWindow:
			time.Sleep(lockRetryBackoff)
		case w.conn != nil && router.IsFailoverErr(err) && time.Since(start) < failoverWindow:
			if rerr := w.reconnect(start.Add(failoverWindow)); rerr != nil {
				return fmt.Errorf("%w (reconnect: %v)", err, rerr)
			}
		default:
			return err
		}
	}
}

// reconnect replaces the direct connection with a fresh session on the
// current primary, polling the address list until the deadline.
func (w *worker) reconnect(deadline time.Time) error {
	w.conn.Close()
	for {
		err := w.connect()
		if err == nil {
			w.Reconnects++
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(reconnectPoll)
	}
}

// request is one round trip under the retry ladder, with the reply code
// folded into the error.
func (w *worker) request(q wire.Request) (vals []uint32, err error) {
	err = w.call(func() error {
		r, err := w.t.Call(q)
		if err == nil {
			err = r.Err()
		}
		vals = r.Vals
		return err
	})
	return vals, err
}

// allocSeed allocates one Resource record in bank and seeds it and its
// golden copy.
func (w *worker) allocSeed(bank int) (slotState, error) {
	vals, err := w.request(wire.Request{Op: wire.OpAlloc, Table: callproc.TblRes, Aux: int32(bank)})
	if err == nil && len(vals) != 1 {
		err = fmt.Errorf("%w: reply carries %d values", wire.ErrBadFrame, len(vals))
	}
	if err != nil {
		return slotState{}, fmt.Errorf("DBalloc: %w", err)
	}
	s := slotState{ri: int(vals[0]), bank: bank, golden: [resFields]uint32{vals[0], 1, 50}}
	if _, err := w.request(wire.Request{Op: wire.OpWriteRec, Table: callproc.TblRes, Record: int32(s.ri), Vals: s.golden[:]}); err != nil {
		return slotState{}, fmt.Errorf("DBwrite_rec: %w", err)
	}
	return s, nil
}

// exec issues one planned op. Every value written stays inside the ranges
// the audit checks enforce, so a strict run must end sweep-clean. The slot
// bookkeeping moves at send time, which is what lets reads ride a
// pipelined window behind the writes they must observe.
func (w *worker) exec(op plannedOp) error {
	s := &w.slots[op.Slot]
	pd := pending{at: time.Now(), op: op, n: -1}
	q := wire.Request{Table: callproc.TblRes, Record: int32(s.ri)}
	// steps is set by the kinds that are several dependent round trips.
	var steps func() ([]uint32, error)
	switch op.Kind {
	case OpReadRec:
		q.Op = wire.OpReadRec
		pd.n = copy(pd.want[:], s.golden[:])
	case OpReadFld:
		q.Op, q.Field = wire.OpReadFld, fldQuality
		pd.want[0], pd.n = s.golden[fldQuality], 1
	case OpWriteRec:
		s.golden = [resFields]uint32{uint32(s.ri), uint32(op.Arg), op.Val}
		q.Op, q.Vals = wire.OpWriteRec, s.golden[:]
	case OpWriteFld:
		s.golden[fldQuality] = op.Val
		q.Op, q.Field, q.Vals = wire.OpWriteFld, fldQuality, s.golden[fldQuality:fldQuality+1]
	case OpMove:
		s.bank = (s.bank + op.Arg) % callproc.ResourceBanks
		q.Op, q.Aux = wire.OpMove, int32(s.bank)
	case OpStatus:
		q.Op = wire.OpStatus
	case OpChurn:
		// Deregistration/re-registration: release the record and claim a
		// fresh one in another bank, like a subscriber roaming between
		// logical groups.
		steps = func() ([]uint32, error) {
			q.Op = wire.OpFree
			if _, err := w.request(q); err != nil {
				return nil, err
			}
			ns, err := w.allocSeed((s.bank + op.Arg) % callproc.ResourceBanks)
			if err == nil {
				*s = ns
			}
			return nil, err
		}
	case OpProc:
		// res_touch is a verified write through the staged-commit engine,
		// folded into the golden copy; a nonzero Arg asks for a res_scan
		// over the record instead.
		steps = func() ([]uint32, error) {
			w.ProcCalls++
			q = wire.Request{Op: wire.OpProcExec, Detail: "res_touch", Vals: []uint32{uint32(s.ri), op.Val}}
			if op.Arg != 0 {
				q.Detail, q.Vals[1] = "res_scan", 1
			}
			vals, err := w.request(q)
			switch {
			case errors.Is(err, wire.ErrProcViolation) || errors.Is(err, wire.ErrProcFault):
				// A DETECTED abort: nothing committed, the registry reloads
				// server-side. That is the mechanism working, not a failure.
				w.ProcAborts++
				return nil, nil
			case err == nil && op.Arg == 0:
				s.golden[fldQuality] = op.Val
				pd.want[0], pd.want[1], pd.n = op.Val, uint32(s.ri), 2
			}
			return vals, err
		}
	case OpTxn:
		// The Begin waits out a contended table lock under the ladder.
		steps = func() ([]uint32, error) {
			s.golden[fldQuality] = op.Val
			q.Op, q.Field, q.Vals = wire.OpWriteFld, fldQuality, s.golden[fldQuality:fldQuality+1]
			for _, q := range []wire.Request{{Op: wire.OpBegin, Table: callproc.TblRes}, q, {Op: wire.OpCommit}} {
				if _, err := w.request(q); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
	}
	switch {
	case steps != nil:
		// Runs synchronously, behind whatever is still in flight.
		if err := w.drain(0); err != nil {
			return err
		}
		vals, err := steps()
		return w.settle(pd, vals, err)
	case w.pipe == nil:
		vals, err := w.request(q)
		return w.settle(pd, vals, err)
	}
	// When the window fills, drain half of it so frames batch in both
	// directions rather than trickling one-in/one-out at the edge.
	if len(w.fifo) >= w.window {
		if err := w.drain(w.window / 2); err != nil {
			return err
		}
	}
	if _, err := w.pipe.Send(q); err != nil {
		return err
	}
	w.fifo = append(w.fifo, pd)
	return nil
}

// drain settles in-flight replies, oldest first, until at most keep remain.
func (w *worker) drain(keep int) error {
	n := 0
	for ; len(w.fifo)-n > keep; n++ {
		r, err := w.pipe.Recv()
		if err != nil {
			return err
		}
		if err := w.settle(w.fifo[n], r.Vals, r.Err()); err != nil {
			return err
		}
	}
	w.fifo = w.fifo[:copy(w.fifo, w.fifo[n:])]
	return nil
}

// settle closes out one op: its latency, its error, and the golden-copy
// check — the reply must carry exactly the values recorded at send time,
// so a short reply is a mismatch like any other.
func (w *worker) settle(pd pending, vals []uint32, err error) error {
	w.lats[pd.op.Kind] = append(w.lats[pd.op.Kind], time.Since(pd.at))
	w.done.Add(1)
	switch {
	case err == nil && (pd.n < 0 || slices.Equal(vals, pd.want[:pd.n])):
		return nil
	case err == nil && w.rt != nil:
		w.Stale++
		return nil
	case err == nil:
		err = fmt.Errorf("slot %d: got %v, golden %v", pd.op.Slot, vals, pd.want[:pd.n])
	}
	if !w.lax {
		return fmt.Errorf("%s: %w", pd.op.Kind, err)
	}
	// Count it and keep driving load. If audit recovery reclaimed the
	// record itself, re-seed the slot so the remaining ops still exercise
	// the server — except mid-window, where a round trip cannot interleave.
	w.Mismatches++
	if s := &w.slots[pd.op.Slot]; w.pipe == nil && errors.Is(err, memdb.ErrNotActive) {
		if ns, aerr := w.allocSeed(s.bank); aerr == nil {
			*s = ns
		}
	}
	return nil
}

// DialPrimary connects to the current primary. With a single address it
// connects straight to it, no role probe. With several it asks each node
// for its role via REPL_STATUS and keeps the first that claims primary, so
// after a failover the promoted standby is found on the next resolve.
func DialPrimary(addrs []string) (*wire.Conn, error) {
	lastErr := errors.New("wire: no reachable address")
	for _, a := range addrs {
		c, err := wire.Dial(a)
		if err == nil && len(addrs) > 1 {
			var st wire.ReplState
			if st, err = c.ReplStatus(); err == nil && st.Role != wire.RolePrimary {
				err = wire.ErrStandby
			}
			if err != nil {
				c.Close()
			}
		}
		if err == nil {
			return c, nil
		}
		lastErr = fmt.Errorf("%s: %w", a, err)
	}
	return nil, lastErr
}
