// Package trace is the serving stack's flight recorder: fixed-capacity
// per-producer ring buffers of typed events with a global sequence, a
// monotonic timestamp, and drop accounting, merged on demand into one
// time-ordered journal.
//
// The paper's whole argument rests on explaining failures — which check
// caught an error, how long detection took, what recovery did — and the
// aggregate counters of internal/metrics cannot reconstruct that causal
// chain. The recorder retains the last N events per producer so that a
// PECOS violation, an audit finding, or a surprising injection-campaign
// number can be walked back through the exact request, shot, and recovery
// that produced it.
//
// Design constraints, in order:
//
//   - Emit never blocks and never allocates: each ring is a preallocated
//     event array guarded by one uncontended mutex; when the ring is full
//     the oldest event is overwritten and counted as a drop — evidence is
//     bounded, the hot path is not ("Auditing Frameworks Need Resource
//     Isolation" motivates bounded event production).
//   - One global atomic sequence across all rings gives the merge a total
//     order; timestamps are informative, the sequence is authoritative.
//   - Correlation is by trace ID: the server tags each request, the
//     injector tags each shot, and audit findings that cover an injected
//     offset inherit the shot's ID, so a journal joins request → audit →
//     recovery and shot → detection → recovery chains.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Kind is the event type.
type Kind uint8

// Event kinds. The serving plane emits the conn/req events, the audit
// layer the check/finding/recovery events, the manager the heartbeat-miss
// and restart events, PECOS the violation events, and the injectors the
// shot and outcome events.
const (
	// KindConnAccept: a connection was accepted (Aux = connection ID).
	KindConnAccept Kind = iota + 1
	// KindConnClose: a connection was torn down (Aux = connection ID).
	KindConnClose
	// KindReqEnqueue: a request asked for its region's turn (Op = opcode,
	// Trace = request trace ID, Aux = connection ID).
	KindReqEnqueue
	// KindReqExecute: the request got the turn and started (same Trace).
	KindReqExecute
	// KindReqReply: the reply was delivered (Code = response code,
	// Arg = latency ns from enqueue to reply).
	KindReqReply
	// KindReqDrop: the request was shed: too many were already waiting
	// for the turn.
	KindReqDrop
	// KindCheckStart: one audit technique began a pass (Op = check name).
	KindCheckStart
	// KindCheckEnd: the pass finished (Code = findings, Arg = runtime ns).
	KindCheckEnd
	// KindFinding: an audit produced a finding (Op = class, Code = action,
	// Arg = region offset, Aux = table; Trace joins the causing shot or
	// request when known).
	KindFinding
	// KindRecovery: the finding's recovery action was applied (Op =
	// action, same Trace as the finding).
	KindRecovery
	// KindHeartbeatMiss: the manager's heartbeat timed out.
	KindHeartbeatMiss
	// KindRestart: the manager restarted the audit process (Aux = ordinal).
	KindRestart
	// KindPECOS: a PECOS assertion fired — the offending signature pair is
	// (Arg = assertion PC, Aux = attempted target); Code = thread ID.
	KindPECOS
	// KindShot: one injected fault (Op = error model, Arg = target
	// address/offset, Trace = fresh shot ID).
	KindShot
	// KindOutcome: an injection run's Table 7 classification (Op =
	// outcome, Trace = the run's shot ID).
	KindOutcome
	// KindReplShip: the primary shipped a WAL batch to the standby
	// (Arg = record count, Aux = last sequence shipped, low bits).
	KindReplShip
	// KindReplApply: the standby applied a shipped batch (Arg = record
	// count, Aux = last applied sequence, low bits).
	KindReplApply
	// KindReplSnap: a bootstrap snapshot was taken or installed (Arg =
	// snapshot bytes, Aux = captured sequence, low bits).
	KindReplSnap
	// KindReplPromote: a standby promoted itself to primary (Detail =
	// reason).
	KindReplPromote
	// KindWALRecover: crash-restart replay finished (Arg = records
	// replayed, Aux = recovered sequence low bits, Code = 1 when a torn
	// tail was truncated).
	KindWALRecover
	// KindWALCheckpoint: a checkpoint was written (Aux = captured
	// sequence, low bits).
	KindWALCheckpoint
	// KindFastRead: a read served in the connection goroutine through the
	// memdb read view, sampled 1-in-N to keep the hot path cheap (Op =
	// opcode name, Code = response code, Arg = latency ns, Aux = conn ID).
	KindFastRead
	// KindBatchExec is reserved and no longer emitted: it marked a batch
	// drained by the request executor the server no longer has. The number
	// stays taken because TRACE filters kinds by number on the wire.
	KindBatchExec
	// KindProcLoad: the procedure registry loaded or reloaded a program
	// (Op "load"/"reload", Detail = procedure name, Code = version).
	KindProcLoad
	kindMax
)

// String returns the stable journal name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

var kindNames = [...]string{
	KindConnAccept:    "conn-accept",
	KindConnClose:     "conn-close",
	KindReqEnqueue:    "req-enqueue",
	KindReqExecute:    "req-execute",
	KindReqReply:      "req-reply",
	KindReqDrop:       "req-drop",
	KindCheckStart:    "check-start",
	KindCheckEnd:      "check-end",
	KindFinding:       "finding",
	KindRecovery:      "recovery",
	KindHeartbeatMiss: "heartbeat-miss",
	KindRestart:       "restart",
	KindPECOS:         "pecos-violation",
	KindShot:          "inject-shot",
	KindOutcome:       "run-outcome",
	KindReplShip:      "repl-ship",
	KindReplApply:     "repl-apply",
	KindReplSnap:      "repl-snap",
	KindReplPromote:   "repl-promote",
	KindWALRecover:    "wal-recover",
	KindWALCheckpoint: "wal-checkpoint",
	KindFastRead:      "fast-read",
	KindBatchExec:     "batch-exec",
	KindProcLoad:      "proc-load",
}

// Kinds lists every defined event kind, in declaration order.
func Kinds() []Kind {
	out := make([]Kind, 0, int(kindMax)-1)
	for k := Kind(1); k < kindMax; k++ {
		out = append(out, k)
	}
	return out
}

// KindFromString resolves a journal name back to its Kind; ok is false
// for unknown names.
func KindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n != "" && n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one recorded occurrence. The string fields must be
// pre-existing strings (opcode names, class names, already-built
// diagnostics): Emit stores them without copying, keeping the hot path
// allocation-free.
type Event struct {
	// Seq is the recorder-global sequence: the journal's total order.
	Seq uint64 `json:"seq"`
	// At is the recorder clock reading (default: wall time since the
	// recorder was built), in nanoseconds.
	At time.Duration `json:"at"`
	// Kind types the event.
	Kind Kind `json:"kind"`
	// Trace correlates related events (request chains, shot → finding →
	// recovery); zero means uncorrelated.
	Trace uint64 `json:"trace,omitempty"`
	// Ring names the producer ring the event was emitted on.
	Ring string `json:"ring,omitempty"`
	// Op is the kind-specific name: opcode, check, class, action, model.
	Op string `json:"op,omitempty"`
	// Code, Arg, Aux are kind-specific operands (see the Kind docs).
	Code int64 `json:"code,omitempty"`
	Arg  int64 `json:"arg,omitempty"`
	Aux  int64 `json:"aux,omitempty"`
	// Detail carries an optional diagnostic.
	Detail string `json:"detail,omitempty"`
}

// Recorder is a set of named rings sharing one sequence, one clock, and
// one trace-ID allocator.
type Recorder struct {
	epoch time.Time
	now   func() time.Duration
	seq   atomic.Uint64
	trace atomic.Uint64

	mu    sync.Mutex
	rings []*Ring
}

// Option configures a Recorder.
type Option func(*Recorder)

// WithNow substitutes the recorder clock (e.g. a simulation or VM-step
// clock). The function must be monotonic and safe from any goroutine.
func WithNow(now func() time.Duration) Option {
	return func(r *Recorder) { r.now = now }
}

// New builds a recorder; the default clock is wall time since New.
func New(opts ...Option) *Recorder {
	r := &Recorder{epoch: time.Now()}
	r.now = func() time.Duration { return time.Since(r.epoch) }
	for _, o := range opts {
		o(r)
	}
	return r
}

// DefaultRingSize is the per-ring event capacity used when Ring is given
// a non-positive size.
const DefaultRingSize = 4096

// Ring returns the named ring, creating it with the given capacity if
// needed (capacity is ignored for an existing ring; non-positive means
// DefaultRingSize).
func (r *Recorder) Ring(name string, capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.rings {
		if g.name == name {
			return g
		}
	}
	g := &Ring{name: name, rec: r, buf: make([]Event, capacity)}
	r.rings = append(r.rings, g)
	return g
}

// NextTrace allocates a fresh nonzero correlation ID.
func (r *Recorder) NextTrace() uint64 { return r.trace.Add(1) }

// Now returns the recorder clock reading — the same timebase Event.At
// carries — so a live consumer can relate retained events to the present.
func (r *Recorder) Now() time.Duration { return r.now() }

// Events reports the total number of events ever emitted.
func (r *Recorder) Events() uint64 { return r.seq.Load() }

// Snapshot merges every ring's retained events into one journal ordered
// by sequence number.
func (r *Recorder) Snapshot() []Event {
	r.mu.Lock()
	rings := make([]*Ring, len(r.rings))
	copy(rings, r.rings)
	r.mu.Unlock()
	var out []Event
	for _, g := range rings {
		out = g.snapshotInto(out)
	}
	sortBySeq(out)
	return out
}

// Drops reports, per ring, how many events have been overwritten before
// snapshot (evidence lost to the bounded buffers).
func (r *Recorder) Drops() map[string]uint64 {
	r.mu.Lock()
	rings := make([]*Ring, len(r.rings))
	copy(rings, r.rings)
	r.mu.Unlock()
	out := make(map[string]uint64, len(rings))
	for _, g := range rings {
		out[g.name] = g.Drops()
	}
	return out
}

// RegisterMetrics publishes the recorder's accounting into reg:
// "trace.events" (total emitted) and one "trace.<ring>.drops" gauge per
// ring existing at call time, so overflow is first-class telemetry.
func (r *Recorder) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("trace.events", func() int64 { return int64(r.Events()) })
	r.mu.Lock()
	rings := make([]*Ring, len(r.rings))
	copy(rings, r.rings)
	r.mu.Unlock()
	for _, g := range rings {
		g := g
		reg.GaugeFunc("trace."+g.name+".drops", func() int64 { return int64(g.Drops()) })
	}
}

// Ring is one producer's bounded event buffer. Emit is safe for
// concurrent use; when the ring is full the oldest event is overwritten
// (and counted as a drop) rather than blocking or growing.
type Ring struct {
	name string
	rec  *Recorder

	mu    sync.Mutex
	buf   []Event // fixed capacity, len(buf) slots
	next  uint64  // events ever emitted; buf[(next-1)%len] is newest
	drops uint64  // events overwritten after the ring first filled
}

// Name returns the ring name.
func (g *Ring) Name() string { return g.name }

// Cap returns the ring capacity.
func (g *Ring) Cap() int { return len(g.buf) }

// Emit records one event, filling Seq, At, and Ring. It never waits for a
// reader and never allocates: ev's string fields are stored as passed.
func (g *Ring) Emit(ev Event) {
	ev.Seq = g.rec.seq.Add(1)
	ev.At = g.rec.now()
	ev.Ring = g.name
	g.mu.Lock()
	if g.next >= uint64(len(g.buf)) {
		g.drops++
	}
	g.buf[g.next%uint64(len(g.buf))] = ev
	g.next++
	g.mu.Unlock()
}

// Drops reports how many events this ring has overwritten.
func (g *Ring) Drops() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.drops
}

// Len reports how many events the ring currently retains.
func (g *Ring) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.next < uint64(len(g.buf)) {
		return int(g.next)
	}
	return len(g.buf)
}

// snapshotInto appends the retained events, oldest first.
func (g *Ring) snapshotInto(dst []Event) []Event {
	g.mu.Lock()
	defer g.mu.Unlock()
	count := g.next
	if c := uint64(len(g.buf)); count > c {
		count = c
	}
	for i := g.next - count; i < g.next; i++ {
		dst = append(dst, g.buf[i%uint64(len(g.buf))])
	}
	return dst
}

// sortBySeq orders events by sequence number — the authoritative total
// order across rings (timestamps may jitter by nanoseconds between
// producers; sequence claims cannot).
func sortBySeq(evs []Event) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
}

// Filter returns the events of the given kind, preserving order; kind 0
// returns evs unchanged.
func Filter(evs []Event, kind Kind) []Event {
	if kind == 0 {
		return evs
	}
	out := make([]Event, 0, len(evs))
	for _, e := range evs {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Tail returns the last n events (all of them when n <= 0 or n exceeds
// the journal).
func Tail(evs []Event, n int) []Event {
	if n <= 0 || n >= len(evs) {
		return evs
	}
	return evs[len(evs)-n:]
}
