package health

import (
	"sync"
	"sync/atomic"
	"time"
)

// The evaluator's windowing.
const (
	// errorBudget is the fraction of evaluation samples allowed to violate
	// an objective before its error budget burns at rate 1.
	errorBudget = 0.1
	// shortWindow and longWindow are the burn-rate windows.
	shortWindow = 10 * time.Second
	longWindow  = 60 * time.Second
	// evalPeriod is the minimum spacing between evaluation samples.
	evalPeriod = 250 * time.Millisecond
	// degradeBurn and critBurn are the burn-rate thresholds: DEGRADED when
	// the short window burns >= degradeBurn; CRITICAL when the short
	// window burns >= critBurn while the long window also burns >=
	// degradeBurn.
	degradeBurn = 1
	critBurn    = 2
	// recoverStreak is how many consecutive cleaner evaluations a state
	// needs before stepping one level toward OK (degrading is always
	// immediate).
	recoverStreak = 4
	// minSamples is how many samples a burn window needs before it reports
	// a nonzero burn, so a single early violation cannot page.
	minSamples = 8
)

// windowing is the evaluator's sampling and burn-rate windowing. NewEvaluator
// sets it from the constants above; the package's tests swap in shorter
// windows before declaring objectives.
type windowing struct {
	period, short, long time.Duration
	budget              float64
	recoverStreak       int
	minSamples          int
}

// Objective is one declarative SLO: a measured value and the bound it must
// stay within.
type Objective struct {
	// Name identifies the objective ("detect-p99", "shed-rate", ...).
	Name string
	// Subsystem groups objectives for the per-subsystem state machine
	// ("audit", "serving", "replication").
	Subsystem string
	// Value returns the current measurement at recorder time now. It is
	// called under the evaluator lock on each tick and may take locks of
	// its own.
	Value func(now time.Duration) float64
	// Bound is the SLO threshold: a sample with Value > Bound violates.
	Bound float64
}

// evalSample is one windowed evaluation outcome.
type evalSample struct {
	at  time.Duration
	bad bool
}

// objState carries one objective's sample window and state machine.
type objState struct {
	o      Objective
	ring   []evalSample
	next   int
	filled bool

	state  State
	streak int // consecutive evaluations at a better raw level

	lastValue  float64
	shortBurn  float64
	longBurn   float64
	violations uint64
}

// Evaluator runs the declared objectives through multi-window error-
// budget burn rates and a per-subsystem OK/DEGRADED/CRITICAL state
// machine with hysteresis. All methods are safe from any goroutine.
type Evaluator struct {
	win     windowing
	now     func() time.Duration
	overall atomic.Int32

	mu       sync.Mutex
	objs     []*objState
	subs     []string // subsystem order of first appearance
	subState map[string]*atomic.Int32
	lastTick time.Duration
	ticked   bool
}

// NewEvaluator builds an evaluator on the given clock.
func NewEvaluator(now func() time.Duration) *Evaluator {
	return &Evaluator{
		win: windowing{
			period: evalPeriod, short: shortWindow, long: longWindow,
			budget: errorBudget, recoverStreak: recoverStreak, minSamples: minSamples,
		},
		now:      now,
		subState: make(map[string]*atomic.Int32, 4),
	}
}

// Add declares an objective. Wire all objectives before evaluation
// starts.
func (e *Evaluator) Add(o Objective) {
	ringCap := int(e.win.long/e.win.period) + 8
	if ringCap < 16 {
		ringCap = 16
	}
	if ringCap > 4096 {
		ringCap = 4096
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.objs = append(e.objs, &objState{o: o, ring: make([]evalSample, ringCap)})
	if _, ok := e.subState[o.Subsystem]; !ok {
		e.subs = append(e.subs, o.Subsystem)
		e.subState[o.Subsystem] = &atomic.Int32{}
	}
}

// Tick evaluates every objective once, if at least the evaluation period
// has passed since the previous evaluation.
func (e *Evaluator) Tick() {
	now := e.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ticked && now-e.lastTick < e.win.period {
		return
	}
	e.tickLocked(now)
}

func (e *Evaluator) tickLocked(now time.Duration) {
	e.ticked = true
	e.lastTick = now
	worstAll := OK
	worstSub := make(map[string]State, len(e.subs))
	for _, s := range e.objs {
		v := s.o.Value(now)
		bad := v > s.o.Bound
		s.lastValue = v
		if bad {
			s.violations++
		}
		s.ring[s.next] = evalSample{at: now, bad: bad}
		s.next++
		if s.next == len(s.ring) {
			s.next = 0
			s.filled = true
		}
		s.shortBurn = s.burn(now, e.win.short, &e.win)
		s.longBurn = s.burn(now, e.win.long, &e.win)

		raw := OK
		if s.shortBurn >= degradeBurn {
			raw = Degraded
		}
		if s.shortBurn >= critBurn && s.longBurn >= degradeBurn {
			raw = Critical
		}
		// Hysteresis: degrade immediately, recover one level at a time
		// only after recoverStreak consecutive cleaner evaluations. A
		// value flapping across its bound keeps resetting the streak and
		// the state holds.
		if raw >= s.state {
			s.state = raw
			s.streak = 0
		} else {
			s.streak++
			if s.streak >= e.win.recoverStreak {
				s.state--
				s.streak = 0
			}
		}

		if s.state > worstSub[s.o.Subsystem] {
			worstSub[s.o.Subsystem] = s.state
		}
		if s.state > worstAll {
			worstAll = s.state
		}
	}
	for name, st := range e.subState {
		st.Store(int32(worstSub[name]))
	}
	e.overall.Store(int32(worstAll))
}

// burn computes the error-budget burn rate over the window ending now:
// the violating fraction of in-window samples divided by the error budget.
// Fewer than the minimum in-window samples report zero, so one early
// violation cannot page before the window has meaning.
func (s *objState) burn(now, window time.Duration, w *windowing) float64 {
	n := s.next
	if s.filled {
		n = len(s.ring)
	}
	total, bad := 0, 0
	for i := 0; i < n; i++ {
		if sm := s.ring[i]; now-sm.at <= window {
			total++
			if sm.bad {
				bad++
			}
		}
	}
	if total < w.minSamples {
		return 0
	}
	return float64(bad) / float64(total) / w.budget
}

// State returns the overall state from the latest evaluation. Lock-free.
func (e *Evaluator) State() State { return State(e.overall.Load()) }

// SubsystemState returns one subsystem's state from the latest
// evaluation. Lock-free; unknown names report OK.
func (e *Evaluator) SubsystemState(name string) State {
	e.mu.Lock()
	st := e.subState[name]
	e.mu.Unlock()
	if st == nil {
		return OK
	}
	return State(st.Load())
}

// Subsystems lists the declared subsystems in order of first appearance.
func (e *Evaluator) Subsystems() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.subs...)
}

// snapshot renders the per-subsystem view, self-ticking first when the
// last evaluation is stale (a wedged executor must not freeze /healthz).
func (e *Evaluator) snapshot() []Subsystem {
	now := e.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.ticked || now-e.lastTick >= e.win.period {
		e.tickLocked(now)
	}
	out := make([]Subsystem, 0, len(e.subs))
	for _, name := range e.subs {
		sub := Subsystem{Name: name, State: State(e.subState[name].Load())}
		for _, s := range e.objs {
			if s.o.Subsystem != name {
				continue
			}
			sub.Objectives = append(sub.Objectives, ObjectiveStatus{
				Name:       s.o.Name,
				State:      s.state,
				Value:      s.lastValue,
				Bound:      s.o.Bound,
				ShortBurn:  s.shortBurn,
				LongBurn:   s.longBurn,
				Violations: s.violations,
			})
		}
		out = append(out, sub)
	}
	return out
}
