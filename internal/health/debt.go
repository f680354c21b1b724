package health

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// DebtMeter is audit-debt accounting, published from the audit
// scheduler's periodic element: scheduled-vs-completed sweeps, per-
// checker element counts, sweep-interval overruns, and a behind-schedule
// gauge derived from wall time against the declared period. It
// implements the audit package's DebtSink hook interface.
//
// The schedule model: the first SweepStart anchors the cadence; by wall
// time t the scheduler owes floor((t-anchor)/period)+1 completed sweeps.
// Behind() is that expectation minus completions, clamped at zero — a
// saturated executor whose sim clock lags wall time shows up here as
// accumulating debt, and the catch-up sweeps drain it.
type DebtMeter struct {
	period time.Duration
	nowFn  func() time.Time // test seam; time.Now in production

	mu            sync.Mutex
	anchor        time.Time
	lastStart     time.Time
	sweepsStarted uint64
	sweepsDone    uint64
	elemScheduled uint64
	elemDone      uint64
	overruns      uint64
	lastGap       time.Duration
	maxBehind     int64
	elements      map[string]*elemDebt
}

type elemDebt struct {
	scheduled uint64
	done      uint64
}

// NewDebtMeter builds a meter for a periodic audit schedule.
func NewDebtMeter(period time.Duration) *DebtMeter {
	if period <= 0 {
		period = time.Second
	}
	return &DebtMeter{
		period:   period,
		nowFn:    time.Now,
		elements: make(map[string]*elemDebt, 8),
	}
}

// SweepStart marks a periodic sweep beginning with n checker elements
// scheduled.
func (m *DebtMeter) SweepStart(n int) {
	now := m.nowFn()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.anchor.IsZero() {
		m.anchor = now
	}
	if !m.lastStart.IsZero() {
		gap := now.Sub(m.lastStart)
		m.lastGap = gap
		if gap > m.period+m.period/2 {
			m.overruns++
		}
	}
	m.lastStart = now
	m.sweepsStarted++
	m.elemScheduled += uint64(n)
	if b := m.behindLocked(now); b > m.maxBehind {
		m.maxBehind = b
	}
}

// ElementDone marks one checker element finished within the current
// sweep.
func (m *DebtMeter) ElementDone(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.elemDone++
	e := m.elements[name]
	if e == nil {
		e = &elemDebt{}
		m.elements[name] = e
	}
	e.done++
}

// ElementScheduled marks one checker element scheduled (called per
// element at sweep start, so a mid-sweep stall is visible per checker).
func (m *DebtMeter) ElementScheduled(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.elements[name]
	if e == nil {
		e = &elemDebt{}
		m.elements[name] = e
	}
	e.scheduled++
}

// SweepEnd marks the sweep complete.
func (m *DebtMeter) SweepEnd() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepsDone++
}

// Behind reports how many sweeps the schedule currently owes.
func (m *DebtMeter) Behind() int64 {
	now := m.nowFn()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.behindLocked(now)
}

func (m *DebtMeter) behindLocked(now time.Time) int64 {
	if m.anchor.IsZero() {
		return 0
	}
	expected := int64(now.Sub(m.anchor)/m.period) + 1
	b := expected - int64(m.sweepsDone)
	if b < 0 {
		b = 0
	}
	return b
}

// DebtStatus is the meter's exported view, part of the Status document.
type DebtStatus struct {
	PeriodMs          float64             `json:"period_ms"`
	SweepsStarted     uint64              `json:"sweeps_started"`
	SweepsCompleted   uint64              `json:"sweeps_completed"`
	Behind            int64               `json:"behind"`
	MaxBehind         int64               `json:"max_behind"`
	IntervalOverruns  uint64              `json:"interval_overruns"`
	LastGapMs         float64             `json:"last_gap_ms"`
	ElementsScheduled uint64              `json:"elements_scheduled"`
	ElementsCompleted uint64              `json:"elements_completed"`
	Elements          map[string]ElemDebt `json:"elements,omitempty"`
}

// ElemDebt is one checker's scheduled-vs-completed tally.
type ElemDebt struct {
	Scheduled uint64 `json:"scheduled"`
	Completed uint64 `json:"completed"`
}

// Status captures the meter.
func (m *DebtMeter) Status() *DebtStatus {
	now := m.nowFn()
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &DebtStatus{
		PeriodMs:          float64(m.period) / float64(time.Millisecond),
		SweepsStarted:     m.sweepsStarted,
		SweepsCompleted:   m.sweepsDone,
		Behind:            m.behindLocked(now),
		MaxBehind:         m.maxBehind,
		IntervalOverruns:  m.overruns,
		LastGapMs:         float64(m.lastGap) / float64(time.Millisecond),
		ElementsScheduled: m.elemScheduled,
		ElementsCompleted: m.elemDone,
	}
	if len(m.elements) > 0 {
		s.Elements = make(map[string]ElemDebt, len(m.elements))
		for n, e := range m.elements {
			s.Elements[n] = ElemDebt{Scheduled: e.scheduled, Completed: e.done}
		}
	}
	return s
}

// Register publishes the meter's gauges.
func (m *DebtMeter) Register(reg *metrics.Registry) {
	reg.GaugeFunc("audit.debt.behind", m.Behind)
	reg.GaugeFunc("audit.debt.max_behind", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.maxBehind
	})
	reg.GaugeFunc("audit.debt.overruns", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.overruns)
	})
	reg.GaugeFunc("audit.debt.sweeps_started", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.sweepsStarted)
	})
	reg.GaugeFunc("audit.debt.sweeps_completed", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.sweepsDone)
	})
	reg.GaugeFunc("audit.debt.elements_scheduled", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.elemScheduled)
	})
	reg.GaugeFunc("audit.debt.elements_completed", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.elemDone)
	})
	reg.GaugeFunc("audit.debt.last_gap_ms", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.lastGap / time.Millisecond)
	})
}
