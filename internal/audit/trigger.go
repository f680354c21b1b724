package audit

import (
	"time"

	"repro/internal/ipc"
	"repro/internal/sim"
)

// SweepMode selects how the periodic audit element covers the database.
type SweepMode int

// Sweep modes.
const (
	// FullSweep audits every table (and whole-database checks) on each
	// period — the Table 2 configuration ("interval of periodic audit:
	// 10 seconds").
	FullSweep SweepMode = iota + 1
	// TableSlice audits one table per period, chosen by the scheduler —
	// the Table 5 configuration ("audit frequency: 1 table every 5
	// seconds") and the substrate for prioritized triggering.
	TableSlice
)

// DebtSink receives the periodic element's schedule accounting: sweep
// start/end and per-checker element completion. Implementations must be
// safe to call from the turn holder; the health plane's DebtMeter is
// the production sink.
type DebtSink interface {
	// SweepStart marks a sweep beginning with n checker elements due.
	SweepStart(n int)
	// ElementScheduled / ElementDone bracket one checker's element.
	ElementScheduled(name string)
	ElementDone(name string)
	// SweepEnd marks the sweep complete.
	SweepEnd()
}

// PeriodicElement runs the registered checkers on a fixed period (§4.3).
type PeriodicElement struct {
	checks    []Checker
	mode      SweepMode
	scheduler Scheduler
	period    time.Duration
	debt      DebtSink

	ctx    *Context
	ticker *sim.Ticker
	sweeps uint64
}

var _ Element = (*PeriodicElement)(nil)

// NewPeriodicElement builds a periodic audit trigger. For TableSlice mode a
// scheduler must be provided; FullSweep ignores it.
func NewPeriodicElement(period time.Duration, mode SweepMode, sched Scheduler, checks ...Checker) *PeriodicElement {
	return &PeriodicElement{
		checks:    checks,
		mode:      mode,
		scheduler: sched,
		period:    period,
	}
}

// SetDebt attaches a schedule-accounting sink (nil disables). Attach
// before Start; the same sink may be re-attached across manager restarts
// so accounting survives a heartbeat-driven rebuild.
func (e *PeriodicElement) SetDebt(d DebtSink) { e.debt = d }

// Name implements Element.
func (e *PeriodicElement) Name() string { return "periodic-audit" }

// Accepts implements Element: the periodic element is timer-driven only.
func (e *PeriodicElement) Accepts() []ipc.MsgKind { return nil }

// Handle implements Element (no messages are routed here).
func (e *PeriodicElement) Handle(ipc.Message) {}

// Start arms the periodic trigger.
func (e *PeriodicElement) Start(ctx *Context) {
	e.ctx = ctx
	t, err := ctx.Env.NewTicker(e.period, e.sweep)
	if err == nil {
		e.ticker = t
	}
}

// Stop disarms the trigger.
func (e *PeriodicElement) Stop() {
	if e.ticker != nil {
		e.ticker.Stop()
		e.ticker = nil
	}
}

// Sweeps reports how many audit passes have run.
func (e *PeriodicElement) Sweeps() uint64 { return e.sweeps }

func (e *PeriodicElement) sweep() {
	e.sweeps++
	if e.debt != nil {
		e.debt.SweepStart(len(e.checks))
		for _, c := range e.checks {
			e.debt.ElementScheduled(c.Name())
		}
	}
	var findings []Finding
	switch e.mode {
	case TableSlice:
		if e.scheduler == nil {
			break
		}
		ti := e.scheduler.Next()
		for _, c := range e.checks {
			findings = append(findings, c.CheckTable(ti)...)
			if e.debt != nil {
				e.debt.ElementDone(c.Name())
			}
		}
	default: // FullSweep
		for _, c := range e.checks {
			if fc, ok := c.(FullChecker); ok {
				findings = append(findings, fc.CheckAll()...)
			} else {
				for ti := 0; ti < tableCount(e.ctx.DB); ti++ {
					findings = append(findings, c.CheckTable(ti)...)
				}
			}
			if e.debt != nil {
				e.debt.ElementDone(c.Name())
			}
		}
		e.ctx.DB.EndAuditCycle()
	}
	if e.debt != nil {
		e.debt.SweepEnd()
	}
	e.ctx.Stats.Add(findings)
}

// RecordChecker is implemented by checkers that can audit a single record —
// the unit of work for event-triggered audits.
type RecordChecker interface {
	CheckRecord(table, record int) []Finding
}

// EventElement is the event-triggered audit (§4.3): the database API posts
// a message after each write, and the element immediately audits the
// written record. This trades the DBwrite_rec overhead of Figure 4 for
// minimal detection latency on freshly written data.
type EventElement struct {
	check RecordChecker
	ctx   *Context
	runs  uint64
}

var _ Element = (*EventElement)(nil)

// NewEventElement wraps a record-granular checker as an event trigger.
func NewEventElement(check RecordChecker) *EventElement {
	return &EventElement{check: check}
}

// Name implements Element.
func (e *EventElement) Name() string { return "event-audit" }

// Accepts implements Element: write notifications only.
func (e *EventElement) Accepts() []ipc.MsgKind { return []ipc.MsgKind{ipc.MsgDBWrite} }

// Handle audits the record named by the write notification.
func (e *EventElement) Handle(m ipc.Message) {
	if e.ctx == nil || m.Table < 0 || m.Record < 0 {
		return
	}
	e.runs++
	findings := e.check.CheckRecord(m.Table, m.Record)
	e.ctx.Stats.Add(findings)
}

// Start implements Element.
func (e *EventElement) Start(ctx *Context) { e.ctx = ctx }

// Stop implements Element.
func (e *EventElement) Stop() { e.ctx = nil }

// Runs reports how many event-triggered audits have executed.
func (e *EventElement) Runs() uint64 { return e.runs }
