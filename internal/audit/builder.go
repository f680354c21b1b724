package audit

import (
	"time"

	"repro/internal/ipc"
	"repro/internal/memdb"
	"repro/internal/sim"
)

// Builder assembles the audit process of Figure 1: the heartbeat responder,
// the progress indicator and the periodic audit, then the event-triggered
// audit and the selective monitors when they are configured. Its Build
// method is the manager's factory, invoked at start and after every restart;
// the checkers and monitors are built once by the caller and shared by every
// process Build returns, so a restart never rebuilds one.
type Builder struct {
	Env *sim.Env
	DB  *memdb.DB
	// Period is the periodic audit's trigger interval.
	Period time.Duration
	// Sched, when set, makes the periodic audit cover one table per period
	// (TableSlice) in the order it chooses; nil sweeps every table (FullSweep).
	Sched Scheduler
	// Checks are the periodic audit's techniques, run in order.
	Checks []Checker
	// Debt, when set, receives the periodic audit's schedule accounting.
	Debt DebtSink
	// Recovery is the progress indicator's recovery action.
	Recovery Recovery
	// Event, when set, audits each record right after it is written.
	Event RecordChecker
	// Monitors, when non-empty, run every MonitorPeriod; the tables their
	// suspects implicate are audited at once by Escalate, when it is set.
	Monitors      []*SelectiveMonitor
	MonitorPeriod time.Duration
	Escalate      Checker

	// The elements of the most recently built process, retained for
	// callers that publish their counters.
	Heartbeat *HeartbeatElement
	Progress  *ProgressElement
	Periodic  *PeriodicElement
}

// Build returns a fresh, unstarted audit process attached to queue.
func (b *Builder) Build(queue *ipc.Queue) (*Process, error) {
	p := NewProcess(b.Env, b.DB, queue)
	mode := FullSweep
	if b.Sched != nil {
		mode = TableSlice
	}
	hb, prog := NewHeartbeatElement(), NewProgressElement(b.Recovery)
	per := NewPeriodicElement(b.Period, mode, b.Sched, b.Checks...)
	if b.Debt != nil {
		// Re-attached on every build, so schedule accounting survives a
		// heartbeat-driven restart.
		per.SetDebt(b.Debt)
	}
	elements := []Element{hb, prog, per}
	if b.Event != nil {
		elements = append(elements, NewEventElement(b.Event))
	}
	if len(b.Monitors) > 0 {
		var escalate func([]Finding)
		if b.Escalate != nil {
			escalate = func(suspects []Finding) {
				// Suspects are "further checked by other means" (§4.4.2):
				// audit each implicated table now.
				seen := make(map[int]bool)
				for _, s := range suspects {
					if s.Table >= 0 && !seen[s.Table] {
						seen[s.Table] = true
						p.Stats().Add(b.Escalate.CheckTable(s.Table))
					}
				}
			}
		}
		elements = append(elements, NewSelectiveElement(b.MonitorPeriod, escalate, b.Monitors...))
	}
	for _, el := range elements {
		if err := p.Register(el); err != nil {
			return nil, err
		}
	}
	b.Heartbeat, b.Progress, b.Periodic = hb, prog, per
	return p, nil
}
