// Package core assembles the paper's integrated dependability framework
// (Figure 1): the in-memory database with its audit-notification hook, the
// audit process with its elements (heartbeat, progress indicator, periodic
// and event-triggered audits over the static/structural/range/semantic
// checks, optional prioritized triggering and selective monitoring), and
// the manager that supervises the audit process by heartbeat — all running
// on one deterministic simulation environment.
//
// Client-side protection (PECOS) lives in internal/pecos and internal/vm;
// the error-injection campaigns that exercise both halves together are in
// internal/inject and internal/experiment.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/ipc"
	"repro/internal/manager"
	"repro/internal/memdb"
	"repro/internal/sim"
)

// TriggerMode selects how the periodic audit element covers the database.
type TriggerMode int

// Trigger modes.
const (
	// FullSweepPeriodic audits every table each period (Table 2 setup).
	FullSweepPeriodic TriggerMode = iota + 1
	// SlicedRoundRobin audits one table per period in fixed order — the
	// unprioritized baseline of §5.3.
	SlicedRoundRobin
	// SlicedPrioritized audits one table per period chosen by runtime
	// statistics — §4.4.1 prioritized audit triggering.
	SlicedPrioritized
)

// Config parameterizes a Framework.
type Config struct {
	// Seed drives every random stream in the environment.
	Seed int64
	// Schema is the controller database definition.
	Schema memdb.Schema
	// Loops are the semantic referential-integrity loops to audit.
	Loops []audit.Loop
	// AuditPeriod is the periodic trigger interval (Table 2: 10 s; the
	// §5.3 slice experiments use one table every 5 s).
	AuditPeriod time.Duration
	// Trigger selects the coverage mode.
	Trigger TriggerMode
	// EventTriggered additionally audits each record right after it is
	// written (§4.3).
	EventTriggered bool
	// Nature weights tables for prioritized triggering (importance by
	// the nature of the object); may be nil.
	Nature []float64
	// SemanticGrace is the orphan-reclamation grace age.
	SemanticGrace time.Duration
	// Monitors lists (table, field) attributes to watch with §4.4.2
	// selective monitoring; suspects escalate to an immediate semantic
	// audit of the implicated table.
	Monitors [][2]int
	// MonitorPeriod is the selective monitors' scan period (defaults to
	// 4 × AuditPeriod).
	MonitorPeriod time.Duration
	// QueueCapacity bounds the API→audit IPC queue.
	QueueCapacity int
	// HeartbeatPeriod/HeartbeatTimeout configure the manager.
	HeartbeatPeriod  time.Duration
	HeartbeatTimeout time.Duration
	// DisableFreeRecordCheck turns off the robust-data-structure rule
	// over free records (used by ablations).
	DisableFreeRecordCheck bool
}

// DefaultConfig returns the paper's Table 2 configuration over the given
// schema and loops.
func DefaultConfig(schema memdb.Schema, loops ...audit.Loop) Config {
	return Config{
		Seed:             1,
		Schema:           schema,
		Loops:            loops,
		AuditPeriod:      10 * time.Second,
		Trigger:          FullSweepPeriodic,
		EventTriggered:   false,
		SemanticGrace:    2 * time.Second,
		QueueCapacity:    1 << 16,
		HeartbeatPeriod:  5 * time.Second,
		HeartbeatTimeout: 2 * time.Second,
	}
}

// Framework is the assembled dependability environment.
type Framework struct {
	cfg     Config
	env     *sim.Env
	db      *memdb.DB
	queue   *ipc.Queue
	manager *manager.Manager
	sched   audit.Scheduler
	// static holds the golden checksums, captured once in New while the
	// region is known-good. Every audit process the manager builds shares
	// it, so a restart cannot adopt damaged static data as golden.
	static *audit.StaticCheck

	terminate func(pid int)
	onFinding func(audit.Finding)
	started   bool
}

// New builds (but does not start) the framework.
func New(cfg Config) (*Framework, error) {
	if cfg.AuditPeriod <= 0 {
		return nil, errors.New("core: AuditPeriod must be positive")
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 1 << 16
	}
	env := sim.NewEnv(cfg.Seed)
	db, err := memdb.New(cfg.Schema, memdb.WithClock(env.Now))
	if err != nil {
		return nil, fmt.Errorf("core: build database: %w", err)
	}
	queue, err := ipc.NewQueue(cfg.QueueCapacity)
	if err != nil {
		return nil, fmt.Errorf("core: build queue: %w", err)
	}
	db.EnableAudit(queue)

	f := &Framework{cfg: cfg, env: env, db: db, queue: queue}
	f.static = audit.NewStaticCheck(db, f.recovery())

	switch cfg.Trigger {
	case SlicedRoundRobin:
		f.sched = audit.NewRoundRobin(len(cfg.Schema.Tables))
	case SlicedPrioritized:
		p := audit.NewPrioritized(db)
		copy(p.Nature, cfg.Nature)
		f.sched = p
	}

	mgr := manager.New(env, queue, f.buildAuditProcess,
		manager.WithHeartbeat(orDefault(cfg.HeartbeatPeriod, 5*time.Second),
			orDefault(cfg.HeartbeatTimeout, 2*time.Second)))
	f.manager = mgr
	return f, nil
}

func orDefault(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

// recovery wires the audit recovery actions to the terminator and finding
// observer, read at call time so both stay settable after Start.
func (f *Framework) recovery() audit.Recovery {
	return audit.Recovery{
		TerminateClient: func(pid int) {
			if f.terminate != nil {
				f.terminate(pid)
			}
		},
		OnFinding: func(fd audit.Finding) {
			if f.onFinding != nil {
				f.onFinding(fd)
			}
		},
	}
}

// buildAuditProcess is the manager's factory: a fresh audit process with
// the full element set over the shared static check. Called at start and
// after every restart.
func (f *Framework) buildAuditProcess(queue *ipc.Queue) (*audit.Process, error) {
	rec := f.recovery()
	sem, err := audit.NewSemanticCheck(f.db, rec, f.env.Now, f.cfg.Loops...)
	if err != nil {
		return nil, err
	}
	if f.cfg.SemanticGrace > 0 {
		sem.GraceAge = f.cfg.SemanticGrace
	}
	rangeCheck := audit.NewRangeCheck(f.db, rec)
	if f.cfg.DisableFreeRecordCheck {
		rangeCheck.CheckFreeRecords = false
	}
	checks := []audit.Checker{
		f.static,
		audit.NewStructuralCheck(f.db, rec),
		rangeCheck,
		sem,
	}
	mode := audit.FullSweep
	if f.cfg.Trigger == SlicedRoundRobin || f.cfg.Trigger == SlicedPrioritized {
		mode = audit.TableSlice
	}
	proc := audit.NewProcess(f.env, f.db, queue)
	elements := []audit.Element{
		audit.NewHeartbeatElement(),
		audit.NewProgressElement(rec),
		audit.NewPeriodicElement(f.cfg.AuditPeriod, mode, f.sched, checks...),
	}
	if f.cfg.EventTriggered {
		elements = append(elements, audit.NewEventElement(rangeCheck))
	}
	if len(f.cfg.Monitors) > 0 {
		monitors := make([]*audit.SelectiveMonitor, 0, len(f.cfg.Monitors))
		for _, m := range f.cfg.Monitors {
			mon, err := audit.NewSelectiveMonitor(f.db, m[0], m[1])
			if err != nil {
				return nil, err
			}
			monitors = append(monitors, mon)
		}
		period := f.cfg.MonitorPeriod
		if period <= 0 {
			period = 4 * f.cfg.AuditPeriod
		}
		escalate := func(suspects []audit.Finding) {
			// Suspects are "further checked by other means" (§4.4.2):
			// run the semantic audit over the implicated tables now.
			seen := make(map[int]bool)
			for _, s := range suspects {
				if s.Table >= 0 && !seen[s.Table] {
					seen[s.Table] = true
					proc.Stats().Add(sem.CheckTable(s.Table))
				}
			}
		}
		elements = append(elements, audit.NewSelectiveElement(period, escalate, monitors...))
	}
	for _, el := range elements {
		if err := proc.Register(el); err != nil {
			return nil, err
		}
	}
	return proc, nil
}

// Env returns the simulation environment.
func (f *Framework) Env() *sim.Env { return f.env }

// DB returns the protected database.
func (f *Framework) DB() *memdb.DB { return f.db }

// Queue returns the API→audit IPC queue.
func (f *Framework) Queue() *ipc.Queue { return f.queue }

// Manager returns the supervising manager.
func (f *Framework) Manager() *manager.Manager { return f.manager }

// AuditProcess returns the currently running audit process.
func (f *Framework) AuditProcess() *audit.Process { return f.manager.Process() }

// SetTerminator wires the recovery action that kills a client thread by
// PID (typically callproc.Workload.TerminateThread). Settable before or
// after Start.
func (f *Framework) SetTerminator(fn func(pid int)) { f.terminate = fn }

// SetFindingObserver wires an observer for every audit finding.
func (f *Framework) SetFindingObserver(fn func(audit.Finding)) { f.onFinding = fn }

// Start launches the manager (which starts the audit process).
func (f *Framework) Start() error {
	if f.started {
		return errors.New("core: already started")
	}
	if err := f.manager.Start(); err != nil {
		return err
	}
	f.started = true
	return nil
}

// Stop halts supervision and the audit process.
func (f *Framework) Stop() {
	if !f.started {
		return
	}
	f.manager.Stop()
	f.started = false
}

// Run advances the environment by the given horizon.
func (f *Framework) Run(horizon time.Duration) error {
	return f.env.Run(horizon)
}
