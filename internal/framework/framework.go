// Package framework assembles the paper's integrated dependability framework
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
package framework

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
}

// queueCapacity bounds the API→audit IPC queue.
const queueCapacity = 1 << 16

// DefaultConfig returns the paper's Table 2 configuration over the given
// schema and loops.
func DefaultConfig(schema memdb.Schema, loops ...audit.Loop) Config {
	return Config{
		Seed:           1,
		Schema:         schema,
		Loops:          loops,
		AuditPeriod:    10 * time.Second,
		Trigger:        FullSweepPeriodic,
		EventTriggered: false,
		SemanticGrace:  2 * time.Second,
	}
}

// Framework is the assembled dependability environment.
type Framework struct {
	env     *sim.Env
	db      *memdb.DB
	manager *manager.Manager

	terminate func(pid int)
	onFinding func(audit.Finding)
	started   bool
}

// New builds (but does not start) the framework. Every checker and monitor
// is built here, once, while the region is known-good: the static check
// captures its golden checksums now, and every audit process the manager
// builds shares them, so a restart cannot adopt damaged static data as
// golden.
func New(cfg Config) (*Framework, error) {
	if cfg.AuditPeriod <= 0 {
		return nil, errors.New("framework: AuditPeriod must be positive")
	}
	env := sim.NewEnv(cfg.Seed)
	db, err := memdb.New(cfg.Schema, memdb.WithClock(env.Now))
	if err != nil {
		return nil, fmt.Errorf("framework: build database: %w", err)
	}
	queue, err := ipc.NewQueue(queueCapacity)
	if err != nil {
		return nil, fmt.Errorf("framework: build queue: %w", err)
	}
	db.EnableAudit(queue)

	f := &Framework{env: env, db: db}
	rec := f.recovery()
	sem, err := audit.NewSemanticCheck(db, rec, env.Now, cfg.Loops...)
	if err != nil {
		return nil, fmt.Errorf("framework: semantic audit: %w", err)
	}
	if cfg.SemanticGrace > 0 {
		sem.GraceAge = cfg.SemanticGrace
	}
	rangeCheck := audit.NewRangeCheck(db, rec)
	b := &audit.Builder{
		Env:      env,
		DB:       db,
		Period:   cfg.AuditPeriod,
		Checks:   []audit.Checker{audit.NewStaticCheck(db, rec), audit.NewStructuralCheck(db, rec), rangeCheck, sem},
		Recovery: rec,
		Escalate: sem,
	}
	switch cfg.Trigger {
	case SlicedRoundRobin:
		b.Sched = audit.NewRoundRobin(len(cfg.Schema.Tables))
	case SlicedPrioritized:
		p := audit.NewPrioritized(db)
		copy(p.Nature, cfg.Nature)
		b.Sched = p
	}
	if cfg.EventTriggered {
		b.Event = rangeCheck
	}
	for _, m := range cfg.Monitors {
		mon, err := audit.NewSelectiveMonitor(db, m[0], m[1])
		if err != nil {
			return nil, fmt.Errorf("framework: %w", err)
		}
		b.Monitors = append(b.Monitors, mon)
	}
	b.MonitorPeriod = cfg.MonitorPeriod
	if b.MonitorPeriod <= 0 {
		b.MonitorPeriod = 4 * cfg.AuditPeriod
	}
	f.manager = manager.New(env, queue, b.Build)
	return f, nil
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

// Env returns the simulation environment.
func (f *Framework) Env() *sim.Env { return f.env }

// DB returns the protected database.
func (f *Framework) DB() *memdb.DB { return f.db }

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
		return errors.New("framework: already started")
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
