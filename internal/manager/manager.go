// Package manager implements the paper's manager process (§4, §4.1): a
// supervisor, deployed redundantly in the real controller, that oversees
// the audit process. It periodically sends heartbeat messages and waits for
// replies; if the audit process has crashed or hung — or a scheduling
// anomaly keeps it from running — the manager times out and restarts it.
package manager

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/ipc"
	"repro/internal/sim"
)

// Factory builds a fresh audit process attached to queue. The manager
// invokes it at start and on every restart, mirroring "the manager starts
// the audit process and ... if the audit process fails, the manager
// restarts it on the same or another node".
type Factory func(queue *ipc.Queue) (*audit.Process, error)

// Manager supervises one audit process by heartbeat.
type Manager struct {
	env     *sim.Env
	queue   *ipc.Queue
	factory Factory
	// Period is the heartbeat probe interval.
	Period time.Duration
	// Timeout is how long the manager waits for a reply before declaring
	// the audit process dead.
	Timeout time.Duration

	proc      *audit.Process
	ticker    *sim.Ticker
	running   bool
	probes    uint64
	replies   uint64
	restarts  int
	misses    uint64
	onRestart func(int)
	onMiss    func(int)
}

// Option configures a Manager.
type Option func(*Manager)

// WithOnRestart installs an observer invoked with the restart ordinal each
// time the audit process is restarted.
func WithOnRestart(fn func(restart int)) Option {
	return func(m *Manager) { m.onRestart = fn }
}

// WithOnMiss installs an observer invoked with the cumulative miss count
// each time a heartbeat probe times out without a reply — the moment the
// manager declares the audit process dead, just before restarting it.
func WithOnMiss(fn func(misses int)) Option {
	return func(m *Manager) { m.onMiss = fn }
}

// New creates a manager that will build audit processes with factory and
// probe them over queue.
func New(env *sim.Env, queue *ipc.Queue, factory Factory, opts ...Option) *Manager {
	m := &Manager{
		env:     env,
		queue:   queue,
		factory: factory,
		Period:  5 * time.Second,
		Timeout: 2 * time.Second,
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Process returns the currently supervised audit process.
func (m *Manager) Process() *audit.Process { return m.proc }

// Restarts reports how many times the audit process was restarted.
func (m *Manager) Restarts() int { return m.restarts }

// Probes reports heartbeats sent; Replies reports answers received.
func (m *Manager) Probes() uint64 { return m.probes }

// Replies reports heartbeat answers received.
func (m *Manager) Replies() uint64 { return m.replies }

// Misses reports heartbeat probes that timed out without a reply.
func (m *Manager) Misses() uint64 { return m.misses }

// Start builds and starts the audit process, then arms the heartbeat.
func (m *Manager) Start() error {
	if m.running {
		return fmt.Errorf("manager: already running")
	}
	if err := m.spawn(); err != nil {
		return err
	}
	t, err := m.env.NewTicker(m.Period, m.probe)
	if err != nil {
		return fmt.Errorf("manager: arm heartbeat: %w", err)
	}
	m.ticker = t
	m.running = true
	return nil
}

// Stop halts supervision and the supervised process.
func (m *Manager) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
	if m.proc != nil && m.proc.Alive() {
		m.proc.Stop()
	}
	m.running = false
}

func (m *Manager) spawn() error {
	proc, err := m.factory(m.queue)
	if err != nil {
		return fmt.Errorf("manager: build audit process: %w", err)
	}
	if err := proc.Start(); err != nil {
		return fmt.Errorf("manager: start audit process: %w", err)
	}
	m.proc = proc
	return nil
}

// probe sends one heartbeat and schedules the reply timeout.
func (m *Manager) probe() {
	m.probes++
	answered := false
	err := m.queue.TrySend(ipc.Message{
		Kind: ipc.MsgHeartbeat,
		At:   m.env.Now(),
		Payload: func() {
			answered = true
			m.replies++
		},
	})
	if err != nil {
		// A full or closed queue is itself evidence the audit process is
		// not draining: fall through to the timeout check.
		answered = false
	}
	m.env.Schedule(m.Timeout, func() {
		if answered || !m.running {
			return
		}
		m.misses++
		if m.onMiss != nil {
			m.onMiss(int(m.misses))
		}
		m.restart()
	})
}

// restart replaces a dead audit process with a fresh one on a reset queue.
func (m *Manager) restart() {
	if m.proc != nil && m.proc.Alive() {
		// The old instance is somehow still alive (late reply lost):
		// kill it before replacing, so two processes never share the
		// queue.
		m.proc.Stop()
	}
	m.queue.Reset()
	if err := m.spawn(); err != nil {
		// Retry on the next heartbeat period rather than giving up; the
		// manager is the last line of supervision.
		m.proc = nil
		return
	}
	m.restarts++
	if m.onRestart != nil {
		m.onRestart(m.restarts)
	}
}
