package manager

import (
	"errors"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/ipc"
	"repro/internal/memdb"
	"repro/internal/sim"
)

func testSchema() memdb.Schema {
	return memdb.Schema{Tables: []memdb.TableSpec{{
		Name: "T", Dynamic: true, NumRecords: 4,
		Fields: []memdb.FieldSpec{{Name: "F", Kind: memdb.Dynamic, HasRange: true, Min: 0, Max: 9, Default: 0}},
	}}}
}

type rig struct {
	env   *sim.Env
	db    *memdb.DB
	queue *ipc.Queue
	mgr   *Manager
	built int
}

func newRig(t *testing.T, opts ...Option) *rig {
	t.Helper()
	env := sim.NewEnv(1)
	db, err := memdb.New(testSchema(), memdb.WithClock(env.Now))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ipc.NewQueue(1024)
	if err != nil {
		t.Fatal(err)
	}
	db.EnableAudit(q)
	r := &rig{env: env, db: db, queue: q}
	factory := func(queue *ipc.Queue) (*audit.Process, error) {
		r.built++
		p := audit.NewProcess(env, db, queue)
		if err := p.Register(audit.NewHeartbeatElement()); err != nil {
			return nil, err
		}
		return p, nil
	}
	r.mgr = New(env, q, factory, opts...)
	return r
}

func TestHealthyProcessIsNotRestarted(t *testing.T) {
	r := newRig(t)
	if err := r.mgr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.env.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Restarts() != 0 {
		t.Fatalf("Restarts = %d, want 0", r.mgr.Restarts())
	}
	if r.mgr.Probes() == 0 || r.mgr.Replies() != r.mgr.Probes() {
		t.Fatalf("probes/replies = %d/%d", r.mgr.Probes(), r.mgr.Replies())
	}
	if r.built != 1 {
		t.Fatalf("factory invoked %d times, want 1", r.built)
	}
}

func TestCrashedProcessIsRestarted(t *testing.T) {
	var restartsSeen []int
	r := newRig(t, WithOnRestart(func(n int) { restartsSeen = append(restartsSeen, n) }))
	if err := r.mgr.Start(); err != nil {
		t.Fatal(err)
	}
	first := r.mgr.Process()
	r.env.Schedule(12*time.Second, first.Crash)
	if err := r.env.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Restarts() != 1 {
		t.Fatalf("Restarts = %d, want 1", r.mgr.Restarts())
	}
	if r.mgr.Process() == first {
		t.Fatal("process not replaced")
	}
	if !r.mgr.Process().Alive() {
		t.Fatal("replacement process not alive")
	}
	if len(restartsSeen) != 1 || restartsSeen[0] != 1 {
		t.Fatalf("restart observer saw %v", restartsSeen)
	}
}

func TestHungProcessIsRestarted(t *testing.T) {
	r := newRig(t)
	if err := r.mgr.Start(); err != nil {
		t.Fatal(err)
	}
	r.env.Schedule(7*time.Second, r.mgr.Process().Hang)
	if err := r.env.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Restarts() != 1 {
		t.Fatalf("Restarts = %d, want 1", r.mgr.Restarts())
	}
}

func TestRepeatedCrashesRepeatedlyRestarted(t *testing.T) {
	r := newRig(t)
	if err := r.mgr.Start(); err != nil {
		t.Fatal(err)
	}
	// Crash whatever instance is alive every 20 seconds, three times.
	crashes := 0
	tk, err := r.env.NewTicker(20*time.Second, func() {
		if crashes >= 3 {
			return
		}
		if p := r.mgr.Process(); p != nil && p.Alive() {
			p.Crash()
			crashes++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Stop()
	if err := r.env.Run(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Restarts() < 3 {
		t.Fatalf("Restarts = %d, want >= 3", r.mgr.Restarts())
	}
	if !r.mgr.Process().Alive() {
		t.Fatal("final process not alive")
	}
}

func TestQueueResetOnRestart(t *testing.T) {
	r := newRig(t)
	if err := r.mgr.Start(); err != nil {
		t.Fatal(err)
	}
	r.env.Schedule(6*time.Second, func() {
		r.mgr.Process().Crash()
		// Stale messages accumulate while the process is down.
		for i := 0; i < 10; i++ {
			_ = r.queue.TrySend(ipc.Message{Kind: ipc.MsgDBAccess})
		}
	})
	if err := r.env.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Restarts() != 1 {
		t.Fatalf("Restarts = %d, want 1", r.mgr.Restarts())
	}
	// The reset dropped stale traffic; the new process keeps the queue
	// near-empty (only in-flight heartbeats may remain).
	if r.queue.Len() > 1 {
		t.Fatalf("queue depth after restart = %d", r.queue.Len())
	}
}

func TestDoubleStartRejected(t *testing.T) {
	r := newRig(t)
	if err := r.mgr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Start(); err == nil {
		t.Fatal("double Start succeeded")
	}
}

func TestStopHaltsSupervision(t *testing.T) {
	r := newRig(t)
	if err := r.mgr.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.env.Run(12 * time.Second); err != nil {
		t.Fatal(err)
	}
	r.mgr.Stop()
	probesAtStop := r.mgr.Probes()
	if err := r.env.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Probes() != probesAtStop {
		t.Fatal("heartbeats continued after Stop")
	}
	if r.mgr.Process().Alive() {
		t.Fatal("audit process still alive after Stop")
	}
	if r.mgr.Restarts() != 0 {
		t.Fatal("Stop triggered a restart")
	}
}

func TestFactoryFailureDoesNotWedgeManager(t *testing.T) {
	env := sim.NewEnv(1)
	db, err := memdb.New(testSchema(), memdb.WithClock(env.Now))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ipc.NewQueue(64)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	factory := func(queue *ipc.Queue) (*audit.Process, error) {
		calls++
		if calls == 2 {
			return nil, errors.New("transient failure")
		}
		p := audit.NewProcess(env, db, queue)
		if err := p.Register(audit.NewHeartbeatElement()); err != nil {
			return nil, err
		}
		return p, nil
	}
	m := New(env, q, factory)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	m.Process().Crash()
	if err := env.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Second factory call failed; a later heartbeat retried and the
	// third call succeeded.
	if calls < 3 {
		t.Fatalf("factory called %d times, want >= 3", calls)
	}
	if m.Process() == nil || !m.Process().Alive() {
		t.Fatal("manager did not recover from factory failure")
	}
}

func TestStartFailsWhenFactoryFails(t *testing.T) {
	env := sim.NewEnv(1)
	q, err := ipc.NewQueue(64)
	if err != nil {
		t.Fatal(err)
	}
	m := New(env, q, func(*ipc.Queue) (*audit.Process, error) {
		return nil, errors.New("boom")
	})
	if err := m.Start(); err == nil {
		t.Fatal("Start succeeded with failing factory")
	}
}

func TestHeartbeatMissObserved(t *testing.T) {
	var misses []int
	r := newRig(t, WithOnMiss(func(n int) { misses = append(misses, n) }))
	if err := r.mgr.Start(); err != nil {
		t.Fatal(err)
	}
	r.env.Schedule(12*time.Second, r.mgr.Process().Crash)
	if err := r.env.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The crash costs exactly one missed probe before the restart brings a
	// healthy replacement; the observer fires at the declare-dead moment.
	if r.mgr.Misses() != 1 {
		t.Fatalf("Misses = %d, want 1", r.mgr.Misses())
	}
	if len(misses) != 1 || misses[0] != 1 {
		t.Fatalf("miss observer saw %v, want [1]", misses)
	}
	if r.mgr.Restarts() != 1 {
		t.Fatalf("Restarts = %d, want 1", r.mgr.Restarts())
	}
}
