// Package router is the client-side read fan-out over a replica set: it
// spreads READ_REC/READ_FLD/STATUS across read-serving standbys while
// writes and PROC_EXEC stay pinned to the primary, preserving
// read-your-writes through bounded-staleness leases.
//
// The paper's audited database certifies every write on one primary; this
// package is how read capacity grows past that node without giving up the
// integrity story. Each standby runs the full audit process in shadow mode
// over its own copy, so a routed read is served from a region the same
// checks continuously certify — the replica set multiplies checked read
// capacity, not just bytes.
//
// The lease protocol: a WAL-backed primary stamps every acknowledged
// mutation's log sequence onto the OK response (wire.Response.Token). The
// session keeps the highest token S it has seen and attaches it to every
// routed read as the lease floor. The router only picks replicas whose
// probed applied sequence is at least S, and the replica re-checks the
// floor against its live applied sequence at serve time, refusing with
// CodeStale when behind. Both comparisons are conservative — the applied
// sequence is monotonic and stored only after a record's effects reach the
// region — so a stale probe can only over-pin reads to the primary, never
// violate the bound: a routed read carrying token S observes all effects
// through S, possibly newer, never older.
//
// A background probe loop health-ranks the set over REPL_STATUS (role,
// applied sequence, serve-reads flag). Replica loss degrades to the
// primary: a failed read marks the target down, the read retries on the
// primary, and the probe loop revives the target when it answers again.
// The same machinery follows a failover — when the primary dies and a
// standby promotes itself, the next probe sees the role change and
// sessions re-pin their write connection to the new primary.
package router

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// Config tunes the router.
type Config struct {
	// Addrs is the replica set — every node's serving address, primary
	// and standbys in any order. Roles are discovered, not configured:
	// the set survives a failover that moves the primary.
	Addrs []string
	// ProbeInterval is the health/staleness probe cadence. Default 250ms.
	ProbeInterval time.Duration
}

func (c *Config) applyDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
}

// callTimeout bounds each routed call and each probe.
const callTimeout = 5 * time.Second

// target is the router's view of one node, refreshed by the probe loop.
// All fields past addr are atomics: sessions read them on every routed
// call while the probe loop writes them.
type target struct {
	addr string

	healthy    atomic.Bool
	role       atomic.Int32 // wire.RolePrimary / wire.RoleStandby; roleUnknown before first probe
	serveReads atomic.Bool
	applied    atomic.Uint64
	reads      atomic.Uint64 // routed reads served by this target
}

const roleUnknown = -1

// Router routes one replica set. Safe for concurrent use; open one
// Session per worker goroutine for the actual traffic.
type Router struct {
	cfg     Config
	targets []*target
	rr      atomic.Uint64 // round-robin cursor over eligible replicas

	primaryReads   atomic.Uint64
	replicaReads   atomic.Uint64
	leasePins      atomic.Uint64
	staleFallbacks atomic.Uint64
	failovers      atomic.Uint64
	probes         atomic.Uint64

	sweepMu sync.Mutex // collapses concurrent on-demand probe sweeps

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// New builds a router over addrs and starts its probe loop. One
// synchronous probe sweep runs first, so role discovery does not race the
// first session; nodes that are still booting are simply unhealthy until
// the loop reaches them.
func New(cfg Config) (*Router, error) {
	cfg.applyDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("router: no addresses")
	}
	rt := &Router{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	seen := make(map[string]bool)
	for _, a := range cfg.Addrs {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		t := &target{addr: a}
		t.role.Store(roleUnknown)
		rt.targets = append(rt.targets, t)
	}
	if len(rt.targets) == 0 {
		return nil, errors.New("router: no addresses")
	}
	rt.sweep()
	go rt.probeLoop()
	return rt, nil
}

// Close stops the probe loop. Sessions own their connections and are
// closed separately.
func (rt *Router) Close() {
	rt.once.Do(func() {
		close(rt.stop)
		<-rt.done
	})
}

// probeLoop refreshes every target on the probe cadence.
func (rt *Router) probeLoop() {
	defer close(rt.done)
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
			rt.sweep()
		}
	}
}

// sweep probes every target once with a fresh connection per node. Fresh
// dials keep the sweep safe from any goroutine (sessions trigger one on
// failover) and double as a reachability check; at the default cadence the
// dial cost is noise.
func (rt *Router) sweep() {
	rt.sweepMu.Lock()
	defer rt.sweepMu.Unlock()
	for _, t := range rt.targets {
		rt.probeTarget(t)
	}
}

// probeTarget refreshes one target's health snapshot.
func (rt *Router) probeTarget(t *target) {
	rt.probes.Add(1)
	nc, err := net.DialTimeout("tcp", t.addr, callTimeout)
	if err != nil {
		t.healthy.Store(false)
		return
	}
	c := wire.NewConn(nc)
	c.Timeout = callTimeout
	st, err := c.ReplStatus()
	c.Close()
	if err != nil {
		t.healthy.Store(false)
		return
	}
	t.role.Store(int32(st.Role))
	t.serveReads.Store(st.ServeReads)
	t.applied.Store(st.Applied)
	t.healthy.Store(true)
}

// Primary returns the current primary's address, probing the set once if
// no healthy primary is known.
func (rt *Router) Primary() (string, error) {
	if t := rt.primaryTarget(); t != nil {
		return t.addr, nil
	}
	rt.sweep()
	if t := rt.primaryTarget(); t != nil {
		return t.addr, nil
	}
	return "", fmt.Errorf("router: no primary among %d targets", len(rt.targets))
}

func (rt *Router) primaryTarget() *target {
	for _, t := range rt.targets {
		if t.healthy.Load() && t.role.Load() == wire.RolePrimary {
			return t
		}
	}
	return nil
}

// serving reports whether t answers routed reads at all: healthy and a
// read-serving standby.
func serving(t *target) bool {
	return t.healthy.Load() && t.role.Load() == wire.RoleStandby && t.serveReads.Load()
}

// eligible reports whether t is routable for a read carrying token as its
// lease floor: serving, and caught up to the token per the latest probe.
func (rt *Router) eligible(t *target, token uint64) bool {
	return serving(t) && t.applied.Load() >= token
}

// pickReplica chooses a read-serving standby whose probed applied
// sequence covers the session's lease token, round-robin across the
// eligible set. Sessions call this when they have no sticky replica (or
// lost it), so the rotation spreads sessions — not individual reads —
// over the set: a session then stays with its pick while it remains
// eligible, keeping each connection's request stream dense instead of
// ping-ponging between sockets. leasePinned reports that at least one
// replica was healthy and read-serving but every one was excluded by the
// token — the distinction between "reads pinned to the primary by the
// lease" and "no replicas to route to at all".
func (rt *Router) pickReplica(token uint64) (t *target, leasePinned bool) {
	var eligible []*target
	nServing := 0
	for _, cand := range rt.targets {
		if serving(cand) {
			nServing++
		}
		if rt.eligible(cand, token) {
			eligible = append(eligible, cand)
		}
	}
	if len(eligible) == 0 {
		return nil, nServing > 0
	}
	return eligible[rt.rr.Add(1)%uint64(len(eligible))], false
}

// noteReplicaDown records a failed routed call: the target drops out of
// routing until a probe revives it.
func (rt *Router) noteReplicaDown(t *target) {
	t.healthy.Store(false)
	rt.failovers.Add(1)
}

// IsFailoverErr classifies errors that mean "this node cannot serve this
// call, try elsewhere" — a primary dying or demoting under the client —
// as opposed to protocol or application errors the caller must surface,
// where a retry elsewhere would only mask a bug.
func IsFailoverErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, wire.ErrStandby) || errors.Is(err, wire.ErrShutdown) ||
		errors.Is(err, wire.ErrNotPrimary) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Stats is a counter snapshot for reporting.
type Stats struct {
	PrimaryReads   uint64            // reads served by the primary (no eligible replica)
	ReplicaReads   uint64            // reads served by replicas
	LeasePins      uint64            // reads pinned to the primary by the lease token
	StaleFallbacks uint64            // replica refused the lease floor (CodeStale), served by primary
	Failovers      uint64            // routed calls that failed over off a dead node
	Probes         uint64            // health probes issued
	PerTarget      map[string]uint64 // routed reads served, by target address
}

// Stats snapshots the router's counters.
func (rt *Router) Stats() Stats {
	st := Stats{
		PrimaryReads:   rt.primaryReads.Load(),
		ReplicaReads:   rt.replicaReads.Load(),
		LeasePins:      rt.leasePins.Load(),
		StaleFallbacks: rt.staleFallbacks.Load(),
		Failovers:      rt.failovers.Load(),
		Probes:         rt.probes.Load(),
		PerTarget:      make(map[string]uint64, len(rt.targets)),
	}
	for _, t := range rt.targets {
		st.PerTarget[t.addr] = t.reads.Load()
	}
	return st
}

// String renders the snapshot as one report line.
func (s Stats) String() string {
	return fmt.Sprintf(
		"router: replica=%d primary=%d lease_pins=%d stale_fallbacks=%d failovers=%d probes=%d",
		s.ReplicaReads, s.PrimaryReads, s.LeasePins, s.StaleFallbacks, s.Failovers, s.Probes)
}

// BindMetrics publishes the router's gauges into reg (the client-side
// mirror of the server's repl.* plane).
func (rt *Router) BindMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("router.reads.primary", func() int64 { return int64(rt.primaryReads.Load()) })
	reg.GaugeFunc("router.reads.replica", func() int64 { return int64(rt.replicaReads.Load()) })
	reg.GaugeFunc("router.lease_pins", func() int64 { return int64(rt.leasePins.Load()) })
	reg.GaugeFunc("router.stale_fallbacks", func() int64 { return int64(rt.staleFallbacks.Load()) })
	reg.GaugeFunc("router.failovers", func() int64 { return int64(rt.failovers.Load()) })
	reg.GaugeFunc("router.probes", func() int64 { return int64(rt.probes.Load()) })
}
