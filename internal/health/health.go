// Package health is the server's self-monitoring plane: it watches the
// audited database serve live traffic and answers, continuously and from
// inside the process, the question the paper's framework exists to keep
// true — is corruption still being detected fast enough?
//
// Three cooperating pieces:
//
//   - Detector: the shot ledger. The injector records each region shot
//     in its core's coverage window of the newest shots, and every audit
//     finding resolves to the newest shot there whose offset it covers; a
//     shot's first resolve catches it. Counts are exact (open = shots −
//     caught), and the ledger keeps windowed p50/p99 detection latency
//     plus an open-shot age watermark, so a fault the audits have NOT yet
//     found is visible as a rising age, not an absence of data.
//   - DebtMeter: audit-debt accounting published from the audit
//     scheduler — scheduled-vs-completed sweeps and per-checker elements,
//     sweep-interval overruns, and a behind-schedule gauge. This is the
//     observable substrate for the ROADMAP's Audit-QoS pacing work.
//   - Evaluator: a declarative SLO engine. Each Objective samples a value
//     (detection p99, shed rate, replication lag, heartbeat-miss rate,
//     audit debt) against a bound on every tick; violations burn a
//     per-objective error budget over short and long windows, and the
//     burn rates drive a per-subsystem OK/DEGRADED/CRITICAL state machine
//     with hysteresis (degrade immediately, recover only after a streak
//     of clean evaluations, so a value oscillating across its bound
//     cannot flap the state).
//
// Plane bundles the three and renders the Status document served by the
// HEALTH wire op, GET /healthz, and `dbctl health`.
package health

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// State is a subsystem (or overall) health level. Order matters: higher
// is worse, and aggregation takes the max.
type State int32

const (
	OK State = iota
	Degraded
	Critical
)

// String returns the lowercase state name used across JSON, text, and
// watch output.
func (s State) String() string {
	switch s {
	case OK:
		return "ok"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// MarshalText renders the state name, so Status marshals states as
// strings.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name.
func (s *State) UnmarshalText(b []byte) error {
	v, ok := ParseState(string(b))
	if !ok {
		return fmt.Errorf("health: unknown state %q", b)
	}
	*s = v
	return nil
}

// ParseState resolves a state name; ok is false for unknown names.
func ParseState(name string) (State, bool) {
	switch name {
	case "ok":
		return OK, true
	case "degraded":
		return Degraded, true
	case "critical":
		return Critical, true
	}
	return OK, false
}

// Plane bundles the detector, the SLO evaluator, and (when auditing is
// armed) the debt meter behind one construction point and one Status
// document.
type Plane struct {
	now  func() time.Duration
	det  *Detector
	eval *Evaluator
	debt *DebtMeter
}

// NewPlane builds a health plane on the given clock (normally the trace
// recorder's, so detection latencies share the journal's timebase). The
// caller declares objectives with AddObjective.
func NewPlane(now func() time.Duration) *Plane {
	return &Plane{now: now, det: NewDetector(), eval: NewEvaluator(now)}
}

// Detect exposes the shot ledger.
func (p *Plane) Detect() *Detector { return p.det }

// SetDebt attaches the audit-debt meter (nil when auditing is off).
func (p *Plane) SetDebt(m *DebtMeter) { p.debt = m }

// Debt returns the attached audit-debt meter, or nil.
func (p *Plane) Debt() *DebtMeter { return p.debt }

// AddObjective declares one SLO objective. Not safe concurrently with
// Tick/Status; wire all objectives before the server starts evaluating.
func (p *Plane) AddObjective(o Objective) { p.eval.Add(o) }

// Tick runs an SLO evaluation if at least the evaluation period has
// elapsed since the last one. Safe from any goroutine; the server drives
// it from the executor clock.
func (p *Plane) Tick() { p.eval.Tick() }

// State returns the overall health state (max over subsystems) from the
// latest evaluation. Lock-free.
func (p *Plane) State() State { return p.eval.State() }

// Rate converts a cumulative counter read into a per-perUnit rate
// measured between evaluator ticks. The returned func keeps private
// state and must only be used as one Objective's Value (the evaluator
// serializes calls under its lock).
func Rate(load func() float64, perUnit time.Duration) func(now time.Duration) float64 {
	var prev float64
	var prevAt time.Duration
	primed := false
	return func(now time.Duration) float64 {
		v := load()
		if !primed {
			primed, prev, prevAt = true, v, now
			return 0
		}
		dt := now - prevAt
		if dt <= 0 {
			return 0
		}
		rate := (v - prev) * float64(perUnit) / float64(dt)
		prev, prevAt = v, now
		return rate
	}
}

// RegisterMetrics publishes the plane's gauges and the ledger's latency
// histogram, so STATS2 (and with it dbload -watch and the scenario
// sampler) carries health state with no extra plumbing. Call after all
// objectives are added.
func (p *Plane) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("health.state", func() int64 { return int64(p.State()) })
	for _, name := range p.eval.Subsystems() {
		name := name
		reg.GaugeFunc("health."+name+".state", func() int64 {
			return int64(p.eval.SubsystemState(name))
		})
	}
	det := p.det
	now := p.now
	reg.GaugeFunc("health.detect.open_shots", func() int64 {
		return int64(det.Snapshot(now()).OpenShots)
	})
	reg.GaugeFunc("health.detect.watermark_ms", func() int64 {
		return det.Snapshot(now()).OldestOpen.Milliseconds()
	})
	reg.GaugeFunc("health.detect.p99_ms", func() int64 {
		return det.Snapshot(now()).P99.Milliseconds()
	})
	reg.GaugeFunc("health.detect.shots", func() int64 {
		return int64(det.Snapshot(now()).Shots)
	})
	reg.GaugeFunc("health.detect.joined", func() int64 {
		return int64(det.Snapshot(now()).Joined)
	})
	reg.GaugeFunc("health.detect.overruns", func() int64 {
		return int64(det.Snapshot(now()).Overruns)
	})
	// Recorder-clock nanoseconds from shot to first catch, over the
	// server's lifetime.
	det.bindLatency(reg.Histogram("health.detect.latency", nil))
	if p.debt != nil {
		p.debt.Register(reg)
	}
}
