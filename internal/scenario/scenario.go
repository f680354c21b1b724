// Package scenario is the load driver: one worker (worker.go) that replays
// planned ops over a direct or routed transport and checks every read
// against its golden copy, fed either by dbload's count-bounded built-in
// patterns (load.go) or by the profile/timeline-driven scenario engine —
// named, reproducible traffic shapes.
//
// A scenario is (pattern, profile, timeline, report):
//
//   - A Pattern picks operations — read/write mixes with Zipfian hot-record
//     skew, subscriber churn (registration/deregistration cycling logical
//     groups), and PROC calls through the server-side procedures.
//   - A Profile sets the rate shape over a phase: steady, diurnal sine, or
//     a burst/flash-crowd step.
//   - The timeline is the phase sequence; a phase can ramp the server-side
//     fault injectors mid-run through the InjectCtl wire op (fault storms).
//   - The report layer samples STATS2 each tick, emitting a JSON artifact:
//     ops/s and client latency percentiles per opcode, shed, findings by
//     class, recovery counts, and the shot outcomes the server's shot
//     ledger counted, over the timeline.
//
// Everything the engine sends is drawn from a seeded deterministic RNG
// (internal/sim), so a fixed seed reproduces the exact op sequence and the
// plan summary is golden-testable; only the measured sections of the report
// (latencies, achieved rates, samples) vary between runs.
package scenario

import (
	"sort"
	"time"

	"repro/internal/wire"
)

// Phase is one timeline segment: a duration, the rate profile and op
// pattern active during it, and optionally an injector change applied when
// the phase begins.
type Phase struct {
	Name    string
	Dur     time.Duration
	Profile Profile
	Pattern Pattern
	// Inject, when Set, retimes the server-side fault injectors at phase
	// start via the InjectCtl wire op. Zero periods disarm.
	Inject InjectSpec
}

// InjectSpec describes one injector change on the timeline.
type InjectSpec struct {
	Set        bool          // issue an InjectCtl at phase start
	Period     time.Duration // region bit-flip period (0 = off)
	ProcPeriod time.Duration // procedure text-flip period (0 = off)
	Mode       int           // wire.InjectMode*
}

// Describe renders the spec for the plan summary.
func (sp InjectSpec) Describe() string {
	if !sp.Set {
		return ""
	}
	if sp.Period <= 0 && sp.ProcPeriod <= 0 {
		return "off"
	}
	mode := "random"
	if sp.Mode == wire.InjectModeStatic {
		mode = "static"
	}
	s := "data=" + sp.Period.String() + " mode=" + mode
	if sp.ProcPeriod > 0 {
		s += " proc=" + sp.ProcPeriod.String()
	}
	return s
}

// Scenario is one named, fully specified traffic shape.
type Scenario struct {
	Name        string
	Description string
	Conns       int           // default worker count (dbload -conns overrides)
	Slots       int           // Resource records per worker: the Zipf key domain
	Tick        time.Duration // scheduling and sampling quantum
	// Lax tolerates golden-copy mismatches and audit findings, the
	// expected state under fault injection.
	Lax bool
	// RequireJoin fails the run unless an audit finding caught every
	// injected region shot (the fault-storm acceptance criterion).
	RequireJoin bool
	Phases      []Phase
}

// registry holds the named scenarios as factories so each Lookup returns a
// fresh value the caller may mutate.
var registry = map[string]func() *Scenario{
	"steady-calls": steadyCalls,
	"flash-crowd":  flashCrowd,
	"fault-storm":  faultStorm,
}

// Lookup returns a fresh copy of the named scenario.
func Lookup(name string) (*Scenario, bool) {
	f, ok := registry[name]
	if !ok {
		return nil, false
	}
	return f(), true
}

// Names lists the registered scenarios, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// steadyCalls is the baseline: a flat call-processing rate with a
// read-mostly Zipf-skewed mix — the regression fixture for plain serving
// throughput and latency.
func steadyCalls() *Scenario {
	return &Scenario{
		Name:        "steady-calls",
		Description: "flat call-processing load: read-mostly Zipf-skewed mix at a steady aggregate rate",
		Conns:       4,
		Slots:       5,
		Tick:        500 * time.Millisecond,
		Phases: []Phase{{
			Name:    "main",
			Dur:     30 * time.Second,
			Profile: Steady{PerSec: 400},
			Pattern: Pattern{
				Mix: [numOpKinds]float64{
					OpReadRec: 30, OpReadFld: 30, OpWriteRec: 8, OpWriteFld: 20,
					OpMove: 4, OpStatus: 4, OpChurn: 2, OpProc: 2,
				},
				Zipf: 1.1,
			},
		}},
	}
}

// flashCrowd is the super-producer shape: a diurnal hum, then a flash-crowd
// step to several times the base rate with a hotter key skew and subscriber
// churn, then recovery — the workload that must not starve auditing.
func flashCrowd() *Scenario {
	calm := Pattern{
		Mix: [numOpKinds]float64{
			OpReadRec: 30, OpReadFld: 30, OpWriteRec: 8, OpWriteFld: 20,
			OpMove: 4, OpStatus: 4, OpChurn: 2, OpProc: 2,
		},
		Zipf: 1.1,
	}
	hot := Pattern{
		Mix: [numOpKinds]float64{
			OpReadRec: 25, OpReadFld: 35, OpWriteRec: 6, OpWriteFld: 16,
			OpMove: 4, OpStatus: 4, OpChurn: 8, OpProc: 2,
		},
		Zipf: 1.5,
	}
	return &Scenario{
		Name:        "flash-crowd",
		Description: "diurnal hum, then a flash-crowd step with hotter skew and churn, then recovery",
		Conns:       6,
		Slots:       3,
		Tick:        500 * time.Millisecond,
		Phases: []Phase{
			{
				Name: "calm", Dur: 10 * time.Second,
				Profile: Diurnal{Base: 250, Amp: 100, Period: 10 * time.Second},
				Pattern: calm,
			},
			{
				Name: "flash", Dur: 12 * time.Second,
				Profile: Burst{Base: 250, Peak: 1200, At: 2 * time.Second, Dur: 8 * time.Second},
				Pattern: hot,
			},
			{
				Name: "recovery", Dur: 8 * time.Second,
				Profile: Steady{PerSec: 300},
				Pattern: calm,
			},
		},
	}
}

// faultStorm drives steady traffic while the timeline arms the server-side
// injector against the static extents mid-run and disarms it again; every
// shot must be detected, repaired, and joined to its finding by trace ID.
func faultStorm() *Scenario {
	mix := Pattern{
		Mix: [numOpKinds]float64{
			OpReadRec: 28, OpReadFld: 28, OpWriteRec: 8, OpWriteFld: 20,
			OpMove: 4, OpStatus: 4, OpChurn: 3, OpProc: 5,
		},
		Zipf: 1.1,
	}
	return &Scenario{
		Name:        "fault-storm",
		Description: "steady traffic with a mid-run injection storm against the static extents; every shot must join a finding",
		Conns:       4,
		Slots:       5,
		Tick:        500 * time.Millisecond,
		Lax:         true,
		RequireJoin: true,
		Phases: []Phase{
			{
				Name: "baseline", Dur: 8 * time.Second,
				Profile: Steady{PerSec: 300},
				Pattern: mix,
			},
			{
				Name: "storm", Dur: 12 * time.Second,
				Profile: Steady{PerSec: 300},
				Pattern: mix,
				// Static mode is the detectable-byte stride walk, so the
				// zero-unjoined criterion is achievable.
				Inject: InjectSpec{Set: true, Period: 250 * time.Millisecond, Mode: wire.InjectModeStatic},
			},
			{
				Name: "quiesce", Dur: 10 * time.Second,
				Profile: Steady{PerSec: 200},
				Pattern: mix,
				Inject:  InjectSpec{Set: true}, // disarm; audits catch up
			},
		},
	}
}
