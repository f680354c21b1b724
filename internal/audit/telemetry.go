package audit

import (
	"sync"

	"repro/internal/metrics"
)

// Telemetry publishes the audit subsystem's runtime signals into a metrics
// registry: per-check runtime histograms, findings by class, recovery
// actions applied, and trigger counts. Jiang et al. ("Auditing Frameworks
// Need Resource Isolation") argue that audit/client contention must itself
// be observable; the per-check runtime histograms are exactly the checker
// overhead that must stay bounded.
//
// All update paths are atomic counters/histograms, so findings may be
// noted from any goroutine (in this repository the server's turn holder
// notes them).
type Telemetry struct {
	reg *metrics.Registry

	sweeps *metrics.Counter // full sweeps completed (periodic + forced)

	mu        sync.Mutex
	findings  map[Class]*metrics.Counter
	actions   map[Action]*metrics.Counter
	checkTime map[string]*metrics.Histogram
}

// NewTelemetry builds audit telemetry over reg. Metric names:
// "audit.sweeps", "audit.findings.<class>", "audit.actions.<action>",
// "audit.check.<name>" (runtime histogram, ns).
func NewTelemetry(reg *metrics.Registry) *Telemetry {
	return &Telemetry{
		reg:       reg,
		sweeps:    reg.Counter("audit.sweeps"),
		findings:  make(map[Class]*metrics.Counter),
		actions:   make(map[Action]*metrics.Counter),
		checkTime: make(map[string]*metrics.Histogram),
	}
}

// Registry returns the registry the telemetry publishes into.
func (t *Telemetry) Registry() *metrics.Registry { return t.reg }

// Note records one finding: its class and the recovery action applied.
func (t *Telemetry) Note(f Finding) {
	t.mu.Lock()
	fc, ok := t.findings[f.Class]
	if !ok {
		fc = t.reg.Counter("audit.findings." + f.Class.String())
		t.findings[f.Class] = fc
	}
	ac, ok := t.actions[f.Action]
	if !ok {
		ac = t.reg.Counter("audit.actions." + f.Action.String())
		t.actions[f.Action] = ac
	}
	t.mu.Unlock()
	fc.Inc()
	ac.Inc()
}

// Sweeps returns the count of completed full sweeps. Every Telemetry over
// one registry shares the "audit.sweeps" counter, so this is the
// registry-wide total.
func (t *Telemetry) Sweeps() uint64 { return t.sweeps.Load() }

// histogramFor returns the runtime histogram for the named check.
func (t *Telemetry) histogramFor(name string) *metrics.Histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.checkTime[name]
	if !ok {
		h = t.reg.Histogram("audit.check."+name, nil)
		t.checkTime[name] = h
	}
	return h
}
