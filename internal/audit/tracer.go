package audit

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Tracer is audit.Telemetry's flight-recorder sibling: where Telemetry
// aggregates the audit layer into counters and histograms, Tracer records
// each individual occurrence — check passes, findings, recoveries — into
// a trace ring so a journal can reconstruct which check caught which
// error and what recovery did about it.
type Tracer struct {
	ring *trace.Ring

	// Resolve maps a finding to the correlation ID of its cause (e.g. the
	// injected shot whose offset it covers); nil or a zero return leaves
	// the finding uncorrelated.
	Resolve func(Finding) uint64

	// Role names the node's replication role at emission time ("standby",
	// "standby-serving"); a non-empty return is prefixed onto the finding
	// event's detail so shadow-audit (DetectOnly) findings journaled on a
	// replica are attributed to the replica in merged journals, not read
	// as primary corruption. Nil or empty leaves the detail untouched.
	Role func() string
}

// NewTracer builds an audit tracer emitting into rec's "audit" ring of
// trace.DefaultRingSize events.
func NewTracer(rec *trace.Recorder) *Tracer {
	return &Tracer{ring: rec.Ring("audit", trace.DefaultRingSize)}
}

// Ring returns the ring the tracer emits into, for co-located events
// (manager heartbeat misses, restarts).
func (t *Tracer) Ring() *trace.Ring { return t.ring }

// Note records one finding as a finding event plus — when a recovery
// action was applied — a recovery event sharing the same correlation ID.
func (t *Tracer) Note(f Finding) {
	var id uint64
	if t.Resolve != nil {
		id = t.Resolve(f)
	}
	detail := f.Detail
	if t.Role != nil {
		if role := t.Role(); role != "" {
			if detail != "" {
				detail = role + ": " + detail
			} else {
				detail = role
			}
		}
	}
	t.ring.Emit(trace.Event{
		Kind:   trace.KindFinding,
		Trace:  id,
		Op:     f.Class.String(),
		Code:   int64(f.Action),
		Arg:    int64(f.Offset),
		Aux:    int64(f.Table),
		Detail: detail,
	})
	if f.Action != ActionNone {
		t.ring.Emit(trace.Event{
			Kind:  trace.KindRecovery,
			Trace: id,
			Op:    f.Action.String(),
			Arg:   int64(f.Offset),
			Aux:   int64(f.Table),
		})
	}
}

// Instrument decorates one audit technique with the audit layer's
// observability: every CheckAll/CheckTable pass is bracketed by
// check-start and check-end events in tr's ring (check-end carries the
// finding count and the runtime in nanoseconds) and timed into tel's
// "audit.check.<name>" histogram, both from one clock reading at each end
// of the pass. With countSweeps set, every CheckAll also counts one
// completed full sweep ("audit.sweeps"); set it on exactly one of the
// techniques a full sweep runs once each.
func Instrument(fc FullChecker, tel *Telemetry, tr *Tracer, countSweeps bool) FullChecker {
	c := &instrumented{FullChecker: fc, name: fc.Name(), h: tel.histogramFor(fc.Name()), ring: tr.ring}
	if countSweeps {
		c.sweeps = tel.sweeps
	}
	return c
}

// instrumented is the one decorator around an audit technique.
type instrumented struct {
	FullChecker
	name   string
	h      *metrics.Histogram
	ring   *trace.Ring
	sweeps *metrics.Counter // nil unless this technique counts sweeps
}

// CheckAll counts the sweep (when this technique counts them) and
// brackets one whole-purview pass.
func (c *instrumented) CheckAll() []Finding {
	if c.sweeps != nil {
		c.sweeps.Inc()
	}
	t0 := c.start(0)
	return c.end(0, t0, c.FullChecker.CheckAll())
}

// CheckTable brackets one table-scoped pass.
func (c *instrumented) CheckTable(table int) []Finding {
	t0 := c.start(int64(table))
	return c.end(int64(table), t0, c.FullChecker.CheckTable(table))
}

func (c *instrumented) start(table int64) time.Time {
	c.ring.Emit(trace.Event{Kind: trace.KindCheckStart, Op: c.name, Aux: table})
	return time.Now()
}

func (c *instrumented) end(table int64, t0 time.Time, fs []Finding) []Finding {
	d := int64(time.Since(t0))
	c.h.Observe(d)
	c.ring.Emit(trace.Event{
		Kind: trace.KindCheckEnd, Op: c.name,
		Code: int64(len(fs)), Arg: d, Aux: table,
	})
	return fs
}
