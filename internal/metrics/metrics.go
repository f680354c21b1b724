// Package metrics is the observability substrate of the serving stack: a
// small, allocation-free, concurrency-safe registry of named counters,
// gauges, and fixed-bucket latency histograms, with a snapshot encoder in
// both JSON and text form.
//
// The paper's framework runs off exactly this kind of runtime signal —
// per-table access counters drive prioritized audit triggering (§4.4.1),
// error history drives escalation, heartbeat state drives restart — but
// until this package those counters were scattered ad-hoc fields. The
// registry gives every subsystem one uniform way to publish, and every
// consumer (the wire STATS2 op, the dbserve /statsz HTTP endpoint, the
// dbload -watch loop) one uniform way to observe a server under load.
//
// Design constraints, in order:
//
//   - Hot-path updates (Counter.Add, Gauge.Set, Histogram.Observe) are a
//     handful of atomic operations: no locks, no allocation, so the server
//     can record every request without measurable distortion ("Boosting
//     Device Utilization in Control Flow Auditing" motivates measuring the
//     checker without perturbing it).
//   - Registration is rare and mutex-guarded; Snapshot copies the entry
//     list under the lock but evaluates outside it, so gauge functions may
//     take their own locks without ordering hazards.
//   - Histograms use fixed exponential buckets; quantiles (p50/p95/p99)
//     are extracted from the bucket counts by linear interpolation, so a
//     snapshot is O(buckets) with no sample retention.
package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomically updated instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution accumulator. Bucket i counts
// observations v with v <= bounds[i] (and below any earlier bound); one
// implicit overflow bucket catches everything above the last bound. Count,
// sum, and max are tracked exactly; quantiles are interpolated from the
// bucket counts.
type Histogram struct {
	bounds []int64 // ascending upper bounds
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram builds a detached histogram over the given ascending bucket
// bounds (most callers want Registry.Histogram instead).
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d", i))
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// LatencyBuckets returns the default latency bucket bounds: powers of two
// from 1µs to ~16.8s (25 buckets), in nanoseconds. The range comfortably
// covers a loopback round-trip on the low end and a wedged executor on the
// high end.
func LatencyBuckets() []int64 {
	b := make([]int64, 25)
	for i := range b {
		b[i] = int64(time.Microsecond) << i
	}
	return b
}

// Observe folds one observation into the histogram. Negative values clamp
// to zero. Allocation-free.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	// Manual binary search: first bucket whose bound is >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// ObserveSince observes the nanoseconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(int64(time.Since(t0))) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SnapshotHistogram captures the distribution at one instant.
func (h *Histogram) SnapshotHistogram() HistogramSnapshot {
	return h.snapshot(false)
}

func (h *Histogram) snapshot(full bool) HistogramSnapshot {
	// Read count last so the quantile ranks never exceed the bucket sums
	// under concurrent Observe (buckets are bumped before count).
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{
		Count: total,
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	s.P50 = quantile(h.bounds, counts, total, s.Max, 0.50)
	s.P95 = quantile(h.bounds, counts, total, s.Max, 0.95)
	s.P99 = quantile(h.bounds, counts, total, s.Max, 0.99)
	if full {
		s.Bounds = append([]int64(nil), h.bounds...)
		s.Buckets = counts
	}
	return s
}

// quantile interpolates the q-th quantile from bucket counts using a
// continuous rank: the q-th quantile sits pos = q·total observations into
// the distribution, and within the bucket containing pos the value is
// linearly interpolated between the bucket's bounds (the overflow bucket
// interpolates toward the observed max, and the top bound clamps to max
// so a distribution ending mid-bucket is not stretched to the bound).
func quantile(bounds []int64, counts []uint64, total uint64, max int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	pos := q * float64(total)
	if pos > float64(total) {
		pos = float64(total)
	}
	var seen uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if pos > float64(seen+c) {
			seen += c
			continue
		}
		// pos lands in bucket i spanning (lo, hi].
		var lo int64
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := max
		if i < len(bounds) && bounds[i] < hi {
			hi = bounds[i]
		}
		if hi < lo {
			hi = lo
		}
		frac := (pos - float64(seen)) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + int64(frac*float64(hi-lo)+0.5)
	}
	return max
}

// HistogramSnapshot is the exported view of a histogram: exact count, sum,
// and max plus interpolated percentiles, all in the observed unit
// (nanoseconds for latency histograms). Bounds and Buckets carry the raw
// distribution (ascending upper bounds plus one trailing overflow bucket)
// only when taken via Registry.SnapshotFull; the compact wire form omits
// them.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	P50     int64    `json:"p50"`
	P95     int64    `json:"p95"`
	P99     int64    `json:"p99"`
	Bounds  []int64  `json:"bounds,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Mean returns the average observation, or 0 when empty.
func (s HistogramSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / int64(s.Count)
}

// entry is one registered metric; exactly one of the four fields is set.
type entry struct {
	name string
	c    *Counter
	g    *Gauge
	gf   func() int64
	h    *Histogram
}

// Registry is a named collection of metrics. Registration (the *Counter /
// Gauge / GaugeFunc / Histogram methods) is get-or-create by name and safe
// for concurrent use; re-registering a name as a different kind panics, as
// that is always a programming error.
//
// A Registry value is a view onto shared state: WithPrefix returns a new
// view over the same entries whose registrations are transparently
// namespaced, which is how N database shards publish into one snapshot
// without clobbering each other's gauges. Snapshots taken through any view
// cover the whole shared state, prefixed names included.
type Registry struct {
	s      *regState
	prefix string
}

// regState is the storage every prefix view of one registry shares.
type regState struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{s: &regState{entries: make(map[string]*entry)}}
}

// WithPrefix returns a view of the same registry that prepends p to every
// name it registers or resolves. Prefixes compose: r.WithPrefix("a.").
// WithPrefix("b.") namespaces under "a.b.". The view shares storage with r,
// so a name registered through the view is visible (under its full name)
// to snapshots taken anywhere.
func (r *Registry) WithPrefix(p string) *Registry {
	return &Registry{s: r.s, prefix: r.prefix + p}
}

func (r *regState) lookup(name, kind string) *entry {
	e, ok := r.entries[name]
	if !ok {
		e = &entry{name: name}
		r.entries[name] = e
		return e
	}
	var have string
	switch {
	case e.c != nil:
		have = "counter"
	case e.g != nil:
		have = "gauge"
	case e.gf != nil:
		have = "gaugefunc"
	case e.h != nil:
		have = "histogram"
	}
	if have != kind {
		panic(fmt.Sprintf("metrics: %q already registered as %s, requested %s", name, have, kind))
	}
	return e
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	e := r.s.lookup(r.prefix+name, "counter")
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	e := r.s.lookup(r.prefix+name, "gauge")
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// GaugeFunc registers a gauge computed on demand by fn at snapshot time.
// fn must be safe to call from any goroutine; it may take locks of its
// own. Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	e := r.s.lookup(r.prefix+name, "gaugefunc")
	e.gf = fn
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds if needed (bounds are ignored for an existing histogram; nil
// means LatencyBuckets).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	e := r.s.lookup(r.prefix+name, "histogram")
	if e.h == nil {
		if bounds == nil {
			bounds = LatencyBuckets()
		}
		e.h = NewHistogram(bounds)
	}
	return e.h
}

// Snapshot captures every registered metric at one instant. Gauge
// functions are evaluated outside the registry lock.
func (r *Registry) Snapshot() Snapshot { return r.snapshot(false) }

// SnapshotFull is Snapshot with raw histogram bucket data included — the
// Prometheus exposition source. The compact Snapshot stays the STATS2
// payload so the wire document does not grow with bucket arrays.
func (r *Registry) SnapshotFull() Snapshot { return r.snapshot(true) }

func (r *Registry) snapshot(full bool) Snapshot {
	r.s.mu.Lock()
	entries := make([]*entry, 0, len(r.s.entries))
	for _, e := range r.s.entries {
		entries = append(entries, e)
	}
	r.s.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, e := range entries {
		switch {
		case e.c != nil:
			s.Counters[e.name] = e.c.Load()
		case e.g != nil:
			s.Gauges[e.name] = e.g.Load()
		case e.gf != nil:
			s.Gauges[e.name] = e.gf()
		case e.h != nil:
			s.Histograms[e.name] = e.h.snapshot(full)
		}
	}
	return s
}
