package main

import (
	"math"
	"sort"

	"repro/internal/metrics"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of an
// ascending slice, or 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value (mean of the middle two for an even
// count) without reordering vals.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles reproduces Python's statistics.quantiles(vals, n=4) (the
// exclusive method), the spread rule the benchmark contract is judged by.
// It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// windows collects per-request completions of one phase into fixed-width
// time windows: a completion count per window (throughput) and, when lat is
// set, the latency samples that completed in it. The trailing partial
// window of a phase is never reported — only the first n full ones.
type windows struct {
	width int64 // window width in ns
	ops   []int64
	lat   [][]float64 // µs, per window; nil when latencies are not kept
}

func newWindows(width int64, n int, keepLat bool) *windows {
	w := &windows{width: width, ops: make([]int64, n)}
	if keepLat {
		w.lat = make([][]float64, n)
	}
	return w
}

// add records one completion at offset at (ns since the phase start) with
// the given latency in ns. Completions outside the n full windows are
// dropped from the windowed view (the phase totals still count them).
func (w *windows) add(at, latNs int64) {
	if at < 0 {
		return
	}
	i := int(at / w.width)
	if i >= len(w.ops) {
		return
	}
	w.ops[i]++
	if w.lat != nil {
		w.lat[i] = append(w.lat[i], float64(latNs)/1e3)
	}
}

// merge folds another connection's windows of the same shape into w.
func (w *windows) merge(o *windows) {
	for i := range w.ops {
		w.ops[i] += o.ops[i]
		if w.lat != nil {
			w.lat[i] = append(w.lat[i], o.lat[i]...)
		}
	}
}

// medianRate is the median per-window completion count scaled to ops/s.
func (w *windows) medianRate() float64 {
	rates := make([]float64, len(w.ops))
	for i, n := range w.ops {
		rates[i] = float64(n) * 1e9 / float64(w.width)
	}
	return median(rates)
}

// medianPercentile regroups the windows into groups of `group` consecutive
// windows, takes the p-th percentile of each group's latencies, and returns
// the median across groups together with the smallest group's sample count.
// A stall that lasts one window therefore moves one group's percentile, not
// the reported value.
func (w *windows) medianPercentile(p float64, group int) (value float64, minSamples int) {
	var pcts []float64
	minSamples = math.MaxInt
	for lo := 0; lo+group <= len(w.lat); lo += group {
		var all []float64
		for _, l := range w.lat[lo : lo+group] {
			all = append(all, l...)
		}
		sort.Float64s(all)
		pcts = append(pcts, percentile(all, p))
		if len(all) < minSamples {
			minSamples = len(all)
		}
	}
	if len(pcts) == 0 {
		return 0, 0
	}
	return median(pcts), minSamples
}

// delta is the change of the server's STATS2 snapshot across one phase.
// Counters and the monotonic gauges only grow, so a value that went down
// means the server-side gauge was reset in between (an audit-process
// restart rebuilds its elements); the post-reset reading is then the best
// lower bound of the phase's own growth.
type delta struct {
	counters map[string]float64
	gauges   map[string]float64 // growth of monotonic gauges
	last     map[string]float64 // gauge readings at the end of the phase
	histN    map[string]float64 // histogram observation counts
	histSum  map[string]float64 // histogram observation sums (ns)
}

func grow(before, after float64) float64 {
	if after < before {
		return after
	}
	return after - before
}

func snapDelta(before, after metrics.Snapshot) delta {
	d := delta{
		counters: map[string]float64{}, gauges: map[string]float64{}, last: map[string]float64{},
		histN: map[string]float64{}, histSum: map[string]float64{},
	}
	for k, v := range after.Counters {
		d.counters[k] = grow(float64(before.Counters[k]), float64(v))
	}
	for k, v := range after.Gauges {
		d.gauges[k] = grow(float64(before.Gauges[k]), float64(v))
		d.last[k] = float64(v)
	}
	for k, h := range after.Histograms {
		b := before.Histograms[k]
		d.histN[k] = grow(float64(b.Count), float64(h.Count))
		if h.Count < b.Count {
			d.histSum[k] = float64(h.Sum)
		} else {
			d.histSum[k] = float64(h.Sum - b.Sum)
		}
	}
	return d
}

// ratio is a/b, or 0 when b is 0 (an empty phase has no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
