package health

import (
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// detCacheTTL bounds how often a Snapshot recomputes; gauges read the
// ledger several times per STATS2 snapshot and share one computation.
const detCacheTTL = 50 * time.Millisecond

// windowShots is how many of a core's newest shots a finding can resolve
// to; an older shot has left the core's coverage window.
const windowShots = 64

// DetectBound is the open-shot age past which a shot counts as an overrun,
// and the bound of the server's detect-p99 and detect-watermark objectives:
// an injected fault should be found and repaired within ten 200 ms audit
// periods.
const DetectBound = 2 * time.Second

// detectWindow is the detection-latency sample window.
const detectWindow = 60 * time.Second

// defaultMaxSamples is the join-latency ring capacity.
const defaultMaxSamples = 512

// Detector is the shot ledger: the injector records every region shot in
// its core's coverage window, and each audit finding resolves to the
// newest shot in that window whose offset it covers. A shot's first
// resolve catches it; a shot that leaves the window uncaught stays open for
// good, so open = shots − caught is exact. The ledger keeps windowed
// p50/p99 detection latency plus an open-shot age watermark, so a fault
// the audits have NOT yet found is visible as a rising age, not an absence
// of data. All methods are safe from any goroutine and hold one mutex
// briefly; none waits for anything else while holding it.
type Detector struct {
	mu   sync.Mutex
	wins [][]ledgerShot // per-core coverage window, oldest first
	// lostAt is the shot time of the oldest shot that left a window
	// uncaught (valid once evicted > 0); lost holds those shots' times
	// until their age passes the bound and they count as overruns.
	lostAt   time.Duration
	lost     []time.Duration
	lat      *metrics.Histogram // nil until RegisterMetrics binds it
	samples  []detSample        // ring of caught (at, latency) pairs
	next     int
	filled   bool
	shots    uint64
	caught   uint64
	overruns uint64
	evicted  uint64
	cache    DetectionStats
	cacheAt  time.Duration
	cached   bool
}

type ledgerShot struct {
	id      uint64
	off     int
	at      time.Duration
	caught  bool
	overrun bool // already counted against the watermark bound
}

type detSample struct {
	at, lat time.Duration
}

// NewDetector builds an empty ledger.
func NewDetector() *Detector {
	return &Detector{samples: make([]detSample, defaultMaxSamples)}
}

// Shot records injection id at region offset off on core, at recorder time
// at. It becomes the newest shot in the core's window; the oldest leaves
// once the window is full.
func (d *Detector) Shot(core int, id uint64, off int, at time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.wins) <= core {
		d.wins = append(d.wins, make([]ledgerShot, 0, windowShots))
	}
	w := d.wins[core]
	if len(w) == windowShots {
		if old := w[0]; !old.caught {
			if d.evicted == 0 || old.at < d.lostAt {
				d.lostAt = old.at
			}
			d.evicted++
			if !old.overrun {
				d.lost = append(d.lost, old.at)
			}
		}
		w = append(w[:0], w[1:]...)
	}
	d.wins[core] = append(w, ledgerShot{id: id, off: off, at: at})
	d.shots++
	d.cached = false
}

// Resolve returns the ID of the newest shot in core's window whose offset
// covers reports true for, or 0 when none does. The first resolve of a shot
// catches it and folds the detection latency (now − shot time) into the
// sample window and the latency histogram; later resolves return the same
// ID and change nothing. covers runs under the ledger's mutex and must not
// call back into the Detector.
func (d *Detector) Resolve(core int, covers func(off int) bool, now time.Duration) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if core >= len(d.wins) {
		return 0
	}
	w := d.wins[core]
	for i := len(w) - 1; i >= 0; i-- {
		sh := &w[i]
		if !covers(sh.off) {
			continue
		}
		if !sh.caught {
			sh.caught = true
			d.caught++
			lat := max(now-sh.at, 0)
			if lat > DetectBound && !sh.overrun {
				d.overruns++
			}
			d.samples[d.next] = detSample{at: now, lat: lat}
			d.next++
			if d.next == len(d.samples) {
				d.next = 0
				d.filled = true
			}
			if d.lat != nil {
				d.lat.Observe(int64(lat))
			}
			d.cached = false
		}
		return sh.id
	}
	return 0
}

// bindLatency attaches the histogram every later catch observes into.
func (d *Detector) bindLatency(h *metrics.Histogram) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lat = h
}

// DetectionStats is the ledger's exported view at one instant.
type DetectionStats struct {
	// Shots is the lifetime count of shots recorded; Joined how many of
	// them a finding caught.
	Shots  uint64
	Joined uint64
	// WindowJoined is how many catches fall inside the sample window; P50
	// and P99 are computed over exactly these.
	WindowJoined int
	P50, P99     time.Duration
	// OpenShots counts injected faults no finding has caught (Shots −
	// Joined); OldestOpen is the age of the oldest — the detection
	// watermark.
	OpenShots  int
	OldestOpen time.Duration
	// Overruns counts shots whose detection (or open age) exceeded the
	// bound; Evicted counts open shots that left their core's window
	// uncaught, which no later finding can catch.
	Overruns uint64
	Evicted  uint64
}

// Snapshot computes the stats as of recorder time now. Results are
// cached briefly so gauge fan-out shares one computation.
func (d *Detector) Snapshot(now time.Duration) DetectionStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cached && now >= d.cacheAt && now-d.cacheAt < detCacheTTL {
		return d.cache
	}
	s := DetectionStats{
		Shots: d.shots, Joined: d.caught, OpenShots: int(d.shots - d.caught),
		Evicted: d.evicted,
	}

	// Watermark scan; age past the bound counts as an overrun exactly
	// once per shot, whether or not a late finding eventually lands.
	for _, w := range d.wins {
		for i := range w {
			sh := &w[i]
			if sh.caught {
				continue
			}
			age := now - sh.at
			s.OldestOpen = max(s.OldestOpen, age)
			if age > DetectBound && !sh.overrun {
				sh.overrun = true
				d.overruns++
			}
		}
	}
	if d.evicted > 0 {
		s.OldestOpen = max(s.OldestOpen, now-d.lostAt)
	}
	kept := d.lost[:0]
	for _, at := range d.lost {
		if now-at > DetectBound {
			d.overruns++
		} else {
			kept = append(kept, at)
		}
	}
	d.lost = kept
	s.Overruns = d.overruns

	n := d.next
	if d.filled {
		n = len(d.samples)
	}
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if sm := d.samples[i]; now-sm.at <= detectWindow {
			lats = append(lats, sm.lat)
		}
	}
	s.WindowJoined = len(lats)
	if n := len(lats); n > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		// Nearest-rank percentiles (ceil(q*n)), so small samples report
		// their worst joins instead of rounding down to the median.
		s.P50 = lats[(n+1)/2-1]
		s.P99 = lats[(n*99+99)/100-1]
	}

	d.cache, d.cacheAt, d.cached = s, now, true
	return s
}
