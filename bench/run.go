package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// runConfig is everything one measured run of one workload needs.
type runConfig struct {
	spec    *workloadSpec
	seed    int64
	seconds float64 // total measuring time, split over the phases
	traced  bool
	binDir  string // dbserve and layerpass binaries
	scratch string // WAL directories live here
	outDir  string // span files are written here
	setups  int    // set-ups timed per run; the last one serves the run
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run's verdict and metrics: the end-to-end set of an
// untraced run, or the per-layer set of a traced one.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	problems  []string
}

// Generator-health limits: past either, the open phase measured the driver
// and not the server, and the run is reported as invalid.
const (
	maxGenLateP99us = 20_000
	maxClientCPU    = 0.85 // share of all CPUs, over the open phase
)

// instance is one served set-up: the child, a control connection and the
// preloaded load connections.
type instance struct {
	srv   *serverProc
	ctl   *wire.Conn
	conns []*connState
	base  time.Time
}

func (in *instance) close() error {
	for _, cs := range in.conns {
		cs.c.Close()
	}
	if in.ctl != nil {
		in.ctl.Close()
	}
	return in.srv.stop()
}

// setUp spawns the server and brings it to the state the phases start from:
// first PING answered, one session per connection, every record allocated.
// The returned duration is what a user waits for; building is excluded.
func setUp(cfg *runConfig, withWAL bool) (*instance, time.Duration, error) {
	walDir := ""
	if withWAL {
		walDir = filepath.Join(cfg.scratch, fmt.Sprintf("wal-%d-%d", os.Getpid(), time.Now().UnixNano()))
	}
	t0 := time.Now()
	srv, err := startServer(filepath.Join(cfg.binDir, "dbserve"), cfg.spec.serverArgs, walDir)
	if err != nil {
		return nil, 0, err
	}
	in := &instance{srv: srv, base: t0}
	fail := func(err error) (*instance, time.Duration, error) {
		_ = in.close()
		return nil, 0, err
	}
	if in.ctl, err = wire.Dial(srv.addr); err != nil {
		return fail(err)
	}
	if err := in.ctl.Ping(); err != nil {
		return fail(err)
	}
	// One connection preloads after the other, so the records each owns do
	// not depend on how the two interleave.
	for id := 0; id < numConns; id++ {
		cs, err := dialConn(srv.addr, id, cfg.spec, t0, cfg.seed)
		if err != nil {
			return fail(err)
		}
		in.conns = append(in.conns, cs)
		if err := cs.preload(); err != nil {
			return fail(err)
		}
	}
	return in, time.Since(t0), nil
}

// phase is the merged measurement of one timed phase over all connections.
type phase struct {
	wall     float64 // seconds, phase start to last reply
	win      *windows
	sent     int64
	done     int64
	rttSum   int64
	late     []float64
	kinds    [numKinds]int64
	before   metrics.Snapshot
	after    metrics.Snapshot
	srvCPU   float64 // server CPU seconds spent in the phase
	selfCPU  float64 // driver CPU seconds spent in the phase
	pendMax  float64 // largest wal.flush_pending seen at a poll
	walBytes int64   // growth of the WAL directory
}

func (p *phase) rate() float64 { return p.win.medianRate() }

type phaseOpts struct {
	name    string
	seconds float64
	open    bool // open loop at the workload's frozen rate, else closed
	spans   bool
	stats   bool // STATS2 before/after and gauge sampling at every poll
	poll    bool // tail the trace journal while the phase runs
}

// runner carries one run's state across its phases.
type runner struct {
	cfg   *runConfig
	in    *instance
	jrn   journal
	spans []span
	ids   int64
}

const pollEvery = 500 * time.Millisecond

func (r *runner) stats2() (metrics.Snapshot, error) {
	doc, err := r.in.ctl.Stats2()
	if err != nil {
		return metrics.Snapshot{}, fmt.Errorf("STATS2: %w", err)
	}
	return metrics.ParseSnapshot(doc)
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// run executes one phase on every connection at once and merges what they
// measured. While the connections run, this goroutine owns the control
// connection: it tails the journal and samples gauges.
func (r *runner) run(o phaseOpts) (*phase, error) {
	in := r.in
	ph := &phase{}
	nwin := int(o.seconds)
	if nwin < 1 {
		nwin = 1
	}
	width := int64(time.Second)
	if o.seconds < 1 {
		width = int64(o.seconds * float64(time.Second))
	}
	var err error
	if o.stats {
		if ph.before, err = r.stats2(); err != nil {
			return nil, err
		}
		ph.walBytes = -dirSize(in.srv.walDir)
	}
	cpu0, err := in.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()

	r.ids++
	phaseSpan := span{Name: o.name, ID: r.ids}
	now := int64(time.Since(in.base))
	end := now + int64(o.seconds*float64(time.Second))
	phaseSpan.Start = now
	recs := make([]*phaseRec, len(in.conns))
	errs := make([]error, len(in.conns))
	var wg sync.WaitGroup
	for i, cs := range in.conns {
		rec := &phaseRec{start: now, win: newWindows(width, nwin, o.open)}
		if o.spans {
			rec.spanID = phaseSpan.ID
		}
		recs[i] = rec
		wg.Add(1)
		go func(i int, cs *connState) {
			defer wg.Done()
			if o.open {
				interval := int64(time.Second) * int64(len(in.conns)) / int64(r.cfg.spec.openRate)
				errs[i] = cs.runOpen(newSchedule(r.cfg.seed, i, now, interval), end, rec)
			} else {
				errs[i] = cs.runClosed(r.cfg.spec.window, end, rec)
			}
		}(i, cs)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	var pollErr error
	for running := true; running; {
		select {
		case <-finished:
			running = false
		case <-tick.C:
			if o.poll && pollErr == nil {
				pollErr = r.jrn.poll(in.ctl)
			}
			if o.stats && pollErr == nil {
				var snap metrics.Snapshot
				if snap, pollErr = r.stats2(); pollErr == nil {
					if v := float64(snap.Gauges["wal.flush_pending"]); v > ph.pendMax {
						ph.pendMax = v
					}
				}
			}
		}
	}
	phaseSpan.End = int64(time.Since(in.base))
	ph.wall = float64(phaseSpan.End-phaseSpan.Start) / 1e9
	if err := errors.Join(append(errs, pollErr)...); err != nil {
		return nil, fmt.Errorf("phase %s: %w", o.name, err)
	}
	cpu1, err := in.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ph.srvCPU, ph.selfCPU = cpu1-cpu0, selfCPUSeconds()-self0
	if o.stats {
		if ph.after, err = r.stats2(); err != nil {
			return nil, err
		}
		ph.walBytes += dirSize(in.srv.walDir)
	}
	if o.spans {
		r.spans = append(r.spans, phaseSpan)
	}
	ph.win = newWindows(width, nwin, o.open)
	for _, rec := range recs {
		ph.win.merge(rec.win)
		ph.sent += rec.sent
		ph.done += rec.done
		ph.rttSum += rec.rttSum
		ph.late = append(ph.late, rec.late...)
		for k := range rec.kinds {
			ph.kinds[k] += rec.kinds[k]
		}
	}
	return ph, nil
}

// arm starts the static-mode data injector.
func (r *runner) arm() error {
	if err := r.in.ctl.InjectCtl(shotPeriod, 0, wire.InjectModeStatic); err != nil {
		return fmt.Errorf("INJECT_CTL: %w", err)
	}
	return nil
}

// disarm stops the injector, gives the audit two periods to find the last
// shots, and brings the journal up to date, so every shot fired so far has
// its finding in the journal when disarm returns.
func (r *runner) disarm() error {
	if err := r.in.ctl.InjectCtl(0, 0, wire.InjectModeStatic); err != nil {
		return fmt.Errorf("INJECT_CTL: %w", err)
	}
	time.Sleep(2 * auditPeriod)
	return r.jrn.poll(r.in.ctl)
}

// latGroup is how many 1-s windows one latency percentile is taken over.
const latGroup = 3

// How --seconds is split over the phases of an untraced and a traced run.
const (
	warmShare   = 0.10
	closedShare = 0.38
	openShare   = 0.52

	tracedClosedUShare = 0.20
	tracedClosedShare  = 0.25
	tracedOpenShare    = 0.25
	tracedIdleShare    = 0.20
)

func latencyOf(ph *phase, p float64) (float64, int) {
	g := latGroup
	if len(ph.win.lat) < g {
		g = len(ph.win.lat)
	}
	return ph.win.medianPercentile(p, g)
}

// runWorkload measures one workload once. It returns an error only when the
// run could not be carried out; a run that finished with wrong outputs or a
// saturated generator comes back with Correct false and the reasons logged.
func runWorkload(cfg *runConfig) (*runResult, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	var setups []float64
	var in *instance
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		if in, d, err = setUp(cfg, cfg.spec.wal); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	r := &runner{cfg: cfg, in: in, jrn: journal{}}
	m, err := r.measure()
	if cerr := in.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		// The server is gone: the twin and the layer pass have the host to
		// themselves.
		if err := r.perLayer(m); err != nil {
			return nil, err
		}
	} else {
		m.endToEnd(cfg.spec.name, median(setups))
	}
	for _, p := range m.res.problems {
		logf("%s: %s", cfg.spec.name, p)
	}
	return m.res, nil
}

// measured is what the phases and the correctness gate of one run produced.
type measured struct {
	res                   *runResult
	closed, closedU, open *phase    // closedU: the untraced closed phase of a traced run
	det, idle             detection // under load; idle only in a traced run
	lateP99, cpuShare     float64   // generator health over the open phase
	rssMB                 float64
}

func (m *measured) put(name string, v float64, unit string) {
	m.res.Metrics[name] = metricValue{v, unit}
}

func (m *measured) problem(format string, args ...any) {
	m.res.problems = append(m.res.problems, fmt.Sprintf(format, args...))
}

// measure runs the phases and the correctness gate against the live server.
func (r *runner) measure() (*measured, error) {
	cfg, in := r.cfg, r.in
	S := cfg.seconds
	m := &measured{res: &runResult{Metrics: map[string]metricValue{}}}

	if _, err := r.run(phaseOpts{name: "warm-up", seconds: warmShare * S}); err != nil {
		return nil, err
	}
	var err error
	if err = r.arm(); err != nil {
		return nil, err
	}
	if !cfg.traced {
		// Detection latency is measured under the saturating closed-loop
		// load; the injector is off again before latency is measured.
		if m.closed, err = r.run(phaseOpts{name: "closed", seconds: closedShare * S, poll: true}); err != nil {
			return nil, err
		}
		if err = r.disarm(); err != nil {
			return nil, err
		}
		if m.open, err = r.run(phaseOpts{name: "open", seconds: openShare * S, open: true}); err != nil {
			return nil, err
		}
	} else {
		if m.closedU, err = r.run(phaseOpts{name: "closed-untraced", seconds: tracedClosedUShare * S, poll: true}); err != nil {
			return nil, err
		}
		if m.closed, err = r.run(phaseOpts{name: "closed", seconds: tracedClosedShare * S, poll: true, spans: true, stats: true}); err != nil {
			return nil, err
		}
		if err = r.disarm(); err != nil {
			return nil, err
		}
		if m.open, err = r.run(phaseOpts{name: "open", seconds: tracedOpenShare * S, open: true, spans: true}); err != nil {
			return nil, err
		}
		// Idle detection latency: the same injector with no client load.
		loaded := r.jrn.maxSeq()
		if err = r.arm(); err != nil {
			return nil, err
		}
		for t := 0.0; t < tracedIdleShare*S; t += pollEvery.Seconds() {
			time.Sleep(pollEvery)
			if err = r.jrn.poll(in.ctl); err != nil {
				return nil, err
			}
		}
		if err = r.disarm(); err != nil {
			return nil, err
		}
		m.idle = r.jrn.join(loaded)
		if m.idle.unjoined != 0 || m.idle.shots == 0 {
			m.problem("idle phase: %d shots, %d unjoined", m.idle.shots, m.idle.unjoined)
		}
	}

	// Correctness gate, outside the timed phases. Every shot of the run
	// counts: the injector was armed for the first time after the warm-up.
	m.det = r.jrn.join(0)
	var fails failures
	attempted := m.closed.sent + m.open.sent
	if m.closedU != nil {
		attempted += m.closedU.sent
	}
	for _, cs := range in.conns {
		n, err := cs.readBack()
		if err != nil {
			return nil, fmt.Errorf("read-back: %w", err)
		}
		attempted += n
		fails.add(cs.fail)
	}
	if fails.total() > 0 {
		m.problem("%d errors, %d timeouts, %d sheds, %d golden mismatches; first: %s",
			fails.errors, fails.timeouts, fails.sheds, fails.mismatches, fails.first)
	}
	findings, err := in.ctl.Sweep()
	if err != nil {
		return nil, fmt.Errorf("final SWEEP: %w", err)
	}
	if findings != 0 {
		m.problem("final SWEEP reported %d findings", findings)
	}
	if m.det.unjoined != 0 || m.det.shots == 0 {
		m.problem("%d shots in the journal, %d never joined a finding", m.det.shots, m.det.unjoined)
	}
	final, err := r.stats2()
	if err != nil {
		return nil, err
	}
	joined := int64(m.det.shots - m.det.unjoined)
	if g := final.Gauges["health.detect.joined"]; g != joined {
		m.problem("driver joined %d shots, health.detect.joined reads %d", joined, g)
	}
	m.res.Attempted = attempted
	m.res.Failed = fails.total() + int64(findings) + int64(m.det.unjoined)

	// Generator health.
	sort.Float64s(m.open.late)
	m.lateP99 = percentile(m.open.late, 0.99)
	m.cpuShare = ratio(m.open.selfCPU, m.open.wall*float64(runtime.NumCPU()))
	if m.lateP99 > maxGenLateP99us || m.cpuShare > maxClientCPU {
		m.problem("generator saturated in the open phase: sends ran %.0f µs late at p99, driver CPU share %.2f", m.lateP99, m.cpuShare)
	}
	if _, n := latencyOf(m.open, 0.99); n < 1000 {
		m.problem("only %d latency samples in a window group: fewer than 10 beyond p99", n)
	}
	m.res.Correct = len(m.res.problems) == 0
	if m.rssMB, err = in.srv.rssHighWaterMB(); err != nil {
		return nil, err
	}
	return m, nil
}

// endToEnd fills in the metrics of an untraced run.
func (m *measured) endToEnd(name string, setupS float64) {
	p50, _ := latencyOf(m.open, 0.50)
	m.put("setup_s", setupS, "s")
	m.put("ops_per_s", m.closed.rate(), "1/s")
	m.put("lat_p50_us", p50, "us")
	m.put("server_cpu_us_per_op", ratio(m.closed.srvCPU*1e6, float64(m.closed.done)), "us")
	m.put("server_rss_mb", m.rssMB, "MB")
	m.put("detect_p50_ms", percentile(m.det.latMs, 0.50), "ms")
	m.put("detect_p90_ms", percentile(m.det.latMs, 0.90), "ms")
	logf("%s: closed %d ops, open %d ops (late p50 %.0f p99 %.0f µs, driver CPU %.2f), %d shots joined",
		name, m.closed.done, m.open.done, percentile(m.open.late, 0.5), m.lateP99, m.cpuShare, len(m.det.latMs))
}

// perLayer fills in the metrics of a traced run: the STATS2 deltas and client
// spans of its traced closed phase, the WAL twin, and the layer pass.
func (r *runner) perLayer(m *measured) error {
	cfg, closed := r.cfg, m.closed
	d := snapDelta(closed.before, closed.after)
	done := float64(closed.done)
	meanUs := func(h string) float64 { return ratio(d.histSum[h], d.histN[h]) / 1e3 }
	sumPrefix := func(vals map[string]float64, prefix, except string) float64 {
		var t float64
		for k, v := range vals {
			if strings.HasPrefix(k, prefix) && k != except {
				t += v
			}
		}
		return t
	}
	p99, _ := latencyOf(m.open, 0.99)
	m.put("lat_p99_us", p99, "us")
	m.put("trace_overhead_ratio", ratio(closed.rate(), m.closedU.rate()), "ratio")
	m.put("client.fail_ratio", ratio(float64(m.res.Failed), float64(m.res.Attempted)), "ratio")
	m.put("client.gen_late_p99_us", m.lateP99, "us")
	m.put("client.cpu_share", m.cpuShare, "ratio")

	m.put("server.queue_wait_us", meanUs("server.stage.queue_wait"), "us")
	m.put("server.execute_us", meanUs("server.stage.execute"), "us")
	m.put("server.reply_write_us", meanUs("server.stage.reply_write"), "us")
	m.put("server.batch_size", ratio(d.histSum["server.batch.size"], d.histN["server.batch.size"]), "count")
	m.put("server.queue_high_water", d.last["server.queue.high_water"], "count")
	m.put("server.shed", d.gauges["server.queue.dropped"], "count")
	rttUs := ratio(float64(closed.rttSum), done) / 1e3
	m.put("server.rtt_us", rttUs, "us")
	// max ÷ mean of the requests each shard executed; 1 for a single core.
	imbalance, shards, sum, max := 1.0, 0, 0.0, 0.0
	for {
		v, ok := d.gauges[fmt.Sprintf("shard.%d.server.executed", shards)]
		if !ok {
			break
		}
		shards++
		sum += v
		if v > max {
			max = v
		}
	}
	if sum > 0 {
		imbalance = max * float64(shards) / sum
	}
	m.put("shard.imbalance", imbalance, "ratio")

	reads := float64(closed.kinds[kReadFld] + closed.kinds[kReadRec] + closed.kinds[kStatus])
	m.put("fastlane.hit_ratio", ratio(d.counters["fastlane.reads"], reads), "ratio")
	m.put("fastlane.retry_ratio", ratio(d.counters["fastlane.retries"], d.counters["fastlane.reads"]), "ratio")
	m.put("fastlane.fallbacks", d.counters["fastlane.fallbacks"], "count")

	m.put("audit.sweeps", d.counters["audit.sweeps"], "count")
	m.put("audit.busy_share", ratio(sumPrefix(d.histSum, "audit.check.", ""), closed.wall*1e9), "ratio")
	m.put("audit.debt_max_behind", d.last["audit.debt.max_behind"], "count")
	m.put("audit.overruns", d.gauges["audit.debt.overruns"], "count")
	m.put("audit.findings", sumPrefix(d.counters, "audit.findings.", ""), "count")
	m.put("audit.recoveries", sumPrefix(d.counters, "audit.actions.", "audit.actions.none"), "count")
	m.put("audit.detect_idle_p50_ms", percentile(m.idle.latMs, 0.50), "ms")

	appended := d.gauges["wal.appended"]
	m.put("wal.appended", appended, "count")
	m.put("wal.fsyncs", d.histN["wal.fsync"], "count")
	m.put("wal.group_size", ratio(appended, d.histN["wal.fsync"]), "count")
	m.put("wal.bytes_per_append", ratio(float64(closed.walBytes), appended), "B")
	m.put("wal.flush_pending_max", closed.pendMax, "count")

	m.put("proc.execs", d.counters["proc.execs"], "count")
	m.put("proc.violations", d.counters["proc.violations"], "count")
	m.put("proc.busy_share", ratio(sumPrefix(d.histSum, "proc.exec.", ""), closed.wall*1e9), "ratio")

	m.put("trace.events_per_op", ratio(d.gauges["trace.events"], done), "count")
	var drops float64
	for k, v := range d.gauges {
		if strings.HasPrefix(k, "trace.") && strings.HasSuffix(k, ".drops") {
			drops += v
		}
	}
	m.put("trace.drops", drops, "count")

	// The WAL's end-to-end price: the same closed phase against a twin
	// server that differs only in having no -wal-dir.
	overhead := 1.0
	if cfg.spec.wal {
		twin, _, err := setUp(cfg, false)
		if err != nil {
			return fmt.Errorf("wal twin: %w", err)
		}
		tr := &runner{cfg: cfg, in: twin, jrn: journal{}}
		_, err = tr.run(phaseOpts{name: "twin-warm-up", seconds: warmShare * cfg.seconds})
		var tp *phase
		if err == nil {
			tp, err = tr.run(phaseOpts{name: "twin-closed", seconds: tracedClosedShare * cfg.seconds})
		}
		if cerr := twin.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("wal twin: %w", err)
		}
		overhead = ratio(tp.rate(), closed.rate())
	}
	m.put("wal.overhead_ratio", overhead, "ratio")

	layers, err := layerPass(cfg)
	if err != nil {
		return err
	}
	for k, v := range layers {
		m.res.Metrics[k] = v
	}
	codecUs := (layers["wire.encode_req_ns"].Value + layers["wire.parse_req_ns"].Value +
		layers["wire.encode_resp_ns"].Value + layers["wire.parse_resp_ns"].Value) / 1e3
	stagesUs := ratio(d.histSum["server.stage.queue_wait"]+d.histSum["server.stage.execute"]+
		d.histSum["server.stage.reply_write"], done) / 1e3
	m.put("server.residual_share", ratio(rttUs-stagesUs-codecUs, rttUs), "ratio")

	logf("%s: traced closed %d ops (untraced ratio %.3f), rtt %.1f µs = stages %.1f + codec %.1f + residual",
		cfg.spec.name, closed.done, ratio(closed.rate(), m.closedU.rate()), rttUs, stagesUs, codecUs)
	return r.writeSpans()
}

// layerPass runs the layer microbenchmarks in their own process: they link
// every internal package, the end-to-end driver only the wire protocol.
func layerPass(cfg *runConfig) (map[string]metricValue, error) {
	cmd := exec.Command(filepath.Join(cfg.binDir, "layerpass"), "-scratch", cfg.scratch)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	var m map[string]metricValue
	if err := json.Unmarshal(out, &m); err != nil {
		return nil, fmt.Errorf("layer pass output: %w", err)
	}
	return m, nil
}

// writeSpans dumps the run's spans (phases first, then each connection's
// requests) for offline inspection.
func (r *runner) writeSpans() error {
	all := r.spans
	for _, cs := range r.in.conns {
		all = append(all, cs.spans...)
	}
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.cfg.outDir, "spans-"+r.cfg.spec.name+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
