// Command dbload is a closed-loop load generator for dbserve: each worker
// connection drives a mixed read/write workload against the Resource table
// (all values in their audited ranges), verifies every read against a
// client-side golden copy, and at the end forces a full audit sweep — which
// must come back clean — before reporting throughput and latency
// percentiles.
//
// Usage:
//
//	dbload -addr 127.0.0.1:7420 -conns 4 -ops 10000
//	dbload -addr 127.0.0.1:7420,127.0.0.1:7421 -ops 10000   # failover-aware
//	dbload -addr 127.0.0.1:7420,127.0.0.1:7421,127.0.0.1:7422 -route \
//	    -ops 10000                                   # replica read fan-out
//	dbload -addr 127.0.0.1:7420 -watch 1s            # live telemetry feed
//	dbload -addr 127.0.0.1:7420 -scenario fault-storm -seed 7 \
//	    -scenario-scale 0.1 -scenario-report storm.json
//
// With -scenario, dbload replays a named traffic scenario from
// internal/scenario instead of the closed-loop workload: profile/timeline-
// driven load (steady, diurnal, flash-crowd shapes; Zipf-skewed keys;
// churn; PROC calls) whose op sequence is fully determined by -seed, with
// a per-run JSON report (-scenario-report) covering achieved throughput,
// per-op latency percentiles, server-side findings and recoveries, and —
// for fault-storm timelines — the shot-to-finding detection-latency join.
// `-scenario list` prints the registered names. -scenario-scale compresses
// the timeline for smokes; the shape (and op mix per seed) is preserved.
//
// With -route, workers drive a -read-pct read/write mix through the
// internal/router read fan-out instead of a single primary connection:
// reads (READ_REC/READ_FLD) spread across the set's read-serving standbys
// under the session's bounded-staleness lease, while writes pin to the
// primary. Because each write advances the session's lease token — pinning
// its reads to the primary until the standbys re-apply past it — the read
// share is the scaling lever: -read-pct 100 routes everything once the
// seed writes replicate, the default 80 keeps replication and lease
// pinning continuously exercised.
// Every routed read is still verified against the worker's golden
// copy — and because the lease token covers the worker's last acknowledged
// write to its private record, any mismatch on a routed read is a
// staleness-bound violation, which the run reports and fails on. The
// summary adds the router's counters (replica vs primary reads, lease
// pins, stale fallbacks, failovers) and a per-target read breakdown.
//
// -addr accepts a comma-separated address list. With more than one address
// dbload is failover-aware: it resolves the current primary via REPL_STATUS
// before connecting, and when an operation fails with ErrStandby,
// ErrShutdown, or a network error — the signatures of a primary dying under
// it — the worker re-resolves, reconnects to whichever node now claims the
// primary role (a promoted standby), and retries. Reconnects are counted
// and reported.
//
// With -watch, dbload generates no load: it polls the server's STATS2
// metrics snapshot at the given interval and prints a one-line summary per
// poll (throughput since the previous poll, queue depth, shed and
// trace-drop counters, audit sweeps/findings, WAL flush backlog and
// replication lag on durable servers, and the busiest operation's latency
// percentiles). It runs until interrupted, or for -watch-n polls.
//
// With -trace FILE, dbload fetches the server's flight-recorder journal
// after the run — one TRACE request per event kind, merged client-side —
// and writes it as JSON to FILE ("-" for stdout). The journal is written
// even when the run itself failed, so the evidence of a failure survives.
//
// dbload exits nonzero on any protocol error, golden-copy mismatch, or
// audit finding — unless -expect-findings is set, which tolerates
// mismatches and findings (the expected state of a server running with
// -inject-period fault injection, or of a failover that lost a not-yet-
// replicated acknowledgement) and reports them instead.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/callproc"
	"repro/internal/health"
	"repro/internal/memdb"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
	}()
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "dbload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("dbload", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7420", "dbserve address, or comma-separated primary,standby list for failover-aware runs")
	conns := fs.Int("conns", 4, "concurrent client connections")
	ops := fs.Int("ops", 10000, "total operations across all connections")
	pipeline := fs.Int("pipeline", 1, "requests in flight per connection; >1 switches workers to the pipelined read/write workload (not failover-aware)")
	readPct := fs.Int("read-pct", -1, "pipelined workload read percentage 0-100 (default 80; setting it implies the pipelined workload even at -pipeline 1)")
	watch := fs.Duration("watch", 0, "watch mode: poll the server's metrics at this interval instead of generating load")
	watchN := fs.Int("watch-n", 0, "watch mode: stop after this many polls (0 = until interrupted)")
	tracePath := fs.String("trace", "", "after the run, fetch the server's flight-recorder journal and write it as JSON to this file (\"-\" = stdout)")
	expectFindings := fs.Bool("expect-findings", false, "tolerate golden-copy mismatches and audit findings (for servers running with fault injection)")
	procPct := fs.Int("proc-pct", 0, "percentage 0-100 of operations routed through server-side procedures (PROC op)")
	route := fs.Bool("route", false, "fan reads out across the replica set via the client-side read router (writes stay on the primary)")
	routeProbe := fs.Duration("route-probe", 0, "routed mode: router health-probe interval (0 = router default); shorter shrinks the window where reads pin to the primary after a write")
	scenarioName := fs.String("scenario", "", "run a named traffic scenario instead of the closed-loop workload (see -scenario list)")
	seed := fs.Int64("seed", 1, "scenario mode: RNG seed; a fixed seed reproduces the exact op sequence")
	scenarioScale := fs.Float64("scenario-scale", 1, "scenario mode: time-compression factor (0.05 replays the shape in 5% of the time)")
	scenarioReport := fs.String("scenario-report", "", "scenario mode: write the JSON report artifact to this file")
	scenarioConns := fs.Int("scenario-conns", 0, "scenario mode: override the scenario's worker count (0 = scenario default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *procPct < 0 || *procPct > 100 {
		return errors.New("-proc-pct must be 0-100")
	}
	if *readPct != -1 && (*readPct < 0 || *readPct > 100) {
		return errors.New("-read-pct must be -1 (unset) or 0-100")
	}
	addrs := splitAddrs(*addr)
	if len(addrs) == 0 {
		return errors.New("-addr must name at least one address")
	}
	if *scenarioName != "" {
		// Scenario mode replaces the closed-loop generator wholesale; the
		// knobs that shape that generator have no meaning here.
		if *watch > 0 {
			return errors.New("-scenario and -watch are mutually exclusive: a scenario run samples the server itself")
		}
		if *pipeline != 1 || *readPct != -1 {
			return errors.New("-scenario drives its own workload; -pipeline and -read-pct apply only to the closed-loop generator")
		}
		if *route {
			return errors.New("-scenario and -route are mutually exclusive: scenarios drive the primary directly")
		}
		return scenarioRun(out, addrs, *scenarioName, *seed, *scenarioConns, *scenarioScale, *scenarioReport, *tracePath, stop)
	}
	if *watch > 0 {
		if *route {
			return errors.New("-watch and -route are mutually exclusive: watch mode generates no load to route")
		}
		return watchLoop(out, addrs, *watch, *watchN, stop)
	}
	if *conns <= 0 || *ops <= 0 {
		return errors.New("-conns and -ops must be positive")
	}
	if *pipeline < 1 {
		return errors.New("-pipeline must be >= 1")
	}
	if *route {
		if *pipeline != 1 {
			return errors.New("-route and -pipeline are mutually exclusive: routed sessions are synchronous")
		}
		if *procPct != 0 {
			return errors.New("-route and -proc-pct are mutually exclusive: procedures always run on the primary over the direct client")
		}
	}

	runErr := loadRun(out, addrs, loadOptions{
		conns: *conns, ops: *ops, pipeline: *pipeline, readPct: *readPct,
		procPct: *procPct, expectFindings: *expectFindings,
		route: *route, routeProbe: *routeProbe,
	})
	// The journal is fetched after the run, success or not: when the run
	// failed it is exactly the evidence worth keeping.
	if *tracePath != "" {
		if derr := dumpJournal(out, addrs, *tracePath); derr != nil {
			if runErr == nil {
				runErr = derr
			} else {
				fmt.Fprintf(out, "dbload: trace dump failed: %v\n", derr)
			}
		}
	}
	return runErr
}

// scenarioRun drives one named scenario and writes its artifacts: the
// plan summary and throughput lines to out, the full JSON report to
// reportPath, and (like the closed-loop mode) the flight-recorder journal
// to tracePath. The report is written even when the run failed — a failed
// acceptance is exactly the run worth inspecting.
func scenarioRun(out io.Writer, addrs []string, name string, seed int64, conns int, scale float64, reportPath, tracePath string, stop <-chan struct{}) error {
	if name == "list" {
		for _, n := range scenario.Names() {
			fmt.Fprintln(out, n)
		}
		return nil
	}
	sc, ok := scenario.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (have: %s)", name, strings.Join(scenario.Names(), ", "))
	}
	rep, runErr := scenario.Run(sc, scenario.RunOptions{
		Options: scenario.Options{Seed: seed, Conns: conns, Scale: scale},
		Addrs:   addrs,
		Out:     out,
		Stop:    stop,
	})
	if rep != nil && reportPath != "" {
		if werr := rep.WriteFile(reportPath); werr != nil {
			if runErr == nil {
				runErr = werr
			} else {
				fmt.Fprintf(out, "dbload: scenario report write failed: %v\n", werr)
			}
		} else {
			fmt.Fprintf(out, "scenario %s: report written to %s\n", name, reportPath)
		}
	}
	if tracePath != "" {
		if derr := dumpJournal(out, addrs, tracePath); derr != nil {
			if runErr == nil {
				runErr = derr
			} else {
				fmt.Fprintf(out, "dbload: trace dump failed: %v\n", derr)
			}
		}
	}
	if runErr == nil {
		fmt.Fprintf(out, "scenario %s: PASS\n", name)
	}
	return runErr
}

// splitAddrs parses the comma-separated -addr value.
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// failoverWindow bounds how long a worker keeps re-resolving the primary
// before giving up on an operation. It comfortably covers a standby's
// promotion streak (fail-limit × poll interval) at the defaults.
const failoverWindow = 15 * time.Second

// isFailoverErr reports whether err is the signature of a primary dying or
// demoting under the client — the cases where re-resolving the address
// list can succeed — as opposed to a protocol or application error, where
// a retry elsewhere would only mask a bug.
func isFailoverErr(err error) bool {
	if errors.Is(err, wire.ErrStandby) || errors.Is(err, wire.ErrShutdown) ||
		errors.Is(err, wire.ErrNotPrimary) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// dialPrimary connects to the current primary. With a single address it
// preserves the classic behavior — connect, no role probe. With several it
// asks each node for its role via REPL_STATUS and keeps the first that
// claims primary, so after a failover the promoted standby is found on the
// next resolve.
func dialPrimary(addrs []string) (*wire.Conn, error) {
	if len(addrs) == 1 {
		return wire.Dial(addrs[0])
	}
	lastErr := errors.New("wire: no reachable address")
	for _, a := range addrs {
		c, err := wire.Dial(a)
		if err != nil {
			lastErr = fmt.Errorf("%s: %w", a, err)
			continue
		}
		c.Timeout = 5 * time.Second
		st, err := c.ReplStatus()
		if err != nil {
			c.Close()
			lastErr = fmt.Errorf("%s: %w", a, err)
			continue
		}
		if st.Role == wire.RolePrimary {
			return c, nil
		}
		c.Close()
		lastErr = fmt.Errorf("%s: %w", a, wire.ErrStandby)
	}
	return nil, lastErr
}

// dialAny connects to the first reachable address regardless of role —
// watch mode and journal fetches are read-only and standbys answer them.
func dialAny(addrs []string) (*wire.Conn, error) {
	var lastErr error
	for _, a := range addrs {
		c, err := wire.Dial(a)
		if err == nil {
			return c, nil
		}
		lastErr = fmt.Errorf("%s: %w", a, err)
	}
	return nil, lastErr
}

// loadOptions bundles the closed-loop generator's knobs.
type loadOptions struct {
	conns, ops, pipeline, readPct, procPct int
	expectFindings                         bool
	route                                  bool
	routeProbe                             time.Duration
}

// loadRun drives the closed-loop workload and verifies the end state.
func loadRun(out io.Writer, addrs []string, opts loadOptions) error {
	conns, pipeline, readPct := opts.conns, opts.pipeline, opts.readPct
	expectFindings, route := opts.expectFindings, opts.route
	var rt *router.Router
	if route {
		var err error
		rt, err = router.New(router.Config{Addrs: addrs, ProbeInterval: opts.routeProbe})
		if err != nil {
			return err
		}
		defer rt.Close()
	}
	var wg sync.WaitGroup
	workers := make([]*worker, conns)
	perWorker := opts.ops / conns
	if perWorker == 0 {
		perWorker = 1
	}
	start := time.Now()
	for i := range workers {
		w := &worker{id: i, addrs: addrs, ops: perWorker, lax: expectFindings,
			pipeline: pipeline, readPct: readPct, procPct: opts.procPct, rt: rt}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.err = w.drive()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []time.Duration
	done, mismatches, reconnects, stale := 0, 0, 0, 0
	procCalls, procAborts := 0, 0
	for _, w := range workers {
		if w.err != nil {
			return fmt.Errorf("worker %d: %w", w.id, w.err)
		}
		lats = append(lats, w.lats...)
		done += len(w.lats)
		mismatches += w.mismatches
		reconnects += w.reconnects
		stale += w.staleViolations
		procCalls += w.procCalls
		procAborts += w.procAborts
	}

	// The workload only wrote in-range values through the API, so a full
	// audit sweep over the live region must be clean — unless the server
	// is injecting faults into its own region, in which case findings are
	// the system working as designed.
	ctl, err := dialPrimary(addrs)
	if err != nil {
		return fmt.Errorf("control connection: %w", err)
	}
	defer ctl.Close()
	findings, err := ctl.Sweep()
	if err != nil {
		return fmt.Errorf("final sweep: %w", err)
	}
	doc, err := ctl.Stats2()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	snap, err := metrics.ParseSnapshot(doc)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	liveFindings := snap.Gauges["server.audit.findings"]

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	mode := ""
	if pipeline > 1 || readPct >= 0 {
		if readPct < 0 {
			readPct = defaultReadPct
		}
		mode = fmt.Sprintf(" (pipeline=%d read-pct=%d)", pipeline, readPct)
	}
	if route {
		if readPct < 0 {
			readPct = defaultReadPct
		}
		mode = fmt.Sprintf(" (routed read-pct=%d)", readPct)
	}
	fmt.Fprintf(out, "dbload: %d ops over %d conns in %v: %.0f ops/s%s\n",
		done, conns, elapsed.Round(time.Millisecond), float64(done)/elapsed.Seconds(), mode)
	fmt.Fprintf(out, "  latency p50=%v p95=%v p99=%v max=%v\n",
		pct(lats, 50), pct(lats, 95), pct(lats, 99), pct(lats, 100))
	fmt.Fprintf(out, "  server: %d requests dropped, %d audit sweeps, %d findings\n",
		snap.Gauges["server.queue.dropped"], snap.Counters["audit.sweeps"], liveFindings)
	fmt.Fprintf(out, "  final sweep: %d findings\n", findings)
	if reconnects > 0 {
		fmt.Fprintf(out, "  failover: %d reconnects\n", reconnects)
	}
	if procCalls > 0 {
		fmt.Fprintf(out, "  procedures: %d calls, %d detected aborts\n", procCalls, procAborts)
	}
	if rt != nil {
		st := rt.Stats()
		fmt.Fprintf(out, "  %s\n", st)
		targets := make([]string, 0, len(st.PerTarget))
		for a := range st.PerTarget {
			targets = append(targets, a)
		}
		sort.Strings(targets)
		for _, a := range targets {
			fmt.Fprintf(out, "    %s: %d routed reads\n", a, st.PerTarget[a])
		}
		fmt.Fprintf(out, "  staleness violations: %d\n", stale)
	}
	if expectFindings {
		fmt.Fprintf(out, "  tolerated: %d golden-copy mismatches, %d live findings (-expect-findings)\n",
			mismatches, liveFindings)
		return nil
	}
	if stale != 0 {
		return fmt.Errorf("routed reads observed %d staleness-bound violations", stale)
	}
	if findings != 0 {
		return fmt.Errorf("final audit sweep found %d errors", findings)
	}
	if liveFindings != 0 {
		return fmt.Errorf("live audits produced %d findings during the run", liveFindings)
	}
	return nil
}

// dumpJournal fetches the server's flight-recorder journal — one TRACE
// request per event kind, so a chatty kind cannot crowd the others out of
// the bounded reply frame — merges the fetches by sequence number, and
// writes the JSON to path ("-" = out).
func dumpJournal(out io.Writer, addrs []string, path string) error {
	c, err := dialAny(addrs)
	if err != nil {
		return fmt.Errorf("trace connection: %w", err)
	}
	defer c.Close()
	journals := make([][]trace.Event, 0, len(trace.Kinds())+1)
	fetch := func(kind trace.Kind) error {
		doc, err := c.TraceJSON(int(kind), 0)
		if err != nil {
			return fmt.Errorf("TRACE kind=%v: %w", kind, err)
		}
		evs, err := trace.DecodeJSON(doc)
		if err != nil {
			return fmt.Errorf("TRACE kind=%v decode: %w", kind, err)
		}
		journals = append(journals, evs)
		return nil
	}
	// The unfiltered fetch first (it sees the freshest tail), then one per
	// kind; Merge dedupes the overlap by sequence number.
	if err := fetch(0); err != nil {
		return err
	}
	for _, k := range trace.Kinds() {
		if err := fetch(k); err != nil {
			return err
		}
	}
	merged := trace.Merge(journals...)
	data, err := trace.EncodeJSON(merged)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = out.Write(data)
	} else {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dbload: journal: %d events to %s\n", len(merged), path)
	// PECOS detection join summary: how many pecos-violation events the
	// journal holds, and how many carry a trace ID that joins the request
	// path — a request-enqueue event (when the bounded req ring still holds
	// that request) or the control-flow finding/recovery pair the detection
	// raised, which inherits the same request trace ID. This is the
	// live-load evidence the smoke test greps for.
	reqs := make(map[uint64]bool)
	for _, ev := range merged {
		switch {
		case ev.Kind == trace.KindReqEnqueue && ev.Trace != 0:
			reqs[ev.Trace] = true
		case ev.Kind == trace.KindFinding && ev.Op == "control-flow" && ev.Trace != 0:
			reqs[ev.Trace] = true
		case ev.Kind == trace.KindRecovery && ev.Op == "reload-text" && ev.Trace != 0:
			reqs[ev.Trace] = true
		}
	}
	total, joined := 0, 0
	for _, ev := range merged {
		if ev.Kind == trace.KindPECOS {
			total++
			if reqs[ev.Trace] {
				joined++
			}
		}
	}
	if total > 0 {
		fmt.Fprintf(out, "dbload: pecos: total=%d joined=%d\n", total, joined)
	}
	return nil
}

// watchLoop is -watch mode: one STATS2 poll per interval over a single
// control connection, one summary line per poll. Throughput is the
// executed-counter delta between polls; the latency percentiles shown are
// those of the busiest per-operation histogram, computed server-side.
func watchLoop(out io.Writer, addrs []string, interval time.Duration, n int, stop <-chan struct{}) error {
	c, err := dialAny(addrs)
	if err != nil {
		return err
	}
	defer c.Close()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var prevExec int64
	var prevAt time.Time
	for i := 0; n <= 0 || i < n; i++ {
		if i > 0 {
			select {
			case <-tick.C:
			case <-stop:
				return nil
			}
		}
		doc, err := c.Stats2()
		if err != nil {
			return fmt.Errorf("STATS2: %w", err)
		}
		snap, err := metrics.ParseSnapshot(doc)
		if err != nil {
			return fmt.Errorf("STATS2 decode: %w", err)
		}
		now := time.Now()
		exec := snap.Gauges["server.executed"]
		rate := 0.0
		if !prevAt.IsZero() {
			if dt := now.Sub(prevAt).Seconds(); dt > 0 {
				rate = float64(exec-prevExec) / dt
			}
		}
		prevExec, prevAt = exec, now
		fmt.Fprintln(out, watchLine(snap, rate))
	}
	return nil
}

// watchLine renders one poll of the snapshot as a single summary line.
// shed= is the executor-queue drop counter; trace= is events emitted and,
// after the slash, journal events lost to ring overflow. Durable servers
// add wal= (appends awaiting fsync — sustained growth means the disk is
// falling behind the executor clock) and lag= (log records the standby has
// yet to acknowledge). Servers with the health plane on add health= (the
// overall SLO state, with the count of injected-but-undetected faults in
// parentheses while any are open).
func watchLine(snap metrics.Snapshot, rate float64) string {
	var traceDrops int64
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "trace.") && strings.HasSuffix(name, ".drops") {
			traceDrops += v
		}
	}
	line := fmt.Sprintf("watch: %6.0f ops/s conns=%d queue=%d/%d shed=%d trace=%d/%d sweeps=%d findings=%d",
		rate,
		snap.Gauges["server.conns.active"],
		snap.Gauges["server.queue.depth"], snap.Gauges["server.queue.capacity"],
		snap.Gauges["server.queue.dropped"],
		snap.Gauges["trace.events"], traceDrops,
		snap.Counters["audit.sweeps"],
		snap.Gauges["server.audit.findings"])
	// A sharded core publishes per-shard detail under "shard.<k>."; show
	// each shard's executor queue and drop counter plus the busiest shard
	// (by executed requests), so a hot-spotted stripe is visible at a
	// glance while the aggregate gauges above stay comparable to a single
	// server's.
	nShards := 0
	for {
		if _, ok := snap.Gauges[fmt.Sprintf("shard.%d.server.queue.depth", nShards)]; !ok {
			break
		}
		nShards++
	}
	if nShards > 1 {
		depths := make([]string, nShards)
		sheds := make([]string, nShards)
		hot, hotExec := 0, int64(-1)
		for k := 0; k < nShards; k++ {
			depths[k] = strconv.FormatInt(snap.Gauges[fmt.Sprintf("shard.%d.server.queue.depth", k)], 10)
			sheds[k] = strconv.FormatInt(snap.Gauges[fmt.Sprintf("shard.%d.server.queue.dropped", k)], 10)
			if e := snap.Gauges[fmt.Sprintf("shard.%d.server.executed", k)]; e > hotExec {
				hot, hotExec = k, e
			}
		}
		line += fmt.Sprintf(" shards=%d q=[%s] shed=[%s] hot=%d",
			nShards, strings.Join(depths, " "), strings.Join(sheds, " "), hot)
	}
	if pending, ok := snap.Gauges["wal.flush_pending"]; ok {
		line += fmt.Sprintf(" wal=%d", pending)
	}
	if lag, ok := snap.Gauges["repl.lag"]; ok {
		line += fmt.Sprintf(" lag=%d", lag)
	}
	if hstate, ok := snap.Gauges["health.state"]; ok {
		line += " health=" + health.State(hstate).String()
		if open := snap.Gauges["health.detect.open_shots"]; open > 0 {
			line += fmt.Sprintf("(open=%d)", open)
		}
	}
	if reads, ok := snap.Counters["fastlane.reads"]; ok {
		line += fmt.Sprintf(" fast=%d/%d/%d", reads,
			snap.Counters["fastlane.retries"], snap.Counters["fastlane.fallbacks"])
	}
	if execs, ok := snap.Counters["proc.execs"]; ok && execs > 0 {
		line += fmt.Sprintf(" proc=%d/%d/%d", execs,
			snap.Counters["proc.violations"], snap.Counters["proc.reloads"])
	}
	// Busiest operation's latency distribution, if any traffic yet.
	var busiest string
	var hs metrics.HistogramSnapshot
	for name, h := range snap.Histograms {
		op, isLat := strings.CutPrefix(name, "server.latency.")
		if isLat && h.Count > hs.Count {
			busiest, hs = op, h
		}
	}
	if busiest != "" {
		line += fmt.Sprintf(" | %s p50=%v p95=%v p99=%v",
			busiest, time.Duration(hs.P50), time.Duration(hs.P95), time.Duration(hs.P99))
	}
	return line
}

// pct reads the p-th percentile from sorted latencies.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// worker is one closed-loop client connection. With lax set (the
// -expect-findings mode), golden-copy mismatches and per-op errors are
// counted instead of aborting the worker: against a fault-injecting
// server, reads may legitimately observe corruption or its repair.
type worker struct {
	id    int
	addrs []string
	ops   int
	lax   bool
	// pipeline > 1 (or readPct >= 0) selects the pipelined workload:
	// a read/write mix with up to pipeline requests in flight.
	pipeline int
	readPct  int
	// procPct routes that share of closed-loop operations through the
	// server-side procedures (PROC op) instead of direct API calls.
	procPct int
	// rt, when set, switches the worker to the routed workload: reads fan
	// out across the replica set through a router.Session, writes pin to
	// the primary.
	rt *router.Router

	c          *wire.Conn
	lats       []time.Duration
	mismatches int
	reconnects int
	procCalls  int
	procAborts int // PECOS violations and faults (detected, nothing committed)
	// staleViolations counts routed reads that did not match the golden
	// copy: under the session lease that can only happen when a replica
	// served state older than the lease floor (or the region is corrupt) —
	// either way a violation the run must fail on.
	staleViolations int
	err             error
}

// retryLocked retries op while it fails with lock contention: table locks
// are advisory and non-blocking, so a busy table answers ErrLocked
// immediately and the client is expected to come back.
func retryLocked(op func() error) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := op()
		if !errors.Is(err, memdb.ErrLocked) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// call runs one operation with both retry layers: lock contention inside,
// failover outside. A failover-class error triggers a re-resolve of the
// primary and a retry of the same operation against the new connection,
// until the failover window closes.
func (w *worker) call(op func() error) error {
	deadline := time.Now().Add(failoverWindow)
	for {
		err := retryLocked(op)
		if err == nil || !isFailoverErr(err) || time.Now().After(deadline) {
			return err
		}
		if rerr := w.reconnect(deadline); rerr != nil {
			return fmt.Errorf("%w (reconnect: %v)", err, rerr)
		}
	}
}

// reconnect replaces the worker's connection with a fresh session on the
// current primary, polling the address list until the deadline: right
// after a primary dies there is a window where no node claims the role,
// while the standby's failure streak builds toward self-promotion.
func (w *worker) reconnect(deadline time.Time) error {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
	for {
		c, err := dialPrimary(w.addrs)
		if err == nil {
			if _, err = c.Init(); err == nil {
				w.c = c
				w.reconnects++
				return nil
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// allocSeed allocates one Resource record in group and seeds its golden
// copy.
func (w *worker) allocSeed(group int) (int, []uint32, error) {
	var ri int
	if err := w.call(func() (err error) {
		ri, err = w.c.Alloc(callproc.TblRes, group)
		return err
	}); err != nil {
		return 0, nil, fmt.Errorf("DBalloc: %w", err)
	}
	golden := []uint32{uint32(ri), 1, 50}
	if err := w.call(func() error {
		return w.c.WriteRec(callproc.TblRes, ri, golden)
	}); err != nil {
		return 0, nil, fmt.Errorf("DBwrite_rec: %w", err)
	}
	return ri, golden, nil
}

// drive runs the mixed workload: allocate one Resource record, then cycle
// writes, reads (verified against the golden copy), moves, status checks,
// and transactions over it. Every value written stays inside the ranges
// the audit checks enforce.
func (w *worker) drive() error {
	if w.rt != nil {
		return w.driveRouted()
	}
	c, err := dialPrimary(w.addrs)
	if err != nil {
		return err
	}
	w.c = c
	defer func() {
		if w.c != nil {
			w.c.Close()
		}
	}()
	if _, err := w.c.Init(); err != nil {
		return fmt.Errorf("DBinit: %w", err)
	}
	if w.pipeline > 1 || w.readPct >= 0 {
		return w.drivePipelined()
	}
	group := w.id % callproc.ResourceBanks
	ri, golden, err := w.allocSeed(group)
	if err != nil {
		return err
	}

	timed := func(op func() error) error {
		t0 := time.Now()
		err := w.call(op)
		w.lats = append(w.lats, time.Since(t0))
		return err
	}
	for i := 0; i < w.ops; i++ {
		var err error
		if w.procPct > 0 && i%100 < w.procPct {
			perr := w.procOp(i, ri, golden)
			if perr != nil {
				if w.lax {
					w.mismatches++
					continue
				}
				return fmt.Errorf("op %d: %w", i, perr)
			}
			continue
		}
		switch i % 6 {
		case 0:
			v := uint32((w.id + i*13) % 101)
			err = timed(func() error {
				return w.c.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, v)
			})
			if err == nil {
				golden[callproc.FldResQuality] = v
			}
		case 1:
			next := []uint32{uint32(ri), uint32(i % 3), uint32(i % 101)}
			err = timed(func() error { return w.c.WriteRec(callproc.TblRes, ri, next) })
			if err == nil {
				golden = next
			}
		case 2:
			var vals []uint32
			err = timed(func() (err error) {
				vals, err = w.c.ReadRec(callproc.TblRes, ri)
				return err
			})
			if err == nil {
				for fi := range golden {
					if vals[fi] != golden[fi] {
						if w.lax {
							w.mismatches++
							break
						}
						return fmt.Errorf("op %d: field %d = %d, golden %d",
							i, fi, vals[fi], golden[fi])
					}
				}
			}
		case 3:
			var v uint32
			err = timed(func() (err error) {
				v, err = w.c.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
				return err
			})
			if err == nil && v != golden[callproc.FldResQuality] {
				if w.lax {
					w.mismatches++
				} else {
					return fmt.Errorf("op %d: Quality = %d, golden %d",
						i, v, golden[callproc.FldResQuality])
				}
			}
		case 4:
			group = (group + 1) % callproc.ResourceBanks
			g := group
			err = timed(func() error { return w.c.Move(callproc.TblRes, ri, g) })
		case 5:
			err = timed(func() error {
				if err := w.c.Begin(callproc.TblRes); err != nil {
					return err
				}
				v := uint32(i % 101)
				if err := w.c.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, v); err != nil {
					return err
				}
				golden[callproc.FldResQuality] = v
				return w.c.Commit()
			})
		}
		if err != nil {
			if w.lax {
				// A fault-injecting server may corrupt — or audit
				// recovery may reclaim — the worker's record mid-run,
				// and a failover may have lost an acknowledgement that
				// never reached the standby; count it and keep driving
				// load. If the record itself is gone, re-seed so the
				// remaining operations still exercise the server.
				w.mismatches++
				if errors.Is(err, memdb.ErrNotActive) {
					if ri2, g2, aerr := w.allocSeed(group); aerr == nil {
						ri, golden = ri2, g2
					}
				}
				continue
			}
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	if err := w.call(func() error { return w.c.Free(callproc.TblRes, ri) }); err != nil && !w.lax {
		return fmt.Errorf("DBfree: %w", err)
	}
	if err := w.c.CloseSession(); err != nil && !w.lax {
		return fmt.Errorf("DBclose: %w", err)
	}
	return nil
}

// driveRouted is the -route workload: a -read-pct read/write mix over one
// Resource record through a router.Session — reads fan out across
// read-serving standbys under the session's bounded-staleness lease,
// writes pin to the primary. The Session owns failover (primary
// re-resolution, replica fallback), so only the lock-contention retry
// layer remains here. Note the lease semantics make the read share the
// scaling lever: each write advances the session's token, pinning its
// reads back to the primary until the standbys catch up, so a read-heavy
// session routes nearly everything while a write-heavy one stays pinned.
//
// Verification doubles as the staleness detector: only this worker writes
// its record, and the session's lease token always covers its last
// acknowledged write, so a routed read must return exactly the golden copy
// — state older than the token is a lease violation, and there is no newer
// state to observe. Mismatches are counted, reported, and fail the run.
func (w *worker) driveRouted() error {
	sess, err := w.rt.NewSession()
	if err != nil {
		return err
	}
	defer sess.Close()
	readPct := w.readPct
	if readPct < 0 {
		readPct = defaultReadPct
	}
	group := w.id % callproc.ResourceBanks
	var ri int
	if err := retryLocked(func() (err error) {
		ri, err = sess.Alloc(callproc.TblRes, group)
		return err
	}); err != nil {
		return fmt.Errorf("DBalloc: %w", err)
	}
	golden := []uint32{uint32(ri), 1, 50}
	if err := retryLocked(func() error {
		return sess.WriteRec(callproc.TblRes, ri, golden)
	}); err != nil {
		return fmt.Errorf("DBwrite_rec: %w", err)
	}

	timed := func(op func() error) error {
		t0 := time.Now()
		err := retryLocked(op)
		w.lats = append(w.lats, time.Since(t0))
		return err
	}
	reads, writes := 0, 0
	for i := 0; i < w.ops; i++ {
		var err error
		if i%100 < readPct {
			reads++
			if reads%8 == 0 {
				var vals []uint32
				err = timed(func() (err error) {
					vals, err = sess.ReadRec(callproc.TblRes, ri)
					return err
				})
				if err == nil {
					for fi := range golden {
						if fi >= len(vals) || vals[fi] != golden[fi] {
							w.staleViolations++
							break
						}
					}
				}
			} else {
				var v uint32
				err = timed(func() (err error) {
					v, err = sess.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
					return err
				})
				if err == nil && v != golden[callproc.FldResQuality] {
					w.staleViolations++
				}
			}
		} else {
			writes++
			if writes%8 == 0 {
				next := []uint32{uint32(ri), uint32(i % 3), uint32(i % 101)}
				err = timed(func() error { return sess.WriteRec(callproc.TblRes, ri, next) })
				if err == nil {
					golden = next
				}
			} else {
				v := uint32((w.id + i*13) % 101)
				err = timed(func() error {
					return sess.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, v)
				})
				if err == nil {
					golden[callproc.FldResQuality] = v
				}
			}
		}
		if err != nil {
			if w.lax {
				w.mismatches++
				continue
			}
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	if err := retryLocked(func() error { return sess.Free(callproc.TblRes, ri) }); err != nil && !w.lax {
		return fmt.Errorf("DBfree: %w", err)
	}
	return nil
}

// procOp drives one server-side procedure call: mostly res_touch (a
// verified write through the staged-commit engine, folded into the golden
// copy), with a res_scan sprinkled in. Calls ride the same retry layers as
// direct operations (lock contention, failover). A PECOS violation or
// fault is a DETECTED abort — the procedure committed nothing, so the
// golden copy stays as-is and the worker keeps driving; recovery (registry
// reload) happens server-side before the next call.
func (w *worker) procOp(i, ri int, golden []uint32) error {
	w.procCalls++
	t0 := time.Now()
	defer func() { w.lats = append(w.lats, time.Since(t0)) }()
	if i%5 == 4 {
		err := w.call(func() (err error) {
			_, err = w.c.ProcExec("res_scan", []uint32{uint32(ri), 1})
			return err
		})
		if errors.Is(err, wire.ErrProcViolation) || errors.Is(err, wire.ErrProcFault) {
			w.procAborts++
			return nil
		}
		return err
	}
	v := uint32((w.id + i*7) % 101)
	var out []uint32
	err := w.call(func() (err error) {
		out, err = w.c.ProcExec("res_touch", []uint32{uint32(ri), v})
		return err
	})
	switch {
	case err == nil:
		if len(out) != 2 || out[0] != v {
			return fmt.Errorf("res_touch emitted %v, want quality %d", out, v)
		}
		golden[callproc.FldResQuality] = v
		return nil
	case errors.Is(err, wire.ErrProcViolation) || errors.Is(err, wire.ErrProcFault):
		w.procAborts++
		return nil
	default:
		return err
	}
}

// defaultReadPct is the pipelined workload's read share when -read-pct is
// unset: call processing is overwhelmingly reads.
const defaultReadPct = 80

// drivePipelined is the pipelined workload: a read/write field mix over one
// Resource record with up to -pipeline requests in flight. Reads are
// verified against the golden copy as of their send time — the server
// processes a connection's frames in order, so a read observes exactly the
// writes sent before it, whichever lane serves it. Pipelined workers are
// not failover-aware: replaying a half-acknowledged window after a
// reconnect would be ambiguous, so a failover error aborts the worker.
func (w *worker) drivePipelined() error {
	window := w.pipeline
	if window < 1 {
		window = 1
	}
	readPct := w.readPct
	if readPct < 0 {
		readPct = defaultReadPct
	}
	group := w.id % callproc.ResourceBanks
	ri, golden, err := w.allocSeed(group)
	if err != nil {
		return err
	}
	p := w.c.Pipeline(window)

	// pending mirrors the pipeline's in-flight window: what was asked and,
	// for reads, the golden value at send time.
	type pending struct {
		at   time.Time
		op   string
		read bool
		want uint32
	}
	fifo := make([]pending, 0, window)
	recvOne := func() error {
		pd := fifo[0]
		fifo = fifo[1:]
		r, err := p.Recv()
		if err != nil {
			return fmt.Errorf("%s: %w", pd.op, err)
		}
		w.lats = append(w.lats, time.Since(pd.at))
		if err := r.Err(); err != nil {
			if w.lax {
				w.mismatches++
				return nil
			}
			return fmt.Errorf("%s: %w", pd.op, err)
		}
		if pd.read {
			if len(r.Vals) != 1 {
				return fmt.Errorf("%s reply carries %d values", pd.op, len(r.Vals))
			}
			if r.Vals[0] != pd.want {
				if w.lax {
					w.mismatches++
				} else {
					return fmt.Errorf("%s = %d, golden %d", pd.op, r.Vals[0], pd.want)
				}
			}
		}
		return nil
	}

	for i := 0; i < w.ops; i++ {
		// When the window fills, drain half of it so frames batch in both
		// directions rather than trickling one-in/one-out at the edge.
		if p.InFlight() >= window {
			for p.InFlight() > window/2 {
				if err := recvOne(); err != nil {
					return fmt.Errorf("op %d: %w", i, err)
				}
			}
		}
		var q wire.Request
		pd := pending{at: time.Now()}
		if i%100 < readPct {
			q = wire.Request{
				Op: wire.OpReadFld, Table: int32(callproc.TblRes),
				Record: int32(ri), Field: int32(callproc.FldResQuality),
			}
			pd.op, pd.read, pd.want = "DBread_fld", true, golden[callproc.FldResQuality]
		} else {
			v := uint32((w.id + i*13) % 101)
			q = wire.Request{
				Op: wire.OpWriteFld, Table: int32(callproc.TblRes),
				Record: int32(ri), Field: int32(callproc.FldResQuality),
				Vals: []uint32{v},
			}
			pd.op = "DBwrite_fld"
			golden[callproc.FldResQuality] = v
		}
		if _, err := p.Send(q); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		fifo = append(fifo, pd)
	}
	for len(fifo) > 0 {
		if err := recvOne(); err != nil {
			return err
		}
	}
	if err := w.c.Free(callproc.TblRes, ri); err != nil && !w.lax {
		return fmt.Errorf("DBfree: %w", err)
	}
	if err := w.c.CloseSession(); err != nil && !w.lax {
		return fmt.Errorf("DBclose: %w", err)
	}
	return nil
}
