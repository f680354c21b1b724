// Command dbload is the command-line front end of the load driver in
// internal/scenario: it parses flags, hands the run to that package's
// workers — which keep a client-side golden copy of every record they own
// and verify every read against it — and prints the report: throughput,
// latency percentiles, and the audit sweep forced at the end, which must
// come back clean.
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
// The flags pick the workers' plan and transport. By default the plan is
// the call cycle over one private Resource record per connection (field and
// record writes, verified reads, moves, transactions; -proc-pct sends a
// share through the server-side procedures); -read-pct, -pipeline N > 1 or
// -route select a read/write field mix instead (default 80% reads).
// -pipeline keeps N requests in flight per connection. -route carries the
// mix over the internal/router read fan-out: reads spread across the set's
// read-serving standbys under the session's bounded-staleness lease while
// writes pin to the primary, and since that lease covers the worker's last
// acknowledged write to its record, a routed read that misses the golden
// copy is a staleness-bound violation, which the run reports and fails on.
//
// With -scenario the plan is a named traffic scenario: profile/timeline-
// driven load whose op sequence is fully determined by -seed, with a JSON
// report (-scenario-report) of achieved throughput, per-op latency
// percentiles, server-side findings and recoveries, and — for fault-storm
// timelines — the shot-to-finding detection-latency join. `-scenario list`
// prints the registered names. -scenario-scale compresses the timeline for
// smokes, preserving the shape and the op mix per seed; an explicit -conns
// overrides the scenario's worker count.
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
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/health"
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
	pipeline := fs.Int("pipeline", 1, "requests in flight per connection; >1 switches workers to the read/write field mix (not failover-aware)")
	readPct := fs.Int("read-pct", -1, "field mix read percentage 0-100 (default 80; setting it implies the field mix even at -pipeline 1)")
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
			return errors.New("-scenario drives its own workload; -pipeline and -read-pct apply only to the count-bounded patterns")
		}
		if *route {
			return errors.New("-scenario and -route are mutually exclusive: scenarios drive the primary directly")
		}
		scConns := 0 // the scenario's own worker count, unless -conns was given
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "conns" {
				scConns = *conns
			}
		})
		return scenarioRun(out, addrs, *scenarioName, *seed, scConns, *scenarioScale, *scenarioReport, *tracePath, stop)
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

	load := scenario.Load{
		Addrs: addrs, Conns: *conns, Ops: *ops, Window: *pipeline,
		ReadPct: *readPct, ProcPct: *procPct, Lax: *expectFindings,
	}
	if (*route || *pipeline > 1) && load.ReadPct < 0 {
		load.ReadPct = defaultReadPct
	}
	mode := ""
	if load.ReadPct >= 0 {
		mode = fmt.Sprintf(" (pipeline=%d read-pct=%d)", *pipeline, load.ReadPct)
	}
	if *route {
		rt, err := router.New(router.Config{Addrs: addrs, ProbeInterval: *routeProbe})
		if err != nil {
			return err
		}
		defer rt.Close()
		load.Router = rt
		mode = fmt.Sprintf(" (routed read-pct=%d)", load.ReadPct)
	}
	return withJournal(out, addrs, *tracePath, loadRun(out, load, mode))
}

// defaultReadPct is the field mix's read share when -read-pct is unset:
// call processing is overwhelmingly reads.
const defaultReadPct = 80

// withJournal dumps the flight-recorder journal after a run, success or
// not: when the run failed it is exactly the evidence worth keeping.
func withJournal(out io.Writer, addrs []string, tracePath string, runErr error) error {
	if tracePath == "" {
		return runErr
	}
	if derr := dumpJournal(out, addrs, tracePath); derr != nil {
		if runErr == nil {
			return derr
		}
		fmt.Fprintf(out, "dbload: trace dump failed: %v\n", derr)
	}
	return runErr
}

// scenarioRun drives one named scenario and writes its artifacts: the
// plan summary and throughput lines to out, the full JSON report to
// reportPath, and the flight-recorder journal to tracePath. The report is
// written even when the run failed — a failed acceptance is exactly the
// run worth inspecting.
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
	if runErr = withJournal(out, addrs, tracePath, runErr); runErr == nil {
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

// loadRun drives the count-bounded load, verifies the end state, and
// prints the report.
func loadRun(out io.Writer, l scenario.Load, mode string) error {
	res, runErr := scenario.RunLoad(l)
	if res == nil {
		return runErr
	}

	// The workload only wrote in-range values through the API, so a full
	// audit sweep over the live region must be clean — unless the server
	// is injecting faults into its own region, in which case findings are
	// the system working as designed.
	ctl, err := scenario.DialPrimary(l.Addrs)
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

	lats := res.Lats
	fmt.Fprintf(out, "dbload: %d ops over %d conns in %v: %.0f ops/s%s\n",
		len(lats), l.Conns, res.Elapsed.Round(time.Millisecond), float64(len(lats))/res.Elapsed.Seconds(), mode)
	fmt.Fprintf(out, "  latency p50=%v p95=%v p99=%v max=%v\n",
		scenario.DurPct(lats, 0.50), scenario.DurPct(lats, 0.95), scenario.DurPct(lats, 0.99), scenario.DurPct(lats, 1))
	fmt.Fprintf(out, "  server: %d requests dropped, %d audit sweeps, %d findings\n",
		snap.Gauges["server.queue.dropped"], snap.Counters["audit.sweeps"], liveFindings)
	fmt.Fprintf(out, "  final sweep: %d findings\n", findings)
	if res.Reconnects > 0 {
		fmt.Fprintf(out, "  failover: %d reconnects\n", res.Reconnects)
	}
	if res.ProcCalls > 0 {
		fmt.Fprintf(out, "  procedures: %d calls, %d detected aborts\n", res.ProcCalls, res.ProcAborts)
	}
	if l.Router != nil {
		st := l.Router.Stats()
		fmt.Fprintf(out, "  %s\n", st)
		targets := make([]string, 0, len(st.PerTarget))
		for a := range st.PerTarget {
			targets = append(targets, a)
		}
		sort.Strings(targets)
		for _, a := range targets {
			fmt.Fprintf(out, "    %s: %d routed reads\n", a, st.PerTarget[a])
		}
		fmt.Fprintf(out, "  staleness violations: %d\n", res.Stale)
	}
	if l.Lax {
		fmt.Fprintf(out, "  tolerated: %d golden-copy mismatches, %d live findings (-expect-findings)\n",
			res.Mismatches, liveFindings)
		return nil
	}
	if runErr != nil {
		return runErr
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
		line += fmt.Sprintf(" fast=%d", reads)
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
