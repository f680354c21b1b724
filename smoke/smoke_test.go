//go:build smoke

package smoke

import (
	"fmt"
	"runtime"
	"testing"
)

// Every scenario run is the compressed variant CI has always used.
var compressed = []string{"-seed", "7", "-scenario-scale", "0.1"}

// `make <x>-smoke` runs TestSmoke/<x>. A new topology is one more subtest;
// a new gate is one more s.gate line.
func TestSmoke(t *testing.T) {
	root := t.TempDir() // binaries, built once per flavour
	t.Run("failover", func(t *testing.T) { failover(newSmoke(t, root)) })
	t.Run("proc", func(t *testing.T) { proc(newSmoke(t, root)) })
	t.Run("scenario", func(t *testing.T) { scenario(newSmoke(t, root)) })
	t.Run("health", func(t *testing.T) { health(newSmoke(t, root)) })
	t.Run("replica", func(t *testing.T) { replica(newSmoke(t, root)) })
	t.Run("shard", func(t *testing.T) { shard(newSmoke(t, root)) })
}

// failover: durability/failover over race-built processes. A WAL-backed
// primary (injecting faults into its own region) and a hot standby serve
// the failover-aware load; the primary is SIGKILLed mid-run and the run
// must finish on the self-promoted standby. The drill repeats on a -shards
// 2 pair, where each standby shard polls its own primary shard's stream
// and one tripped poller must promote the whole coordinator, or the
// survivors would refuse the rerouted sessions.
func failover(s *Smoke) {
	s.phase(true)
	drill := func(label, shards string, primaryFlags ...string) {
		primary := s.start("primary-"+label, append([]string{"-shards", shards,
			"-wal-dir", s.wal("primary-" + label), "-audit-period", "200ms"}, primaryFlags...)...)
		standby := s.start("standby-"+label, "-shards", shards,
			"-wal-dir", s.wal("standby-"+label),
			"-replica-of", primary.addr, "-repl-poll", "25ms", "-repl-fail-limit", "8")
		// -expect-findings: an ack the standby had not yet polled when the
		// primary died is legitimately lost, and the client counts the
		// resulting mismatch instead of aborting.
		load := s.spawn("load-"+label, "dbload", "-addr", primary.addr+","+standby.addr,
			"-conns", "2", "-ops", "30000", "-expect-findings")
		s.killAfter(primary, load, 3000)
		out := s.ok(load.wait())        // exit 0 on the promoted standby
		s.gate(match(out, reconnected)) // the kill landed mid-flight
		standby.kill()
	}
	drill("single", "1", "-inject-period", "300ms")
	drill("sharded", "2")
}

// proc: the procedure subsystem over race-built processes. The server's
// text injector flips bits in registered procedures' control words while
// 40% of the load runs through PROC calls; the run must show PECOS
// detections joined to request trace IDs and end with a clean certifying
// sweep. Golden-copy mismatches are tolerated: a flip can produce a wrong
// but legal execution PECOS cannot see, which the client's verification
// and the audit sweeps are there to catch.
func proc(s *Smoke) {
	s.phase(true)
	// A short audit period so certifying sweeps run during the load, a
	// tight injection period so several flips land in 8000 ops.
	server := s.start("server", "-audit-period", "200ms",
		"-proc-inject-period", "20ms", "-proc-inject-seed", "3")
	out := s.ok(s.run("load", "dbload", "-addr", server.addr, "-conns", "4", "-ops", "8000",
		"-proc-pct", "40", "-expect-findings", "-trace", s.path("journal.json")))
	s.gate(match(out, `procedures: [0-9]+ calls`))
	s.gate(match(out, `pecos: total=[0-9]+ joined=[1-9][0-9]*`))
	s.gate(match(out, `final sweep: 0 findings`))
}

// scenario: the scenario engine over race-built processes. steady-calls is
// strict (every read verified, clean final sweep); fault-storm arms the
// server's injector mid-run via INJECT_CTL and must join every shot to an
// audit finding by trace ID. Both write a JSON report, and the achieved
// per-phase ops/s must stay within 40% of testdata/scenario_baseline.txt:
// workers are paced to the timeline, so only a server (or runner) too slow
// to keep up trips it.
func scenario(s *Smoke) {
	s.phase(true)
	server := s.start("server", "-audit-period", "200ms")
	var outs string
	for _, name := range []string{"steady-calls", "fault-storm"} {
		out := s.ok(s.run(name, "dbload", append([]string{"-addr", server.addr,
			"-scenario", name, "-scenario-report", s.path(name + ".report.json")}, compressed...)...))
		s.gate(match(out, "scenario "+name+": PASS"))
		s.gate(match(s.read(name+".report.json"), `"scenario": "`+name+`"`))
		outs += out
	}
	s.gate(match(outs, joinedAll))
	s.gate(baselineGate("testdata/scenario_baseline.txt", outs, 40))
}

// health: the health & SLO plane over race-built processes. During a
// compressed fault-storm the scenario's health timeline must show open
// (injected, not yet detected) shots; afterwards dbctl -op health must not
// be CRITICAL, detection p99 must be within its objective, and the
// watermark must have drained: no open shots, no overruns, no audit sweeps
// behind schedule. /healthz must answer 200 with the same picture and
// /statsz?format=prom must carry cumulative histogram buckets.
func health(s *Smoke) {
	s.phase(true)
	server := s.start("server", "-metrics-addr", "127.0.0.1:0", "-audit-period", "200ms")
	storm := s.ok(s.run("storm", "dbload", append([]string{"-addr", server.addr, "-scenario", "fault-storm",
		"-scenario-report", s.path("fault-storm.report.json")}, compressed...)...))
	s.gate(match(storm, `health\[storm\]: worst=[a-z]+ max_open=[1-9]`))

	status := s.ok(s.run("health", "dbctl", "-op", "health", "-addr", server.addr)) // exits 1 on CRITICAL
	s.gate(match(status, `detect-p99 +ok`))
	s.gate(match(status, `detection: .*open_shots=0 .*overruns=0`))
	s.gate(match(status, `audit debt: behind=0 `))
	s.gate(match(status, `audit debt: .*sweeps=[1-9][0-9]*/[1-9][0-9]*`)) // the debt meter did account the storm

	healthz := s.fetch("healthz.json", "http://"+server.metrics+"/healthz")
	s.gate(match(healthz, `"open_shots": 0`))
	prom := s.fetch("statsz.prom", "http://"+server.metrics+"/statsz?format=prom")
	s.gate(match(prom, `_bucket\{le="`))
	s.gate(match(prom, `_bucket\{le="\+Inf"\}`))
	s.gate(match(prom, `health_state`))
	s.gate(match(prom, `audit_debt_behind`))
}

// replica: read fan-out over a WAL-backed primary and two serve-reads
// standbys, routed dbload over the set.
//
// Correctness, race-built: no routed read may observe state older than its
// lease token (the client verifies every read against its golden copy),
// the read-heavy run must land reads on both standbys, and dbctl
// repl-status must render one primary and two serving standbys.
//
// Throughput, plain builds, every server pinned to GOMAXPROCS=1 so
// per-node capacity is fixed: read-heavy routed load over the set against
// the same load on the primary alone. At least 60% of reads must be served
// by replicas on any host; aggregate ops/s must reach 1.5x single-node on
// >= 4 CPUs and 0.6x on fewer, where servers and client share the cores.
func replica(s *Smoke) {
	// set boots the primary, then (or they would promote themselves) two
	// standbys, and returns them with the address list clients take.
	set := func(sfx string, primaryFlags ...string) ([]*Node, string) {
		nodes := []*Node{s.start("primary-"+sfx, append([]string{"-wal-dir", s.wal(sfx)}, primaryFlags...)...)}
		addrs := nodes[0].addr
		for _, name := range []string{"standby1-", "standby2-"} {
			n := s.start(name+sfx, "-replica-of", nodes[0].addr, "-serve-reads", "-repl-poll", "10ms")
			nodes, addrs = append(nodes, n), addrs+","+n.addr
		}
		return nodes, addrs
	}
	routed := func(name, addrs string, flags ...string) string {
		return s.ok(s.run(name, "dbload", append([]string{"-addr", addrs, "-route", "-route-probe", "25ms"}, flags...)...))
	}

	s.phase(true)
	nodes, addrs := set("race", "-audit-period", "200ms")
	// Default mix: every write advances the session's lease token, so most
	// reads pin to the primary; the gate is the staleness bound.
	mixed := routed("load-mixed", addrs, "-conns", "4", "-ops", "4000")
	// Read-heavy: once the seeding writes replicate the lease floor stops
	// moving and reads must spread over both standbys.
	reads := routed("load-reads", addrs, "-conns", "4", "-ops", "8000", "-read-pct", "100")
	status := s.ok(s.run("repl-status", "dbctl", "-addr", addrs, "-op", "repl-status"))
	s.gate(match(mixed, notStale))
	s.gate(match(reads, notStale))
	for _, standby := range nodes[1:] {
		s.gate(match(reads, standby.addr+`: [1-9][0-9]* routed reads`))
	}
	s.gate(matchN(status, `(?m)^[0-9.:]+ +primary `, 1))
	s.gate(matchN(status, `(?m)^[0-9.:]+ +standby .* yes$`, 2))
	for _, n := range nodes {
		n.kill()
	}

	s.phase(false, "GOMAXPROCS=1")
	alone := s.start("primary-single", "-wal-dir", s.wal("single"))
	single := s.ok(s.run("load-single", "dbload", "-addr", alone.addr, "-conns", "8", "-ops", "40000", "-read-pct", "100"))
	alone.kill()
	_, addrs = set("fan")
	fanout := routed("load-fanout", addrs, "-conns", "8", "-ops", "40000", "-read-pct", "100")
	s.gate(match(fanout, notStale))

	onReplicas := number(fanout, `router: replica=([0-9]+)`)
	onPrimary := number(fanout, ` primary=([0-9]+) lease_pins`)
	s.gate(ratioGate("replica share of routed reads", onReplicas, onReplicas+onPrimary, 0.6, 0.6, runtime.NumCPU()))
	s.gate(ratioGate("fan-out vs single-node read ops/s", opsPerSec(fanout), opsPerSec(single), 1.5, 0.6, runtime.NumCPU()))
}

// shard: the sharded core over real processes. A race-built dbserve
// -shards 4 must look like the single core at the wire: a mixed
// closed-loop run and a pure-write pipelined run end with a clean
// certifying sweep, a compressed fault-storm (INJECT_CTL fans the injector
// to every shard) joins every shot to a finding across all four shard
// auditors, and dbctl -op status renders four shard rows. SIGKILLed
// mid-load and restarted on the same -wal-dir it must recover every
// shard's stream (one line each; recovery is per stream and parallel),
// refuse a -shards 2 restart naming the durable count, and serve a
// verified run from the recovered region. Plain builds then compare
// pure-write throughput at -shards 4 and 1: >= 2x on >= 4 CPUs, >= 0.5x on
// fewer, where four cores and the coordinator hop share the cores.
func shard(s *Smoke) {
	s.phase(true)
	wal := s.wal("shards")
	server := s.start("server-race", "-shards", "4", "-wal-dir", wal, "-audit-period", "200ms")
	s.ok(s.run("load-mixed", "dbload", "-addr", server.addr, "-conns", "4", "-ops", "4000"))
	s.ok(s.run("load-writes", "dbload", "-addr", server.addr, "-conns", "4", "-ops", "8000", "-pipeline", "16", "-read-pct", "0"))
	storm := s.ok(s.run("fault-storm", "dbload", append([]string{"-addr", server.addr, "-scenario", "fault-storm"}, compressed...)...))
	s.gate(match(storm, joinedAll))
	status := s.ok(s.run("status", "dbctl", "-addr", server.addr, "-op", "status"))
	for k := range 4 {
		s.gate(match(status, shardRow(k)))
	}

	crash := s.spawn("load-crash", "dbload", "-addr", server.addr, "-conns", "2", "-ops", "200000")
	s.killAfter(server, crash, 5000)
	if _, err := crash.wait(); err == nil {
		s.t.Fatal("load-crash survived the kill: no crash landed mid-flight")
	}
	// The durable shard count is part of the layout: a mismatched restart
	// is refused before any stream is touched.
	refusal, err := s.run("mismatch", "dbserve", "-addr", "127.0.0.1:0", "-shards", "2", "-wal-dir", wal)
	if err == nil {
		s.t.Fatal("restart with -shards 2 on a 4-shard WAL dir was accepted")
	}
	s.gate(match(refusal, `shards=4`))
	recovered := server.restart("server-recovered")
	for k := range 4 {
		s.gate(match(recovered.log(), fmt.Sprintf("shard %d: WAL recovered", k)))
	}
	s.ok(s.run("load-recovered", "dbload", "-addr", recovered.addr, "-conns", "2", "-ops", "2000"))
	recovered.kill()

	s.phase(false)
	writes := func(shards string) float64 {
		n := s.start("server-n"+shards, "-shards", shards, "-audit-period", "200ms")
		out := s.ok(s.run("load-n"+shards, "dbload", "-addr", n.addr, "-conns", "8", "-ops", "60000", "-pipeline", "16", "-read-pct", "0"))
		n.kill()
		return opsPerSec(out)
	}
	base, got := writes("1"), writes("4")
	s.gate(ratioGate("4-shard vs 1-shard write ops/s", got, base, 2, 0.5, runtime.NumCPU()))
}
