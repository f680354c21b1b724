package smoke

import (
	"strings"
	"testing"
)

// Recorded from a passing run of each smoke; the tests below break one
// line at a time and require the gate the smoke uses on it to notice.
const (
	stormReport = `ScenarioThroughput/steady-calls/main 400 ops/s
scenario fault-storm: seed=7 conns=4 slots=5 scale=0.1 ticks=60 target-ops=800
ScenarioThroughput/fault-storm/baseline 300 ops/s
ScenarioThroughput/fault-storm/storm 300 ops/s
ScenarioThroughput/fault-storm/quiesce 200 ops/s
scenario fault-storm: health[storm]: worst=ok max_open=28 max_debt=0
scenario fault-storm: detection: shots=192 joined=192 unjoined=0 p50=83.4ms max=182.8ms
scenario fault-storm: PASS
`
	routedReport = `dbload: 8000 ops over 4 conns in 338ms: 23669 ops/s (routed read-pct=100)
  final sweep: 0 findings
  router: replica=7080 primary=920 lease_pins=920 stale_fallbacks=0 failovers=0 probes=42
    127.0.0.1:7731: 0 routed reads
    127.0.0.1:7732: 3536 routed reads
    127.0.0.1:7733: 3544 routed reads
  staleness violations: 0
`
	failoverReport = `dbload: 30000 ops over 2 conns in 28.297s: 1060 ops/s
  final sweep: 0 findings
  failover: 2 reconnects
  tolerated: 0 golden-copy mismatches, 2 live findings (-expect-findings)
`
	shardStatus = `127.0.0.1:46795: role=primary executed=7233 conns=1/11 queue=0/1024 shed=0 sweeps=92 findings=192
shards: 4
  SHARD        QUEUE     SHED   EXECUTED  FINDINGS  RESTARTS
  0           0/256         0       3222        48         0
  1           0/256         0       1347        48         0
  2           0/256         0       1331        48         0
  3           0/256         0       1333        48         0
`
	replStatus = `ADDR                     ROLE                     LAST      APPLIED      LAG SERVE-READS
127.0.0.1:7731           primary                    12           12        0 yes
127.0.0.1:7732           standby                     0           12        0 yes
127.0.0.1:7733           standby                     0           12        0 yes
`
	raceLog = `dbserve: serving on 127.0.0.1:40213 (audit period 200ms)
==================
WARNING: DATA RACE
Write at 0x00c000124018 by goroutine 9:
`
)

func TestGatesOnRecordedOutput(t *testing.T) {
	allRows := func(status string) error {
		for k := range 4 {
			if err := match(status, shardRow(k)); err != nil {
				return err
			}
		}
		return nil
	}
	vsBaseline := func(out string) error { return baselineGate("testdata/scenario_baseline.txt", out, 40) }
	for _, tc := range []struct {
		name     string
		gate     func(string) error
		clean    string
		old, new string // the edit that must trip the gate
	}{
		{"unjoined shots", func(s string) error { return match(s, joinedAll) },
			stormReport, "joined=192 unjoined=0", "joined=189 unjoined=3"},
		{"no shots at all", func(s string) error { return match(s, joinedAll) },
			stormReport, "shots=192 joined=192", "shots=0 joined=0"},
		{"staleness violations", func(s string) error { return match(s, notStale) },
			routedReport, "violations: 0", "violations: 2"},
		{"no reconnects line", func(s string) error { return match(s, reconnected) },
			failoverReport, "  failover: 2 reconnects\n", ""},
		{"data race in a log", func(s string) error { return matchN(s, dataRace, 0) },
			"dbserve: serving on 127.0.0.1:40213 (audit period 200ms)\n", "dbserve: serving", raceLog + "dbserve: serving"},
		{"shard row 2 missing", allRows,
			shardStatus, "  2           0/256         0       1331        48         0\n", ""},
		{"phase 41% under baseline", vsBaseline,
			stormReport, "storm 300 ops/s", "storm 177 ops/s"},
		{"a baseline phase not run", vsBaseline,
			stormReport, "ScenarioThroughput/fault-storm/quiesce", "ScenarioThroughput/fault-storm/drain"},
		{"a standby not serving reads", func(s string) error { return matchN(s, `(?m)^[0-9.:]+ +standby .* yes$`, 2) },
			replStatus, "12        0 yes\n127.0.0.1:7733", "12        0 no\n127.0.0.1:7733"},
		{"two primaries", func(s string) error { return matchN(s, `(?m)^[0-9.:]+ +primary `, 1) },
			replStatus, "7732           standby", "7732           primary"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.gate(tc.clean); err != nil {
				t.Errorf("clean recording fails the gate: %v", err)
			}
			broken := strings.ReplaceAll(tc.clean, tc.old, tc.new)
			if broken == tc.clean {
				t.Fatalf("edit %q did not apply", tc.old)
			}
			if tc.gate(broken) == nil {
				t.Errorf("gate passes with %q replaced by %q", tc.old, tc.new)
			}
		})
	}
	// 40% under is still inside the threshold.
	if err := vsBaseline(strings.Replace(stormReport, "storm 300 ops/s", "storm 180 ops/s", 1)); err != nil {
		t.Errorf("phase exactly 40%% under baseline: %v", err)
	}
}

func TestOpsPerSec(t *testing.T) {
	for report, want := range map[string]float64{
		routedReport:   23669,
		failoverReport: 1060,
		"dbload: 4000 ops over 4 conns in 335ms: 11932 ops/s\n": 11932,
		stormReport:                    0, // per-phase lines are not a summary line
		"dbload: connection refused\n": 0,
	} {
		if got := opsPerSec(report); got != want {
			t.Errorf("opsPerSec(%q) = %v, want %v", report, got, want)
		}
	}
}

func TestRatioGate(t *testing.T) {
	for _, tc := range []struct {
		what          string
		got, base     float64
		full, relaxed float64
		cpus          int
		pass          bool
	}{
		// shard: 2x with the cores to show it, 0.5x without.
		{"shard", 20000, 10000, 2, 0.5, 4, true},
		{"shard", 19999, 10000, 2, 0.5, 4, false},
		{"shard", 9000, 10000, 2, 0.5, 2, true},
		{"shard", 4999, 10000, 2, 0.5, 1, false},
		// replica: 1.5x and 0.6x.
		{"replica", 15000, 10000, 1.5, 0.6, 4, true},
		{"replica", 14999, 10000, 1.5, 0.6, 8, false},
		{"replica", 6000, 10000, 1.5, 0.6, 2, true},
		{"replica", 5999, 10000, 1.5, 0.6, 2, false},
		// replica share: 60% on any host.
		{"share", 7080, 8000, 0.6, 0.6, 2, true},
		{"share", 4799, 8000, 0.6, 0.6, 2, false},
		{"share", 4799, 8000, 0.6, 0.6, 16, false},
		// a report that did not parse reads as 0 and never passes.
		{"no base", 100, 0, 2, 0.5, 4, false},
		{"no figure", 0, 10000, 2, 0.5, 2, false},
	} {
		err := ratioGate(tc.what, tc.got, tc.base, tc.full, tc.relaxed, tc.cpus)
		if (err == nil) != tc.pass {
			t.Errorf("ratioGate(%s, %v/%v, full %v relaxed %v, %d CPUs) = %v; want pass=%v",
				tc.what, tc.got, tc.base, tc.full, tc.relaxed, tc.cpus, err, tc.pass)
		}
	}
}
