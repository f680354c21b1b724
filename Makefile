GO ?= go

.PHONY: all build vet test check cover fuzz-smoke trace-smoke failover-smoke proc-smoke scenario-smoke health-smoke replica-smoke shard-smoke bench bench-smoke bench-quick bench-test clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# The CI gate: compile everything, vet, full test suite under the race
# detector (includes the server end-to-end tests).
check: build vet test

# Coverage over every package, with the per-function summary and an HTML
# report left in cover.out / cover.html.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1
	$(GO) tool cover -html=cover.out -o cover.html

# Short fuzzing passes: the wire codec (framing safety) and the WAL record
# decoder (recovery must reject, never crash on, arbitrary log bytes).
fuzz-smoke:
	$(GO) test -fuzz=FuzzCodec -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=15s ./internal/wal

# Flight-recorder smoke: a small traced injection campaign must produce a
# non-empty journal that round-trips through the JSON codec (reproduce
# validates both before writing the file).
trace-smoke:
	$(GO) run ./cmd/reproduce -exp table8 -scale 0.05 -trace /tmp/trace-smoke.json
	rm -f /tmp/trace-smoke.json

# Durability/failover smoke over real processes: WAL-backed primary + hot
# standby, load through the failover-aware client, primary SIGKILLed
# mid-run, run must complete against the self-promoted standby.
failover-smoke:
	sh scripts/failover_smoke.sh

# Procedure-subsystem smoke over real processes: a race-built server flips
# bits in registered procedures' text under concurrent PROC load; the run
# must show PECOS detections joined to request trace IDs, registry-reload
# recovery, and a clean certifying sweep.
proc-smoke:
	sh scripts/proc_smoke.sh

# Scenario-engine smoke over real processes: compressed steady-calls and
# fault-storm runs against a race-built server. steady-calls must end
# mismatch-free with a clean sweep; fault-storm arms the injector mid-run
# via INJECT_CTL and must join every shot to a finding (unjoined=0). JSON
# report artifacts land in SCENARIO_REPORT_DIR, and per-phase ops/s are
# diffed against scripts/scenario_baseline.txt.
scenario-smoke:
	sh scripts/scenario_smoke.sh

# Health-plane smoke over real processes: a compressed fault-storm against
# a race-built server with /healthz up. The storm phase must show open
# (undetected) shots on the health timeline; at exit dbctl health must not
# be CRITICAL, the detect-p99 objective must be ok, the watermark must be
# drained (zero open shots / overruns / audit debt), and the Prometheus
# exposition must carry histogram buckets. Artifacts in HEALTH_REPORT_DIR.
health-smoke:
	sh scripts/health_smoke.sh

# Read fan-out smoke over real processes: WAL-backed primary + two
# serve-reads standbys, routed dbload over the set. Phase 1 (race-built)
# gates on zero staleness-bound violations, reads landing on both
# standbys, a clean dbctl repl-status picture, and no data races; phase 2
# (race-free, GOMAXPROCS=1 servers) compares routed read throughput to a
# single-node fastlane baseline — the 1.5x aggregate gate applies on
# hosts with >= 4 CPUs, the routing-share gate everywhere. Artifacts in
# REPLICA_REPORT_DIR.
replica-smoke:
	sh scripts/replica_smoke.sh

# Sharded-core smoke over real processes: a race-built dbserve -shards 4
# must run the verified closed-loop load clean, join every injected shot
# to a per-shard audit finding by trace ID, survive a SIGKILL with one
# parallel WAL recovery per shard (and refuse a mismatched -shards
# restart), and — on hosts with >= 4 CPUs — deliver >= 2x the aggregate
# pure-write throughput of -shards 1. Artifacts in SHARD_REPORT_DIR.
shard-smoke:
	sh scripts/shard_smoke.sh

bench:
	$(GO) test -bench . -benchtime 0.5s -run '^$$' .

# Throughput-bench smoke for CI: every BenchmarkServerThroughput subrun
# (sync, multi-connection, pipelined fast lane) executes once, so the
# serving hot path, the pipeline client, and the metrics plumbing they
# report through cannot rot unnoticed. Compare two saved outputs with
# scripts/bench_compare.sh.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkServerThroughput' -benchtime 1x .

# Served-workload smoke for CI: builds dbserve from this checkout and runs
# all four BENCHMARK.json workloads with 2-s phases, so only the
# correctness gates count (every reply checked against the golden copy,
# every shot joined, clean final sweep, clean child exit). A front-end
# change that breaks a served workload fails here, not at the next ledger
# run.
bench-quick:
	bash bench/run.sh -quick

# Unit tests of the benchmark driver itself. bench/ is a nested module, so
# the root `go test ./...` does not reach them.
bench-test:
	cd bench && $(GO) test ./...

clean:
	$(GO) clean ./...
	rm -f cover.out cover.html
