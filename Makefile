GO ?= go

SMOKES = failover-smoke proc-smoke scenario-smoke health-smoke replica-smoke shard-smoke

.PHONY: all build fmt vet test check cover loc fuzz-smoke trace-smoke $(SMOKES) bench bench-smoke bench-quick bench-test clean

all: check

build:
	$(GO) build ./...

# Fails, listing the files, when any Go file differs from gofmt's output.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# The nested bench/ module imports internal packages (memdb.View among
# them), so vetting it here catches an internal API break locally.
vet:
	$(GO) vet ./...
	$(GO) vet -tags smoke ./smoke
	cd bench && $(GO) vet ./...

test:
	$(GO) test -race ./...

# The CI gate: gofmt-clean sources, compile everything, vet (the bench/
# module included), full test suite under the race detector (includes the
# server end-to-end tests).
check: fmt build vet test

# Coverage over every package, with the per-function summary and an HTML
# report left in cover.out / cover.html.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1
	$(GO) tool cover -html=cover.out -o cover.html

# Non-test Go lines outside bench/ (hidden directories such as
# .bench_build/ skipped): the size figure a simplification is counted by.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.*' | xargs cat | wc -l

# Short fuzzing passes: the wire codec (framing safety), the WAL record
# decoder (recovery must reject, never crash on, arbitrary log bytes) and
# the snapshot decoder (a checkpoint or REPL_SNAP body it refuses leaves
# the region unchanged).
fuzz-smoke:
	$(GO) test -fuzz=FuzzCodec -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=15s ./internal/wal
	$(GO) test -fuzz=FuzzRestoreFrom -fuzztime=15s ./internal/memdb

# Flight-recorder smoke: a small traced injection campaign must produce a
# non-empty journal that round-trips through the JSON codec (reproduce
# validates both before writing the file).
trace-smoke:
	$(GO) run ./cmd/reproduce -exp table8 -scale 0.05 -trace /tmp/trace-smoke.json
	rm -f /tmp/trace-smoke.json

# The process smokes are the TestSmoke subtests of ./smoke: they build
# dbserve, dbload and dbctl from this checkout and gate on what they print
# (each subtest's doc comment in smoke/smoke_test.go says what it drives and
# requires). SMOKE_REPORT_DIR=/abs/dir keeps every log and report in dir/<name>/.
$(SMOKES): %-smoke:
	$(GO) test -tags smoke -count=1 -timeout 10m -run 'TestSmoke/$*$$' ./smoke

bench:
	$(GO) test -bench . -benchtime 0.5s -run '^$$' .

# Microbenchmark smoke for CI: each runs once, so a per-operation cost that
# grows with the data cannot rot unnoticed. BenchmarkAppend appends over a
# full WAL tail ring at 8 and 8192 slots; BenchmarkAllocFill fills 3 × 4096
# call records, BenchmarkAllocChurnFull frees and re-allocates in a full
# 4096-record table, and BenchmarkRangeSweep runs one dynamic-data audit
# pass over 12,288 active records. BenchmarkSubmitWriteFld sends one
# WRITE_FLD through the server's dispatch and the core's turn, without a
# socket, and BenchmarkEmit records one request-sized event on a full
# flight-recorder ring. The served paths are exercised by bench-quick.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/wal ./internal/memdb ./internal/audit ./internal/server ./internal/trace

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
