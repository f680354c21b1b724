#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: build dbserve, the driver and the
# layer pass from this checkout's sources into .bench_build/, then hand the
# arguments to the driver. Every build output and the Go build cache stay
# inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-modcacherw
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root" && go build -o "$build/dbserve" ./cmd/dbserve) >&2
(cd "$root/bench" && go build -o "$build/bench" . && go build -o "$build/layerpass" ./layerpass) >&2
exec "$build/bench" -root "$root" -bin "$build" "$@"
