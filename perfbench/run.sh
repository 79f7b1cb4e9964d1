#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper_grid --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache and temporary files, the binary, and
# the full reports with spans (.bench_build/perfbench-out/).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
# The simulator runs one cell at a time. One P keeps the collector and
# goroutine handoffs on the measuring CPU, which on a shared 2-CPU host
# halved the run-to-run spread of serve_chaos's wall time.
export GOMAXPROCS=1
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
