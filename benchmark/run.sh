#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run from the repository root:
#
#   bash benchmark/run.sh --workload sim-dice --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's journals all stay in
# the checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomodcache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/benchmark" build -o "$out/dice-benchmark" .
exec "$out/dice-benchmark" --workdir "$out" "$@"
