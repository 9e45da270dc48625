#!/bin/bash
# Builds the benchmark into .bench_build/ of the current checkout (build
# cache and temporary files included, so nothing is written outside it) and
# runs it with the given arguments. BENCHMARK.json names this script as the
# benchmark command; by hand, `go run ./bench` does the same with the
# user's own Go cache.
set -eu
root="$PWD"
export GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$root/.bench_build/tmp"
mkdir -p "$GOCACHE" "$GOTMPDIR"
go build -o "$root/.bench_build/bench" ./bench
exec "$root/.bench_build/bench" "$@"
