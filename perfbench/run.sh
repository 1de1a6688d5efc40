#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
#
# Run from the root of the repository. Everything the build and the run
# write stays under .bench_build/ in that directory: the Go build cache and
# temporary files, the binary, the stores the workloads create and the
# trace files.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -work "$out" "$@"
