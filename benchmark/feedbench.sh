#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): builds feedbench from
# source and runs one workload. Run it from the root of a checkout:
#
#   bash benchmark/feedbench.sh --workload small_push --seed 1 --seconds 48 --trace 0
#
# Everything it writes stays inside the checkout: the Go build cache,
# the toolchain's temp files and the binary under .bench_build/, work
# files under .feedbench-work/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
# stdout carries only the result line; the build reports on stderr.
(cd benchmark && go build -o "$build/feedbench" ./cmd/feedbench) 1>&2
exec "$build/feedbench" -dir .feedbench-work "$@"
