#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload live-ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the
# Go build cache, the binary, each run's scratch state and the traced
# run's spans. The build never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
