#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload fleet-edit --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
