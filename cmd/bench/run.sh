#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ under the current directory, which
# must be the repository root, and runs it with the given arguments:
#
#   bash cmd/bench/run.sh --workload fleet-day --seed 1 --seconds 10 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build/ too, so a
# run reads and writes nothing outside the checkout except the toolchain.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C cmd/bench -o "$out/bench" .
exec "$out/bench" "$@"
