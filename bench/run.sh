#!/usr/bin/env bash
# Builds cohortperf and the CLIs it measures (cohort-bench, cohort-sim) from
# this checkout, then runs cohortperf with the given arguments. Run it from
# the repository root:
#
#   bash bench/run.sh --workload suite --seed 42 --seconds 15 --trace 0
#   bash bench/run.sh -seed 42 -out bench/results/seed-run1.json
#   bash bench/run.sh -compare BASE.json,NEW.json
#
# Everything it builds or writes, the Go build cache included, stays under
# .bench_build/ in the repository root.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/bin/" ./cmd/cohort-bench ./cmd/cohort-sim
go build -C bench -o "$build/bin/cohortperf" ./cohortperf
exec "$build/bin/cohortperf" "$@"
