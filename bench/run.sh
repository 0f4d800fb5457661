#!/usr/bin/env bash
# The benchmark's one command. Builds the runner from source into
# .bench_build/ at the repository root (nothing is written outside the
# checkout: the Go build cache, the go command's scratch directory and its
# telemetry counters live there too) and runs it with the arguments given:
#
#   bash bench/run.sh --workload serve_open --seed 3 --seconds 16 --trace 0
#   bash bench/run.sh -seed 1          # all workloads, both passes, as a table
#   bash bench/run.sh -aa              # two sets on this checkout vs the bounds
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# VCS stamping is off (it fails the build in a checkout whose .git it may
# not read); the commit, when there is one, rides in the environment.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)}"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
