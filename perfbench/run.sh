#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-synth --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare base-runs/ head-runs/
#
# Build output and the Go build cache stay in .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
PERFBENCH_COMMIT="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT
exec "$out/perfbench" "$@"
