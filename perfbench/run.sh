#!/usr/bin/env bash
# Builds the benchmark and cmd/serve from the source tree in the working
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the working directory, including the Go
# build cache, so nothing is compiled inside a timed set-up.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomod
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/serve" ./cmd/serve

if [ -z "${PERFBENCH_COMMIT:-}" ] && rev=$(git rev-parse HEAD 2>/dev/null); then
	export PERFBENCH_COMMIT=$rev
fi
exec "$out/perfbench" -root "$root" -serve "$out/serve" -work "$out/work" "$@"
