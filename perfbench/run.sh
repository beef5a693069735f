#!/usr/bin/env bash
# Builds the EMS benchmark from the checkout it is run in and runs it.
# Run from the checkout root:
#   bash perfbench/run.sh --workload engine-ladder --seed 1 --seconds 10 --trace 0
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false"
(cd "$root/perfbench" && go build -o "$build/emsperf" .) >&2
exec "$build/emsperf" -root "$root" "$@"
