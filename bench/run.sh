#!/usr/bin/env bash
# Builds faultbench and cmd/faultcov from this checkout's sources, then
# runs faultbench with the given arguments.  Run it from the repository
# root:
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh --workload cf-stream --seed 1 --seconds 12 --trace 0
#
# Build outputs and the Go caches stay inside the checkout, under
# $CARGO_TARGET_DIR when it is set and .bench_build otherwise.  Build
# messages go to standard error, so the last line of standard output is
# faultbench's JSON summary.  Without the repository's sources (a copy
# holding only BENCHMARK.json and bench/) the build fails and the script
# exits non-zero before printing anything.  Either way the script leaves
# no process behind.
set -euo pipefail

root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# With telemetry in its default "local" mode the go command starts, once
# a day per configuration directory, a detached sidecar process that
# outlives it.  Turning telemetry off in the private configuration
# directory keeps every process this script starts a child it waits for.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/faultcov" ./cmd/faultcov >&2
(cd bench && go build -o "$build/faultbench" ./faultbench) >&2
exec "$build/faultbench" -faultcov "$build/faultcov" "$@"
