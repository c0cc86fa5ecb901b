#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on:
#
#   bash perfbench/run.sh --workload grid-medium --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's scratch stores all live
# under .bench_build/ in the current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=$PWD/.bench_build
mkdir -p "$out/tmp"

# Keep the toolchain inside the checkout and offline: no module downloads,
# no toolchain switch, no user-level go env, caches and telemetry here.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache HOME=$out/home

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --refs "$here/digests" --workdir "$out/work" "$@"
