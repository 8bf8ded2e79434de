#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the root of a source
# tree: bash e2ebench/run.sh --workload hot-allocate --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the tree (Go build cache, temp dirs, the benchmark binary, the
# rcaserve/rcagate binaries built from the tree) and .bench_out/
# (result and trace files).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/rcaserve || ! -d cmd/rcagate ]]; then
	echo "e2ebench: $root is not a dspaddr source tree (need go.mod, cmd/rcaserve, cmd/rcagate)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in the tree too.
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
go -C e2ebench build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
