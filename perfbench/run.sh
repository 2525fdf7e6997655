#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload site_steady --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the span files of traced runs
# stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
