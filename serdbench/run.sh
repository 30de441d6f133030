#!/usr/bin/env bash
# Builds serdbench from this checkout's source and runs it with the given
# arguments, from the checkout root:
#
#   bash serdbench/run.sh --workload restaurant-rejection --seed 1 --seconds 30 --trace 0
#
# The build cache, binary and scratch files all live under .bench_build/ in
# the checkout. Without the repository's own source next to serdbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$root/serdbench" && go build -o "$build/serdbench" .)
exec "$build/serdbench" -work "$build/work" "$@"
