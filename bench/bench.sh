#!/usr/bin/env bash
# The command BENCHMARK.json names: build the ledger program from source and
# run it with the given arguments (--workload, --seed, --seconds, --trace).
#
# Everything this writes stays inside the checkout: the Go build cache and
# the binary go to .bench_build/, traces to bench/out/. Without the
# repository's go.mod two directories up there is nothing to build against,
# and the build fails before anything runs.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$bench/_ccperf" && go build -o "$build/ccperf" .)

cd "$root"
exec "$build/ccperf" -outdir "$bench/out" "$@"
