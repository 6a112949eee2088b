#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
#
# Every build artefact (binary, Go build cache, module cache, temp files)
# stays under .bench_build/ in the checkout. The benchmark module replaces
# the wcdsnet module with ../, so outside a full checkout the build fails
# and the script exits nonzero without printing a result.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
