#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files, the binary, the service stores and
# the span files all stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
