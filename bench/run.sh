#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, from the root of
# the checkout. Everything the build writes (go's caches included) stays
# under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$build/pipeline-bench" .
exec "$build/pipeline-bench" "$@"
