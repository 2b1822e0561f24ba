#!/usr/bin/env bash
# The driver's entry point: builds the benchmark from source inside the
# checkout and runs it with the arguments given, from the checkout's root.
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) and everything the benchmark writes stays under .bench_build.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" -out "$build/out" "$@"
