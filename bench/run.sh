#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write — Go's build cache, temporary files, durable databases, the
# binary — stays under .bench_build/ in the checkout this is started from.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache"

export GOCACHE="$build/gocache" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/bench" .
exec "$build/bench" "$@"
