#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Build products and the Go caches stay inside the checkout,
# under .bench_build/, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/benchmark" && go build -o "$build/vodbench" .)
cd "$root"
exec "$build/vodbench" "$@"
