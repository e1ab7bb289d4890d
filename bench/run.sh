#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there, passing every argument through. The
# go build and module caches are kept inside the checkout too, so a run
# reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local

bin="$build/mogis-bench"
# go build is incremental: with a warm cache it only checks freshness.
(cd "$root/bench" && go build -o "$bin" .)
cd "$root"
exec "$bin" "$@"
