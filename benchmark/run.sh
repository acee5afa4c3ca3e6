#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and runs
# it with the driver's arguments. Everything the Go toolchain writes — build
# cache included — stays inside the checkout; nothing is downloaded.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
