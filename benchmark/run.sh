#!/bin/sh
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it. Everything the build writes (Go's build cache,
# its temporary files, the binary) stays inside the checkout, so the
# first run of a fresh checkout compiles everything and later runs only
# check that the binary is current.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build="$here/../.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/sensjoin-benchmark" .
cd "$here/.."
exec "$build/sensjoin-benchmark" "$@"
