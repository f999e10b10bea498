#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it with the
# arguments given. Everything the build and the run write stays inside the
# checkout: the Go build cache is redirected there too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/sjbench" . >&2
exec "$build/sjbench" "$@"
