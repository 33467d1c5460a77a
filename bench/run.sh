#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the Go
# toolchain and the benchmark write inside the checkout:
#
#   .bench_build/   Go build cache, temp files and the bench binary
#   bench/out/      job directories (removed as they finish) and trace files
#
# Usage (from anywhere): bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Without --workload it runs every workload; see bench/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
