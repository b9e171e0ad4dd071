#!/bin/bash
# Builds and runs the benchmark from the root of a checkout, keeping the Go
# build cache and temporary files inside the checkout. Arguments go to the
# harness: see bench/README.md.
set -eu
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o .bench_build/rheem-bench ./bench
exec .bench_build/rheem-bench "$@"
