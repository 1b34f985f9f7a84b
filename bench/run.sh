#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload small-gemm --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the go command's own configuration
# and telemetry, and the binary all go under .bench_build/ in the current
# directory, so nothing is written outside the checkout. No network is
# needed: the module has no dependencies beyond the repository itself.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOPATH="$out/gopath" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/autogemm-bench" .
exec "$out/autogemm-bench" "$@"
