#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds tddmeter from source into
# .bench_build/ at the root of the checkout — Go's build cache and temp
# directory included, so nothing is written outside the checkout — and
# runs it with the arguments given:
#
#   bash bench/run.sh --workload reach_cold --seed 1 --seconds 16 --trace 0
#
# The first call in a fresh checkout compiles the standard library into
# the private cache (about a minute on two cores); later calls only check
# that the binary is current.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/tddmeter" ./bench
exec "$build/tddmeter" "$@"
