#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the toolchain and the benchmark write stays inside the
# checkout: the Go build cache and temporary files under .bench_build,
# reports under benchmark/out. The benchmark builds cludeserve from
# source itself.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
