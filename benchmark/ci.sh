#!/usr/bin/env bash
# Build, run a full set, and compare it with the newest committed
# baseline. Exits non-zero when an end-to-end metric is worse than the
# baseline by more than its bound (see `-compare` in README.md). A CI
# job calls this with no arguments; RUNS=3 shortens a local try.
#
#   benchmark/ci.sh            # ten runs per workload, ~21 minutes
#   RUNS=3 benchmark/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
before="$(ls benchmark/out/BENCH_*.json 2>/dev/null | sort | tail -n 1 || true)"
go run ./benchmark -runs "${RUNS:-10}"
current="$(ls benchmark/out/BENCH_*.json | sort | tail -n 1)"
if [ "$current" = "$before" ]; then
  echo "ci.sh: the run wrote no new BENCH file" >&2
  exit 1
fi
baseline="$(ls benchmark/baselines/BENCH_*.json 2>/dev/null | sort | tail -n 1 || true)"
if [ -z "$baseline" ]; then
  echo "ci.sh: no baseline under benchmark/baselines; keeping $current as the first one"
  exit 0
fi
go run ./benchmark -compare "$baseline" "$current"
