#!/usr/bin/env bash
# Crash-recovery smoke test for cludeserve's durability layer: start a
# streaming server with a data directory, ingest edge deltas, record a
# query answer, SIGKILL the process mid-stream, restart it, and assert
# that (a) /v1/stats reports the exact pre-kill version and (b) the same
# query returns the identical scores, and (c) the /v1/metrics
# exposition on the recovered server parses and reports the recovery
# (clude_store_recovered == 1, clude_stream_version == pre-kill
# version). The server runs with -history-base, so the run also proves
# the delta-compressed history survives the kill: the history sidecar's
# segments (<data-dir>/history/hist-*.seg, the second instance of the
# WAL's record log) plus WAL replay must leave a recent history version
# materializable on the recovered server with answers identical to the
# pre-kill ones. This is the end-to-end, real-binary companion to
# internal/store's kill-point property tests; CI runs it per PR.
#
# Usage: scripts/crash_recovery_smoke.sh [pre-kill-binary]
# With a binary argument, the run before the kill uses that binary (an
# older build, taking the same flags) and the restart this checkout's:
# the upgrade leg. The restart must then read the older binary's
# checkpoints (snapshots_skipped 0), recover warm at the pre-kill
# version and answer identically, as after an upgrade in place.
#
# Before the restart it plants the temp files a kill -9 mid-write
# leaves (beside the checkpoints and in the spill directory) and
# asserts the restarted server removed them.
# The server runs with -trace-sample 1, so the run also asserts the
# recovered server's request tracing end to end: /v1/traces must list
# the post-restart queries with the full resolve/admit/batch/solve
# stage set, the post-recovery ingest with its synthesized
# validate/apply/log/publish stages, and resolve a listed id by path.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${SMOKE_PORT:-18431}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
DATA="$WORK/data"
PRE_BIN="${1:-}"
SRV_FLAGS=(-stream -scale tiny -addr "$ADDR"
  -data-dir "$DATA" -fsync always -snapshot-every 4
  -batch 4 -flush-ms 50 -history-base 2 -trace-sample 1)
PID=""

cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

log() { echo "smoke: $*" >&2; }

wait_up() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/v1/stats" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  log "server did not come up"
  [ -f "$WORK/server.log" ] && cat "$WORK/server.log" >&2
  return 1
}

json() { python3 -c "import json,sys; d=json.load(sys.stdin); print(eval(sys.argv[1], {}, {'d': d}))" "$1"; }

log "building cludeserve"
go build -o "$WORK/cludeserve" ./cmd/cludeserve
PRE_BIN="${PRE_BIN:-$WORK/cludeserve}"

log "starting server ($PRE_BIN, $DATA)"
"$PRE_BIN" "${SRV_FLAGS[@]}" >"$WORK/server.log" 2>&1 &
PID=$!
wait_up

log "ingesting deltas"
for i in $(seq 0 9); do
  a=$((i % 140)); b=$(( (i * 7 + 3) % 140 ))
  curl -fsS -X POST "$BASE/v1/update?sync=1" \
    -d "{\"events\":[{\"from\":$a,\"to\":$b,\"op\":\"insert\"},{\"from\":$b,\"to\":$(((b+1)%140)),\"op\":\"insert\"}]}" \
    >/dev/null
done

PRE_VERSION=$(curl -fsS "$BASE/v1/stats" | json "d['stream']['version']")
PRE_SCORES=$(curl -fsS "$BASE/v1/query?measure=rwr&source=3" | json "d['scores']")
PRE_TOP=$(curl -fsS "$BASE/v1/query?measure=topk&source=3&k=5" | json "d['nodes']")
log "pre-kill: version=$PRE_VERSION"
[ "$PRE_VERSION" -ge 1 ] || { log "no versions committed before kill"; exit 1; }
# A history version one behind the head: with -history-base 2 it is
# either a pinned base or a delta-materialized version; both must
# survive the kill below.
HIST_VERSION=$((PRE_VERSION - 1))
PRE_HIST=$(curl -fsS "$BASE/v1/query?measure=rwr&source=3&snapshot=$HIST_VERSION" | json "d['scores']")

FAIL=0
log "SIGKILL mid-stream"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

# A kill -9 mid-write leaves a temp file behind: plant one beside the
# checkpoints and one in the spill directory. The restart must sweep
# both.
mkdir -p "$DATA/spill"
touch "$DATA/snap-1234567.tmp" "$DATA/spill/spill-7654321.tmp"

log "restarting from $DATA"
"$WORK/cludeserve" "${SRV_FLAGS[@]}" >"$WORK/server2.log" 2>&1 &
PID=$!
wait_up

STRAY=$(find "$DATA" -name '*.tmp')
if [ -n "$STRAY" ]; then
  log "FAIL: temp files survived the warm restart: $STRAY"; FAIL=1
fi

POST_VERSION=$(curl -fsS "$BASE/v1/stats" | json "d['stream']['version']")
RECOVERED=$(curl -fsS "$BASE/v1/stats" | json "d['store']['recovery']['recovered']")
SKIPPED=$(curl -fsS "$BASE/v1/stats" | json "d['store']['recovery']['snapshots_skipped']")
POST_SCORES=$(curl -fsS "$BASE/v1/query?measure=rwr&source=3" | json "d['scores']")
POST_TOP=$(curl -fsS "$BASE/v1/query?measure=topk&source=3&k=5" | json "d['nodes']")
log "post-restart: version=$POST_VERSION recovered=$RECOVERED snapshots_skipped=$SKIPPED"

if [ "$RECOVERED" != "True" ]; then
  log "FAIL: restart did not recover from snapshot+WAL"; FAIL=1
fi
if [ "$SKIPPED" != "0" ]; then
  log "FAIL: restart skipped $SKIPPED checkpoints it could not read"; FAIL=1
fi
if [ "$POST_VERSION" != "$PRE_VERSION" ]; then
  log "FAIL: recovered version $POST_VERSION != pre-kill $PRE_VERSION"; FAIL=1
fi
if [ "$POST_SCORES" != "$PRE_SCORES" ]; then
  log "FAIL: recovered rwr scores differ from pre-kill answer"; FAIL=1
fi
if [ "$POST_TOP" != "$PRE_TOP" ]; then
  log "FAIL: recovered topk differs from pre-kill answer"; FAIL=1
fi

# Delta-compressed history across the kill: the recovered server must
# still list the old version as answerable and answer it identically.
HIST_LISTED=$(curl -fsS "$BASE/v1/snapshots" | json "any(h['version'] == $HIST_VERSION for h in d.get('history', []))")
if [ "$HIST_LISTED" != "True" ]; then
  log "FAIL: recovered /v1/snapshots does not list history version $HIST_VERSION"; FAIL=1
fi
POST_HIST=$(curl -fsS "$BASE/v1/query?measure=rwr&source=3&snapshot=$HIST_VERSION" | json "d['scores']")
if [ "$POST_HIST" != "$PRE_HIST" ]; then
  log "FAIL: recovered history version $HIST_VERSION answers differently"; FAIL=1
fi

# The recovered server's metrics exposition must parse (every line a
# comment or `series value`) and report the warm restart.
METRICS="$WORK/metrics.txt"
curl -fsS "$BASE/v1/metrics" >"$METRICS"
if ! python3 - "$METRICS" <<'EOF'
import sys

series = {}
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            sys.exit(f"line {n}: unparseable: {line!r}")
        if name in series:
            sys.exit(f"line {n}: duplicate series {name!r}")
        series[name] = float(value)

if series.get("clude_store_recovered") != 1:
    sys.exit(f"clude_store_recovered = {series.get('clude_store_recovered')}, want 1")
for required in ("clude_stream_version", "clude_wal_records_total",
                 "clude_store_replayed_batches", "clude_queries_total",
                 "clude_history_versions", "clude_history_base_pins_total"):
    if required not in series:
        sys.exit(f"missing series {required}")
EOF
then
  log "FAIL: /v1/metrics on the recovered server is malformed or missing recovery series"; FAIL=1
fi
METRICS_VERSION=$(python3 -c "
import sys
for line in open(sys.argv[1]):
    if line.startswith('clude_stream_version '):
        print(int(float(line.split()[1]))); break
" "$METRICS")
if [ "$METRICS_VERSION" != "$PRE_VERSION" ]; then
  log "FAIL: clude_stream_version $METRICS_VERSION != pre-kill $PRE_VERSION"; FAIL=1
fi

# A recovered server must keep ingesting: the WAL continues after the
# replayed tail.
curl -fsS -X POST "$BASE/v1/update?sync=1" \
  -d '{"events":[{"from":1,"to":2,"op":"delete"}]}' >/dev/null
NEXT_VERSION=$(curl -fsS "$BASE/v1/stats" | json "d['stream']['version']")
if [ "$NEXT_VERSION" -le "$POST_VERSION" ]; then
  log "FAIL: post-recovery ingest did not advance the version"; FAIL=1
fi

# Request tracing on the recovered server: the server runs with
# -trace-sample 1, so the queries above must be in the retained ring
# with the full serve-pipeline stage set, a listed id must resolve via
# /v1/traces/{id}, and the post-recovery ingest must have left a
# synthesized ingest trace with its stage spans.
TRACES="$WORK/traces.json"
curl -fsS "$BASE/v1/traces?limit=100" >"$TRACES"
if ! python3 - "$TRACES" <<'TRACECHECK'
import json, sys

d = json.load(open(sys.argv[1]))
traces = d.get("traces") or []
if not traces:
    sys.exit("no retained traces on the recovered server")
queries = [t for t in traces if t.get("name") == "query"]
ingests = [t for t in traces if t.get("name") == "ingest"]
if not queries:
    sys.exit("no retained query traces")
if not ingests:
    sys.exit("no retained ingest traces after post-recovery ingest")
want = {"resolve", "admit", "batch", "solve"}
got = set()
for t in queries:
    got |= {s.get("name") for s in t.get("spans") or []}
if not want <= got:
    sys.exit(f"query traces missing stages {sorted(want - got)} (saw {sorted(got)})")
iwant = {"validate", "apply", "log", "publish"}
igot = set()
for t in ingests:
    igot |= {s.get("name") for s in t.get("spans") or []}
if not iwant <= igot:
    sys.exit(f"ingest traces missing stages {sorted(iwant - igot)} (saw {sorted(igot)})")
TRACECHECK
then
  log "FAIL: /v1/traces on the recovered server is missing expected traces or stages"; FAIL=1
else
  TRACE_ID=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['traces'][0]['trace_id'])" "$TRACES")
  if ! curl -fsS "$BASE/v1/traces/$TRACE_ID" >/dev/null; then
    log "FAIL: /v1/traces/$TRACE_ID did not resolve a listed trace id"; FAIL=1
  fi
fi

kill "$PID" 2>/dev/null && wait "$PID" 2>/dev/null || true
PID=""

if [ "$FAIL" -ne 0 ]; then
  log "server logs:"
  cat "$WORK/server.log" "$WORK/server2.log" >&2 || true
  exit 1
fi
log "OK: recovered to version $PRE_VERSION with bit-identical answers (live and history v$HIST_VERSION), a clean metrics exposition, and stage-complete query+ingest traces"
