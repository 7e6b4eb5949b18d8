#!/usr/bin/env bash
# The parent-against-change body check, as a script:
#
#   scripts/probe_bodies.sh <cludeserve-binary> <out-dir>
#
# boots the given binary three times at -scale tiny — offline with a
# -snapshots bound small enough that the LUDEM run skips a cluster and
# opens the next one's chain past its start (core.Options.First),
# offline over the whole sequence, so the callbacks cross from one
# cluster to the next, then with -stream and delta-compressed history —
# issues one fixed list of rwr / topk / ppr / pagerank probes against
# retained snapshots, the latest one, history versions and versions that
# must answer 404, and writes "<probe> <status> <sha256 of the body>"
# lines to <out-dir>/bodies.sha256. Nothing in a body depends on time or
# on the run, so two builds that compute the same factors and spell the
# same JSON write the same file:
#
#   scripts/probe_bodies.sh /tmp/base/cludeserve /tmp/base-out
#   scripts/probe_bodies.sh /tmp/head/cludeserve /tmp/head-out
#   diff -u /tmp/base-out/bodies.sha256 /tmp/head-out/bodies.sha256
#
# CI's probe-bodies job does exactly that on every pull request, base
# SHA against HEAD. A change that means to alter an answer has to say so
# and update whoever reads this diff; a perf change must leave it empty.
set -euo pipefail

[ $# -eq 2 ] || { echo "usage: $0 <cludeserve-binary> <out-dir>" >&2; exit 2; }
BIN="$1"
OUT="$2"
ADDR="127.0.0.1:${PROBE_PORT:-18441}"
BASE="http://$ADDR"
mkdir -p "$OUT"
SUMS="$OUT/bodies.sha256"
: >"$SUMS"
PID=""

cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  rm -f "$OUT/body.tmp"
}
trap cleanup EXIT

log() { echo "probe: $*" >&2; }

# boot <log-file> <flags...>: start the binary and wait for its listener.
boot() {
  local logfile="$1"
  shift
  "$BIN" -addr "$ADDR" "$@" >"$logfile" 2>&1 &
  PID=$!
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  log "server did not come up"
  cat "$logfile" >&2
  return 1
}

halt() {
  kill -TERM "$PID"
  wait "$PID" 2>/dev/null || true
  PID=""
}

# probe <name> <curl args...>: one request, one line of the sums file.
probe() {
  local name="$1" status
  shift
  status=$(curl -sS -o "$OUT/body.tmp" -w '%{http_code}' "$@")
  echo "$name $status $(sha256sum <"$OUT/body.tmp" | cut -d' ' -f1)" >>"$SUMS"
}

# measures <prefix> <query-suffix>: the four factor-backed measures,
# each asked three times — a miss, the hit that stores its encoded body,
# and a hit written from those bytes.
measures() {
  local prefix="$1" suffix="$2" pass
  for pass in miss hit stored; do
    probe "$prefix/rwr/$pass" "$BASE/v1/query?measure=rwr&source=3$suffix"
    probe "$prefix/topk/$pass" "$BASE/v1/query?measure=topk&source=5&k=10$suffix"
    probe "$prefix/ppr/$pass" "$BASE/v1/query?measure=ppr&sources=1,2,3$suffix"
    probe "$prefix/pagerank/$pass" "$BASE/v1/query?measure=pagerank$suffix"
  done
}

# ---- offline: tiny is 10 snapshots in 2 clusters, [0,7) and [7,10) ----
log "offline, -snapshots 2"
boot "$OUT/offline.log" -scale tiny -snapshots 2
line=$(grep 'msg="pinned snapshots"' "$OUT/offline.log")
if [[ "$line" =~ \ clusters=([0-9]+)\ decomposed_clusters=([0-9]+)\  ]]; then
  if [ "${BASH_REMATCH[2]}" -ge "${BASH_REMATCH[1]}" ]; then
    log "FAIL: no cluster was skipped (${BASH_REMATCH[2]} of ${BASH_REMATCH[1]} decomposed); the offline probes need one"
    exit 1
  fi
  log "decomposed ${BASH_REMATCH[2]} of ${BASH_REMATCH[1]} clusters"
else
  log "this binary's log line has no decomposed_clusters (it predates Options.First): it decomposed every cluster"
fi
# The straddled cluster's chain opens at the first kept snapshot, T - 2.
if [[ "$line" =~ \ opened_at=([0-9]+)\  ]]; then
  T=$(grep 'msg="factoring snapshots"' "$OUT/offline.log" | sed -E 's/.* count=([0-9]+) .*/\1/')
  if [ "${BASH_REMATCH[1]}" -ne $((T - 2)) ]; then
    log "FAIL: the straddled cluster opened at snapshot ${BASH_REMATCH[1]}, want $((T - 2)) of $T"
    exit 1
  fi
  log "opened the straddled cluster at snapshot ${BASH_REMATCH[1]} of $T"
else
  log "this binary's log line has no opened_at: it opened the straddled cluster at its start"
fi
probe offline/snapshots "$BASE/v1/snapshots"
measures offline/8 "&snapshot=8"
measures offline/9 "&snapshot=9"
measures offline/latest ""
probe offline/not-retained "$BASE/v1/query?measure=rwr&source=3&snapshot=3"
probe offline/beyond "$BASE/v1/query?measure=topk&source=5&k=10&snapshot=10"
halt

# ---- offline, whole sequence: both clusters decomposed ----
log "offline, -snapshots 0"
boot "$OUT/offline-all.log" -scale tiny -snapshots 0
line=$(grep 'msg="pinned snapshots"' "$OUT/offline-all.log")
if [[ "$line" =~ \ clusters=([0-9]+)\ decomposed_clusters=([0-9]+)\  ]]; then
  if [ "${BASH_REMATCH[2]}" -ne "${BASH_REMATCH[1]}" ]; then
    log "FAIL: ${BASH_REMATCH[2]} of ${BASH_REMATCH[1]} clusters decomposed; the boundary probes need them all"
    exit 1
  fi
  log "decomposed all ${BASH_REMATCH[1]} clusters"
else
  log "this binary's log line has no decomposed_clusters (it predates Options.First): it decomposed every cluster"
fi
# Snapshot 6 ends the first cluster, 7 opens the second.
for s in 6 7; do
  probe "offline-all/$s/rwr" "$BASE/v1/query?measure=rwr&source=3&snapshot=$s"
  probe "offline-all/$s/topk" "$BASE/v1/query?measure=topk&source=5&k=10&snapshot=$s"
done
halt

# ---- streaming: growth (fresh edges), then toggles of the same edges ----
log "streaming, -history-base 2"
boot "$OUT/stream.log" -scale tiny -stream -batch 4 -flush-ms 50 -history-base 2
update() {
  probe "$1" -X POST "$BASE/v1/update?sync=1" -d "$2"
}
for i in 0 1 2 3; do
  a=$((i * 11 % 140))
  b=$(((i * 7 + 3) % 140))
  update "stream/update/insert-$i" "{\"events\":[{\"from\":$a,\"to\":$b,\"op\":\"insert\"},{\"from\":$b,\"to\":$(((b + 1) % 140)),\"op\":\"insert\"}]}"
done
for i in 0 1; do
  a=$((i * 11 % 140))
  b=$(((i * 7 + 3) % 140))
  update "stream/update/delete-$i" "{\"events\":[{\"from\":$a,\"to\":$b,\"op\":\"delete\"}]}"
  update "stream/update/reinsert-$i" "{\"events\":[{\"from\":$a,\"to\":$b,\"op\":\"insert\"}]}"
done
measures stream/live ""
for v in 1 2 3 5 7; do
  probe "stream/history/$v/rwr" "$BASE/v1/query?measure=rwr&source=3&snapshot=$v"
  probe "stream/history/$v/topk" "$BASE/v1/query?measure=topk&source=5&k=10&snapshot=$v"
done
probe stream/history/beyond "$BASE/v1/query?measure=rwr&source=3&snapshot=99"
halt

log "$(wc -l <"$SUMS") probes -> $SUMS"
