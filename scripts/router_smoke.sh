#!/usr/bin/env bash
# End-to-end smoke test for the sharded serving tier: two daemons behind
# one router, a mixed-op load run with percentile sanity, a worker
# SIGKILLed mid-run (the router must re-hash to the survivor and count
# the loss), that worker restarted and serving its keys again once the
# router's --retry-dead window passes, and graceful drains all around.
# Run via `make router-smoke`; CI runs it on every push.
set -euo pipefail

BIN=${BIN:-./_build/default/bin/imageeye.exe}
W1SOCK=$(mktemp -u "${TMPDIR:-/tmp}/imageeye-w1-XXXXXX.sock")
W2SOCK=$(mktemp -u "${TMPDIR:-/tmp}/imageeye-w2-XXXXXX.sock")
RSOCK=$(mktemp -u "${TMPDIR:-/tmp}/imageeye-router-XXXXXX.sock")
W1LOG=$(mktemp) W2LOG=$(mktemp) RLOG=$(mktemp)
W1_PID= W2_PID= R_PID=

cleanup() {
  for pid in "$R_PID" "$W1_PID" "$W2_PID"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -TERM "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -f "$W1SOCK" "$W2SOCK" "$RSOCK" "$W1LOG" "$W2LOG" "$RLOG"
}
trap cleanup EXIT

wait_sock() {
  for _ in $(seq 1 100); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  echo "server never bound $1" >&2
  return 1
}

"$BIN" serve --socket "$W1SOCK" --jobs 1 >"$W1LOG" 2>&1 &
W1_PID=$!
"$BIN" serve --socket "$W2SOCK" --jobs 1 >"$W2LOG" 2>&1 &
W2_PID=$!
wait_sock "$W1SOCK"
wait_sock "$W2SOCK"

# A short --retry-dead so the revival leg below need not wait long.
"$BIN" router --socket "$RSOCK" --retry-dead 0.5 -w "unix:$W1SOCK" -w "unix:$W2SOCK" \
  >"$RLOG" 2>&1 &
R_PID=$!
wait_sock "$RSOCK"

echo "== ping answered by the router itself"
"$BIN" client ping --socket "$RSOCK" | grep -q '"router"'

echo "== mixed-op loadgen through the router"
out=$("$BIN" loadgen --socket "$RSOCK" --concurrency 4 --requests 12 \
  --task 1 --ops synthesize,apply)
echo "$out"

echo "== percentile sanity: per-op p50 <= p95 <= p99 for both ops"
echo "$out" | awk '
  /^  (synthesize|apply):/ {
    if ($5 + 0 > $7 + 0 || $7 + 0 > $9 + 0) { print "unsorted percentiles: " $0; exit 1 }
    found++
  }
  END { if (found != 2) { print "expected per-op percentile lines for 2 ops, saw " found; exit 1 } }
'

echo "== aggregated metrics fan-in sees both workers"
metrics=$("$BIN" client metrics --socket "$RSOCK")
echo "$metrics" | jq -e '.metrics.workers_total == 2 and .metrics.workers_live == 2' >/dev/null

# The scene batch is one routing key, so one worker carried the load.
owner=$(echo "$metrics" \
  | jq -r '.metrics.workers | to_entries | max_by(.value.requests_total // 0) | .key')
if [ "$owner" = "unix:$W1SOCK" ]; then
  VICTIM_PID=$W1_PID; VICTIM=w1; VICTIM_SOCK=$W1SOCK; VICTIM_LOG=$W1LOG
else
  VICTIM_PID=$W2_PID; VICTIM=w2; VICTIM_SOCK=$W2SOCK; VICTIM_LOG=$W2LOG
fi

echo "== SIGKILL the owning worker ($VICTIM); the router must degrade, not fail"
kill -KILL "$VICTIM_PID"
wait "$VICTIM_PID" 2>/dev/null || true
if [ "$VICTIM" = w1 ]; then W1_PID=; else W2_PID=; fi

out=$("$BIN" loadgen --socket "$RSOCK" --concurrency 2 --requests 4 --task 1)
echo "$out"
echo "$out" | grep -q " 4 success," || {
  echo "expected all requests to succeed on the surviving worker" >&2
  exit 1
}

echo "== the loss is counted and the live count dropped"
"$BIN" client metrics --socket "$RSOCK" \
  | jq -e '.metrics.workers_live == 1 and .metrics.router.faults["worker-lost"] >= 1' >/dev/null

echo "== the lost worker comes back: restarted on its socket, it owns its keys again"
"$BIN" serve --socket "$VICTIM_SOCK" --jobs 1 >"$VICTIM_LOG" 2>&1 &
if [ "$VICTIM" = w1 ]; then W1_PID=$!; else W2_PID=$!; fi
# The SIGKILLed worker left its socket file behind, so wait for an
# answer rather than for the file.  That ping counts in the worker's
# requests_total, hence the synthesize count below.
"$BIN" client ping --socket "$VICTIM_SOCK" >/dev/null
sleep 0.6   # past the router's --retry-dead window
out=$("$BIN" loadgen --socket "$RSOCK" --concurrency 2 --requests 4 --task 1)
echo "$out"
echo "$out" | grep -q " 4 success," || {
  echo "expected all requests to succeed after the worker came back" >&2
  exit 1
}
"$BIN" client metrics --socket "$RSOCK" \
  | jq -e --arg w "unix:$VICTIM_SOCK" \
      '.metrics.workers_live == 2 and (.metrics.workers[$w].requests.synthesize.ok // 0) >= 1' \
      >/dev/null || {
  echo "the restarted worker is not live or served nothing" >&2
  cat "$VICTIM_LOG" >&2
  exit 1
}

echo "== graceful router drain on SIGTERM"
kill -TERM "$R_PID"
wait "$R_PID"   # set -e: a non-zero exit fails the smoke
R_PID=
grep -q "final metrics" "$RLOG" || {
  echo "no final metrics dump in the router log" >&2
  cat "$RLOG" >&2
  exit 1
}

echo "== graceful worker drains on SIGTERM"
for pid in "$W1_PID" "$W2_PID"; do
  kill -TERM "$pid"
  wait "$pid"
done
W1_PID= W2_PID=

echo "router smoke OK"
