#!/usr/bin/env bash
# End-to-end smoke test for the sharded serving tier: two daemons with
# persistent state dirs behind one router, a mixed-op load run with
# percentile sanity, a worker SIGKILLed mid-run (the router must
# re-hash to the survivor and count the loss), a duplicate-daemon probe
# that must die with state-dir-locked, graceful drains all around, and a
# worker restart that must come back warm from its snapshot.  Run via
# `make router-smoke`; CI runs it on every push.
set -euo pipefail

BIN=${BIN:-./_build/default/bin/imageeye.exe}
W1SOCK=$(mktemp -u "${TMPDIR:-/tmp}/imageeye-w1-XXXXXX.sock")
W2SOCK=$(mktemp -u "${TMPDIR:-/tmp}/imageeye-w2-XXXXXX.sock")
RSOCK=$(mktemp -u "${TMPDIR:-/tmp}/imageeye-router-XXXXXX.sock")
DUPSOCK=$(mktemp -u "${TMPDIR:-/tmp}/imageeye-dup-XXXXXX.sock")
D1=$(mktemp -d "${TMPDIR:-/tmp}/imageeye-state1-XXXXXX")
D2=$(mktemp -d "${TMPDIR:-/tmp}/imageeye-state2-XXXXXX")
W1LOG=$(mktemp) W2LOG=$(mktemp) RLOG=$(mktemp) DUPLOG=$(mktemp)
W1_PID= W2_PID= R_PID=

cleanup() {
  for pid in "$R_PID" "$W1_PID" "$W2_PID"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -TERM "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -f "$W1SOCK" "$W2SOCK" "$RSOCK" "$DUPSOCK" "$W1LOG" "$W2LOG" "$RLOG" "$DUPLOG"
  rm -rf "$D1" "$D2"
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

"$BIN" serve --socket "$W1SOCK" --state-dir "$D1" --jobs 1 >"$W1LOG" 2>&1 &
W1_PID=$!
"$BIN" serve --socket "$W2SOCK" --state-dir "$D2" --jobs 1 >"$W2LOG" 2>&1 &
W2_PID=$!
wait_sock "$W1SOCK"
wait_sock "$W2SOCK"

"$BIN" router --socket "$RSOCK" -w "unix:$W1SOCK" -w "unix:$W2SOCK" >"$RLOG" 2>&1 &
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
  VICTIM_PID=$W1_PID; VICTIM=w1; SURVIVOR_PID=$W2_PID; SURVIVOR_SOCK=$W2SOCK
  SURVIVOR_DIR=$D2; SURVIVOR_LOG=$W2LOG
else
  VICTIM_PID=$W2_PID; VICTIM=w2; SURVIVOR_PID=$W1_PID; SURVIVOR_SOCK=$W1SOCK
  SURVIVOR_DIR=$D1; SURVIVOR_LOG=$W1LOG
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

echo "== a second daemon on a held state dir dies loudly"
set +e
"$BIN" serve --socket "$DUPSOCK" --state-dir "$SURVIVOR_DIR" --jobs 1 >"$DUPLOG" 2>&1
rc=$?
set -e
if [ "$rc" -eq 0 ]; then
  echo "duplicate daemon on a held state dir exited 0" >&2
  exit 1
fi
grep -q "state-dir-locked" "$DUPLOG" || {
  echo "expected a state-dir-locked error" >&2
  cat "$DUPLOG" >&2
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

echo "== graceful survivor drain writes a snapshot"
kill -TERM "$SURVIVOR_PID"
wait "$SURVIVOR_PID"
W1_PID= ; W2_PID=
if [ ! -f "$SURVIVOR_DIR/state.snapshot" ]; then
  echo "no snapshot in $SURVIVOR_DIR after a graceful drain" >&2
  cat "$SURVIVOR_LOG" >&2
  exit 1
fi

echo "== the survivor restarts warm from its snapshot"
"$BIN" serve --socket "$SURVIVOR_SOCK" --state-dir "$SURVIVOR_DIR" --jobs 1 >"$SURVIVOR_LOG" 2>&1 &
RESTART_PID=$!
if [ "$SURVIVOR_SOCK" = "$W1SOCK" ]; then W1_PID=$RESTART_PID; else W2_PID=$RESTART_PID; fi
wait_sock "$SURVIVOR_SOCK"
"$BIN" client metrics --socket "$SURVIVOR_SOCK" \
  | jq -e '.metrics.counters["persist(restored-universes)"] >= 1' >/dev/null || {
  echo "restarted worker did not restore its universes" >&2
  cat "$SURVIVOR_LOG" >&2
  exit 1
}
kill -TERM "$RESTART_PID"
wait "$RESTART_PID"
W1_PID= ; W2_PID=

echo "router smoke OK"
