#!/usr/bin/env bash
# End-to-end smoke test for the serving stack: start the daemon on a
# temporary unix socket, drive it with the client and the load
# generator (asserting every request succeeds, and deadline handling),
# then SIGTERM it and require a graceful, metrics-dumping, zero-status
# exit, after which the load generator must count every request to the
# dead socket as a transport error and report that no request completed
# (no latency quantiles).  Run via `make serve-smoke`; CI runs
# it on every push.
set -euo pipefail

BIN=${BIN:-./_build/default/bin/imageeye.exe}
SOCK=$(mktemp -u "${TMPDIR:-/tmp}/imageeye-smoke-XXXXXX.sock")
LOG=$(mktemp "${TMPDIR:-/tmp}/imageeye-smoke-XXXXXX.log")
RAWOUT=$(mktemp "${TMPDIR:-/tmp}/imageeye-smoke-raw-XXXXXX.json")
SERVER_PID=

cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -TERM "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -f "$SOCK" "$LOG" "$RAWOUT"
}
trap cleanup EXIT

# --max-line-bytes is deliberately small so the adversarial probe below
# can trip it without shipping megabytes through the smoke test.
"$BIN" serve --socket "$SOCK" --jobs 1 --max-line-bytes 65536 >"$LOG" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
if [ ! -S "$SOCK" ]; then
  echo "server never bound $SOCK" >&2
  cat "$LOG" >&2
  exit 1
fi

echo "== ping"
"$BIN" client ping --socket "$SOCK" >/dev/null

echo "== loadgen: 8 requests over 4 connections"
"$BIN" loadgen --socket "$SOCK" --concurrency 4 --requests 8 --task 1

echo "== deadline probe: hard 6-demo spec on a 10 ms budget must time out"
out=$("$BIN" loadgen --socket "$SOCK" -c 1 -m 1 --task 16 -n 10 \
  --demo-images 6 --seed 97 --timeout 0.01)
echo "$out"
echo "$out" | grep -q " 1 timeout," || {
  echo "expected a timeout outcome from the deadline probe" >&2
  exit 1
}

echo "== server keeps serving after the timeout"
"$BIN" client ping --socket "$SOCK" >/dev/null

echo "== interactive session over the wire"
"$BIN" client session --task 30 --images 40 --socket "$SOCK"

echo "== metrics"
"$BIN" client metrics --socket "$SOCK" | grep -q '"requests_total"'

echo "== adversarial probe: nesting bomb gets a structured depth-exceeded"
# 2000 levels is far past the parser's depth cap; the connection
# survives, so the structured error comes back on the same socket.
{ printf '[%.0s' {1..2000}; printf ']%.0s' {1..2000}; } \
  | "$BIN" client raw --socket "$SOCK" >"$RAWOUT" 2>&1 || true
grep -q 'depth-exceeded' "$RAWOUT" || {
  echo "expected a depth-exceeded error from the nesting bomb" >&2
  cat "$RAWOUT" >&2
  exit 1
}

echo "== adversarial probe: oversized line is shed with line-too-long"
# One 70000-byte line against the 65536 cap.  The server answers once
# and closes; the client may race the close, so the authoritative
# assertion is the counted fault in the metrics.
head -c 70000 /dev/zero | tr '\0' 'a' \
  | "$BIN" client raw --socket "$SOCK" >"$RAWOUT" 2>&1 || true
"$BIN" client metrics --socket "$SOCK" | grep -q '"line-too-long"' || {
  echo "expected a line-too-long fault counted in the metrics" >&2
  exit 1
}

echo "== server keeps serving after the adversarial probes"
"$BIN" client ping --socket "$SOCK" >/dev/null

echo "== graceful shutdown on SIGTERM"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"   # set -e: a non-zero daemon exit fails the smoke
SERVER_PID=
grep -q "final metrics" "$LOG" || {
  echo "no final metrics dump in the server log" >&2
  cat "$LOG" >&2
  exit 1
}
if [ -e "$SOCK" ]; then
  echo "socket not unlinked on shutdown" >&2
  exit 1
fi

echo "== loadgen with nothing listening counts every request as a transport error"
set +e
out=$("$BIN" loadgen --socket "$SOCK" -c 2 -m 4 --task 1 2>&1)
rc=$?
set -e
echo "$out"
if [ "$rc" -eq 0 ]; then
  echo "loadgen against a dead socket exited 0" >&2
  exit 1
fi
echo "$out" | grep -q " 4 transport error(s)" || {
  echo "expected all 4 requests counted as transport errors" >&2
  exit 1
}
if echo "$out" | grep -q "killed on uncaught exception"; then
  echo "a loadgen thread died instead of counting its requests" >&2
  exit 1
fi
echo "$out" | grep -q "no request completed" || {
  echo "expected 'no request completed' when every request failed" >&2
  exit 1
}
if echo "$out" | grep -q "p50"; then
  echo "loadgen reported latency quantiles with no completed request" >&2
  exit 1
fi

echo "serve smoke OK"
