#!/usr/bin/env bash
# End-to-end smoke of the network serving layer. First, k2_server must
# refuse to start on flags that cannot parse or fit (--eps abc, --workers
# abc, --port 70000) and on mining parameters that could never ingest
# (--m 1). Then it starts a real k2_server on an ephemeral loopback port
# and drives k2_server_smoke against it — full
# ingest over the wire, every query type (and a conjunction) diff-checked
# byte-for-byte against an in-process reference engine (including after a
# mid-stream snapshot swap), the malformed-frame error paths, and finally a
# kShutdown message whose graceful drain must bring the server process to a
# clean exit 0. The second part runs once per publish cadence
# (--publish-every 1 and 2).
#
# Usage: scripts/server_smoke.sh
#   BUILD_DIR  build tree with k2_server + k2_server_smoke (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
SERVER="$BUILD_DIR/src/k2_server"
SMOKE="$BUILD_DIR/src/k2_server_smoke"

for bin in "$SERVER" "$SMOKE"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found; build the default targets first" >&2
    exit 1
  fi
done

# A configuration that could never ingest, or a flag that does not parse
# whole or fit its range, must stop the server before it listens.
for bad in "--m 1" "--eps abc" "--workers abc" "--port 70000"; do
  # shellcheck disable=SC2086  # split "--flag value" into two arguments
  if out=$(timeout 5 "$SERVER" --port 0 $bad 2>&1); then
    echo "error: k2_server $bad exited 0:" >&2
    echo "$out" >&2
    exit 1
  fi
  if grep -q "listening" <<< "$out"; then
    echo "error: k2_server $bad started listening:" >&2
    echo "$out" >&2
    exit 1
  fi
done
echo "k2_server refused --m 1, --eps abc, --workers abc and --port 70000"

# Mining params must match on both sides: the smoke binary rebuilds the
# same catalog in-process and compares raw reply bytes. The server is
# smoked at two publish cadences: one publish per closed convoy (what
# k2bench serves at) and one per two.
M=3 K=4 EPS=120

log=$(mktemp)
server_pid=""
trap 'rm -f "$log"; [[ -n "$server_pid" ]] && kill "$server_pid" 2>/dev/null || true' EXIT

for PUBLISH_EVERY in 1 2; do
  "$SERVER" --host 127.0.0.1 --port 0 --m "$M" --k "$K" --eps "$EPS" \
    --publish-every "$PUBLISH_EVERY" > "$log" 2>&1 &
  server_pid=$!

  # The server prints "k2_server: listening on 127.0.0.1:PORT (...)" once
  # every worker's listener is bound; wait for that line, then parse the
  # kernel-chosen port out of it.
  port=""
  for _ in $(seq 1 100); do
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "error: k2_server exited before listening:" >&2
      cat "$log" >&2
      exit 1
    fi
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "error: k2_server never reported a listening port:" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "k2_server up on 127.0.0.1:$port (pid $server_pid," \
    "--publish-every $PUBLISH_EVERY)"

  "$SMOKE" --host 127.0.0.1 --port "$port" --m "$M" --k "$K" --eps "$EPS" \
    --publish-every "$PUBLISH_EVERY" --shutdown

  # --shutdown sent kShutdown: the daemon must drain and exit 0 on its own.
  if ! wait "$server_pid"; then
    echo "error: k2_server did not shut down cleanly:" >&2
    cat "$log" >&2
    exit 1
  fi
  server_pid=""
  grep -q "drained and shut down cleanly" "$log"
  echo "server smoke passed at --publish-every $PUBLISH_EVERY:" \
    "wire answers byte-identical, drain clean"
done
