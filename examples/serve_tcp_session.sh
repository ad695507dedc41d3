#!/usr/bin/env bash
# End-to-end fdm-serve TCP session: OPEN/INSERT over a TCP connection to
# 127.0.0.1, SNAPSHOT (binary), SIGKILL the daemon, restore into a fresh
# daemon, and assert the post-restore QUERY over TCP is byte-identical to
# an uninterrupted run. The resumed daemon also exposes /metrics, which
# is scraped and linted with examples/metrics_lint.sh. The CI `serve`
# job runs this script verbatim.
#
# The client talks to the socket through bash's built-in /dev/tcp (used
# via `nc` when available, so the script works on minimal runners too).
#
# Usage: examples/serve_tcp_session.sh [path-to-fdm-serve-binary]
set -euo pipefail

BIN="${1:-target/release/fdm-serve}"
LINT="$(dirname "$0")/metrics_lint.sh"
WORK="$(mktemp -d)"
PORT=$((20000 + RANDOM % 20000))
MPORT=$((PORT + 1))
SERVER=""
cleanup() {
  [ -n "$SERVER" ] && kill -9 "$SERVER" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

gen_inserts() { # gen_inserts <from> <to>
  awk -v from="$1" -v to="$2" 'BEGIN {
    for (i = from; i < to; i++) {
      x = sin(i * 0.7391) * 9.0
      y = cos(i * 0.2113) * 9.0
      printf "INSERT %d %d %.17g %.17g\n", i, i % 2, x, y
    }
  }'
}

OPEN="OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30"

# Sends a scripted session to the TCP port and prints the replies.
tcp_session() { # tcp_session <script-file> <out-file>
  if command -v nc > /dev/null 2>&1; then
    nc -q 1 127.0.0.1 "$PORT" < "$1" > "$2" || nc 127.0.0.1 "$PORT" < "$1" > "$2"
  else
    exec 9<> "/dev/tcp/127.0.0.1/$PORT"
    cat "$1" >&9
    cat <&9 > "$2"
    exec 9<&- 9>&-
  fi
}

# Scrapes GET /metrics from the daemon's metrics port into a file,
# asserting a 200 and stripping the HTTP head.
scrape_metrics() { # scrape_metrics <out-file>
  printf 'GET /metrics HTTP/1.0\r\n\r\n' > "$WORK/scrape.in"
  if command -v nc > /dev/null 2>&1; then
    nc -q 1 127.0.0.1 "$MPORT" < "$WORK/scrape.in" > "$WORK/scrape.raw" \
      || nc 127.0.0.1 "$MPORT" < "$WORK/scrape.in" > "$WORK/scrape.raw"
  else
    exec 8<> "/dev/tcp/127.0.0.1/$MPORT"
    cat "$WORK/scrape.in" >&8
    cat <&8 > "$WORK/scrape.raw"
    exec 8<&- 8>&-
  fi
  head -1 "$WORK/scrape.raw" | grep -q " 200 " \
    || { cat "$WORK/scrape.raw"; echo "scrape did not return 200"; exit 1; }
  sed '1,/^\r\{0,1\}$/d' "$WORK/scrape.raw" > "$1"
}

start_server() { # start_server [extra-flags...]
  # stdin from /dev/null closes the stdin session immediately; the TCP
  # listener keeps the daemon alive.
  "$BIN" --listen "127.0.0.1:$PORT" "$@" < /dev/null > /dev/null 2> "$WORK/server.log" &
  SERVER=$!
  for _ in $(seq 1 100); do
    grep -q "listening on tcp://" "$WORK/server.log" 2>/dev/null && return
    kill -0 "$SERVER" 2>/dev/null || { cat "$WORK/server.log"; echo "server died"; exit 1; }
    sleep 0.1
  done
  echo "server never started listening"; exit 1
}

echo "== reference: one uninterrupted TCP session =="
start_server
{ echo "$OPEN"; gen_inserts 0 80; echo "QUERY"; echo "QUIT"; } > "$WORK/full.in"
tcp_session "$WORK/full.in" "$WORK/full.out"
grep '^OK k=' "$WORK/full.out" > "$WORK/full.query"
cat "$WORK/full.query"
kill -9 "$SERVER"; wait "$SERVER" 2>/dev/null || true; SERVER=""

echo "== interrupted: first half over TCP, binary SNAPSHOT, SIGKILL =="
start_server
{ echo "$OPEN"; gen_inserts 0 40; echo "SNAPSHOT $WORK/jobs.snap"; echo "QUIT"; } > "$WORK/half.in"
tcp_session "$WORK/half.in" "$WORK/half.out"
grep -q '^OK snapshot' "$WORK/half.out" || { cat "$WORK/half.out"; echo "snapshot failed"; exit 1; }
head -c 8 "$WORK/jobs.snap" | grep -q "FDMSNAP2" || { echo "snapshot is not v2 binary"; exit 1; }
kill -0 "$SERVER" 2>/dev/null || { echo "server died before SIGKILL"; exit 1; }
kill -9 "$SERVER"; wait "$SERVER" 2>/dev/null || true; SERVER=""

echo "== resumed: fresh daemon (+ /metrics), RESTORE + second half + QUERY over TCP =="
start_server --metrics "127.0.0.1:$MPORT"
for _ in $(seq 1 100); do
  grep -q "metrics on http://" "$WORK/server.log" 2>/dev/null && break
  sleep 0.1
done
{ echo "RESTORE $WORK/jobs.snap"; gen_inserts 40 80; echo "QUERY"; echo "QUIT"; } > "$WORK/resume.in"
tcp_session "$WORK/resume.in" "$WORK/resumed.out"
grep '^OK restored jobs processed=40$' "$WORK/resumed.out" > /dev/null
grep '^OK k=' "$WORK/resumed.out" > "$WORK/resumed.query"
cat "$WORK/resumed.query"

echo "== scrape /metrics and lint the exposition =="
scrape_metrics "$WORK/metrics.txt"
"$LINT" "$WORK/metrics.txt"
grep -q '^fdm_streams 1$' "$WORK/metrics.txt" || { echo "fdm_streams != 1"; exit 1; }
grep -q '^fdm_stream_processed_total{stream="jobs"} 80$' "$WORK/metrics.txt" \
  || { echo "processed counter wrong"; grep ^fdm_stream "$WORK/metrics.txt"; exit 1; }
grep -c '^fdm_' "$WORK/metrics.txt" | xargs echo "metrics lint PASS, fdm_ samples:"
kill -9 "$SERVER"; wait "$SERVER" 2>/dev/null || true; SERVER=""

echo "== assert: byte-identical QUERY output across kill + restore =="
diff "$WORK/full.query" "$WORK/resumed.query"
echo "PASS: TCP post-restore QUERY is byte-identical to the uninterrupted run"
