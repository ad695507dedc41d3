#!/usr/bin/env bash
# End-to-end distributed fdm-serve round trip: a coordinator fronting two
# worker daemons (each with its own WAL under --data-dir), driven over
# TCP. Inserts half the stream, kill -9's one worker mid-stream, asserts
# the coordinator degrades typed (`ERR worker unavailable: <addr>: ...`)
# and exports the worker-health metrics, then restarts the worker (WAL
# replay) and the coordinator (cursor re-derived from the workers) and
# asserts the final QUERY is byte-identical to a single-node daemon run
# with `shards=2` over the same arrival order — the bit-identity
# guarantee of docs/distributed.md, as a shell round trip. The
# coordinator's /metrics exposition is linted with
# examples/metrics_lint.sh. The CI `serve` job runs this script verbatim.
#
# A second act drives the pipelined INSERTB fan-out: a worker armed with
# `FDM_SERVE_CRASH_POINT=before-batch-wal-append:2` dies mid-batch
# (the same no-cleanup death as a kill -9 landing between two flush
# rounds), the coordinator must name it in a typed error while keeping
# the acked prefix durable (`OK attached ... processed=` proves the
# watermark), the client replays the unacked suffix — already-held
# elements heal by skip — and the final QUERY again matches the
# single-node reference. The coordinator's batch-path metric families
# (fdm_coord_*_latency_seconds, fdm_merge_*) are linted and asserted, and
# both the coordinator and the single-node reference must have counted
# reused and computed guesses in fdm_finalize_guesses_total.
#
# Restarted processes bind fresh ports: the kill -9 leaves the old
# connections in TIME_WAIT and std's TcpListener sets no SO_REUSEADDR,
# so rebinding the same port can fail. Ports are config; the data dir is
# the worker's identity.
#
# Usage: examples/serve_cluster.sh [path-to-fdm-serve-binary]
set -euo pipefail

BIN="${1:-target/release/fdm-serve}"
LINT="$(dirname "$0")/metrics_lint.sh"
WORK="$(mktemp -d)"
BASE=$((20000 + RANDOM % 20000))
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
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

gen_batches() { # gen_batches <from> <to> <elements-per-INSERTB-line>
  awk -v from="$1" -v to="$2" -v per="$3" 'BEGIN {
    line = ""; count = 0
    for (i = from; i < to; i++) {
      x = sin(i * 0.7391) * 9.0
      y = cos(i * 0.2113) * 9.0
      item = sprintf("%d %d %.17g %.17g", i, i % 2, x, y)
      line = (count == 0) ? "INSERTB " item : line " | " item
      count++
      if (count == per) { print line; line = ""; count = 0 }
    }
    if (count > 0) print line
  }'
}

OPEN="OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30"

tcp_session() { # tcp_session <port> <script-file> <out-file>
  if command -v nc > /dev/null 2>&1; then
    nc -q 1 127.0.0.1 "$1" < "$2" > "$3" || nc 127.0.0.1 "$1" < "$2" > "$3"
  else
    exec 9<> "/dev/tcp/127.0.0.1/$1"
    cat "$2" >&9
    cat <&9 > "$3"
    exec 9<&- 9>&-
  fi
}

scrape_metrics() { # scrape_metrics <port> <out-file>
  printf 'GET /metrics HTTP/1.0\r\n\r\n' > "$WORK/scrape.in"
  if command -v nc > /dev/null 2>&1; then
    nc -q 1 127.0.0.1 "$1" < "$WORK/scrape.in" > "$WORK/scrape.raw" \
      || nc 127.0.0.1 "$1" < "$WORK/scrape.in" > "$WORK/scrape.raw"
  else
    exec 8<> "/dev/tcp/127.0.0.1/$1"
    cat "$WORK/scrape.in" >&8
    cat <&8 > "$WORK/scrape.raw"
    exec 8<&- 8>&-
  fi
  head -1 "$WORK/scrape.raw" | grep -q " 200 " \
    || { cat "$WORK/scrape.raw"; echo "scrape did not return 200"; exit 1; }
  sed '1,/^\r\{0,1\}$/d' "$WORK/scrape.raw" > "$2"
}

start_node() { # start_node <port> <log-tag> [extra-flags...]  → appends to PIDS
  local port="$1" tag="$2"; shift 2
  "$BIN" --listen "127.0.0.1:$port" "$@" < /dev/null > /dev/null 2> "$WORK/$tag.log" &
  local pid=$!
  disown "$pid" # cleanup kill -9s are intentional; keep them out of the log
  PIDS+=("$pid")
  for _ in $(seq 1 100); do
    grep -q "listening on tcp://" "$WORK/$tag.log" 2>/dev/null && { echo "$pid"; return; }
    kill -0 "$pid" 2>/dev/null || { cat "$WORK/$tag.log"; echo "$tag died"; exit 1; }
    sleep 0.1
  done
  echo "$tag never started listening"; exit 1
}

echo "== reference: one single-node daemon with shards=2, uninterrupted =="
RP=$BASE; RMP=$((BASE + 12))
start_node "$RP" ref --metrics "127.0.0.1:$RMP" > /dev/null
{ echo "$OPEN shards=2"; gen_inserts 0 80; echo "QUERY"; echo "QUIT"; } > "$WORK/ref.in"
tcp_session "$RP" "$WORK/ref.in" "$WORK/ref.out"
grep '^OK k=' "$WORK/ref.out" > "$WORK/ref.query"
cat "$WORK/ref.query"

echo "== cluster: two workers (own WALs) behind a coordinator =="
WA=$((BASE + 1)); WB=$((BASE + 2)); CP=$((BASE + 3)); MP=$((BASE + 4))
WPID=$(start_node "$WA" worker0 --data-dir "$WORK/w0" --snapshot-every 16)
start_node "$WB" worker1 --data-dir "$WORK/w1" --snapshot-every 16 > /dev/null
start_node "$CP" coord --worker "127.0.0.1:$WA" --worker "127.0.0.1:$WB" \
  --metrics "127.0.0.1:$MP" > /dev/null
{ echo "$OPEN"; gen_inserts 0 40; echo "QUIT"; } > "$WORK/half.in"
tcp_session "$CP" "$WORK/half.in" "$WORK/half.out"
grep -q '^OK inserted processed=40$' "$WORK/half.out" \
  || { cat "$WORK/half.out"; echo "first half not acknowledged"; exit 1; }

echo "== kill -9 worker0: the coordinator must degrade typed, not hang =="
kill -9 "$WPID"; wait "$WPID" 2>/dev/null || true
{ echo "$OPEN"; gen_inserts 40 41; echo "QUIT"; } > "$WORK/dead.in"
tcp_session "$CP" "$WORK/dead.in" "$WORK/dead.out"
grep -q "^ERR worker unavailable: 127.0.0.1:$WA" "$WORK/dead.out" \
  || { cat "$WORK/dead.out"; echo "expected typed worker-unavailable error naming 127.0.0.1:$WA"; exit 1; }
echo "typed failure: $(grep -m 1 '^ERR worker unavailable' "$WORK/dead.out")"

echo "== coordinator /metrics: worker health gauges, linted exposition =="
scrape_metrics "$MP" "$WORK/metrics.txt"
"$LINT" "$WORK/metrics.txt"
grep -q "^fdm_worker_up{worker=\"127.0.0.1:$WA\"} 0$" "$WORK/metrics.txt" \
  || { grep ^fdm_worker "$WORK/metrics.txt" || true; echo "dead worker not reported down"; exit 1; }
grep -q "^fdm_worker_up{worker=\"127.0.0.1:$WB\"} 1$" "$WORK/metrics.txt" \
  || { grep ^fdm_worker "$WORK/metrics.txt" || true; echo "live worker not reported up"; exit 1; }
grep ^fdm_worker "$WORK/metrics.txt"

echo "== restart worker0 (WAL replay) + coordinator (cursor re-derived) =="
WA2=$((BASE + 5)); CP2=$((BASE + 6))
W0B=$(start_node "$WA2" worker0b --data-dir "$WORK/w0" --snapshot-every 16)
start_node "$CP2" coord2 --worker "127.0.0.1:$WA2" --worker "127.0.0.1:$WB" > /dev/null
{ echo "$OPEN"; gen_inserts 40 80; echo "QUERY"; echo "QUIT"; } > "$WORK/rest.in"
tcp_session "$CP2" "$WORK/rest.in" "$WORK/rest.out"
grep -q '^OK attached jobs processed=40$' "$WORK/rest.out" \
  || { cat "$WORK/rest.out"; echo "coordinator did not recover processed=40 from the workers"; exit 1; }
grep '^OK k=' "$WORK/rest.out" > "$WORK/cluster.query"
cat "$WORK/cluster.query"

echo "== assert: cluster QUERY byte-identical to single-node shards=2 =="
diff "$WORK/ref.query" "$WORK/cluster.query"
echo "OK: coordinator over 2 workers (with a kill -9 + restart in between) matches the single-node sharded run byte-for-byte"

echo "== act 2 reference: extend the single-node stream via INSERTB =="
{ echo "$OPEN shards=2"; gen_batches 80 144 16; echo "QUERY"; echo "QUIT"; } > "$WORK/ref2.in"
tcp_session "$RP" "$WORK/ref2.in" "$WORK/ref2.out"
grep -q '^OK inserted processed=144 count=16$' "$WORK/ref2.out" \
  || { cat "$WORK/ref2.out"; echo "single-node INSERTB not acknowledged"; exit 1; }
grep '^OK k=' "$WORK/ref2.out" > "$WORK/ref2.query"
cat "$WORK/ref2.query"

echo "== batched fan-out with a worker dying mid-batch (armed crash point) =="
# The restarted worker0 is retired in favor of one armed to abort on its
# second INSERTB apply — the deterministic stand-in for a kill -9 landing
# between two flush rounds of one client batch. Same data dir = same
# worker identity, so worker0b must die first.
WA3=$((BASE + 7)); CP3=$((BASE + 8))
kill -9 "$W0B"; wait "$W0B" 2>/dev/null || true
FDM_SERVE_CRASH_POINT="before-batch-wal-append:2" \
  start_node "$WA3" worker0c --data-dir "$WORK/w0" --snapshot-every 16 > /dev/null
start_node "$CP3" coord3 --worker "127.0.0.1:$WA3" --worker "127.0.0.1:$WB" > /dev/null
{ echo "$OPEN"; gen_batches 80 112 16; echo "QUIT"; } > "$WORK/batch.in"
tcp_session "$CP3" "$WORK/batch.in" "$WORK/batch.out"
grep -q '^OK inserted processed=96 count=16$' "$WORK/batch.out" \
  || { cat "$WORK/batch.out"; echo "first INSERTB round not acknowledged"; exit 1; }
grep -q "^ERR worker unavailable: 127.0.0.1:$WA3" "$WORK/batch.out" \
  || { cat "$WORK/batch.out"; echo "mid-batch death must surface as a typed error naming 127.0.0.1:$WA3"; exit 1; }
echo "typed mid-batch failure: $(grep -m 1 '^ERR worker unavailable' "$WORK/batch.out")"

echo "== restart + replay: acked prefix durable, unacked suffix replayable =="
WA4=$((BASE + 9)); CP4=$((BASE + 10)); MP2=$((BASE + 11))
start_node "$WA4" worker0d --data-dir "$WORK/w0" --snapshot-every 16 > /dev/null
start_node "$CP4" coord4 --worker "127.0.0.1:$WA4" --worker "127.0.0.1:$WB" \
  --metrics "127.0.0.1:$MP2" > /dev/null
{ echo "$OPEN"; gen_batches 96 128 16; echo "QUERY"; gen_batches 128 144 16; echo "QUERY"; echo "QUERY"
  echo "QUIT"; } > "$WORK/replay.in"
tcp_session "$CP4" "$WORK/replay.in" "$WORK/replay.out"
grep -q '^OK attached jobs processed=96$' "$WORK/replay.out" \
  || { cat "$WORK/replay.out"; echo "acked prefix processed=96 did not survive the mid-batch death"; exit 1; }
grep -q '^OK inserted processed=144 count=16$' "$WORK/replay.out" \
  || { cat "$WORK/replay.out"; echo "suffix replay (with heal-by-skip) not acknowledged"; exit 1; }
grep '^OK k=' "$WORK/replay.out" | tail -1 > "$WORK/cluster2.query"
cat "$WORK/cluster2.query"

echo "== coordinator /metrics: batch-path families, linted exposition =="
scrape_metrics "$MP2" "$WORK/metrics2.txt"
"$LINT" "$WORK/metrics2.txt"
for family in fdm_coord_insert_latency_seconds fdm_coord_query_latency_seconds \
              fdm_coord_pull_seconds fdm_coord_merge_seconds; do
  grep -q "^# TYPE $family histogram$" "$WORK/metrics2.txt" \
    || { echo "missing coordinator histogram $family"; exit 1; }
done
for family in fdm_coord_pull_seconds fdm_coord_merge_seconds; do
  grep -qE "^${family}_count\{[^}]*\} [1-9]" "$WORK/metrics2.txt" \
    || { grep "^${family}_count" "$WORK/metrics2.txt" || true; echo "uncached QUERY not observed in $family"; exit 1; }
done
grep -q '^fdm_merge_bytes_total{kind="full"} [1-9]' "$WORK/metrics2.txt" \
  || { grep ^fdm_merge "$WORK/metrics2.txt" || true; echo "union-block MERGE bytes not counted"; exit 1; }
grep -q '^fdm_merge_cache_hits_total [1-9]' "$WORK/metrics2.txt" \
  || { grep ^fdm_merge "$WORK/metrics2.txt" || true; echo "repeat QUERY did not hit the merged-solution cache"; exit 1; }
grep -E '^fdm_merge' "$WORK/metrics2.txt"

echo "== per-guess post-processing reuse: coordinator merge and single node =="
# Each side ran two uncached merges with inserts in between: the first
# computes every guess in U', the second reuses the unchanged ones.
scrape_metrics "$RMP" "$WORK/ref_metrics.txt"
"$LINT" "$WORK/ref_metrics.txt"
for scrape in "$WORK/metrics2.txt" "$WORK/ref_metrics.txt"; do
  for outcome in reused computed; do
    grep -qE "^fdm_finalize_guesses_total\{stream=\"jobs\",outcome=\"$outcome\"\} [1-9]" "$scrape" \
      || { grep ^fdm_finalize "$scrape" || true; echo "$(basename "$scrape"): no $outcome guesses counted"; exit 1; }
  done
  grep ^fdm_finalize_guesses_total "$scrape"
done

echo "== assert: batched cluster QUERY byte-identical to single-node shards=2 =="
diff "$WORK/ref2.query" "$WORK/cluster2.query"
echo "PASS: pipelined INSERTB fan-out (with a mid-batch crash, restart, and suffix replay in between) matches the single-node sharded run byte-for-byte"
