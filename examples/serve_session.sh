#!/usr/bin/env bash
# End-to-end fdm-serve session: insert → snapshot → kill → restore → query,
# asserting that the post-restore QUERY output is byte-identical to an
# uninterrupted run. The CI `serve` job runs this script verbatim.
#
# Usage: examples/serve_session.sh [path-to-fdm-serve-binary]
set -euo pipefail

BIN="${1:-target/release/fdm-serve}"
WORK="$(mktemp -d)"
SERVER=""
cleanup() {
  [ -n "$SERVER" ] && kill -9 "$SERVER" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# A deterministic 2-d, 2-group stream of 80 elements (awk keeps the script
# dependency-free; printf %.17g preserves every f64 bit through the text).
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

echo "== reference: one uninterrupted session =="
{ echo "$OPEN"; gen_inserts 0 80; echo "QUERY"; } | "$BIN" > "$WORK/full.out"
grep '^OK k=' "$WORK/full.out" > "$WORK/full.query"
cat "$WORK/full.query"

echo "== interrupted: first half, snapshot, then SIGKILL the live process =="
# The process is started in the background and fed half the stream plus a
# SNAPSHOT command through a FIFO whose write end (fd 3) stays open, so
# the server keeps running — blocked on the next read — until SIGKILL
# lands on it. No clean shutdown path runs; only the snapshot survives.
mkfifo "$WORK/in"
"$BIN" > "$WORK/half.out" < "$WORK/in" &
SERVER=$!
exec 3> "$WORK/in"
{
  echo "$OPEN"
  gen_inserts 0 40
  echo "SNAPSHOT $WORK/jobs.snap"
} >&3
# Wait until the snapshot is acknowledged (the server reads the FIFO async).
for _ in $(seq 1 100); do
  grep -q '^OK snapshot' "$WORK/half.out" && break
  sleep 0.1
done
grep -q '^OK snapshot' "$WORK/half.out" || { echo "snapshot never completed"; exit 1; }
kill -0 "$SERVER" 2>/dev/null || { echo "server died before SIGKILL"; exit 1; }
kill -9 "$SERVER"
wait "$SERVER" 2>/dev/null || true
SERVER=""
exec 3>&-

echo "== resumed: restore, replay the second half, query =="
{ echo "RESTORE $WORK/jobs.snap"; gen_inserts 40 80; echo "QUERY"; } | "$BIN" > "$WORK/resumed.out"
grep '^OK restored jobs processed=40$' "$WORK/resumed.out" > /dev/null
grep '^OK k=' "$WORK/resumed.out" > "$WORK/resumed.query"
cat "$WORK/resumed.query"

echo "== assert: byte-identical QUERY output =="
diff "$WORK/full.query" "$WORK/resumed.query"
echo "PASS: post-restore QUERY is byte-identical to the uninterrupted run"

echo "== durable: sustained insert load keeps the on-disk delta chain bounded =="
# A daemon with a data dir checkpoints every 4 inserts: a dirty-set delta
# while the chain is short, and a full snapshot that collapses the chain
# once --full-every deltas were written since the last one. The collapse
# happens on the insert path, so right after the last ack the number of
# *.delta.* files on disk is within that bound — no waiting, no nudging.
DATA="$WORK/data"
FULL_EVERY=4
mkfifo "$WORK/din"
"$BIN" --data-dir "$DATA" --snapshot-every 4 --full-every "$FULL_EVERY" \
  > "$WORK/durable.out" < "$WORK/din" &
SERVER=$!
exec 4> "$WORK/din"
echo "$OPEN" >&4
NEXT=0
for _ in $(seq 1 25); do
  gen_inserts "$NEXT" $((NEXT + 7)) >&4
  NEXT=$((NEXT + 7))
  sleep 0.02
done
for _ in $(seq 1 100); do
  [ "$(grep -c '^OK inserted' "$WORK/durable.out" || true)" -eq "$NEXT" ] && break
  sleep 0.1
done
[ "$(grep -c '^OK inserted' "$WORK/durable.out" || true)" -eq "$NEXT" ] \
  || { echo "only $(grep -c '^OK inserted' "$WORK/durable.out") of $NEXT inserts acked"; exit 1; }
CHAIN=$(ls "$DATA" | grep -c '\.delta\.' || true)
[ "$CHAIN" -le "$FULL_EVERY" ] \
  || { echo "delta chain too long: $CHAIN files > full_every=$FULL_EVERY"; ls "$DATA"; exit 1; }
echo "QUIT" >&4
exec 4>&-
wait "$SERVER" 2>/dev/null || true
SERVER=""
echo "PASS: delta chain at $CHAIN file(s) (bound $FULL_EVERY) after $NEXT inserts"
