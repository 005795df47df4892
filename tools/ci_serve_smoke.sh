#!/usr/bin/env bash
# Differential smoke for the standing-query server: rl0_serve driven
# through rl0_client must return samples BYTE-IDENTICAL to the offline
# `rl0_cli sample` pipeline in all three windowing modes (sequence,
# time, bounded-lateness), given the same sampler options, window,
# shard count, seed and expected stream length (m=...).
#
# A fourth sequence-mode tenant runs at a seed above 2^53, which a
# double cannot hold: both sides must parse it exactly.
#
# The only permitted divergence: the CLI's time-mode output appends
# " stamp N" (it keeps the full stamp array; the server does not), so
# that suffix is stripped from the CLI side before diffing.
#
# Last, rl0_cli must reject malformed integer flags with exit status 2
# and an error naming the flag.
#
# Usage: tools/ci_serve_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD=${1:-build}
for bin in rl0_cli rl0_serve rl0_client; do
  [[ -x "$BUILD/$bin" ]] || { echo "missing $BUILD/$bin" >&2; exit 1; }
done

TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
  [[ -n "$SERVER_PID" ]] && wait "$SERVER_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

# One dataset per mode, shared seed so m is identical.
"$BUILD/rl0_cli" generate --dataset rand5 --seed 7 > "$TMP/seq.csv"
"$BUILD/rl0_cli" generate --dataset rand5 --seed 7 --time > "$TMP/time.csv"
"$BUILD/rl0_cli" generate --dataset rand5 --seed 7 --time --lateness 50 \
  > "$TMP/late.csv"
M=$(grep -vc '^#' "$TMP/seq.csv")
BIG_SEED=9007199254740993  # 2^53 + 1
echo "smoke: $M points per stream"

"$BUILD/rl0_serve" --unix "$TMP/sock" --threads 4 \
  --checkpoint-dir "$TMP/ck" > "$TMP/server.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 100); do
  grep -q listening "$TMP/server.log" 2>/dev/null && break
  sleep 0.1
done
grep -q listening "$TMP/server.log" || {
  echo "server never came up:" >&2; cat "$TMP/server.log" >&2; exit 1;
}

client() { "$BUILD/rl0_client" --unix "$TMP/sock" "$@"; }

client \
  "CREATE s dim=5 alpha=0.5 window=2000 shards=4 seed=42 m=$M" \
  "CREATE t dim=5 alpha=0.5 window=4000 mode=time shards=4 seed=42 m=$M" \
  "CREATE l dim=5 alpha=0.5 window=4000 mode=late lateness=50 shards=4 seed=42 m=$M" \
  "CREATE big dim=5 alpha=0.5 window=2000 shards=4 seed=$BIG_SEED m=$M"
client --feed-csv "$TMP/seq.csv" --tenant s --chunk 1000
client --feed-csv "$TMP/seq.csv" --tenant big --chunk 1000
client --feed-csv "$TMP/time.csv" --tenant t --stamped --chunk 1000
client --feed-csv "$TMP/late.csv" --tenant l --stamped --lateness 50 \
  --chunk 1000
client "FLUSH l" > /dev/null

client "SAMPLE s q=3 seed=42" | sed -n 's/^ITEM //p' > "$TMP/s.server"
client "SAMPLE t q=3 seed=42" | sed -n 's/^ITEM //p' > "$TMP/t.server"
client "SAMPLE l q=3 seed=42" | sed -n 's/^ITEM //p' > "$TMP/l.server"
client "SAMPLE big q=3 seed=$BIG_SEED" | sed -n 's/^ITEM //p' \
  > "$TMP/big.server"

"$BUILD/rl0_cli" sample --alpha 0.5 --window 2000 --shards 4 --seed 42 \
  --queries 3 "$TMP/seq.csv" 2> /dev/null > "$TMP/s.cli"
"$BUILD/rl0_cli" sample --alpha 0.5 --window 4000 --time --shards 4 \
  --seed 42 --queries 3 "$TMP/time.csv" 2> /dev/null \
  | sed 's/ stamp -\{0,1\}[0-9]*$//' > "$TMP/t.cli"
"$BUILD/rl0_cli" sample --alpha 0.5 --window 4000 --time --lateness 50 \
  --shards 4 --seed 42 --queries 3 "$TMP/late.csv" 2> /dev/null \
  | sed 's/ stamp -\{0,1\}[0-9]*$//' > "$TMP/l.cli"
"$BUILD/rl0_cli" sample --alpha 0.5 --window 2000 --shards 4 \
  --seed "$BIG_SEED" --queries 3 "$TMP/seq.csv" 2> /dev/null > "$TMP/big.cli"

for mode in s t l big; do
  [[ -s "$TMP/$mode.server" ]] || {
    echo "smoke: mode $mode produced no samples" >&2; exit 1;
  }
  diff -u "$TMP/$mode.cli" "$TMP/$mode.server" || {
    echo "smoke: mode $mode diverged from rl0_cli" >&2; exit 1;
  }
done

# Checkpointed tenant round-trip: CLOSE then recover must return the
# same samples as before the restart of the tenant.
client \
  "CREATE ck dim=5 alpha=0.5 window=2000 shards=4 seed=42 m=$M ckpt=1 every=512" \
  > /dev/null
client --feed-csv "$TMP/seq.csv" --tenant ck --chunk 1000
client "SAMPLE ck q=3 seed=42" | sed -n 's/^ITEM //p' > "$TMP/ck.before"
client "CLOSE ck" > /dev/null
client \
  "CREATE ck dim=5 alpha=0.5 window=2000 shards=4 seed=42 m=$M ckpt=1 recover=1" \
  > /dev/null
client "SAMPLE ck q=3 seed=42" | sed -n 's/^ITEM //p' > "$TMP/ck.after"
diff -u "$TMP/ck.before" "$TMP/ck.after" || {
  echo "smoke: checkpoint recover diverged" >&2; exit 1;
}
diff -u "$TMP/s.cli" "$TMP/ck.after" > /dev/null || {
  echo "smoke: recovered tenant diverged from rl0_cli" >&2; exit 1;
}

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
grep -q "shutting down" "$TMP/server.log" || {
  echo "smoke: server did not shut down cleanly" >&2
  cat "$TMP/server.log" >&2
  exit 1
}
# Early-SIGTERM race: a SIGTERM sent the moment "listening" appears must
# still take the orderly path (handlers are installed before the server
# starts), every time. The server writes into a fifo so the signal goes
# out as soon as the line is read, not on a polling tick.
mkfifo "$TMP/early.out"
for i in $(seq 20); do
  rm -f "$TMP/sock"
  "$BUILD/rl0_serve" --unix "$TMP/sock" --threads 2 \
    --checkpoint-dir "$TMP/ck" > "$TMP/early.out" 2>&1 &
  SERVER_PID=$!
  exec 3< "$TMP/early.out"
  : > "$TMP/early.log"
  while IFS= read -r line <&3; do
    echo "$line" >> "$TMP/early.log"
    if [[ $line == listening* ]]; then
      kill -TERM "$SERVER_PID"
      break
    fi
  done
  cat <&3 >> "$TMP/early.log"
  exec 3<&-
  status=0
  wait "$SERVER_PID" || status=$?
  SERVER_PID=""
  if [[ $status -ne 0 ]] || ! grep -q "shutting down" "$TMP/early.log"; then
    echo "smoke: early SIGTERM $i: exit $status, no orderly shutdown" >&2
    cat "$TMP/early.log" >&2
    exit 1
  fi
done
# Numeric flags are exact: a malformed or out-of-range value is a usage
# error (exit 2, naming the flag), never a silently truncated number.
expect_usage_error() {  # <flag the message must name> <rl0_cli args...>
  local flag=$1
  shift
  local status=0
  "$BUILD/rl0_cli" "$@" > /dev/null 2> "$TMP/bad.err" || status=$?
  if [[ $status -ne 2 ]] || ! grep -q -- "$flag" "$TMP/bad.err"; then
    echo "smoke: rl0_cli $*: exit $status, want 2 naming $flag" >&2
    cat "$TMP/bad.err" >&2
    exit 1
  fi
}
# (No --shards value above the cap here: a binary without the cap would
# start that many workers.)
for bad in "--shards abc" "--shards 0" "--shards -3" "--queries -2" \
    "--seed 1.5"; do
  # shellcheck disable=SC2086  # $bad is a flag and its value
  expect_usage_error "${bad%% *}" sample --alpha 0.5 --window 2000 $bad \
    "$TMP/seq.csv"
done
expect_usage_error --alpha sample --alpha 0.5x --window 2000 "$TMP/seq.csv"
expect_usage_error --alpha sample --alpha '' --window 2000 "$TMP/seq.csv"
expect_usage_error --epsilon sample --alpha 0.5 --epsilon 1e999 \
  --window 2000 "$TMP/seq.csv"
echo "smoke: all three modes and a seed above 2^53 byte-identical to" \
  "rl0_cli; recover OK; 20 early SIGTERMs shut down in order;" \
  "bad numeric flags rejected"
