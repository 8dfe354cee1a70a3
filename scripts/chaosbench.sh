#!/usr/bin/env bash
# Chaos harness: runs the chaosbench flap-rate sweep (DRILL vs ECMP vs
# Presto on identical deterministic fault schedules), proves the point
# table is independent of the worker count by byte-comparing stdout under
# DRILL_THREADS=1 vs 8, then records the machine-readable result set in
# results/chaosbench.json. Offline-safe: no external deps.
set -euo pipefail
cd "$(dirname "$0")/.."

THREAD_COUNTS=(${THREAD_COUNTS:-1 8})

mkdir -p results
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== building =="
cargo build --release -p drill-bench

echo "== chaosbench under DRILL_THREADS=${THREAD_COUNTS[*]} =="
for t in "${THREAD_COUNTS[@]}"; do
  echo "-- DRILL_THREADS=$t"
  DRILL_THREADS="$t" ./target/release/chaosbench \
    --json "$tmp/chaos-$t.json" \
    > "$tmp/table-$t.txt" 2> "$tmp/time-$t.json"
  cat "$tmp/time-$t.json"
done

echo "== byte-comparing point tables =="
ref="${THREAD_COUNTS[0]}"
for t in "${THREAD_COUNTS[@]:1}"; do
  if cmp "$tmp/table-$ref.txt" "$tmp/table-$t.txt"; then
    echo "table($ref threads) == table($t threads): byte-identical"
  else
    echo "FAIL: point table depends on DRILL_THREADS" >&2
    exit 1
  fi
done

cp "$tmp/chaos-$ref.json" results/chaosbench.json
echo "wrote results/chaosbench.json"

# Surface the headline verdict.
grep -A7 '"summary"' results/chaosbench.json
