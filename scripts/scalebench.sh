#!/usr/bin/env bash
# Topology-scaling harness: runs the scalebench ladder (320-host
# leaf-spine up to a 16k-host oversubscribed k=32 fat-tree plus a
# build-only 65k-host k=64 probe), each point in a FRESH PROCESS so the
# VmHWM peak-RSS reading is attributable to that point alone, and a
# sketch-scaling section (retained memory + measured rank error at
# 100k/1M/10M samples). Assembles results/scalebench.json.
# Offline-safe: no external deps. `--quick` runs the seconds-scale CI
# ladder instead and writes target/scalebench-quick.json, leaving the
# committed full-ladder results/scalebench.json alone.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=""
OUT=results/scalebench.json
if [[ "${1:-}" == "--quick" ]]; then
  MODE="--quick"
  OUT=target/scalebench-quick.json
fi

mkdir -p "$(dirname "$OUT")"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== building (release) =="
cargo build --release -p drill-bench --bin scalebench

BIN=target/release/scalebench

echo "== ladder ($([[ -n "$MODE" ]] && echo quick || echo full)) =="
: > "$tmp/points.jsonl"
for point in $($BIN --list $MODE); do
  echo "-- $point"
  $BIN --point "$point" $MODE | tee -a "$tmp/points.jsonl"
done

echo "== sketch scaling =="
$BIN --sketch $MODE | tee "$tmp/sketch.json"

{
  echo "{"
  echo "  \"bench\": \"scalebench\","
  echo "  \"mode\": \"$([[ -n "$MODE" ]] && echo quick || echo full)\","
  echo "  \"points\": ["
  awk 'NR>1{print prev ","} {prev="    " $0} END{print prev}' "$tmp/points.jsonl"
  echo "  ],"
  echo "  \"sketch\": $(cat "$tmp/sketch.json")"
  echo "}"
} > "$OUT"

echo "== wrote $OUT =="
