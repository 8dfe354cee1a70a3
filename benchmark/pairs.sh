#!/usr/bin/env bash
# pairs.sh <rev-a> <rev-b> [n=10]
#
# The interleaved A/B procedure: build two revisions of the simulator into
# separate target directories, each against *this* checkout's benchmark
# code (identical measuring code on both sides), then run n pairs of
# single repetitions, alternating which side goes first, and compare.
# Everything lands under benchmark/out/pairs/.
set -euo pipefail
if [ $# -lt 2 ]; then
    echo "usage: $0 <rev-a> <rev-b> [pairs=10]" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
repo=$(cd "$here/.." && pwd)
n=${3:-10}
work="$here/out/pairs"
rm -rf "$work"
mkdir -p "$work"

declare -A sha
for side in a b; do
    rev=$1
    shift
    sha[$side]=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
    src="$work/src-$side"
    mkdir -p "$src"
    git -C "$repo" archive "${sha[$side]}" | tar -x -C "$src"
    rm -rf "$src/benchmark"
    mkdir -p "$src/benchmark"
    (cd "$here" && tar -c --exclude=./target --exclude=./out .) | tar -x -C "$src/benchmark"
    CARGO_TARGET_DIR="$work/target-$side" \
        cargo build --release --offline --manifest-path "$src/benchmark/Cargo.toml"
done

run_side() {
    if ! DRILLBENCH_REV="${sha[$1]}" "$work/target-$1/release/drillbench" run \
        --no-trace --seconds 0 --min-reps 1 \
        --out "$work/$1.json" --out-dir "$work/out-$1" >"$work/last-run.log" 2>&1; then
        cat "$work/last-run.log" >&2
        echo "pairs.sh: side $1 (${sha[$1]}) failed; its report is above" >&2
        exit 1
    fi
}

for i in $(seq 1 "$n"); do
    if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
    for side in $order; do
        run_side "$side"
    done
    echo "pair $i/$n done ($order)"
done

"$work/target-b/release/drillbench" compare "$work/a.json" "$work/b.json"
