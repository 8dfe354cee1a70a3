#!/usr/bin/env bash
# profile.sh <workload> [seed=1]
#
# Where one drillbench workload's wall goes, by sampling: builds
# scripts/prof/sampler.c into a shared object, runs ONE
# `drillbench child --workload W --seed S --scale full --variant timed
# --threads 2 --window-div 1` with it LD_PRELOADed (SIGPROF on CPU time,
# the interrupted instruction pointer; nothing is linked into or changed
# in the simulator), and prints three tables via scripts/prof/report.py:
# physical function, innermost inlined `function @ file:line`, and the
# hottest instructions with objdump context and per-address hit counts.
#
# Resolution: ~250 samples/s at this kernel's 4 ms tick, so a 4 s run
# gives ~1 000 samples and +-1.5 points on any share. For more, give each
# run its own PROF_DIR and pass every samples.* file to report.py.
#
#   DRILLBENCH=<path>  profile that binary (e.g. a parent-commit build)
#                      instead of building benchmark/ of this checkout
#   PROF_DIR=<dir>     where sampler.so and samples.<pid> go
#                      (default target/prof, emptied of old samples)
#   PROF_TOP=<n>       rows per table (default 25)
set -euo pipefail
cd "$(dirname "$0")/.."
workload=${1:?usage: profile.sh <workload> [seed]}
seed=${2:-1}

for tool in cc addr2line objdump nm python3; do
    if ! command -v "$tool" > /dev/null; then
        echo "skipped: no cc/addr2line ($tool missing)"
        exit 0
    fi
done
if [[ "$(uname -sm)" != "Linux x86_64" ]]; then
    echo "skipped: the sampler reads x86-64 Linux signal contexts"
    exit 0
fi

export PROF_DIR=${PROF_DIR:-$PWD/target/prof}
mkdir -p "$PROF_DIR"
rm -f "$PROF_DIR"/samples.*
cc -O2 -shared -fPIC -o "$PROF_DIR/sampler.so" scripts/prof/sampler.c

bin=${DRILLBENCH:-}
if [[ -z "$bin" ]]; then
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
    bin=benchmark/target/release/drillbench
fi

echo "# $bin child --workload $workload --seed $seed --scale full --variant timed --threads 2 --window-div 1"
LD_PRELOAD="$PROF_DIR/sampler.so" "$bin" child --workload "$workload" --seed "$seed" \
    --scale full --variant timed --threads 2 --window-div 1 \
    | python3 -c "
import json, sys
d = json.load(sys.stdin); m = d['m']
print(f\"# digest {d['digest']}  events {m['events']}  run_s {m['run_s']:.3f}  \"
      f\"events/s {m['events'] / m['run_s'] / 1e6:.2f} M (sampled run: not a timing)\")"
python3 scripts/prof/report.py "$PROF_DIR"/samples.* --top "${PROF_TOP:-25}"
