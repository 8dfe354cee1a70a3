#!/usr/bin/env bash
# Build drillbench and run its own tests (unit tests plus the --smoke scale
# of every workload). Not wired into scripts/ci.sh: the PR that added the
# benchmark may touch nothing outside benchmark/.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline
