#!/usr/bin/env bash
# Tier-1 gate plus lint, all offline-safe (the workspace has no external
# dependencies; see the note in the root Cargo.toml).
#
# One build, one engine: the workspace declares no cargo features, so
# there is nothing to cross. The test matrix covers what can still vary at
# run time: the executor width (DRILL_THREADS). The two observers that
# must never steer, the flight recorder and the auditor, need no row:
# tests/determinism_golden.rs runs every single-run golden with each.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== retired build/run modes stay retired =="
# The heap-queue / fat-events / criterion-benches features, the
# eager_control_plane knob, the eager §3.4 enumerator (whose place as
# the reference the oracle in tests/support/ took) and the sharded engine
# with its DRILL_SHARDS knob were deleted once their A/Bs had reported;
# so were the warm-started sweep fork, the at-time checkpoint policy, the
# legacy fail_at/ospf_delay one-shot (fault schedules replace it) and the
# WCMP switch rebuild, which once nothing but tests used them; so were
# the flight recorder's per-engine rings with their port-FIFO mirror, the
# queue sampler, the pre-v3 trace formats and the feature-gated proptest
# suite, whose properties now run seeded in the std-only suites; so was
# the runtime's drain of device events through a Vec (devices emit
# straight into the wheel); so were the wheel's overflow heap (every u64
# deadline has a level), its stale-bit reclaim and the uncalled
# push_after; so were the TCP and shim timer generations and the
# runtime's copy of the RTO deadline (each timer's deadline is its only
# state); so were drill-net's snapio module with its net-event codec
# (a pending event is snapshotted in the wheel's own form), the decoded
# trace's own model TraceRing (a decoded trace is a FlightRecorder), the
# second DRILLSNAP version constant and the retired-layout flag; so was
# the Distribution's silent spill into the sketch past a sample limit
# (a store is a sketch only if built as one); so were the telemetry
# config knob with its trace path and the DRILL_TELEMETRY / DRILL_AUDIT
# test knobs (the observer is chosen by the entry point and cfg.audit);
# so were chaosbench and the per-figure binaries' helpers (fct_tables,
# sweep_grid, cdf_table): the figures are rows of one table now; so
# were the DRILLTRC trace codec (write_trace / read_trace / TRACE_MAGIC),
# which nothing wrote once the recording runs stopped writing files (a
# recording is the FlightRecorder in memory), chaosbench's flap_train
# builder and the web_search / data_mining size tables no figure used;
# so was tracedump's sabotage / rewind-replay demo (replay_from,
# sabotage_run, audit_demo_cfg), which could rewind only its own pinned
# run: rewind-replay is drill_runtime::rewind_replay, which serves any
# audited run's dump, and the tier-1 auditor tests drive that loop;
# so were per-flow DRILL (PerFlowDrill), which no figure, workload or
# result used, the random_flaps schedule generator chaosbench left
# behind, and scalebench's crash-recovery flags (RecoveryOpts,
# --checkpoint-every / --checkpoint-path / --die-after / --resume): crash
# recovery is ExperimentConfig::checkpoint + World::restore, checked by
# the tier-1 test checkpoint_policy_files_are_resumable; so were
# TopoSpec::FatTree and fat_tree_custom (a fat-tree is the Clos of
# ClosSpec::fat_tree; the word match spares the test
# fat_tree_custom_matches_eager, which keeps its name),
# TcpConfig::rto_init (a flow's first RTO is rto_min) and the NIC's
# TRAIN_MSS (MSS_BYTES is the one full-frame payload); so were the
# drill-audit crate and its InvariantAuditor (the auditor is
# drill_runtime's audit module, one Audit per world) and the
# ExperimentConfig sabotage field (a sabotage is AuditSpec::sabotage,
# so it cannot be set without an auditor to catch it);
# nothing may select them again. (This script names them, so it is
# excluded; history lives in the .md files, which are not searched. The
# frozen benchmark/ still scrubs DRILL_SHARDS from its children's
# environment, so it is excluded too.)
if grep -rnE 'heap-queue|fat-events|eager_control_plane|criterion-benches|install_symmetric_groups_eager|Quiver::build|DEFAULT_PATH_CAP|DRILL_SHARDS|ShardPlan|EngineQueue|push_with_seq|shards_from_env|inner_budget|warm_start|run_warm|CheckpointPolicy|fail_at|ospf_delay|rebuild_switch|QueueSampler|PortSeries|DEFAULT_SAMPLE_EVERY|port_fifo|TRACE_VERSION_MIN|RingKind::Engine|proptest|drain_net|HORIZON|replenish|reclaim_stale|run_has_live|\bpush_after\b|timer_generation|rto_deadline|sched_gen|rto_due|\btimer_gen\b|snapio|TraceRing|SNAP_VERSION_MIN|FLAG_RESERVED_LAYOUT|put_net_event|get_net_event|EXACT_SPILL_LIMIT|with_spill_limit|spill_limit|TelemetrySpec|trace_path|DRILL_TELEMETRY|DRILL_AUDIT|chaosbench|fct_tables|sweep_grid|cdf_table|DRILLTRC|write_trace|read_trace|TRACE_MAGIC|flap_train|web_search|data_mining|replay_from|sabotage_run|audit_demo|PerFlowDrill|random_flaps|RecoveryOpts|die-after|checkpoint-every|checkpoint-path|TopoSpec::FatTree|FatTree \{|\bfat_tree_custom\b|rto_init|TRAIN_MSS|drill_audit|drill::audit|InvariantAuditor|cfg\.sabotage' \
    --include='*.toml' --include='*.rs' --include='*.sh' \
    --exclude-dir=target --exclude-dir=.bench_build --exclude-dir=.git \
    --exclude-dir=benchmark --exclude=ci.sh .; then
    echo "a retired feature or knob is referenced again (see above)"; exit 1
fi

echo "== the stability model samples through DrillPolicy only =="
# The §3.2.4 theorems are checked on the selector the switches run:
# drill_core::stability::simulate places every packet with
# DrillPolicy::select, so the model draws no sample of its own.
if grep -n 'sample_indices' crates/core/src/stability.rs; then
    echo "crates/core/src/stability.rs samples on its own again (see above)"; exit 1
fi

echo "== one unsafe block, in PacketArena::prefetch =="
# Stable Rust has no safe prefetch, so the slot prefetch is the one
# unsafe block in the simulator (DESIGN.md §10 "Prefetch"). Anything else
# under crates/ that needs unsafe needs a design note first.
unsafe_hits=$(grep -rnw 'unsafe' crates --include='*.rs' --exclude-dir=target || true)
if [[ $(grep -c . <<<"$unsafe_hits") != 1 || "$unsafe_hits" != crates/net/src/arena.rs:*_mm_prefetch* ]]; then
    echo "expected exactly one unsafe, the prefetch in crates/net/src/arena.rs; found:"
    echo "$unsafe_hits"; exit 1
fi

echo "== cargo build --release =="
cargo build --release

echo "== drillbench builds against this tree =="
# benchmark/ is frozen and compiles against the simulator's public API:
# catch a break here, before the benchmark pipeline does.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "== scripts/profile.sh fabric_raw smoke (the sampler resolves; no share is asserted) =="
# One sampled drillbench child run (~5 s; skips itself without cc /
# addr2line). Checks the tool, not the simulator: the report parses, the
# samples land inside the executable, and each table has rows. A shared
# runner is too noisy to assert any share.
scripts/profile.sh fabric_raw | python3 -c "
import re, sys
out = sys.stdin.read()
if out.startswith('skipped:'):
    print(out.strip()); sys.exit(0)
m = re.search(r'^samples: (\d+) total, (\d+) in executable', out, re.M)
assert m, 'no samples line in the report'
total, inside = int(m[1]), int(m[2])
assert total >= 200, f'only {total} samples from a full-scale run'
assert inside >= 0.95 * total, f'{inside}/{total} samples resolve inside the executable'
tables = re.split(r'^== .* ==\$', out, flags=re.M)[1:]
assert len(tables) == 3, f'{len(tables)} tables, expected 3'
rows = [len(re.findall(r'^\s*\d+\s+\d+\.\d%', t, re.M)) for t in tables[:2]]
rows.append(len(re.findall(r'^-- 0x[0-9a-f]+: \d+ samples', tables[2], re.M)))
assert all(rows), f'an empty table: rows per table {rows}'
print(f'profile.sh: {total} samples, {inside} in executable, rows per table {rows}')
"

echo "== cargo test -q --workspace (DRILL_THREADS=1/8) =="
# Both ends of the executor knob (serial, oversubscribed): the sweep
# determinism contract says results depend on neither. --workspace adds
# the per-crate unit tests, among them drill-sim's wheel-vs-heap
# differential (heap.rs), the one place the HeapQueue reference exists.
for threads in 1 8; do
    DRILL_THREADS=$threads cargo test -q --workspace
done

echo "== drillbench's own tests (benchmark/check.sh: unit tests + every workload at smoke scale) =="
# The smoke run restores a mid-run tcp_fct snapshot and demands the
# restored world finish with the straight run's digest — the one check
# that drives snapshot/restore through the benchmark's public-API path
# (per-flow timer state a snapshot forgets shows up here as a mismatch).
# The release build above already paid for the compile.
benchmark/check.sh

echo "== optimised-build row (cargo test --release: drill-core, drill-net, drill-sim, engine vs §3.4 oracle, allocations) =="
# The build drillbench measures: debug assertions and overflow checks
# off. RouteTable::set_groups' partition check is a plain assert! and runs
# here too (drill-net's set_groups_rejects_a_non_partition). Every other
# test row runs the dev profile, so without this one the control plane and
# the event queue are never tested in the build whose speed is claimed.
# drill-net brings its route-table differential
# (tests/route_table_differential.rs); drill-sim its wheel-vs-heap
# differential (heap.rs) with the wheel's debug_assert!s off;
# structural_groups is the whole oracle comparison: paper examples, named
# fabrics, the failure ladder and the 3 000-fabric sweep, cold and warm;
# control_plane_allocs pins what building the tables may allocate.
cargo test -q --release -p drill-core -p drill-net -p drill-sim
cargo test -q --release --test structural_groups --test control_plane_allocs

echo "== figures all at quick scale: every row renders, every JSON carries the manifest =="
# The fourteen rows of drill_bench::figures::FIGURES (~12 s on a 2-core
# host). Each <fig>.json must carry every manifest key and no empty panel,
# and the <fig>.txt files must tile what the run printed.
cargo build --release -p drill-bench
figdir=$(mktemp -d)
DRILL_SCALE=quick ./target/release/figures all --out "$figdir" > "$figdir/stdout"
python3 - "$figdir" <<'PY'
import json, pathlib, sys
d = pathlib.Path(sys.argv[1])
figs = sorted(d.glob('*.json'))
assert len(figs) == 14, f'{len(figs)} figure JSONs, expected 14'
keys = ['git_rev', 'git_dirty', 'seed', 'scale', 'rustc', 'cpu_model', 'cores', 'wall_secs']
for f in figs:
    doc = json.loads(f.read_text())
    missing = [k for k in keys if k not in doc['manifest']]
    assert not missing, f'{f.name}: manifest lacks {missing}'
    assert doc['panels'], f'{f.name}: no panels'
    for p in doc['panels']:
        assert p['rows'], f'{f.name}: empty panel {p["caption"]!r}'
stdout = (d / 'stdout').read_text()
texts = [t.read_text() for t in d.glob('*.txt')]
assert len(texts) == 14, f'{len(texts)} figure texts, expected 14'
assert ''.join(sorted(texts, key=stdout.find)) == stdout, 'the .txt files do not tile stdout'
print(f'figures: {len(figs)} JSONs with manifests, texts tile {len(stdout)} bytes of stdout')
PY
rm -rf "$figdir"

echo "== scalebench --quick smoke (one process per point; a bad command line exits 2) =="
# Seconds-scale scaling ladder (leaf-spine, small Clos, k=8 fat-tree),
# each point in its own process, plus the sketch rank-error section:
# scripts/scalebench.sh --quick runs them and writes
# target/scalebench-quick.json; the committed full ladder in
# results/scalebench.json must come out untouched. The small-Clos
# determinism golden itself rides in determinism_golden, which the rows
# above already run.
scripts/scalebench.sh --quick > /dev/null
git diff --quiet -- results/scalebench.json || {
    echo "scalebench.sh --quick rewrote results/scalebench.json"; exit 1
}
for bad in "" "--quick" "--point" "--point nope" "--bogus --list"; do
    rc=0
    # shellcheck disable=SC2086 # split each bad command line into words
    ./target/release/scalebench $bad > /dev/null 2>&1 || rc=$?
    [[ "$rc" == 2 ]] || { echo "scalebench $bad: expected exit 2, got $rc"; exit 1; }
done

echo "== scalebench asymmetric control-plane smoke =="
# The asymmetric quick point runs the full structural §3.4 probe (cold
# install + warm reconvergence on a fabric with failed uplinks) and a
# traffic run with asymmetry_handling on; demand the probe found real
# asymmetry and shared classes across entries.
./target/release/scalebench --quick --point fattree8_128h_asym2f | python3 -c "
import json, sys
d = json.load(sys.stdin)
assert d['failures'] == 2, 'asym point lost its failures'
assert d['asym_entries'] > 0, 'no asymmetric entries found'
assert d['cp_classes'] < d['cp_entries'], 'no class sharing across entries'
assert d['cp_entries_reused'] == d['cp_entries'] - d['cp_classes'], 'reuse mismatch'
assert d['cp_install_secs'] > 0 and d['cp_reconverge_secs'] > 0, 'probe not timed'
assert 0 < d['cp_distinct_group_tables'] < d['asym_entries'], 'group tables not shared'
assert d['cp_table_bytes'] < 64 * d['cp_entries'], 'route table is per-entry heap again'
assert d['cp_engine_bytes'] < 256 * d['cp_entries'], 'engine outgrew 256 B per entry'
"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
# drill-runtime enables clippy::too_many_lines for its non-test code with
# the 80-line threshold of the root clippy.toml, so -D warnings turns an
# over-long function there into a failure.
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc: RUSTDOCFLAGS=-D warnings cargo doc --no-deps --workspace =="
# A doc link that does not resolve, or a public doc that links a private
# item, fails here instead of rotting unseen.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "CI OK"
