//! The control plane's allocation behaviour, pinned: forwarding state is
//! content-addressed (`RouteTable` entries are ids into pools,
//! `SymmetryEngine::install` points entries at shared tables), so building
//! it costs allocations per *distinct* thing, not per entry. A change that
//! goes back to one heap object per entry fails here long before it shows
//! in a benchmark's resident set.
//!
//! Its own test binary: the counting `#[global_allocator]` below is
//! process-wide. Counters are per thread, so the libtest harness' own
//! allocations on other threads never reach them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use drill::core::SymmetryEngine;
use drill::net::{clos, ClosSpec, RouteTable, SwitchId};
use drill::runtime::{random_leaf_spine_failures, ExperimentConfig, Scheme, TopoSpec, World};

thread_local! {
    /// Allocator calls that handed out memory (alloc, realloc) on this
    /// thread. `const`-initialised and `Drop`-free: touching it from
    /// inside the allocator allocates nothing.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn record(calls: usize, bytes: isize) {
    // `try_with`: a thread being torn down frees after its TLS is gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + calls));
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls only
// touches `Cell`s in thread-local storage and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as isize);
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f`; return its result, the allocations it made and the bytes it
/// left live, all on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    let (calls, live) = (ALLOCS.get(), LIVE.get());
    let out = f();
    (out, ALLOCS.get() - calls, LIVE.get() - live)
}

#[test]
fn control_plane_allocates_per_distinct_table_not_per_entry() {
    // 1 024 hosts: 8 pods x (8 leaves + 4 aggs), 16 cores — 112 switches x
    // 64 leaves = 7 168 entries — two leaf uplinks failed, a third flapped.
    let spec = ClosSpec {
        pods: 8,
        leaves_per_pod: 8,
        aggs_per_pod: 4,
        cores: 16,
        hosts_per_leaf: 16,
        ..ClosSpec::smoke()
    };
    let mut topo = clos(&spec);
    let picked = random_leaf_spine_failures(&topo, 3, 0xA5F);
    for &(a, b) in &picked[..2] {
        assert!(topo.fail_switch_link(SwitchId(a), SwitchId(b), 0));
    }
    let flap = (SwitchId(picked[2].0), SwitchId(picked[2].1));
    let table_entries = topo.num_switches() * topo.num_leaves();
    assert_eq!(table_entries, 7_168);

    let (mut routes, compute_allocs, _) = counted(|| RouteTable::compute(&topo));
    assert!(
        compute_allocs * 100 < table_entries,
        "compute: {compute_allocs} allocations for {table_entries} entries"
    );

    let (mut engine, _, new_live) = counted(SymmetryEngine::new);
    let table_before = routes.heap_bytes();
    let (cold, cold_allocs, cold_live) = counted(|| engine.install(&topo, &mut routes));
    assert!(cold.asymmetric_entries > 1_000, "{cold:?}");
    // What the engine says it holds is what the install left live, less
    // the group tables it put in the route table.
    let engine_live = new_live + cold_live - (routes.heap_bytes() - table_before) as isize;
    // Within 1 %: the map tables are estimated from their capacity (0.25 %
    // under at the time of writing, 2 980 of 1 172 626 bytes).
    let off = engine.heap_bytes() as isize - engine_live;
    assert!(
        off.abs() * 100 < engine_live,
        "engine heap_bytes {} vs {engine_live} bytes left live",
        engine.heap_bytes()
    );
    assert!(
        cold_allocs < cold.entries,
        "cold install: {cold_allocs} allocations for {} entries",
        cold.entries
    );

    // Flap down (a new state), then up again: the replay has seen it all.
    assert!(topo.fail_switch_link(flap.0, flap.1, 0));
    let down = engine.install(&topo, &mut RouteTable::compute(&topo));
    assert!(down.values_interned > 0);
    assert!(topo.restore_switch_link(flap.0, flap.1, 0));
    let mut routes = RouteTable::compute(&topo);
    let bytes_before = engine.heap_bytes();
    let (replay, replay_allocs, _) = counted(|| engine.install(&topo, &mut routes));
    assert_eq!(replay.values_interned, 0, "a replay interns nothing");
    assert_eq!(
        engine.heap_bytes(),
        bytes_before,
        "nor does it grow a table"
    );
    assert_eq!(replay.asymmetric_entries, cold.asymmetric_entries);
    // Per destination: the level skeleton (one vector per hop distance,
    // their holder, the sizing pass). Per install: scratch, and one table
    // per distinct (class, candidate list) pair.
    let budget = 12 * topo.num_leaves() + 16 * routes.distinct_group_tables() + 64;
    assert!(
        replay_allocs < budget,
        "replay install: {replay_allocs} allocations, budget {budget}"
    );
    assert!(
        budget * 4 < replay.entries,
        "the budget is far below per-entry"
    );

    // The whole world on that fabric: topology, tables, engine, switches,
    // NICs. 2.3 MB at the time of writing; 3.6 MB when every entry owned
    // its candidate list and group table.
    let mut cfg = ExperimentConfig::new(TopoSpec::Clos(spec), Scheme::drill_no_shim(), 0.25);
    cfg.raw_packet_mode = true;
    cfg.failed_links = picked[..2].to_vec();
    let (world, _, world_live) = counted(|| World::new(&cfg));
    assert!(
        world_live < 3_000_000,
        "World::new left {world_live} bytes live"
    );
    drop(world);
}
