//! The §3.2.4 stability theorems, checked on `DrillPolicy::select` — the
//! selector the switches run — against bounds that owe nothing to it.
//!
//! * Theorem 2 as a property: seeded admissible draws of the slotted M×N
//!   model (`drill::core::stability`) stay stable under DRILL(d, m ≥ 1).
//! * Theorem 1 against a closed form: in the proof's construction the
//!   slow queues of DRILL(d, 0) grow at a rate the arrival and service
//!   probabilities alone fix, for every d < N.
//! * The same dichotomy in the packet simulator: one `Switch` with a 10G
//!   and a 1G uplink, enqueue-commit lag on, driven directly through
//!   `receive` / `on_enqueue_commit` / `on_tx_done`.

use std::collections::BTreeMap;

use drill::core::stability::{simulate, StabilityConfig, StabilityOutcome};
use drill::core::DrillPolicy;
use drill::net::{
    leaf_spine_custom, EventSink, FlowId, HostId, LeafSpineSpec, NetEvent, Packet, PacketArena,
    RouteTable, Switch, SwitchConfig, DEFAULT_PROP, HEADER_BYTES,
};
use drill::sim::{SimRng, Time};
use drill::telemetry::NoopProbe;

/// Mean sampled total backlog over quarter `k` (0-based) of the run.
fn quarter_mean(out: &StabilityOutcome, k: usize) -> f64 {
    let len = out.trajectory.len() / 4;
    let quarter = &out.trajectory[k * len..(k + 1) * len];
    quarter.iter().sum::<u64>() as f64 / len as f64
}

/// Theorem 2: DRILL(d, m) with m ≥ 1 is stable with 100 % throughput for
/// admissible arrivals. 60 seeded draws of M ∈ 1..=4 engines, N ∈ 2..=8
/// queues, d < N, m ∈ 1..=3, and per-queue service rates that are fast or
/// slow at random, loaded to Σλ ≤ 0.9·Σμ. Every draw serves ≥ 99 % of
/// what arrived, and its mean backlog over the last quarter of the run is
/// at most 1.5× that over the second quarter, plus 4 packets: a backlog of
/// a few packets moves by more than half itself from quarter to quarter.
#[test]
fn theorem2_memory_is_stable_on_seeded_admissible_draws() {
    const DRAWS: usize = 60;
    const SLOTS: u64 = 40_000;
    let mut rng = SimRng::seed_from(0x3224);
    let mut worst_throughput = f64::INFINITY;
    for draw in 0..DRAWS {
        let engines = 1 + rng.below(4);
        let n = 2 + rng.below(7);
        let d = 1 + rng.below(n - 1);
        let m = 1 + rng.below(3);
        let service_prob: Vec<f64> = (0..n)
            .map(|_| {
                let u = rng.unit();
                if rng.chance(0.5) {
                    0.5 + 0.5 * u
                } else {
                    0.02 + 0.18 * u
                }
            })
            .collect();
        let mu: f64 = service_prob.iter().sum();
        let load = (0.9 * mu * (0.5 + 0.5 * rng.unit())).min(0.95 * engines as f64);
        let weights: Vec<f64> = (0..engines).map(|_| 0.5 + rng.unit()).collect();
        let scale = load / weights.iter().sum::<f64>();
        let arrival_prob: Vec<f64> = weights.iter().map(|w| (w * scale).min(1.0)).collect();
        assert!(arrival_prob.iter().sum::<f64>() <= 0.9 * mu);
        let cfg = StabilityConfig {
            arrival_prob,
            service_prob,
            d,
            m,
            slots: SLOTS,
            seed: draw as u64,
        };
        let out = simulate(&cfg);
        let (q2, q4) = (quarter_mean(&out, 1), quarter_mean(&out, 3));
        assert!(
            out.throughput() >= 0.99,
            "draw {draw}: DRILL({d},{m}) throughput {} on {cfg:?}",
            out.throughput()
        );
        assert!(
            q4 <= 1.5 * q2 + 4.0,
            "draw {draw}: DRILL({d},{m}) backlog grows {q2} -> {q4} on {cfg:?}"
        );
        worst_throughput = worst_throughput.min(out.throughput());
    }
    println!("{DRAWS} draws, worst throughput {worst_throughput:.4}");
}

/// Theorem 1 against its closed form, for every d < N. One engine at
/// λ = 0.8; queue 0 serves every slot (μ = 1), so it is empty at every
/// decision; N − 1 slow queues serve μ_s = ½·λ(N − d)/(N(N − 1)) each.
/// DRILL(d, 0) puts a packet on a slow queue exactly when its d samples
/// miss queue 0, with probability (N − d)/N, so the slow backlog grows at
/// λ(N − d)/N − (N − 1)·μ_s per slot — half of what reaches the slow
/// queues. The load is admissible (λ < 1 < Σμ). Under DRILL(d, 1) the
/// same load stays within a twentieth of the smallest divergence.
#[test]
fn theorem1_slow_backlog_grows_at_the_closed_form_rate() {
    const SLOTS: u64 = 60_000;
    const LAMBDA: f64 = 0.8;
    let (mut worst_err, mut worst_peak) = (0f64, 0);
    for n in 2..=6usize {
        for d in 1..n {
            let miss = (n - d) as f64 / n as f64;
            let mu_slow = 0.5 * LAMBDA * miss / (n - 1) as f64;
            let predicted = (LAMBDA * miss - (n - 1) as f64 * mu_slow) * SLOTS as f64;
            for seed in 1..=3 {
                let mut service_prob = vec![mu_slow; n];
                service_prob[0] = 1.0;
                let cfg = StabilityConfig {
                    arrival_prob: vec![LAMBDA],
                    service_prob,
                    d,
                    m: 0,
                    slots: SLOTS,
                    seed,
                };
                assert!(cfg.is_admissible());
                let out = simulate(&cfg);
                let slow: u64 = out.final_queues[1..].iter().sum();
                let err = (slow as f64 - predicted).abs() / predicted;
                assert!(
                    err <= 0.10,
                    "N={n} d={d} seed {seed}: slow backlog {slow}, closed form {predicted:.0}"
                );
                worst_err = worst_err.max(err);

                let fixed = simulate(&StabilityConfig { m: 1, ..cfg });
                assert!(
                    fixed.max_total <= 200,
                    "N={n} d={d} seed {seed}: DRILL({d},1) peaked at {}",
                    fixed.max_total
                );
                worst_peak = worst_peak.max(fixed.max_total);
            }
        }
    }
    println!(
        "worst Theorem 1 rate error {:.1} %, DRILL(d,1) peak {worst_peak}",
        100.0 * worst_err
    );
}

/// One packet-level run: arrivals, drops at the 1G uplink and at every
/// port, and the 1G uplink's peak queue in packets.
struct SlowPort {
    arrivals: u64,
    drops: u64,
    all_drops: u64,
    peak_pkts: u32,
}

/// Leaf 0 of a 2×2 leaf-spine whose uplinks run at 10G (spine 0) and 1G
/// (spine 1), two engines, running DRILL(1, m). Hosts under leaf 0 offer
/// Poisson 1500-byte packets at 6 Gbps for 20 ms to a host under leaf 1,
/// so both uplinks are candidates for every packet. The loop plays the
/// event queue: it hands each event the switch emits back to it in
/// (time, emission) order and frees packets once they leave for a spine.
fn run_switch(m: usize) -> SlowPort {
    const GBPS: u64 = 1_000_000_000;
    let spec = LeafSpineSpec {
        spines: 2,
        leaves: 2,
        hosts_per_leaf: 4,
        host_rate: 10 * GBPS,
        core_rate: 10 * GBPS,
        prop: DEFAULT_PROP,
    };
    let topo = leaf_spine_custom(&spec, |_, spine| {
        vec![if spine == 0 { 10 } else { 1 } * GBPS]
    });
    let routes = RouteTable::compute(&topo);
    let l0 = topo.leaves()[0];
    let uplinks = routes.candidates(l0, 1);
    assert_eq!(uplinks.len(), 2);
    let slow = *uplinks
        .iter()
        .find(|&&p| topo.egress(l0, p).rate_bps == GBPS)
        .expect("a 1G uplink");
    let senders: Vec<HostId> = (0..topo.num_hosts() as u32)
        .map(HostId)
        .filter(|&h| topo.host_leaf(h) == l0)
        .collect();
    let dst = HostId(spec.hosts_per_leaf as u32);
    assert_eq!(topo.host_leaf_index(dst), 1);

    let cfg = SwitchConfig {
        engines: 2,
        ..SwitchConfig::default()
    };
    assert!(cfg.model_enqueue_commit);
    let policy = DrillPolicy::new(1, m, cfg.engines);
    let mut sw = Switch::new(l0, topo.num_ports(l0), cfg, Box::new(policy));
    let mut arena = PacketArena::new();
    let mut rng = SimRng::seed_from(17);
    let mut out = EventSink::new();
    let mut pending: BTreeMap<(Time, u64), NetEvent> = BTreeMap::new();
    let mut seq = 0u64;
    let size = 1500u32;
    let gap_ns = (size as u64 * 8) as f64 / 6.0; // 6 Gbps
    let end = Time::from_millis(20);
    let mut next_arrival = Time::ZERO;
    let (mut arrivals, mut peak_pkts) = (0u64, 0u32);

    loop {
        let due = pending.first_key_value().map(|(&(t, _), _)| t);
        let arrive = next_arrival < end && due.is_none_or(|t| next_arrival < t);
        if arrive {
            let now = next_arrival;
            let src = senders[rng.below(senders.len())];
            let pkt = Packet::data(
                arrivals,
                FlowId(arrivals as u32),
                src,
                dst,
                rng.next_u64(),
                0,
                size - HEADER_BYTES,
                now,
            );
            let pref = arena.insert(pkt);
            let ingress = topo.host_uplink(src).dst_port;
            sw.receive(
                &topo,
                &routes,
                &mut arena,
                pref,
                ingress,
                now,
                &mut rng,
                &mut out,
                &mut NoopProbe,
            );
            arrivals += 1;
            peak_pkts = peak_pkts.max(sw.queue_pkts(slow));
            next_arrival = now + Time::from_nanos(rng.exponential(gap_ns).round() as u64);
        } else if let Some(((now, _), ev)) = pending.pop_first() {
            match ev {
                NetEvent::EnqueueCommit {
                    port,
                    bytes,
                    engine,
                    ..
                } => sw.on_enqueue_commit(port, bytes, engine),
                NetEvent::SwitchTxDone { port, .. } => {
                    let probe = &mut NoopProbe;
                    sw.on_tx_done(&topo, &mut arena, port, now, &mut rng, &mut out, probe);
                }
                NetEvent::ArriveSwitch { pkt, .. } => arena.free(pkt),
                other => panic!("leaf 0 emitted {other:?}"),
            }
        } else {
            break;
        }
        for (at, ev) in out.drain(..) {
            pending.insert((at, seq), ev);
            seq += 1;
        }
    }

    assert_eq!(arena.live(), 0, "every packet left or was dropped");
    SlowPort {
        arrivals,
        drops: sw.port_stats(slow).drops,
        all_drops: (0..sw.num_ports() as u16)
            .map(|p| sw.port_stats(p).drops)
            .sum(),
        peak_pkts,
    }
}

/// The dichotomy in the packet simulator, enqueue-commit lag included.
/// DRILL(1, 0) sends half the 6 Gbps to the 1G uplink and tail-drops
/// there with the buffer full; DRILL(1, 1) — the same arrivals, the same
/// 1G port, engines that see each other's writes only after they commit
/// — drops nothing and keeps that port's queue under a quarter of its
/// buffer.
#[test]
fn packet_switch_memory_avoids_the_slow_uplink() {
    let buffer_pkts = (SwitchConfig::default().queue_limit_bytes / 1500) as u32;
    let memoryless = run_switch(0);
    assert!(
        memoryless.drops * 4 > memoryless.arrivals,
        "DRILL(1,0) dropped {} of {} at the 1G uplink",
        memoryless.drops,
        memoryless.arrivals
    );
    assert!(memoryless.peak_pkts >= buffer_pkts, "1G uplink saturates");

    let memory = run_switch(1);
    assert_eq!(memory.all_drops, 0, "DRILL(1,1) dropped packets");
    assert!(
        memory.peak_pkts * 4 < buffer_pkts,
        "DRILL(1,1) queued {} packets at the 1G uplink",
        memory.peak_pkts
    );
    println!(
        "DRILL(1,0): {} of {} dropped at the 1G uplink; DRILL(1,1): 0 dropped, peak {} packets",
        memoryless.drops, memoryless.arrivals, memory.peak_pkts
    );
}
