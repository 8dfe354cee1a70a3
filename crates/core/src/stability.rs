//! Discrete-time M×N switch model for the §3.2.4 stability results.
//!
//! The paper proves two theorems about DRILL's scheduling inside one
//! switch with `M` forwarding engines and `N` output queues:
//!
//! * **Theorem 1**: memoryless random sampling — DRILL(d, 0) — is *not*
//!   stable for all admissible independent arrivals when `d < N` (a slow
//!   queue keeps receiving `d/N` of the load regardless of its service
//!   rate).
//! * **Theorem 2**: sampling with memory — DRILL(d, m) with `m ≥ 1` — is
//!   stable and achieves 100% throughput for all admissible arrivals.
//!
//! This module implements the abstract queueing model so the theorems can
//! be *observed*: [`simulate`] runs the slotted system and reports queue
//! trajectories. Every placement is made by [`DrillPolicy::select`], the
//! selector the switches run, so the theorems are checked on the shipped
//! algorithm rather than on a model of it. The integration tests and the
//! `stability_theorems` example drive the exact counterexample
//! construction from the Theorem 1 proof.

use drill_net::{FlowId, QueueView, SelectCtx, SwitchPolicy};
use drill_sim::{SimRng, Time};

use crate::DrillPolicy;

/// Queue lengths as a [`QueueView`]: every engine sees all of them, in
/// the slotted model's unit (packets), with nothing in flight.
pub(crate) struct SlotQueues<'a>(pub(crate) &'a [u64]);

impl QueueView for SlotQueues<'_> {
    fn visible_bytes(&self, port: u16) -> u64 {
        self.0[port as usize]
    }
    fn visible_pkts(&self, port: u16) -> u32 {
        self.0[port as usize] as u32
    }
    fn num_ports(&self) -> usize {
        self.0.len()
    }
}

/// Parameters of the slotted M×N switch model.
#[derive(Clone, Debug)]
pub struct StabilityConfig {
    /// Per-engine packet arrival probability per slot (`M` entries).
    pub arrival_prob: Vec<f64>,
    /// Per-queue service probability per slot (`N` entries).
    pub service_prob: Vec<f64>,
    /// DRILL samples per decision.
    pub d: usize,
    /// DRILL memory units per engine.
    pub m: usize,
    /// Number of slots to run.
    pub slots: u64,
    /// RNG seed.
    pub seed: u64,
}

impl StabilityConfig {
    /// Whether the offered load is admissible (Σλ < Σμ).
    pub fn is_admissible(&self) -> bool {
        let lambda: f64 = self.arrival_prob.iter().sum();
        let mu: f64 = self.service_prob.iter().sum();
        lambda < mu
    }
}

/// Result of a stability run.
#[derive(Clone, Debug)]
pub struct StabilityOutcome {
    /// Queue lengths at the end of the run.
    pub final_queues: Vec<u64>,
    /// Largest total backlog observed.
    pub max_total: u64,
    /// Time-averaged total backlog.
    pub mean_total: f64,
    /// Packets that arrived.
    pub arrivals: u64,
    /// Packets served.
    pub served: u64,
    /// Total backlog sampled every `slots/64` slots (trajectory).
    pub trajectory: Vec<u64>,
}

impl StabilityOutcome {
    /// Achieved throughput: fraction of arrived packets served by the end
    /// of the run (backlog counts against it).
    pub fn throughput(&self) -> f64 {
        if self.arrivals == 0 {
            return 1.0;
        }
        self.served as f64 / self.arrivals as f64
    }
}

/// Run the slotted M×N model under DRILL(d, m) scheduling.
///
/// Each slot: every engine independently receives a packet with its arrival
/// probability and immediately places it with one [`DrillPolicy`]'s
/// `select`, as that engine, over all `N` queues' *actual* lengths; then
/// every queue independently serves one packet with its service
/// probability.
pub fn simulate(cfg: &StabilityConfig) -> StabilityOutcome {
    let n = cfg.service_prob.len();
    assert!(n >= 1);
    let mut rng = SimRng::seed_from(cfg.seed);
    let mut policy = DrillPolicy::new(cfg.d, cfg.m, cfg.arrival_prob.len());
    let ports: Vec<u16> = (0..n as u16).collect();
    let mut queues = vec![0u64; n];
    let mut max_total = 0u64;
    let mut sum_total = 0f64;
    let mut arrivals = 0u64;
    let mut served = 0u64;
    let mut trajectory = Vec::with_capacity(64);
    let sample_every = (cfg.slots / 64).max(1);

    for slot in 0..cfg.slots {
        for (e, &lambda) in cfg.arrival_prob.iter().enumerate() {
            if !rng.chance(lambda) {
                continue;
            }
            arrivals += 1;
            let ctx = SelectCtx {
                now: Time::from_nanos(slot),
                engine: e,
                flow_hash: 0,
                flow: FlowId(0),
                dst_leaf: 0,
                candidates: &ports,
            };
            let q = policy.select(&ctx, &SlotQueues(&queues), &mut rng);
            queues[q as usize] += 1;
        }
        for (q, &mu) in cfg.service_prob.iter().enumerate() {
            if queues[q] > 0 && rng.chance(mu) {
                queues[q] -= 1;
                served += 1;
            }
        }
        let total = arrivals - served;
        max_total = max_total.max(total);
        sum_total += total as f64;
        if slot % sample_every == 0 {
            trajectory.push(total);
        }
    }

    StabilityOutcome {
        final_queues: queues,
        max_total,
        mean_total: sum_total / cfg.slots as f64,
        arrivals,
        served,
        trajectory,
    }
}

/// The Theorem 1 counterexample: one engine at load `lambda`, two queues
/// with service rates `(mu_fast, mu_slow)` such that the traffic is
/// admissible but `lambda * d / N > mu_slow`.
pub fn theorem1_counterexample(d: usize, m: usize, slots: u64, seed: u64) -> StabilityConfig {
    StabilityConfig {
        arrival_prob: vec![0.85],
        service_prob: vec![0.92, 0.08],
        d,
        m,
        slots,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admissibility_check() {
        let cfg = theorem1_counterexample(1, 0, 10, 1);
        assert!(cfg.is_admissible(), "0.85 < 0.92 + 0.08");
        let bad = StabilityConfig {
            arrival_prob: vec![1.0, 0.5],
            ..cfg
        };
        assert!(!bad.is_admissible());
    }

    #[test]
    fn theorem1_memoryless_is_unstable() {
        // DRILL(1, 0) sends half the 0.85 load to a queue that serves 0.08:
        // backlog grows linearly (~0.345/slot).
        let out = simulate(&theorem1_counterexample(1, 0, 100_000, 42));
        let total: u64 = out.final_queues.iter().sum();
        assert!(total > 20_000, "diverging backlog, got {total}");
        // The trajectory keeps growing: last quarter > 2x first quarter.
        let q1 = out.trajectory[16];
        let q4 = out.trajectory[60];
        assert!(q4 > q1 * 2, "monotone growth: {q1} vs {q4}");
        assert!(
            out.throughput() < 0.8,
            "lost throughput: {}",
            out.throughput()
        );
    }

    #[test]
    fn theorem2_memory_restores_stability() {
        // DRILL(1, 1) under the same admissible traffic stays bounded and
        // serves essentially everything.
        let out = simulate(&theorem1_counterexample(1, 1, 100_000, 42));
        let total: u64 = out.final_queues.iter().sum();
        assert!(total < 100, "bounded backlog, got {total}");
        assert!(
            out.max_total < 1_000,
            "max backlog bounded: {}",
            out.max_total
        );
        assert!(
            out.throughput() > 0.99,
            "full throughput: {}",
            out.throughput()
        );
    }

    #[test]
    fn more_samples_do_not_fix_memorylessness() {
        // Theorem 1 holds for any d < N. Per the proof's construction: one
        // very fast queue absorbs every sample set containing it (its
        // length is pinned at ~0), so whenever the d=2 samples are the two
        // slow queues — probability 1/3 — a slow queue receives the packet:
        // 0.8/3 ≈ 0.27 offered vs 0.10 combined service => divergence.
        let cfg = StabilityConfig {
            arrival_prob: vec![0.8],
            service_prob: vec![1.0, 0.05, 0.05],
            d: 2,
            m: 0,
            slots: 200_000,
            seed: 7,
        };
        assert!(cfg.is_admissible());
        let out = simulate(&cfg);
        let slow_backlog = out.final_queues[1] + out.final_queues[2];
        assert!(
            slow_backlog > 10_000,
            "slow queues diverge: {:?}",
            out.final_queues
        );

        // ... while one unit of memory fixes it.
        let fixed = simulate(&StabilityConfig { m: 1, ..cfg });
        assert!(
            fixed.final_queues.iter().sum::<u64>() < 200,
            "stable with memory: {:?}",
            fixed.final_queues
        );
    }

    #[test]
    fn d_equals_n_is_join_shortest_queue() {
        // With d = N the sampling degenerates to JSQ, which is stable.
        let cfg = StabilityConfig {
            arrival_prob: vec![0.4, 0.4],
            service_prob: vec![0.88, 0.08],
            d: 2,
            m: 0,
            slots: 100_000,
            seed: 3,
        };
        let out = simulate(&cfg);
        assert!(out.final_queues.iter().sum::<u64>() < 100);
    }

    #[test]
    fn multiple_engines_with_memory_stay_stable() {
        let cfg = StabilityConfig {
            arrival_prob: vec![0.2; 4],
            service_prob: vec![0.6, 0.3, 0.05],
            d: 2,
            m: 1,
            slots: 100_000,
            seed: 11,
        };
        assert!(cfg.is_admissible());
        let out = simulate(&cfg);
        assert!(
            out.final_queues.iter().sum::<u64>() < 500,
            "{:?}",
            out.final_queues
        );
        assert!(out.throughput() > 0.98);
    }

    #[test]
    fn zero_load_is_trivially_stable() {
        let cfg = StabilityConfig {
            arrival_prob: vec![0.0],
            service_prob: vec![0.5, 0.5],
            d: 1,
            m: 1,
            slots: 1_000,
            seed: 1,
        };
        let out = simulate(&cfg);
        assert_eq!(out.arrivals, 0);
        assert_eq!(out.max_total, 0);
        assert_eq!(out.throughput(), 1.0);
    }
}
