//! Run-level metrics.

use drill_net::HopClass;
use drill_sim::Time;
use drill_stats::{Distribution, Histogram, Moments};

/// Per-hop aggregates: the paper's Hop 1 (leaf up), Hop 2 (top-stage
/// down), Hop 3 (leaf to host) — plus the host uplink and (in 3-stage
/// fabrics) the agg hops.
#[derive(Clone, Debug, Default)]
pub struct HopReport {
    /// Sum of queueing waits in ns, per hop class.
    pub wait_ns: [u64; 6],
    /// Number of wait samples, per hop class.
    pub wait_samples: [u64; 6],
    /// Packets dropped, per hop class.
    pub drops: [u64; 6],
    /// Packets transmitted, per hop class.
    pub tx: [u64; 6],
}

/// Index of a hop class in the report arrays.
pub fn hop_index(h: HopClass) -> usize {
    match h {
        HopClass::HostUp => 0,
        HopClass::LeafUp => 1,
        HopClass::AggUp => 2,
        HopClass::SpineDown => 3,
        HopClass::AggDown => 4,
        HopClass::ToHost => 5,
    }
}

impl HopReport {
    /// Mean queueing wait at a hop class, microseconds.
    pub fn mean_wait_us(&self, h: HopClass) -> f64 {
        let i = hop_index(h);
        if self.wait_samples[i] == 0 {
            0.0
        } else {
            self.wait_ns[i] as f64 / self.wait_samples[i] as f64 / 1000.0
        }
    }

    /// Loss rate at a hop class (drops / offered).
    pub fn loss_rate(&self, h: HopClass) -> f64 {
        let i = hop_index(h);
        let offered = self.drops[i] + self.tx[i];
        if offered == 0 {
            0.0
        } else {
            self.drops[i] as f64 / offered as f64
        }
    }

    /// Accumulate another report (parallel/cross-seed reduction).
    pub fn merge(&mut self, other: &HopReport) {
        for i in 0..self.wait_ns.len() {
            self.wait_ns[i] += other.wait_ns[i];
            self.wait_samples[i] += other.wait_samples[i];
            self.drops[i] += other.drops[i];
            self.tx[i] += other.tx[i];
        }
    }
}

/// Everything measured in one run (or, after [`RunStats::merge`], in a
/// group of runs — e.g. the seed replications of one sweep cell).
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Scheme display name.
    pub scheme: String,
    /// FCTs of completed background + incast flows, in milliseconds.
    pub fct_ms: Distribution,
    /// FCTs of incast flows only.
    pub fct_incast_ms: Distribution,
    /// FCTs of mice flows only (Table 1).
    pub fct_mice_ms: Distribution,
    /// Per-elephant goodput in Gbps (Table 1).
    pub elephant_gbps: Distribution,
    /// Per-flow duplicate-ACK counts (Figure 11a).
    pub dupacks: Histogram,
    /// Per-flow counts of true path inversions (loss-independent).
    pub reorders: Histogram,
    /// Flows started (measured window).
    pub flows_started: u64,
    /// Flows completed (measured window).
    pub flows_completed: u64,
    /// Mean-over-time of the queue-length STDV metric (§3.2.3), packets.
    pub queue_stdv: Moments,
    /// Per-hop queueing and loss.
    pub hops: HopReport,
    /// Total GRO batches formed at receivers.
    pub gro_batches: u64,
    /// Data packets delivered to receivers (GRO normalization).
    pub data_pkts_delivered: u64,
    /// Payload bytes delivered to receivers — the numerator of
    /// `scalebench`'s bytes/host throughput metric.
    pub bytes_delivered: u64,
    /// TCP retransmissions.
    pub retransmissions: u64,
    /// TCP timeouts.
    pub timeouts: u64,
    /// Packets dropped with no route / dead egress.
    pub blackholed: u64,
    /// Packets dropped at host NICs.
    pub nic_drops: u64,
    /// Chaos-engine fault schedule events applied.
    pub fault_events: u64,
    /// Routing reconvergence passes executed. Faults whose detection
    /// windows overlap coalesce into one pass, so this can be lower than
    /// the number of reconvergence-worthy faults.
    pub reconvergences: u64,
    /// Packets blackholed inside fault windows (fault struck,
    /// reconvergence still pending) — the graceful-degradation loss.
    pub fault_blackholed: u64,
    /// Total simulated time spent inside fault windows, ns.
    pub fault_window_ns: u64,
    /// FCTs (ms) of measured flows whose lifetime overlapped a fault
    /// window — the degraded-service population.
    pub fct_fault_ms: Distribution,
    /// FCTs (ms) of measured flows untouched by any fault window.
    pub fct_clear_ms: Distribution,
    /// When routing last returned to stability after a fault
    /// (`Time::ZERO` when the run never reconverged).
    pub stable_at: Time,
    /// Events processed.
    pub events: u64,
    /// Final simulated time.
    pub sim_end: Time,
    /// Packets a NIC had accepted that were neither delivered nor dropped
    /// when the run ended: those interned in the arena plus
    /// [`nic_pending_at_end`](RunStats::nic_pending_at_end). Zero for
    /// fully drained runs; the golden suite asserts this as a leak check.
    pub arena_live_at_end: u64,
    /// The part of `arena_live_at_end` that was never built: raw-flow
    /// segments still waiting in NIC trains (`HostNic::pending_pkts`).
    /// In no fingerprint — `arena_live_at_end` already covers it.
    pub nic_pending_at_end: u64,
    /// Always 0: only the frozen `benchmark/` reads it (gone at its next re-base).
    pub shard_handoffs: u64,
    /// Always 0, like `shard_handoffs`.
    pub shard_windows: u64,
    /// Invariant-watchdog anomaly reports recorded by an attached
    /// auditor (always zero without one). Deliberately *not* part of
    /// the determinism fingerprint: the auditor observes, fingerprints
    /// pin simulated behavior.
    pub anomalies: u64,
    /// High-water mark of concurrently pending events: the most entries
    /// the timing wheel held at once (32 B each for the runtime's
    /// payload; the wheel's pages add at most one part-filled page per
    /// occupied slot on top). Host-side memory accounting — it restarts
    /// at a snapshot restore, so it is in no fingerprint and no snapshot.
    /// [`merge`](RunStats::merge) keeps the maximum (the runs did not
    /// share a wheel).
    pub wheel_slots_hw: u64,
    /// High-water mark of concurrently interned packets: packet-arena
    /// slots ever allocated. Host-side, like
    /// [`wheel_slots_hw`](RunStats::wheel_slots_hw).
    pub arena_slots_hw: u64,
}

impl RunStats {
    /// An empty stats block for `scheme`.
    pub fn new(scheme: String) -> RunStats {
        RunStats {
            scheme,
            fct_ms: Distribution::new(),
            fct_incast_ms: Distribution::new(),
            fct_mice_ms: Distribution::new(),
            elephant_gbps: Distribution::new(),
            dupacks: Histogram::new(16),
            reorders: Histogram::new(16),
            flows_started: 0,
            flows_completed: 0,
            queue_stdv: Moments::new(),
            hops: HopReport::default(),
            gro_batches: 0,
            data_pkts_delivered: 0,
            bytes_delivered: 0,
            retransmissions: 0,
            timeouts: 0,
            blackholed: 0,
            nic_drops: 0,
            fault_events: 0,
            reconvergences: 0,
            fault_blackholed: 0,
            fault_window_ns: 0,
            fct_fault_ms: Distribution::new(),
            fct_clear_ms: Distribution::new(),
            stable_at: Time::ZERO,
            events: 0,
            sim_end: Time::ZERO,
            arena_live_at_end: 0,
            nic_pending_at_end: 0,
            shard_handoffs: 0,
            shard_windows: 0,
            anomalies: 0,
            wheel_slots_hw: 0,
            arena_slots_hw: 0,
        }
    }

    /// Mean FCT in ms.
    pub fn mean_fct_ms(&self) -> f64 {
        self.fct_ms.mean()
    }

    /// The `p`-th percentile FCT in ms.
    pub fn fct_percentile_ms(&mut self, p: f64) -> f64 {
        self.fct_ms.percentile(p)
    }

    /// Fraction of started flows that completed in time.
    pub fn completion_rate(&self) -> f64 {
        if self.flows_started == 0 {
            1.0
        } else {
            self.flows_completed as f64 / self.flows_started as f64
        }
    }

    /// Fold another run's measurements into this one (cross-seed
    /// aggregation).
    ///
    /// Distributions merge through [`drill_stats::Distribution::merge`]:
    /// a run's stores are exact and concatenate, so merged quantiles
    /// remain exact order statistics however many samples the seeds add
    /// up to. The merge is a pure function of the operand states, so a
    /// fixed merge order reproduces bit-identical stores at any thread
    /// count.
    /// Everything else stays exact regardless of scale: histograms and
    /// per-hop tallies add, streaming moments combine with the standard
    /// Chan et al. update, counters (including `bytes_delivered`) sum,
    /// distribution counts/means/extrema are exact, `sim_end` keeps the
    /// latest end time and the slot high-water marks keep the maximum.
    /// The scheme name is kept from `self`; merging different schemes is
    /// a caller bug and panics.
    pub fn merge(&mut self, other: &RunStats) {
        assert_eq!(
            self.scheme, other.scheme,
            "merging RunStats of different schemes"
        );
        self.fct_ms.merge(&other.fct_ms);
        self.fct_incast_ms.merge(&other.fct_incast_ms);
        self.fct_mice_ms.merge(&other.fct_mice_ms);
        self.elephant_gbps.merge(&other.elephant_gbps);
        self.dupacks.merge(&other.dupacks);
        self.reorders.merge(&other.reorders);
        self.flows_started += other.flows_started;
        self.flows_completed += other.flows_completed;
        self.queue_stdv.merge(&other.queue_stdv);
        self.hops.merge(&other.hops);
        self.gro_batches += other.gro_batches;
        self.data_pkts_delivered += other.data_pkts_delivered;
        self.bytes_delivered += other.bytes_delivered;
        self.retransmissions += other.retransmissions;
        self.timeouts += other.timeouts;
        self.blackholed += other.blackholed;
        self.nic_drops += other.nic_drops;
        self.fault_events += other.fault_events;
        self.reconvergences += other.reconvergences;
        self.fault_blackholed += other.fault_blackholed;
        self.fault_window_ns += other.fault_window_ns;
        self.fct_fault_ms.merge(&other.fct_fault_ms);
        self.fct_clear_ms.merge(&other.fct_clear_ms);
        self.stable_at = self.stable_at.max(other.stable_at);
        self.events += other.events;
        self.sim_end = self.sim_end.max(other.sim_end);
        self.arena_live_at_end += other.arena_live_at_end;
        self.nic_pending_at_end += other.nic_pending_at_end;
        self.anomalies += other.anomalies;
        self.wheel_slots_hw = self.wheel_slots_hw.max(other.wheel_slots_hw);
        self.arena_slots_hw = self.arena_slots_hw.max(other.arena_slots_hw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_report_math() {
        let mut h = HopReport::default();
        let i = hop_index(HopClass::LeafUp);
        h.wait_ns[i] = 30_000;
        h.wait_samples[i] = 3;
        h.drops[i] = 5;
        h.tx[i] = 95;
        assert!((h.mean_wait_us(HopClass::LeafUp) - 10.0).abs() < 1e-12);
        assert!((h.loss_rate(HopClass::LeafUp) - 0.05).abs() < 1e-12);
        assert_eq!(h.mean_wait_us(HopClass::ToHost), 0.0);
        assert_eq!(h.loss_rate(HopClass::ToHost), 0.0);
    }

    #[test]
    fn hop_indices_are_distinct() {
        let all = [
            HopClass::HostUp,
            HopClass::LeafUp,
            HopClass::AggUp,
            HopClass::SpineDown,
            HopClass::AggDown,
            HopClass::ToHost,
        ];
        let mut seen: Vec<usize> = all.iter().map(|&h| hop_index(h)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn completion_rate_empty_is_one() {
        let s = RunStats::new("x".into());
        assert_eq!(s.completion_rate(), 1.0);
    }

    #[test]
    fn run_stats_merge_accumulates_everything() {
        let mut a = RunStats::new("x".into());
        a.fct_ms.add(1.0);
        a.fct_ms.add(3.0);
        a.dupacks.add(0);
        a.queue_stdv.add(2.0);
        a.hops.tx[1] = 10;
        a.flows_started = 5;
        a.events = 100;
        a.sim_end = Time::from_millis(3);
        a.fault_events = 2;
        a.fault_window_ns = 500;
        a.fct_fault_ms.add(8.0);
        a.stable_at = Time::from_millis(2);
        a.wheel_slots_hw = 40;
        a.arena_slots_hw = 7;
        let mut b = RunStats::new("x".into());
        b.fct_ms.add(2.0);
        b.dupacks.add(2);
        b.queue_stdv.add(4.0);
        b.hops.tx[1] = 7;
        b.hops.drops[1] = 3;
        b.flows_started = 2;
        b.events = 50;
        b.sim_end = Time::from_millis(9);
        b.fault_events = 1;
        b.reconvergences = 1;
        b.fault_blackholed = 4;
        b.fault_window_ns = 250;
        b.fct_clear_ms.add(2.0);
        b.stable_at = Time::from_millis(1);
        b.wheel_slots_hw = 25;
        b.arena_slots_hw = 9;
        a.merge(&b);
        assert_eq!(a.fct_ms.count(), 3);
        assert!((a.fct_ms.mean() - 2.0).abs() < 1e-12);
        assert_eq!(a.dupacks.total(), 2);
        assert_eq!(a.queue_stdv.count(), 2);
        assert!((a.queue_stdv.mean() - 3.0).abs() < 1e-12);
        assert_eq!(a.hops.tx[1], 17);
        assert_eq!(a.hops.drops[1], 3);
        assert_eq!(a.flows_started, 7);
        assert_eq!(a.events, 150);
        assert_eq!(a.sim_end, Time::from_millis(9));
        assert_eq!(a.fault_events, 3);
        assert_eq!(a.reconvergences, 1);
        assert_eq!(a.fault_blackholed, 4);
        assert_eq!(a.fault_window_ns, 750);
        assert_eq!(a.fct_fault_ms.count(), 1);
        assert_eq!(a.fct_clear_ms.count(), 1);
        assert_eq!(a.stable_at, Time::from_millis(2));
        assert_eq!((a.wheel_slots_hw, a.arena_slots_hw), (40, 9), "maxima");
    }

    #[test]
    #[should_panic(expected = "different schemes")]
    fn run_stats_merge_rejects_mixed_schemes() {
        let mut a = RunStats::new("ECMP".into());
        a.merge(&RunStats::new("DRILL(2,1)".into()));
    }
}
