//! `sim_digest`: one hash over everything a run simulated.
//!
//! Computed by the benchmark from the public [`RunStats`] fields, so two
//! commits can be compared: a change meant only to make the simulator
//! faster must leave every workload's digest identical. Host-side fields
//! that legitimately vary (shard handoffs, anomaly counts) are left out.

use drill_runtime::RunStats;

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Fold one run in. Call before any quantile query: exact
    /// distributions sort their samples on first query, which changes
    /// `Distribution::digest`.
    pub fn run(&mut self, s: &RunStats) {
        for w in [
            s.events,
            s.sim_end.as_nanos(),
            s.flows_started,
            s.flows_completed,
            s.bytes_delivered,
            s.data_pkts_delivered,
            s.gro_batches,
            s.retransmissions,
            s.timeouts,
            s.blackholed,
            s.nic_drops,
            s.fault_events,
            s.reconvergences,
            s.fault_blackholed,
            s.fault_window_ns,
            s.stable_at.as_nanos(),
            s.arena_live_at_end,
            s.fct_ms.digest(),
            s.fct_ms.count() as u64,
            s.queue_stdv.count(),
            s.queue_stdv.mean().to_bits(),
        ] {
            self.word(w);
        }
        for arr in [
            &s.hops.wait_ns,
            &s.hops.wait_samples,
            &s.hops.drops,
            &s.hops.tx,
        ] {
            for &w in arr {
                self.word(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_listed_field() {
        let base = RunStats::new("x".into());
        let of = |s: &RunStats| {
            let mut d = Digest::new();
            d.run(s);
            d.hex()
        };
        let mut a = base.clone();
        a.events = 1;
        let mut b = base.clone();
        b.hops.tx[5] = 1;
        let mut c = base.clone();
        c.fct_ms.add(1.5);
        let all = [of(&base), of(&a), of(&b), of(&c)];
        for i in 0..all.len() {
            for j in 0..i {
                assert_ne!(all[i], all[j]);
            }
        }
        // Host-side bookkeeping is deliberately excluded.
        let mut h = base.clone();
        h.shard_handoffs = 9;
        h.anomalies = 2;
        assert_eq!(of(&h), of(&base));
    }
}
