//! The DRILL(d, m) scheduling policy (§3.2.2).

use std::io;

use drill_net::{QueueView, SelectCtx, SwitchPolicy};
use drill_sim::codec::{invalid, put_varint, Decoder};
use drill_sim::SimRng;

/// DRILL(d, m): per-packet, per-engine "power of two choices with memory".
///
/// On each packet, the handling engine
///
/// 1. samples `d` distinct candidate ports uniformly at random,
/// 2. adds its `m` remembered ports (those that are still candidates for
///    this destination),
/// 3. sends the packet to the member of that set with the minimum *visible*
///    queue occupancy (bytes), and
/// 4. re-fills its memory with the `m` least-loaded ports it just observed.
///
/// Each engine has its own memory (the paper's engines decide independently
/// and in parallel); the policy object is per-switch, so engines of the
/// same switch share nothing but the queues themselves.
///
/// The paper's recommended operating point is `DRILL(2, 1)`; larger `d`/`m`
/// can trigger the synchronization effect on many-engine switches (§3.2.3).
pub struct DrillPolicy {
    d: usize,
    m: usize,
    /// Per-engine remembered ports.
    mem: Vec<Vec<u16>>,
    /// Scratch: candidate ports considered this decision.
    scratch: Vec<u16>,
    /// Scratch: sampled candidate indices (`select` runs per packet-hop
    /// and must not allocate).
    sampled: Vec<usize>,
}

impl DrillPolicy {
    /// DRILL(d, m) for a switch with `engines` forwarding engines.
    pub fn new(d: usize, m: usize, engines: usize) -> DrillPolicy {
        assert!(d >= 1, "DRILL needs at least one sample");
        assert!(engines >= 1);
        DrillPolicy {
            d,
            m,
            mem: vec![Vec::with_capacity(m); engines],
            scratch: Vec::new(),
            sampled: Vec::new(),
        }
    }

    /// The configured number of random samples `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The configured number of memory units `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Remembered ports of an engine (test/diagnostic access).
    pub fn memory(&self, engine: usize) -> &[u16] {
        &self.mem[engine]
    }
}

impl SwitchPolicy for DrillPolicy {
    fn select(&mut self, ctx: &SelectCtx<'_>, queues: &dyn QueueView, rng: &mut SimRng) -> u16 {
        let cand = ctx.candidates;
        debug_assert!(!cand.is_empty());
        let mem = &mut self.mem[ctx.engine];
        self.scratch.clear();

        // 1-2. Random samples first (so equal-length ties resolve to a
        // random fresh sample rather than herding onto remembered ports),
        // then still-valid memory entries. When d covers the whole
        // candidate set the ports are still visited in random order:
        // a deterministic scan would tie-break every empty-queue decision
        // onto the lowest port index, herding all engines there.
        let k = self.d.min(cand.len());
        rng.sample_indices_into(cand.len(), k, &mut self.sampled);
        self.scratch.extend(self.sampled.iter().map(|&i| cand[i]));
        for &p in mem.iter() {
            if cand.contains(&p) && !self.scratch.contains(&p) {
                self.scratch.push(p);
            }
        }

        // 3. Minimum visible occupancy wins (strict `<`: first seen wins
        // ties). The engine sees committed state plus its own in-flight
        // writes (`visible_bytes_for`).
        let mut best = self.scratch[0];
        let mut best_len = queues.visible_bytes_for(ctx.engine, best);
        for &p in &self.scratch[1..] {
            let len = queues.visible_bytes_for(ctx.engine, p);
            if len < best_len {
                best = p;
                best_len = len;
            }
        }

        // 4. Remember the m least-loaded ports observed this decision.
        if self.m > 0 {
            self.scratch
                .sort_by_key(|&p| queues.visible_bytes_for(ctx.engine, p));
            mem.clear();
            mem.extend(self.scratch.iter().take(self.m));
        }

        best
    }

    fn save_state(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.mem.len() as u64);
        for m in &self.mem {
            put_varint(buf, m.len() as u64);
            for &p in m {
                put_varint(buf, p as u64);
            }
        }
    }

    fn load_state(&mut self, d: &mut Decoder<'_>) -> io::Result<()> {
        if d.varint_usize()? != self.mem.len() {
            return Err(invalid("DRILL engine count mismatch"));
        }
        for m in &mut self.mem {
            let n = d.varint_usize()?;
            if n > self.m {
                return Err(invalid("DRILL memory exceeds m"));
            }
            m.clear();
            for _ in 0..n {
                m.push(d.varint_u16()?);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::SlotQueues;
    use drill_net::FlowId;
    use drill_sim::Time;

    fn ctx<'a>(candidates: &'a [u16], engine: usize) -> SelectCtx<'a> {
        SelectCtx {
            now: Time::ZERO,
            engine,
            flow_hash: 42,
            flow: FlowId(7),
            dst_leaf: 1,
            candidates,
        }
    }

    #[test]
    fn full_sampling_picks_global_min() {
        // d >= #candidates: DRILL degenerates to exact min.
        let mut p = DrillPolicy::new(8, 1, 1);
        let q = SlotQueues(&[500, 100, 900, 400]);
        let cand = [0u16, 1, 2, 3];
        let mut rng = SimRng::seed_from(1);
        for _ in 0..10 {
            assert_eq!(p.select(&ctx(&cand, 0), &q, &mut rng), 1);
        }
    }

    #[test]
    fn selection_is_among_candidates_only() {
        let mut p = DrillPolicy::new(2, 1, 1);
        let q = SlotQueues(&[0, 0, 0, 0, 0, 0]);
        let cand = [2u16, 4, 5];
        let mut rng = SimRng::seed_from(2);
        for _ in 0..100 {
            let sel = p.select(&ctx(&cand, 0), &q, &mut rng);
            assert!(cand.contains(&sel));
        }
        // Seeded DRILL(d, m) shapes, engine counts, queue states and
        // candidate subsets.
        for _ in 0..256 {
            let (d, m, engines) = (1 + rng.below(7), rng.below(8), 1 + rng.below(3));
            let n = 2 + rng.below(22);
            let lens: Vec<u64> = (0..n).map(|_| rng.below(200_000) as u64).collect();
            let q = SlotQueues(&lens);
            let k = 1 + rng.below(n);
            let cand: Vec<u16> = rng
                .sample_indices(n, k)
                .into_iter()
                .map(|i| i as u16)
                .collect();
            let mut p = DrillPolicy::new(d, m, engines);
            for round in 0..20 {
                let sel = p.select(&ctx(&cand, round % engines), &q, &mut rng);
                assert!(cand.contains(&sel), "DRILL({d},{m}) x{engines} chose {sel}");
            }
        }
    }

    #[test]
    fn memory_remembers_least_loaded() {
        let mut p = DrillPolicy::new(4, 2, 1);
        let q = SlotQueues(&[500, 100, 900, 50]);
        let cand = [0u16, 1, 2, 3];
        let mut rng = SimRng::seed_from(3);
        p.select(&ctx(&cand, 0), &q, &mut rng);
        // d=4 sees all ports; memory = two least loaded = {3, 1}.
        assert_eq!(p.memory(0), &[3, 1]);
    }

    #[test]
    fn memory_beats_bad_samples() {
        // d=1: a lone random sample would often pick a long queue, but the
        // remembered short port must win whenever sampled port is longer.
        let mut p = DrillPolicy::new(1, 1, 1);
        let q = SlotQueues(&[1000, 1000, 0, 1000]);
        let cand = [0u16, 1, 2, 3];
        let mut rng = SimRng::seed_from(4);
        // Warm memory: run until port 2 gets sampled once.
        let mut hits = 0;
        for _ in 0..50 {
            let sel = p.select(&ctx(&cand, 0), &q, &mut rng);
            if sel == 2 {
                hits += 1;
            }
        }
        assert!(hits > 0);
        // Once remembered, port 2 is chosen every time.
        for _ in 0..20 {
            assert_eq!(p.select(&ctx(&cand, 0), &q, &mut rng), 2);
            assert_eq!(p.memory(0), &[2]);
        }
    }

    #[test]
    fn zero_memory_forgets() {
        let mut p = DrillPolicy::new(1, 0, 1);
        let q = SlotQueues(&[1000, 0]);
        let cand = [0u16, 1];
        let mut rng = SimRng::seed_from(5);
        // With d=1, m=0, selection is uniform random regardless of load.
        let mut zeros = 0;
        for _ in 0..2000 {
            if p.select(&ctx(&cand, 0), &q, &mut rng) == 0 {
                zeros += 1;
            }
        }
        let frac = zeros as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.05, "uniform without memory: {frac}");
        assert!(p.memory(0).is_empty());
    }

    #[test]
    fn engines_have_independent_memory() {
        let mut p = DrillPolicy::new(4, 1, 2);
        let q = SlotQueues(&[10, 20, 30, 40]);
        let cand = [0u16, 1, 2, 3];
        let mut rng = SimRng::seed_from(6);
        p.select(&ctx(&cand, 0), &q, &mut rng);
        assert_eq!(p.memory(0), &[0]);
        assert!(p.memory(1).is_empty(), "engine 1 untouched");
        p.select(&ctx(&cand, 1), &q, &mut rng);
        assert_eq!(p.memory(1), &[0]);
    }

    #[test]
    fn memory_invalid_for_other_destination_is_ignored() {
        let mut p = DrillPolicy::new(1, 1, 1);
        let q = SlotQueues(&[0, 1000, 1000, 0]);
        let mut rng = SimRng::seed_from(7);
        // Warm memory on candidates {0,1}: remembers port 0.
        for _ in 0..20 {
            p.select(&ctx(&[0, 1], 0), &q, &mut rng);
        }
        assert_eq!(p.memory(0), &[0]);
        // Different destination with candidates {2,3}: the remembered port 0
        // must not be selected.
        for _ in 0..20 {
            let sel = p.select(&ctx(&[2, 3], 0), &q, &mut rng);
            assert!(sel == 2 || sel == 3);
        }
    }

    #[test]
    fn two_choices_beat_random_in_distribution() {
        // Statistical sanity: DRILL(2,1) lands on the shorter of two queues
        // far more often than 50%.
        let mut p = DrillPolicy::new(2, 1, 1);
        let q = SlotQueues(&[3000, 0, 3000, 3000]);
        let cand = [0u16, 1, 2, 3];
        let mut rng = SimRng::seed_from(8);
        let mut best = 0;
        for _ in 0..1000 {
            if p.select(&ctx(&cand, 0), &q, &mut rng) == 1 {
                best += 1;
            }
        }
        // With d=2 + memory of the best port, port 1 should dominate.
        assert!(best > 900, "short queue chosen {best}/1000");
    }
}
