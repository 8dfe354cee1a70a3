//! The workload layer's state: the workload RNG stream, the background
//! arrival process with its pre-drawn next flow, and the bound
//! destination patterns.

use std::io;

use drill_net::{HopClass, HostId, Topology};
use drill_sim::codec::{invalid, put_bool, put_time, put_varint, Decoder};
use drill_sim::{EventQueue, SimRng, Time};
use drill_workload::{aggregate_flow_rate, ArrivalProcess, FlowSpec, TrafficPattern, WorkloadGen};

use super::{Event, Packed};
use crate::config::ExperimentConfig;

pub(super) struct Workload {
    /// Every workload draw: arrival gaps, destinations, flow hashes.
    pub(super) rng: SimRng,
    /// Background arrivals (`None` in synthetic mode or at zero load).
    gen: Option<WorkloadGen>,
    /// The pre-drawn next background flow, due at the pending
    /// `FlowArrival`.
    pub(super) pending: Option<FlowSpec>,
    /// Table 1's elephant destinations (synthetic mode only).
    synth: Option<TrafficPattern>,
    /// Table 1's mice destinations: any host under another leaf
    /// (synthetic mode only). Bound `Uniform` has no cursor, so it is not
    /// saved.
    mice: Option<TrafficPattern>,
}

impl Workload {
    pub(super) fn new(cfg: &ExperimentConfig, topo: &Topology) -> Workload {
        let mut rng = SimRng::derive(cfg.seed, "workload", 0);
        let leaf_of: Vec<u32> = (0..topo.num_hosts() as u32)
            .map(|h| topo.host_leaf_index(HostId(h)))
            .collect();
        let gen = (cfg.synthetic.is_none() && cfg.workload.load > 0.0).then(|| {
            let w = &cfg.workload;
            // Offered load is defined against the *available* core capacity
            // (the paper loads "up to 90% of the available core capacity"
            // in its failure experiments), so count only live links.
            let avail_core_bps: u64 = topo
                .links()
                .iter()
                .filter(|l| l.up && l.hop == HopClass::LeafUp)
                .map(|l| l.rate_bps)
                .sum();
            let rate = aggregate_flow_rate(w.load, avail_core_bps, w.sizes.mean());
            let arrivals = if w.burst_sigma > 0.0 {
                ArrivalProcess::lognormal(rate, w.burst_sigma)
            } else {
                ArrivalProcess::poisson(rate)
            };
            let (sizes, leaves) = (w.sizes.clone(), leaf_of.clone());
            WorkloadGen::new(sizes, arrivals, w.pattern.clone(), leaves, &mut rng)
        });
        let synth = cfg.synthetic.as_ref().map(|_| {
            let pattern = cfg.workload.pattern.clone();
            pattern.bind(leaf_of.clone(), &mut rng)
        });
        let mice = cfg.synthetic.as_ref().map(|_| {
            // Binding `Uniform` draws nothing from `rng`.
            TrafficPattern::Uniform.bind(leaf_of, &mut rng)
        });
        Workload {
            rng,
            gen,
            pending: None,
            synth,
            mice,
        }
    }

    /// Draw the next background flow and schedule its arrival.
    pub(super) fn next_arrival(&mut self, now: Time, queue: &mut EventQueue<Packed>) {
        if let Some(g) = self.gen.as_mut() {
            let next = g.next_flow(&mut self.rng);
            queue.push(now + next.gap, Event::FlowArrival.into());
            self.pending = Some(next);
        }
    }

    /// The next mice destination for `src`: a uniformly drawn host under
    /// another leaf.
    pub(super) fn mice_dst(&mut self, src: u32) -> u32 {
        let pattern = self.mice.as_mut();
        let pattern = pattern.expect("synthetic mode has a mice pattern");
        pattern.pick_dst(src, &mut self.rng)
    }

    /// The synthetic pattern's next elephant destination for `src`.
    pub(super) fn elephant_dst(&mut self, src: u32) -> u32 {
        let pattern = self.synth.as_mut();
        let pattern = pattern.expect("synthetic mode has a bound pattern");
        pattern.pick_dst(src, &mut self.rng)
    }

    /// The pre-drawn next flow and the pattern cursors (their slice of the
    /// `WORKLOAD` section; bound structure is rebuilt from the config).
    pub(super) fn save_cursors(&self, buf: &mut Vec<u8>) {
        put_bool(buf, self.pending.is_some());
        if let Some(spec) = &self.pending {
            put_time(buf, spec.gap);
            put_varint(buf, spec.src as u64);
            put_varint(buf, spec.dst as u64);
            put_varint(buf, spec.bytes);
        }
        let patterns = [
            self.gen.as_ref().map(WorkloadGen::pattern),
            self.synth.as_ref(),
        ];
        for pattern in patterns {
            put_bool(buf, pattern.is_some());
            if let Some(p) = pattern {
                p.save_cursors(buf);
            }
        }
    }

    pub(super) fn load_cursors(&mut self, d: &mut Decoder<'_>) -> io::Result<()> {
        self.pending = if d.bool()? {
            Some(FlowSpec {
                gap: d.time()?,
                src: d.varint_u32()?,
                dst: d.varint_u32()?,
                bytes: d.varint()?,
            })
        } else {
            None
        };
        if d.bool()? != self.gen.is_some() {
            return Err(invalid("workload generator presence mismatch"));
        }
        if let Some(g) = self.gen.as_mut() {
            g.pattern_mut().load_cursors(d)?;
        }
        if d.bool()? != self.synth.is_some() {
            return Err(invalid("synthetic pattern presence mismatch"));
        }
        if let Some(p) = self.synth.as_mut() {
            p.load_cursors(d)?;
        }
        Ok(())
    }
}
