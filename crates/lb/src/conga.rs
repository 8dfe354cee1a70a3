//! CONGA (Alizadeh et al., SIGCOMM 2014): distributed congestion-aware
//! flowlet balancing, modeled at the fidelity the DRILL paper compares
//! against.
//!
//! Mechanisms reproduced:
//!
//! * per-egress-port **DREs** (discounting rate estimators) with 3-bit
//!   quantization against link capacity;
//! * packets carry `(path, ce)` in an overlay tag; every hop maxes its own
//!   DRE into `ce`;
//! * the destination leaf records `ce` in its *congestion-from-leaf* table
//!   and piggybacks one feedback entry per reverse packet, which the source
//!   leaf stores in its *congestion-to-leaf* table — so path-quality
//!   information is delayed by (at least) one round trip, exactly the
//!   control-loop latency the DRILL paper's argument targets;
//! * **flowlet** switching: a flow re-chooses its uplink only after an idle
//!   gap, using `min over paths of max(local DRE, remote CE)`.
//!
//! Simplifications (documented in DESIGN.md): no table aging, and
//! non-leaf switches with upward choices (VL2 aggs) pick by local DRE only
//! (the paper's footnote runs CONGA decisions at ToR+Agg and ECMP at the
//! core; our agg decision uses the local half of CONGA's metric).

use std::io;

use drill_net::Packet;
use drill_net::{HopClass, QueueView, SelectCtx, SwitchId, SwitchPolicy, Topology};
use drill_sim::codec::{invalid, put_f64, put_time, put_varint, Decoder};
use drill_sim::{FxHashMap, SimRng, Time};

/// CONGA tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct CongaConfig {
    /// Idle gap after which a flow starts a new flowlet.
    pub flowlet_gap: Time,
    /// DRE time constant (exponential decay).
    pub dre_tau: Time,
    /// Maximum quantized congestion value (3 bits -> 7).
    pub q_max: u8,
}

impl Default for CongaConfig {
    fn default() -> Self {
        CongaConfig {
            flowlet_gap: Time::from_micros(500),
            dre_tau: Time::from_micros(160),
            q_max: 7,
        }
    }
}

/// A discounting rate estimator: X grows with transmitted bytes and decays
/// exponentially with time constant tau.
#[derive(Clone, Copy, Debug, Default)]
struct Dre {
    x: f64,
    last: Time,
}

impl Dre {
    fn decayed(&self, now: Time, tau: Time) -> f64 {
        let dt = now.saturating_sub(self.last).as_nanos() as f64;
        self.x * (-dt / tau.as_nanos() as f64).exp()
    }

    fn add(&mut self, bytes: u32, now: Time, tau: Time) {
        self.x = self.decayed(now, tau) + bytes as f64;
        self.last = now;
    }

    /// Estimated rate in bits/s: steady state X = rate * tau.
    fn rate_bps(&self, now: Time, tau: Time) -> f64 {
        self.decayed(now, tau) * 8.0 / tau.as_secs_f64()
    }
}

/// Per-switch CONGA state.
pub struct CongaPolicy {
    cfg: CongaConfig,
    switch: SwitchId,
    is_leaf: bool,
    /// Per-port DREs and capacities.
    dre: Vec<Dre>,
    port_rate: Vec<u64>,
    /// Port -> uplink index (None for down/host ports).
    uplink_index: Vec<Option<u16>>,
    /// Fabric-wide maximum uplink count (table width).
    max_uplinks: usize,
    /// `[remote_leaf][path]` congestion of *our -> remote* paths (from
    /// feedback). Drives path selection.
    to_table: Vec<Vec<u8>>,
    /// `[remote_leaf][path]` congestion of *remote -> our* paths (measured
    /// here). Source of feedback.
    from_table: Vec<Vec<u8>>,
    /// Per-remote-leaf feedback round-robin pointer.
    fb_ptr: Vec<u16>,
    /// Active flowlets: flow hash -> (last packet time, port).
    flowlets: FxHashMap<u64, (Time, u16)>,
}

impl CongaPolicy {
    /// Build CONGA state for `switch` over the given topology.
    pub fn build(topo: &Topology, switch: SwitchId, cfg: CongaConfig) -> CongaPolicy {
        let n_ports = topo.num_ports(switch);
        let is_leaf = topo.switch_kind(switch) == drill_net::SwitchKind::Leaf;
        let mut uplink_index = vec![None; n_ports];
        let mut port_rate = vec![0u64; n_ports];
        let mut next_uplink = 0u16;
        for p in 0..n_ports as u16 {
            let link = topo.egress(switch, p);
            port_rate[p as usize] = link.rate_bps;
            if matches!(link.hop, HopClass::LeafUp | HopClass::AggUp) {
                uplink_index[p as usize] = Some(next_uplink);
                next_uplink += 1;
            }
        }
        // Fabric-wide maximum uplink count, so tables can index any remote
        // leaf's path ids.
        let max_uplinks = topo
            .leaves()
            .iter()
            .map(|&l| {
                (0..topo.num_ports(l) as u16)
                    .filter(|&p| topo.egress(l, p).hop == HopClass::LeafUp)
                    .count()
            })
            .max()
            .unwrap_or(0)
            .max(1);
        let n_leaves = topo.num_leaves();
        CongaPolicy {
            cfg,
            switch,
            is_leaf,
            dre: vec![Dre::default(); n_ports],
            port_rate,
            uplink_index,
            max_uplinks,
            to_table: vec![vec![0; max_uplinks]; n_leaves],
            from_table: vec![vec![0; max_uplinks]; n_leaves],
            fb_ptr: vec![0; n_leaves],
            flowlets: FxHashMap::default(),
        }
    }

    fn quantize(&self, port: u16, now: Time) -> u8 {
        let rate = self.dre[port as usize].rate_bps(now, self.cfg.dre_tau);
        let cap = self.port_rate[port as usize] as f64;
        let q = (rate / cap * (self.cfg.q_max as f64 + 1.0)).floor();
        (q as u8).min(self.cfg.q_max)
    }

    /// Congestion-to-leaf table entry (tests/diagnostics).
    pub fn congestion_to(&self, leaf: u32, path: u16) -> u8 {
        self.to_table[leaf as usize][path as usize]
    }

    /// Congestion-from-leaf table entry (tests/diagnostics).
    pub fn congestion_from(&self, leaf: u32, path: u16) -> u8 {
        self.from_table[leaf as usize][path as usize]
    }

    /// Number of live flowlet entries (tests/diagnostics).
    pub fn active_flowlets(&self) -> usize {
        self.flowlets.len()
    }
}

impl SwitchPolicy for CongaPolicy {
    fn select(&mut self, ctx: &SelectCtx<'_>, _q: &dyn QueueView, rng: &mut SimRng) -> u16 {
        // Flowlet stickiness.
        if let Some(&(last, port)) = self.flowlets.get(&ctx.flow_hash) {
            if ctx.now.saturating_sub(last) < self.cfg.flowlet_gap && ctx.candidates.contains(&port)
            {
                self.flowlets.insert(ctx.flow_hash, (ctx.now, port));
                return port;
            }
        }
        // New flowlet: min over candidates of max(local DRE, remote CE).
        let mut best: Vec<u16> = Vec::new();
        let mut best_metric = u8::MAX;
        for &p in ctx.candidates {
            let local = self.quantize(p, ctx.now);
            // Leaf-to-leaf feedback only exists at leaves; transit switches
            // with upward choices (VL2 aggs) use their local DREs (the
            // core applies ECMP-like decisions in the paper's footnote).
            let remote = if self.is_leaf {
                self.uplink_index[p as usize]
                    .and_then(|u| {
                        self.to_table[ctx.dst_leaf as usize]
                            .get(u as usize)
                            .copied()
                    })
                    .unwrap_or(0)
            } else {
                0
            };
            let metric = local.max(remote);
            match metric.cmp(&best_metric) {
                std::cmp::Ordering::Less => {
                    best_metric = metric;
                    best.clear();
                    best.push(p);
                }
                std::cmp::Ordering::Equal => best.push(p),
                std::cmp::Ordering::Greater => {}
            }
        }
        let chosen = best[rng.below(best.len())];
        self.flowlets.insert(ctx.flow_hash, (ctx.now, chosen));
        chosen
    }

    fn on_forward(
        &mut self,
        pkt: &mut Packet,
        port: u16,
        now: Time,
        topo: &Topology,
        _switch: SwitchId,
        from_host: bool,
    ) {
        self.dre[port as usize].add(pkt.size, now, self.cfg.dre_tau);
        let ce_here = self.quantize(port, now);
        let uplink = self.uplink_index[port as usize];
        if self.is_leaf && from_host {
            if let Some(u) = uplink {
                // Source leaf: stamp the path tag and attach feedback.
                pkt.conga.path = u;
                pkt.conga.ce = ce_here;
                let dst_leaf = topo.host_leaf_index(pkt.dst) as usize;
                let ptr = self.fb_ptr[dst_leaf];
                pkt.conga.fb_path = ptr;
                pkt.conga.fb_ce = self.from_table[dst_leaf][ptr as usize];
                pkt.conga.fb_valid = true;
                self.fb_ptr[dst_leaf] = (ptr + 1) % self.max_uplinks as u16;
            }
        } else {
            // Transit hop: aggregate the congestion extent.
            pkt.conga.ce = pkt.conga.ce.max(ce_here);
        }
    }

    fn on_arrival(&mut self, pkt: &mut Packet, _now: Time, topo: &Topology, switch: SwitchId) {
        if !self.is_leaf || topo.host_leaf(pkt.dst) != switch {
            return;
        }
        let src_leaf = topo.host_leaf_index(pkt.src) as usize;
        if SwitchId(self.switch.0) == topo.host_leaf(pkt.src) {
            return; // intra-leaf traffic carries no fabric metrics
        }
        if (pkt.conga.path as usize) < self.max_uplinks {
            self.from_table[src_leaf][pkt.conga.path as usize] = pkt.conga.ce;
        }
        if pkt.conga.fb_valid && (pkt.conga.fb_path as usize) < self.max_uplinks {
            self.to_table[src_leaf][pkt.conga.fb_path as usize] = pkt.conga.fb_ce;
        }
    }

    fn save_state(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.dre.len() as u64);
        for d in &self.dre {
            put_f64(buf, d.x);
            put_time(buf, d.last);
        }
        for table in [&self.to_table, &self.from_table] {
            put_varint(buf, table.len() as u64);
            for row in table.iter() {
                put_varint(buf, row.len() as u64);
                buf.extend_from_slice(row);
            }
        }
        put_varint(buf, self.fb_ptr.len() as u64);
        for &p in &self.fb_ptr {
            put_varint(buf, p as u64);
        }
        // Sort: FxHashMap iteration order depends on insertion history.
        let mut fl: Vec<(u64, (Time, u16))> = self.flowlets.iter().map(|(&h, &v)| (h, v)).collect();
        fl.sort_unstable_by_key(|&(h, _)| h);
        put_varint(buf, fl.len() as u64);
        for (h, (last, port)) in fl {
            put_varint(buf, h);
            put_time(buf, last);
            put_varint(buf, port as u64);
        }
    }

    fn load_state(&mut self, d: &mut Decoder<'_>) -> io::Result<()> {
        if d.varint_usize()? != self.dre.len() {
            return Err(invalid("CONGA DRE count mismatch"));
        }
        for dre in &mut self.dre {
            dre.x = d.f64_fixed()?;
            dre.last = d.time()?;
        }
        for table in [&mut self.to_table, &mut self.from_table] {
            if d.varint_usize()? != table.len() {
                return Err(invalid("CONGA table leaf count mismatch"));
            }
            for row in table.iter_mut() {
                let w = d.varint_usize()?;
                if w != row.len() {
                    return Err(invalid("CONGA table width mismatch"));
                }
                row.copy_from_slice(d.bytes(w)?);
            }
        }
        if d.varint_usize()? != self.fb_ptr.len() {
            return Err(invalid("CONGA feedback pointer count mismatch"));
        }
        for p in &mut self.fb_ptr {
            *p = d.varint_u16()?;
        }
        let n = d.varint_usize()?;
        self.flowlets.clear();
        for _ in 0..n {
            let h = d.varint()?;
            let last = d.time()?;
            let port = d.varint_u16()?;
            self.flowlets.insert(h, (last, port));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drill_net::{leaf_spine, FlowId, HostId, LeafSpineSpec, RouteTable, DEFAULT_PROP};

    fn topo() -> (Topology, RouteTable) {
        let t = leaf_spine(&LeafSpineSpec {
            spines: 4,
            leaves: 2,
            hosts_per_leaf: 2,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        });
        let r = RouteTable::compute(&t);
        (t, r)
    }

    struct NoQueues;
    impl QueueView for NoQueues {
        fn visible_bytes(&self, _p: u16) -> u64 {
            0
        }
        fn visible_pkts(&self, _p: u16) -> u32 {
            0
        }
        fn num_ports(&self) -> usize {
            8
        }
    }

    fn ctx(candidates: &[u16], flow_hash: u64, now: Time) -> SelectCtx<'_> {
        SelectCtx {
            now,
            engine: 0,
            flow_hash,
            flow: FlowId(0),
            dst_leaf: 1,
            candidates,
        }
    }

    fn data_pkt(src: HostId, dst: HostId) -> Packet {
        Packet::data(1, FlowId(0), src, dst, 0xafaf, 0, 1460, Time::ZERO)
    }

    #[test]
    fn dre_decays() {
        let mut d = Dre::default();
        let tau = Time::from_micros(160);
        d.add(150_000, Time::ZERO, tau);
        let r0 = d.rate_bps(Time::ZERO, tau);
        let r1 = d.rate_bps(Time::from_micros(160), tau);
        let r2 = d.rate_bps(Time::from_micros(1600), tau);
        assert!(r0 > r1 && r1 > r2);
        assert!((r1 / r0 - (-1.0f64).exp()).abs() < 1e-9, "one tau = e^-1");
        assert!(r2 / r0 < 1e-4);
    }

    #[test]
    fn flowlet_sticks_within_gap() {
        let (t, _r) = topo();
        let leaf = t.leaves()[0];
        let mut c = CongaPolicy::build(&t, leaf, CongaConfig::default());
        let mut rng = SimRng::seed_from(1);
        let cand = [0u16, 1, 2, 3];
        let first = c.select(&ctx(&cand, 7, Time::ZERO), &NoQueues, &mut rng);
        // Within the 500us gap the flow never moves, regardless of load.
        for k in 1..50u64 {
            let now = Time::from_micros(k * 9);
            assert_eq!(c.select(&ctx(&cand, 7, now), &NoQueues, &mut rng), first);
        }
        assert_eq!(c.active_flowlets(), 1);
    }

    #[test]
    fn new_flowlet_after_gap_can_move() {
        let (t, _r) = topo();
        let leaf = t.leaves()[0];
        let mut c = CongaPolicy::build(&t, leaf, CongaConfig::default());
        let mut rng = SimRng::seed_from(2);
        let cand = [0u16, 1, 2, 3];
        let first = c.select(&ctx(&cand, 7, Time::ZERO), &NoQueues, &mut rng);
        // Make the chosen path look congested remotely.
        let u = c.uplink_index[first as usize].unwrap();
        c.to_table[1][u as usize] = 7;
        let later = Time::from_millis(10); // > gap
        let second = c.select(&ctx(&cand, 7, later), &NoQueues, &mut rng);
        assert_ne!(second, first, "congested path avoided for the new flowlet");
    }

    #[test]
    fn selection_minimizes_max_of_local_and_remote() {
        let (t, _r) = topo();
        let leaf = t.leaves()[0];
        let mut c = CongaPolicy::build(&t, leaf, CongaConfig::default());
        let mut rng = SimRng::seed_from(3);
        let cand = [0u16, 1];
        // Remote says path of port0 is 5; make port1's local DRE ~6/8 of
        // capacity: it should still lose (6 > 5)... then pick port0.
        c.to_table[1][c.uplink_index[0].unwrap() as usize] = 5;
        // Saturate port 1's DRE: rate ~= capacity -> q = 7.
        let now = Time::from_micros(100);
        for _ in 0..2000 {
            c.dre[1].add(1500, now, c.cfg.dre_tau);
        }
        let pick = c.select(&ctx(&cand, 9, now), &NoQueues, &mut rng);
        assert_eq!(pick, 0, "max(0,5) < max(7,0)");
    }

    #[test]
    fn feedback_roundtrip_updates_to_table() {
        let (t, _r) = topo();
        let leaf0 = t.leaves()[0];
        let leaf1 = t.leaves()[1];
        let mut a = CongaPolicy::build(&t, leaf0, CongaConfig::default());
        let mut b = CongaPolicy::build(&t, leaf1, CongaConfig::default());
        // Host0 (leaf0) -> host2 (leaf1). A stamps path/ce on forward.
        let mut fwd = data_pkt(HostId(0), HostId(2));
        // Saturate A's port 0 DRE so ce > 0.
        for _ in 0..2000 {
            a.dre[0].add(1500, Time::from_micros(50), a.cfg.dre_tau);
        }
        a.on_forward(&mut fwd, 0, Time::from_micros(50), &t, leaf0, true);
        assert!(fwd.conga.ce > 0);
        assert_eq!(fwd.conga.path, a.uplink_index[0].unwrap());
        // B receives: from-table records A->B congestion on that path.
        b.on_arrival(&mut fwd, Time::from_micros(60), &t, leaf1);
        assert_eq!(b.congestion_from(0, fwd.conga.path), fwd.conga.ce);
        // B sends a reverse packet to A, piggybacking feedback about the
        // A->B path it just measured (fb pointer cycles; force it).
        b.fb_ptr[0] = fwd.conga.path;
        let mut rev = data_pkt(HostId(2), HostId(0));
        b.on_forward(&mut rev, 0, Time::from_micros(70), &t, leaf1, true);
        assert!(rev.conga.fb_valid);
        assert_eq!(rev.conga.fb_path, fwd.conga.path);
        assert_eq!(rev.conga.fb_ce, fwd.conga.ce);
        // A receives the reverse packet: to-table now knows the congestion.
        a.on_arrival(&mut rev, Time::from_micros(80), &t, leaf0);
        assert_eq!(a.congestion_to(1, fwd.conga.path), fwd.conga.ce);
    }

    #[test]
    fn transit_hop_maxes_ce() {
        let (t, _r) = topo();
        // Spine (id 2) is not a leaf: on_forward must only aggregate.
        let spine = SwitchId(2);
        let mut s = CongaPolicy::build(&t, spine, CongaConfig::default());
        let mut pkt = data_pkt(HostId(0), HostId(2));
        pkt.conga.ce = 3;
        s.on_forward(&mut pkt, 0, Time::ZERO, &t, spine, false);
        assert!(pkt.conga.ce >= 3, "never decreases");
        // Saturate the spine's DRE and check it raises ce.
        for _ in 0..4000 {
            s.dre[1].add(1500, Time::from_micros(10), s.cfg.dre_tau);
        }
        let mut pkt2 = data_pkt(HostId(0), HostId(2));
        pkt2.conga.ce = 1;
        s.on_forward(&mut pkt2, 1, Time::from_micros(10), &t, spine, false);
        assert!(pkt2.conga.ce > 1);
    }

    #[test]
    fn quantization_is_three_bits() {
        let (t, _r) = topo();
        let leaf = t.leaves()[0];
        let mut c = CongaPolicy::build(&t, leaf, CongaConfig::default());
        assert_eq!(c.quantize(0, Time::ZERO), 0, "idle port");
        for _ in 0..100_000 {
            c.dre[0].add(15_000, Time::from_micros(10), c.cfg.dre_tau);
        }
        assert_eq!(
            c.quantize(0, Time::from_micros(10)),
            7,
            "saturated port caps at 7"
        );
    }

    #[test]
    fn uplink_detection() {
        let (t, _r) = topo();
        let leaf = t.leaves()[0];
        let c = CongaPolicy::build(&t, leaf, CongaConfig::default());
        // 4 spine ports then 2 host ports.
        assert_eq!(c.uplink_index[0], Some(0));
        assert_eq!(c.uplink_index[3], Some(3));
        assert_eq!(c.uplink_index[4], None);
        assert_eq!(c.max_uplinks, 4);
    }
}
