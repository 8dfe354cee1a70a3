//! `DRILLSNAP` capture and restore of a [`World`] mid-flight.
//!
//! A snapshot records the *dynamic* state only: pending events (as a flat
//! `(time, seq)`-sorted list — where an event waits inside the wheel is
//! not simulation state), the packet arena, switch/NIC/policy state (a
//! NIC's unsent raw-flow trains included), TCP flows and shims, RNG
//! streams, workload cursors and raw-flow counters, and the in-run
//! statistics scalars. Everything structural — the topology, routes,
//! bound traffic patterns — is rebuilt from the restore config, with the
//! applied fault prefix replayed on top so the link/route state lands
//! exactly where the saved run left it.
//!
//! Restore accepts a *different* fault timeline than the one saved, as
//! long as it agrees on the already-struck prefix: not-yet-struck entries
//! are re-injected from the restore config's own schedule (stamped from
//! the reserved [`FAULT_SEQ_BASE`] band, exactly as a cold run stamps
//! them), which is what lets a warm-started sweep fork one warmed-up
//! snapshot into many divergent fault scenarios.

use std::io;

use drill_faults::FaultKind;
use drill_net::snapio::{get_net_event, put_net_event};
use drill_net::{HostId, PacketArena, RouteTable, SwitchId};
use drill_sim::codec::{
    invalid, put_f64, put_u64, put_varint, CodecError, CodecErrorKind, Decoder,
};
use drill_sim::{SimRng, Time};
use drill_snapshot::{Snapshot, SnapshotBuilder};
use drill_stats::Moments;
use drill_telemetry::{NoopProbe, Probe};
use drill_transport::{ShimBuffer, TcpFlow};

use super::{rebuild_switch, Event, FlowClass, World};
use crate::config::ExperimentConfig;
use crate::Scheme;

/// Reserved sequence band for fault injections. Ordinary events consume
/// the global FIFO sequence from zero; fault strikes are stamped
/// `FAULT_SEQ_BASE + timeline index` so they (a) pop after every ordinary
/// event sharing their timestamp, deterministically ordered by index, and
/// (b) can be re-injected at restore — from a possibly divergent
/// schedule — without perturbing any other event's sequence.
pub(crate) const FAULT_SEQ_BASE: u64 = 1 << 62;

// Section tags. New sections may be appended in later versions; readers
// skip unknown tags by construction.
const SEC_META: u8 = 1;
const SEC_ARENAS: u8 = 2;
const SEC_SWITCHES: u8 = 3;
const SEC_NICS: u8 = 4;
const SEC_HOST_POLICIES: u8 = 5;
const SEC_FLOWS: u8 = 6;
const SEC_WORKLOAD: u8 = 7;
const SEC_FAULTS: u8 = 8;
const SEC_STATS: u8 = 9;
const SEC_EVENTS: u8 = 10;

// Pending-event tags (Event::Fault is never serialized: the not-yet-struck
// suffix is re-injected from the restore config's timeline).
const EV_NET: u8 = 0;
const EV_FLOW_ARRIVAL: u8 = 1;
const EV_INCAST_EPOCH: u8 = 2;
const EV_MICE_TICK: u8 = 3;
const EV_TCP_TIMER: u8 = 4;
const EV_SHIM_TIMER: u8 = 5;
const EV_SAMPLE_QUEUES: u8 = 6;
const EV_RECONVERGE: u8 = 7;

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

fn get_bool(d: &mut Decoder<'_>) -> io::Result<bool> {
    match d.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(invalid("bad bool byte")),
    }
}

fn put_time(buf: &mut Vec<u8>, t: Time) {
    put_varint(buf, t.as_nanos());
}

fn get_time(d: &mut Decoder<'_>) -> io::Result<Time> {
    Ok(Time::from_nanos(d.varint()?))
}

fn put_fault_kind(buf: &mut Vec<u8>, k: &FaultKind) {
    match *k {
        FaultKind::LinkDown { a, b } => {
            buf.push(0);
            put_varint(buf, a as u64);
            put_varint(buf, b as u64);
        }
        FaultKind::LinkUp { a, b } => {
            buf.push(1);
            put_varint(buf, a as u64);
            put_varint(buf, b as u64);
        }
        FaultKind::SwitchDown { switch } => {
            buf.push(2);
            put_varint(buf, switch as u64);
        }
        FaultKind::SwitchUp { switch } => {
            buf.push(3);
            put_varint(buf, switch as u64);
        }
        FaultKind::Degrade { a, b, num, den } => {
            buf.push(4);
            put_varint(buf, a as u64);
            put_varint(buf, b as u64);
            put_varint(buf, num as u64);
            put_varint(buf, den as u64);
        }
        FaultKind::SetLoss { a, b, ppm } => {
            buf.push(5);
            put_varint(buf, a as u64);
            put_varint(buf, b as u64);
            put_varint(buf, ppm as u64);
        }
    }
}

fn get_fault_kind(d: &mut Decoder<'_>) -> io::Result<FaultKind> {
    Ok(match d.u8()? {
        0 => FaultKind::LinkDown {
            a: d.varint_u32()?,
            b: d.varint_u32()?,
        },
        1 => FaultKind::LinkUp {
            a: d.varint_u32()?,
            b: d.varint_u32()?,
        },
        2 => FaultKind::SwitchDown {
            switch: d.varint_u32()?,
        },
        3 => FaultKind::SwitchUp {
            switch: d.varint_u32()?,
        },
        4 => FaultKind::Degrade {
            a: d.varint_u32()?,
            b: d.varint_u32()?,
            num: d.varint_u32()?,
            den: d.varint_u32()?,
        },
        5 => FaultKind::SetLoss {
            a: d.varint_u32()?,
            b: d.varint_u32()?,
            ppm: d.varint_u32()?,
        },
        _ => return Err(invalid("unknown fault kind tag")),
    })
}

/// The required section `tag`, as a decoder labeled with the tag so any
/// decode error carries (section, byte offset).
fn section<'a>(snap: &'a Snapshot, tag: u8) -> io::Result<Decoder<'a>> {
    match snap.section(tag) {
        Some(body) => Ok(Decoder::in_section(body, tag)),
        None => Err(CodecError {
            section: Some(tag),
            offset: None,
            kind: CodecErrorKind::Invalid("missing DRILLSNAP section".to_string()),
        }
        .into()),
    }
}

/// Every section must be consumed exactly — trailing bytes mean the
/// writer and reader disagree about the layout.
fn done(d: &Decoder<'_>) -> io::Result<()> {
    if d.remaining() != 0 {
        return Err(invalid("trailing bytes in DRILLSNAP section"));
    }
    Ok(())
}

impl<P: Probe> World<P> {
    /// Capture the complete dynamic state as a [`Snapshot`].
    ///
    /// Must be called between events (never from inside a dispatch); the
    /// event loop's checkpoint hook and the stepwise
    /// [`run_to`](World::run_to) boundary both satisfy this.
    pub fn snapshot(&self) -> Snapshot {
        debug_assert!(self.net_buf.is_empty(), "snapshot between dispatches");
        // Distributions and per-flow aggregates are filled by finalize();
        // mid-run they are provably empty, so only scalars serialize.
        debug_assert_eq!(self.stats.fct_ms.count(), 0, "snapshot of a finalized run");
        debug_assert_eq!(self.stats.flows_completed, 0);

        let mut b = SnapshotBuilder::new();

        // META: engine identity + clock.
        let mut buf = Vec::new();
        put_varint(&mut buf, self.switches.len() as u64);
        put_varint(&mut buf, self.nics.len() as u64);
        put_varint(&mut buf, self.cfg.engines as u64);
        put_time(&mut buf, self.queue.now());
        put_varint(&mut buf, self.queue.next_seq());
        put_varint(&mut buf, self.queue.events_processed());
        b.section(SEC_META, buf);

        // ARENAS: wholesale slot + free-list state.
        let mut buf = Vec::new();
        self.arena.save_state(&mut buf);
        b.section(SEC_ARENAS, buf);

        // SWITCHES: queues, in-flight heads, counters, policy state.
        let mut buf = Vec::new();
        put_varint(&mut buf, self.switches.len() as u64);
        for sw in &self.switches {
            sw.save_state(&self.arena, &mut buf);
        }
        b.section(SEC_SWITCHES, buf);

        // NICS.
        let mut buf = Vec::new();
        put_varint(&mut buf, self.nics.len() as u64);
        for nic in &self.nics {
            nic.save_state(&self.arena, &mut buf);
        }
        b.section(SEC_NICS, buf);

        // HOST POLICIES (stateless policies write nothing).
        let mut buf = Vec::new();
        put_varint(&mut buf, self.host_policies.len() as u64);
        for p in &self.host_policies {
            p.save_state(&mut buf);
        }
        b.section(SEC_HOST_POLICIES, buf);

        // FLOWS: TCP state + class/measured/shim + the RTO timer triple
        // (scheduled generation, deadline, live wake). Without the last
        // two a restored world would ignore every pending wake.
        let mut buf = Vec::new();
        put_varint(&mut buf, self.flows.len() as u64);
        for (i, f) in self.flows.iter().enumerate() {
            f.save_state(&mut buf);
            buf.push(match self.classes[i] {
                FlowClass::Background => 0,
                FlowClass::Incast => 1,
                FlowClass::Mice => 2,
                FlowClass::Elephant => 3,
            });
            put_bool(&mut buf, self.measured[i]);
            match &self.shims[i] {
                Some(shim) => {
                    put_bool(&mut buf, true);
                    shim.save_state(&self.arena, &mut buf);
                }
                None => put_bool(&mut buf, false),
            }
            put_varint(&mut buf, self.sched_gen[i]);
            put_time(&mut buf, self.rto_due[i]);
            put_time(&mut buf, self.rto_wake[i]);
        }
        b.section(SEC_FLOWS, buf);

        // WORKLOAD: RNG streams, packet ids, the raw-flow counters (all
        // that remains of a raw flow outside its NIC), the pre-drawn next
        // flow, and pattern cursors (bound structure is rebuilt from the
        // config).
        let mut buf = Vec::new();
        for w in self.rng_net.state() {
            put_u64(&mut buf, w);
        }
        for w in self.rng_wl.state() {
            put_u64(&mut buf, w);
        }
        put_varint(&mut buf, self.pkt_ids);
        put_varint(&mut buf, self.raw_flows as u64);
        put_varint(&mut buf, self.raw_measured);
        put_varint(&mut buf, self.raw_elephants);
        match &self.pending_flow {
            Some(spec) => {
                put_bool(&mut buf, true);
                put_time(&mut buf, spec.gap);
                put_varint(&mut buf, spec.src as u64);
                put_varint(&mut buf, spec.dst as u64);
                put_varint(&mut buf, spec.bytes);
            }
            None => put_bool(&mut buf, false),
        }
        match &self.gen {
            Some(g) => {
                put_bool(&mut buf, true);
                g.pattern().save_cursors(&mut buf);
            }
            None => put_bool(&mut buf, false),
        }
        match &self.synth_pattern {
            Some(p) => {
                put_bool(&mut buf, true);
                p.save_cursors(&mut buf);
            }
            None => put_bool(&mut buf, false),
        }
        b.section(SEC_WORKLOAD, buf);

        // FAULTS: applied prefix (for the restore-compatibility check and
        // injector replay) + window accounting. The injector itself is not
        // serialized: replaying the prefix reproduces its crash state.
        let mut buf = Vec::new();
        put_varint(&mut buf, self.faults_applied);
        put_varint(&mut buf, self.faults_applied_at_reconv);
        put_varint(&mut buf, self.reconv_gen);
        match self.window_open_at {
            Some(t) => {
                put_bool(&mut buf, true);
                put_time(&mut buf, t);
            }
            None => put_bool(&mut buf, false),
        }
        put_varint(&mut buf, self.blackhole_mark);
        put_varint(&mut buf, self.fault_windows.len() as u64);
        for &(a, z) in &self.fault_windows {
            put_time(&mut buf, a);
            put_time(&mut buf, z);
        }
        for &(at, kind, delay) in &self.faults[..self.faults_applied as usize] {
            put_time(&mut buf, at);
            put_fault_kind(&mut buf, &kind);
            put_time(&mut buf, delay);
        }
        b.section(SEC_FAULTS, buf);

        // STATS: the in-run scalars only.
        let mut buf = Vec::new();
        put_varint(&mut buf, self.stats.flows_started);
        let (n, mean, m2, min, max) = self.stats.queue_stdv.state();
        put_varint(&mut buf, n);
        for v in [mean, m2, min, max] {
            put_f64(&mut buf, v);
        }
        put_varint(&mut buf, self.stats.fault_events);
        put_varint(&mut buf, self.stats.reconvergences);
        put_varint(&mut buf, self.stats.fault_blackholed);
        put_varint(&mut buf, self.stats.fault_window_ns);
        put_time(&mut buf, self.stats.stable_at);
        put_varint(&mut buf, self.data_delivered);
        put_varint(&mut buf, self.bytes_delivered);
        b.section(SEC_STATS, buf);

        // EVENTS: every pending event except fault strikes, as a flat
        // `(time, seq)`-sorted list.
        let mut entries: Vec<(u64, u64, Vec<u8>)> = Vec::new();
        self.queue.for_each_pending(|t, seq, &ev| {
            let mut body = Vec::new();
            match Event::from(ev) {
                Event::Fault { .. } => return,
                Event::Net(ne) => {
                    body.push(EV_NET);
                    put_net_event(&mut body, &self.arena, &ne);
                }
                Event::FlowArrival => body.push(EV_FLOW_ARRIVAL),
                Event::IncastEpoch => body.push(EV_INCAST_EPOCH),
                Event::MiceTick => body.push(EV_MICE_TICK),
                Event::TcpTimer { flow } => {
                    body.push(EV_TCP_TIMER);
                    put_varint(&mut body, flow as u64);
                }
                Event::ShimTimer { flow, gen } => {
                    body.push(EV_SHIM_TIMER);
                    put_varint(&mut body, flow as u64);
                    put_varint(&mut body, gen);
                }
                Event::SampleQueues => body.push(EV_SAMPLE_QUEUES),
                Event::Reconverge { gen } => {
                    body.push(EV_RECONVERGE);
                    put_varint(&mut body, gen);
                }
            }
            entries.push((t.as_nanos(), seq, body));
        });
        entries.sort();
        let mut buf = Vec::new();
        put_varint(&mut buf, entries.len() as u64);
        for (t, seq, body) in entries {
            put_varint(&mut buf, t);
            put_varint(&mut buf, seq);
            buf.extend_from_slice(&body);
        }
        b.section(SEC_EVENTS, buf);

        b.finish()
    }
}

impl World<NoopProbe> {
    /// Rebuild a runnable world from `snap`, structurally reconstructed
    /// from `cfg`. The config must describe the same experiment shape
    /// (topology, scheme, engine count) and agree with the snapshot on
    /// the already-struck fault prefix; its not-yet-struck fault suffix
    /// may diverge freely (warm-started forks). Any mismatch or
    /// corruption surfaces as an error, never as a silently wrong
    /// simulation.
    pub fn restore(snap: &Snapshot, cfg: &ExperimentConfig) -> io::Result<World<NoopProbe>> {
        World::restore_probed(snap, cfg, NoopProbe)
    }
}

impl<P: Probe> World<P> {
    /// [`restore`](World::restore), generic over the telemetry probe: the
    /// decode layer is probe-agnostic, so a restored world can carry a
    /// recording probe — rewind-replay restores a ring snapshot with a
    /// `FlightRecorder` attached and re-runs the window to the anomaly.
    pub fn restore_probed(
        snap: &Snapshot,
        cfg: &ExperimentConfig,
        probe: P,
    ) -> io::Result<World<P>> {
        let mut w = World::build(cfg.clone(), probe, false);

        // META: engine identity must match the rebuilt world.
        let mut d = section(snap, SEC_META)?;
        if d.varint()? != w.switches.len() as u64 {
            return Err(invalid("snapshot switch count differs from config"));
        }
        if d.varint()? != w.nics.len() as u64 {
            return Err(invalid("snapshot host count differs from config"));
        }
        if d.varint()? != w.cfg.engines as u64 {
            return Err(invalid("snapshot engine count differs from config"));
        }
        let now = get_time(&mut d)?;
        let next_seq = d.varint()?;
        let popped = d.varint()?;
        done(&d)?;

        // FAULTS: check the applied prefix against this config's
        // timeline, then replay it — injector crash state, link state and
        // (at the k1 boundary) the routing recompute all land exactly
        // where the saved run left them.
        let mut d = section(snap, SEC_FAULTS)?;
        let k2 = d.varint()? as usize;
        let k1 = d.varint()? as usize;
        if k1 > k2 || k2 > w.faults.len() {
            return Err(invalid("applied fault prefix exceeds the config timeline"));
        }
        let reconv_gen = d.varint()?;
        let window_open_at = if get_bool(&mut d)? {
            Some(get_time(&mut d)?)
        } else {
            None
        };
        let blackhole_mark = d.varint()?;
        let n_windows = d.varint_usize()?;
        let mut fault_windows = Vec::new();
        for _ in 0..n_windows {
            let a = get_time(&mut d)?;
            let z = get_time(&mut d)?;
            fault_windows.push((a, z));
        }
        for i in 0..k2 {
            let at = get_time(&mut d)?;
            let kind = get_fault_kind(&mut d)?;
            let delay = get_time(&mut d)?;
            if (at, kind, delay) != w.faults[i] {
                return Err(invalid("fault timeline prefix diverges from snapshot"));
            }
        }
        done(&d)?;
        for i in 0..k1 {
            let kind = w.faults[i].1;
            w.injector.apply(&mut w.topo, kind);
        }
        if k1 > 0 {
            // The saved routing state was computed (at the last
            // reconvergence) against the first k1 faults. Routes are a
            // pure function of the topology, so one recompute at the
            // boundary reproduces any number of intermediate passes.
            w.routes = RouteTable::compute(&w.topo);
            if w.cfg.scheme.wants_symmetric_groups() && w.cfg.asymmetry_handling {
                // The installed groups are a pure function of (topo,
                // routes) — engine memo warmth never changes the output —
                // so a cold engine here reproduces the live run's tables.
                w.symmetry.install(&w.topo, &mut w.routes);
            }
            if matches!(w.cfg.scheme, Scheme::Wcmp) {
                for i in 0..w.switches.len() {
                    let id = SwitchId(i as u32);
                    let p = w
                        .cfg
                        .scheme
                        .make_switch_policy(&w.topo, &w.routes, id, w.cfg.engines);
                    // Fresh build: nothing queued, so no free_queued pass.
                    w.switches[i] = rebuild_switch(&w.topo, &w.switches[i], p, &w.cfg);
                }
            }
            if matches!(w.cfg.scheme, Scheme::Presto { .. }) {
                for h in 0..w.host_policies.len() {
                    w.host_policies[h] =
                        w.cfg
                            .scheme
                            .make_host_policy(&w.topo, &w.routes, HostId(h as u32));
                }
            }
        }
        for i in k1..k2 {
            let kind = w.faults[i].1;
            w.injector.apply(&mut w.topo, kind);
        }
        w.sync_switch_link_state();
        w.faults_applied = k2 as u64;
        w.faults_applied_at_reconv = k1 as u64;
        w.reconv_gen = reconv_gen;
        w.window_open_at = window_open_at;
        w.blackhole_mark = blackhole_mark;
        w.fault_windows = fault_windows;

        // ARENAS.
        let mut d = section(snap, SEC_ARENAS)?;
        w.arena = PacketArena::load_state(&mut d)?;
        done(&d)?;

        // SWITCHES.
        let mut d = section(snap, SEC_SWITCHES)?;
        if d.varint()? != w.switches.len() as u64 {
            return Err(invalid("switch count mismatch"));
        }
        for sw in w.switches.iter_mut() {
            sw.load_state(&w.arena, &mut d)?;
        }
        done(&d)?;

        // NICS.
        let mut d = section(snap, SEC_NICS)?;
        if d.varint()? != w.nics.len() as u64 {
            return Err(invalid("host count mismatch"));
        }
        for nic in w.nics.iter_mut() {
            nic.load_state(&w.arena, &mut d)?;
        }
        done(&d)?;

        // HOST POLICIES.
        let mut d = section(snap, SEC_HOST_POLICIES)?;
        if d.varint()? != w.host_policies.len() as u64 {
            return Err(invalid("host policy count mismatch"));
        }
        for p in w.host_policies.iter_mut() {
            p.load_state(&mut d)?;
        }
        done(&d)?;

        // FLOWS.
        let mut d = section(snap, SEC_FLOWS)?;
        let n_flows = d.varint_usize()?;
        for _ in 0..n_flows {
            let f = TcpFlow::load_state(&mut d, w.cfg.tcp)?;
            let class = match d.u8()? {
                0 => FlowClass::Background,
                1 => FlowClass::Incast,
                2 => FlowClass::Mice,
                3 => FlowClass::Elephant,
                _ => return Err(invalid("unknown flow class")),
            };
            let measured = get_bool(&mut d)?;
            let shim = if get_bool(&mut d)? {
                if !w.shim_enabled {
                    return Err(invalid("shim state for a shim-less scheme"));
                }
                let (threshold, timeout) = w.cfg.scheme.shim_params();
                let mut s = ShimBuffer::with_threshold(timeout, threshold);
                s.load_state(&w.arena, &mut d)?;
                Some(s)
            } else {
                None
            };
            let sched_gen = d.varint()?;
            w.rto_due.push(get_time(&mut d)?);
            w.rto_wake.push(get_time(&mut d)?);
            w.flows.push(f);
            w.classes.push(class);
            w.measured.push(measured);
            w.shims.push(shim);
            w.sched_gen.push(sched_gen);
        }
        done(&d)?;

        // WORKLOAD. The RNG streams overwrite the post-build state (build
        // consumed workload randomness binding patterns — identical
        // consumption to the saved run's own build, but the snapshot's
        // word is authoritative either way).
        let mut d = section(snap, SEC_WORKLOAD)?;
        let mut s = [0u64; 4];
        for w_ in s.iter_mut() {
            *w_ = d.u64_fixed()?;
        }
        w.rng_net = SimRng::from_state(s);
        for w_ in s.iter_mut() {
            *w_ = d.u64_fixed()?;
        }
        w.rng_wl = SimRng::from_state(s);
        w.pkt_ids = d.varint()?;
        w.raw_flows = d.varint_u32()?;
        w.raw_measured = d.varint()?;
        w.raw_elephants = d.varint()?;
        w.pending_flow = if get_bool(&mut d)? {
            Some(drill_workload::FlowSpec {
                gap: get_time(&mut d)?,
                src: d.varint_u32()?,
                dst: d.varint_u32()?,
                bytes: d.varint()?,
            })
        } else {
            None
        };
        let has_gen = get_bool(&mut d)?;
        if has_gen != w.gen.is_some() {
            return Err(invalid("workload generator presence mismatch"));
        }
        if let Some(g) = w.gen.as_mut() {
            g.pattern_mut().load_cursors(&mut d)?;
        }
        let has_synth = get_bool(&mut d)?;
        if has_synth != w.synth_pattern.is_some() {
            return Err(invalid("synthetic pattern presence mismatch"));
        }
        if let Some(p) = w.synth_pattern.as_mut() {
            p.load_cursors(&mut d)?;
        }
        done(&d)?;

        // STATS.
        let mut d = section(snap, SEC_STATS)?;
        w.stats.flows_started = d.varint()?;
        let n = d.varint()?;
        let mean = d.f64_fixed()?;
        let m2 = d.f64_fixed()?;
        let min = d.f64_fixed()?;
        let max = d.f64_fixed()?;
        w.stats.queue_stdv = Moments::from_state(n, mean, m2, min, max);
        w.stats.fault_events = d.varint()?;
        w.stats.reconvergences = d.varint()?;
        w.stats.fault_blackholed = d.varint()?;
        w.stats.fault_window_ns = d.varint()?;
        w.stats.stable_at = get_time(&mut d)?;
        w.data_delivered = d.varint()?;
        w.bytes_delivered = d.varint()?;
        done(&d)?;

        // EVENTS: position the fresh engine at the saved clock first, then
        // re-insert every pending entry with its recorded sequence, then
        // re-inject the not-yet-struck fault suffix from *this* config's
        // timeline with the same band stamps a cold run would use.
        w.queue.restore_clock(now, next_seq, popped);
        let mut d = section(snap, SEC_EVENTS)?;
        let n_events = d.varint_usize()?;
        for _ in 0..n_events {
            let at = get_time(&mut d)?;
            let seq = d.varint()?;
            if at < now {
                return Err(invalid("pending event precedes the restored clock"));
            }
            match d.u8()? {
                EV_NET => {
                    let ne = get_net_event(&mut d, &w.arena)?;
                    w.queue.push_stamped(at, seq, Event::Net(ne).into());
                }
                EV_FLOW_ARRIVAL => w.queue.push_stamped(at, seq, Event::FlowArrival.into()),
                EV_INCAST_EPOCH => w.queue.push_stamped(at, seq, Event::IncastEpoch.into()),
                EV_MICE_TICK => w.queue.push_stamped(at, seq, Event::MiceTick.into()),
                EV_TCP_TIMER => {
                    let flow = d.varint_u32()?;
                    if flow as usize >= w.flows.len() {
                        return Err(invalid("timer names an unknown flow"));
                    }
                    w.queue
                        .push_stamped(at, seq, Event::TcpTimer { flow }.into());
                }
                EV_SHIM_TIMER => {
                    let flow = d.varint_u32()?;
                    let gen = d.varint()?;
                    if flow as usize >= w.flows.len() {
                        return Err(invalid("timer names an unknown flow"));
                    }
                    w.queue
                        .push_stamped(at, seq, Event::ShimTimer { flow, gen }.into());
                }
                EV_SAMPLE_QUEUES => w.queue.push_stamped(at, seq, Event::SampleQueues.into()),
                EV_RECONVERGE => {
                    let gen = d.varint()?;
                    w.queue
                        .push_stamped(at, seq, Event::Reconverge { gen }.into());
                }
                _ => return Err(invalid("unknown pending event tag")),
            }
        }
        done(&d)?;
        let deadline = w.cfg.duration + w.cfg.drain;
        for (idx, &(at, _, _)) in w.faults.iter().enumerate().skip(k2) {
            if at < now {
                // A divergent fork timeline may only diverge *after* the
                // snapshot point; an unapplied strike in the past cannot
                // be replayed faithfully.
                return Err(invalid("not-yet-struck fault precedes the restored clock"));
            }
            if at <= deadline {
                w.queue.push_stamped(
                    at,
                    FAULT_SEQ_BASE + idx as u64,
                    Event::Fault { idx: idx as u32 }.into(),
                );
            }
        }
        Ok(w)
    }
}
