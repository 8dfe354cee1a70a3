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
//! Each layer writes and reads its own sections; this module holds the
//! world-level sections and the restore order. The restore config's
//! fault timeline must agree on the struck prefix; its unstruck entries
//! are re-injected as a cold run stamps them.

use std::io;

use drill_net::{NetEvent, SwitchId};
use drill_sim::codec::{
    invalid, put_f64, put_time, put_u64, put_varint, CodecError, CodecErrorKind, Decoder,
};
use drill_sim::{SimRng, Time};
use drill_stats::Moments;
use drill_telemetry::{NoopProbe, Probe};

use super::{Event, Packed, World, K_FAULT};
use crate::config::ExperimentConfig;
use crate::snapshot::{Snapshot, SnapshotBuilder};
use crate::stats::RunStats;

// Section tags. New sections may be appended in later versions; readers
// skip unknown tags by construction.
const SEC_META: u8 = 1;
pub(super) const SEC_ARENAS: u8 = 2;
pub(super) const SEC_SWITCHES: u8 = 3;
pub(super) const SEC_NICS: u8 = 4;
pub(super) const SEC_HOST_POLICIES: u8 = 5;
const SEC_FLOWS: u8 = 6;
const SEC_WORKLOAD: u8 = 7;
const SEC_FAULTS: u8 = 8;
const SEC_STATS: u8 = 9;
const SEC_EVENTS: u8 = 10;

fn put_rng(buf: &mut Vec<u8>, rng: &SimRng) {
    for w in rng.state() {
        put_u64(buf, w);
    }
}

fn get_rng(d: &mut Decoder<'_>) -> io::Result<SimRng> {
    let mut s = [0u64; 4];
    for w in s.iter_mut() {
        *w = d.u64_fixed()?;
    }
    Ok(SimRng::from_state(s))
}

/// The required section `tag`, as a decoder labeled with the tag so any
/// decode error carries (section, byte offset).
pub(super) fn section<'a>(snap: &'a Snapshot, tag: u8) -> io::Result<Decoder<'a>> {
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
pub(super) fn done(d: &Decoder<'_>) -> io::Result<()> {
    if d.remaining() != 0 {
        return Err(invalid("trailing bytes in DRILLSNAP section"));
    }
    Ok(())
}

/// The `STATS` section: the in-run scalars only. Distributions and
/// per-flow aggregates are filled by `finalize`; mid-run they are
/// provably empty.
fn put_stats(buf: &mut Vec<u8>, stats: &RunStats) {
    put_varint(buf, stats.flows_started);
    let (n, mean, m2, min, max) = stats.queue_stdv.state();
    put_varint(buf, n);
    for v in [mean, m2, min, max] {
        put_f64(buf, v);
    }
    put_varint(buf, stats.fault_events);
    put_varint(buf, stats.reconvergences);
    put_varint(buf, stats.fault_blackholed);
    put_varint(buf, stats.fault_window_ns);
    put_time(buf, stats.stable_at);
    put_varint(buf, stats.data_pkts_delivered);
    put_varint(buf, stats.bytes_delivered);
}

fn get_stats(d: &mut Decoder<'_>, stats: &mut RunStats) -> io::Result<()> {
    stats.flows_started = d.varint()?;
    let n = d.varint()?;
    let (mean, m2) = (d.f64_fixed()?, d.f64_fixed()?);
    let (min, max) = (d.f64_fixed()?, d.f64_fixed()?);
    stats.queue_stdv = Moments::from_state(n, mean, m2, min, max);
    stats.fault_events = d.varint()?;
    stats.reconvergences = d.varint()?;
    stats.fault_blackholed = d.varint()?;
    stats.fault_window_ns = d.varint()?;
    stats.stable_at = d.time()?;
    stats.data_pkts_delivered = d.varint()?;
    stats.bytes_delivered = d.varint()?;
    Ok(())
}

impl<P: Probe> World<P> {
    /// Capture the complete dynamic state as a [`Snapshot`].
    ///
    /// Must be called between events (never from inside a dispatch); the
    /// event loop's checkpoint and audit hooks and the stepwise
    /// [`run_to`](World::run_to) boundary all satisfy this.
    pub fn snapshot(&self) -> Snapshot {
        debug_assert_eq!(self.stats.fct_ms.count(), 0, "snapshot of a finalized run");
        debug_assert_eq!(self.stats.flows_completed, 0);

        let mut b = SnapshotBuilder::new();
        // META: engine identity + clock.
        let mut buf = Vec::new();
        put_varint(&mut buf, self.net.switches.len() as u64);
        put_varint(&mut buf, self.net.nics.len() as u64);
        put_varint(&mut buf, self.cfg.engines as u64);
        put_time(&mut buf, self.queue.now());
        put_varint(&mut buf, self.queue.next_seq());
        put_varint(&mut buf, self.queue.events_processed());
        b.section(SEC_META, buf);

        self.net.save(&mut b);
        let mut buf = Vec::new();
        self.flows.save(&self.net.arena, &mut buf);
        b.section(SEC_FLOWS, buf);

        // WORKLOAD: both RNG streams, the packet-id and raw-flow counters,
        // then the workload's own cursors.
        let mut buf = Vec::new();
        put_rng(&mut buf, &self.net.rng);
        put_rng(&mut buf, &self.workload.rng);
        self.flows.save_counters(&mut buf);
        self.workload.save_cursors(&mut buf);
        b.section(SEC_WORKLOAD, buf);

        let mut buf = Vec::new();
        self.faults.save(&mut buf);
        b.section(SEC_FAULTS, buf);
        let mut buf = Vec::new();
        put_stats(&mut buf, &self.stats);
        b.section(SEC_STATS, buf);
        b.section(SEC_EVENTS, self.save_events());
        b.finish()
    }

    /// The `EVENTS` section: every pending event except fault strikes, as
    /// a flat `(time, seq)`-sorted list. Each is written in the wheel's
    /// own [`Packed`] split — `time, seq, kind, hi, lo`, then word 0: the
    /// packet handle of an arrival, the raw word for every other kind.
    fn save_events(&self) -> Vec<u8> {
        let mut entries: Vec<(Time, u64, Packed)> = Vec::new();
        self.queue.for_each_pending(|t, seq, &ev| {
            if ev.fields().0 != K_FAULT {
                entries.push((t, seq, ev));
            }
        });
        entries.sort_unstable_by_key(|&(t, seq, _)| (t, seq));
        let mut buf = Vec::new();
        put_varint(&mut buf, entries.len() as u64);
        for (t, seq, ev) in entries {
            let (kind, hi, lo, word0) = ev.fields();
            put_time(&mut buf, t);
            put_varint(&mut buf, seq);
            buf.push(kind);
            put_varint(&mut buf, hi as u64);
            put_varint(&mut buf, lo as u64);
            match ev.arriving_packet() {
                Some(pkt) => self.net.arena.encode_ref(&mut buf, &pkt),
                None => put_varint(&mut buf, word0),
            }
        }
        buf
    }
}

impl World<NoopProbe> {
    /// Rebuild a runnable world from `snap`, structurally reconstructed
    /// from `cfg`. The config must describe the same experiment shape
    /// (topology, scheme, engine count) and agree with the snapshot on
    /// the already-struck fault prefix; its not-yet-struck fault suffix
    /// may differ, provided none of it lies before the snapshot's clock.
    /// Any mismatch or corruption surfaces as an error, never as a
    /// silently wrong simulation.
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
        let mut w = World::build(cfg.clone(), probe);
        let (now, next_seq, popped) = w.load_meta(snap)?;

        // FAULTS: check the applied prefix against this config's timeline,
        // then replay it — injector crash state, link state and (at the
        // k1 boundary) the control plane all land exactly where the saved
        // run left them. Routes are a pure function of the topology, so
        // one install at the boundary reproduces any number of
        // intermediate reconvergences.
        let mut d = section(snap, SEC_FAULTS)?;
        let (k1, k2) = w.faults.load(&mut d, now)?;
        done(&d)?;
        w.faults.replay(&mut w.net.topo, 0..k1);
        if k1 > 0 {
            w.control.install(&w.cfg, &mut w.net, true);
        }
        w.faults.replay(&mut w.net.topo, k1..k2);
        w.net.sync_link_state();

        w.net.load(snap)?;
        let mut d = section(snap, SEC_FLOWS)?;
        w.flows.load(&mut d, &w.net.arena, w.cfg.tcp)?;
        done(&d)?;

        // WORKLOAD. The RNG streams overwrite the post-build state (build
        // consumed workload randomness binding patterns — identical
        // consumption to the saved run's own build, but the snapshot's
        // word is authoritative either way).
        let mut d = section(snap, SEC_WORKLOAD)?;
        w.net.rng = get_rng(&mut d)?;
        w.workload.rng = get_rng(&mut d)?;
        w.flows.load_counters(&mut d)?;
        w.workload.load_cursors(&mut d)?;
        done(&d)?;

        let mut d = section(snap, SEC_STATS)?;
        get_stats(&mut d, &mut w.stats)?;
        done(&d)?;

        // EVENTS: position the fresh engine at the saved clock first, then
        // re-insert every pending entry with its recorded sequence, then
        // re-inject the not-yet-struck fault suffix from *this* config's
        // timeline with the same band stamps a cold run would use.
        w.queue.restore_clock(now, next_seq, popped);
        w.load_events(snap, now)?;
        w.faults
            .schedule(w.cfg.duration + w.cfg.drain, &mut w.queue);
        Ok(w)
    }

    /// Check the `META` section's engine identity against the rebuilt
    /// world; returns the saved clock `(now, next seq, events popped)`.
    fn load_meta(&self, snap: &Snapshot) -> io::Result<(Time, u64, u64)> {
        let mut d = section(snap, SEC_META)?;
        let shape = [
            self.net.switches.len(),
            self.net.nics.len(),
            self.cfg.engines,
        ];
        for (n, what) in shape.into_iter().zip(["switch", "host", "engine"]) {
            if d.varint()? != n as u64 {
                return Err(invalid(&format!(
                    "snapshot {what} count differs from config"
                )));
            }
        }
        let clock = (d.time()?, d.varint()?, d.varint()?);
        done(&d)?;
        Ok(clock)
    }

    /// Re-insert the pending events. The writer emits them strictly
    /// `(time, seq)`-increasing, each seq below the restored counter; a
    /// section that breaks either would leave an entry pending twice or a
    /// seq that a fresh push reuses, so it is refused here, as is an
    /// event the dispatcher could not run against this world.
    fn load_events(&mut self, snap: &Snapshot, now: Time) -> io::Result<()> {
        let mut d = section(snap, SEC_EVENTS)?;
        let mut last = None;
        for _ in 0..d.varint_usize()? {
            let at = d.time()?;
            let seq = d.varint()?;
            if at < now {
                return Err(invalid("pending event precedes the restored clock"));
            }
            if last.is_some_and(|prev| prev >= (at, seq)) {
                return Err(invalid("pending events out of (time, seq) order"));
            }
            if seq >= self.queue.next_seq() {
                return Err(invalid("pending event seq at or past the restored counter"));
            }
            last = Some((at, seq));
            let (kind, hi, lo) = (d.u8()?, d.varint_u16()?, d.varint_u32()?);
            let word0 = if Packed::carries_packet(kind) {
                self.net.arena.decode_ref(&mut d)?.to_bits()
            } else {
                d.varint()?
            };
            let ev = match Packed::new(kind, hi, lo, word0).decode() {
                Ok(Event::Fault { .. }) | Err(_) => {
                    return Err(invalid("unknown pending event kind"))
                }
                Ok(ev) => ev,
            };
            self.check_pending(&ev)?;
            self.queue.push_stamped(at, seq, ev.into());
        }
        done(&d)
    }

    /// Refuse a pending event naming a device, port, engine or flow this
    /// world does not have: dispatch would index past its tables, and an
    /// out-of-range commit port would land on another engine's row.
    fn check_pending(&self, ev: &Event) -> io::Result<()> {
        let switch_port = |switch: SwitchId, port: u16| {
            self.net
                .switches
                .get(switch.index())
                .is_some_and(|sw| (port as usize) < sw.num_ports())
        };
        let ok = match *ev {
            Event::Net(
                NetEvent::ArriveSwitch {
                    switch,
                    ingress: port,
                    ..
                }
                | NetEvent::SwitchTxDone { switch, port },
            ) => switch_port(switch, port),
            Event::Net(NetEvent::EnqueueCommit {
                switch,
                port,
                engine,
                ..
            }) => switch_port(switch, port) && (engine as usize) < self.cfg.engines,
            Event::Net(NetEvent::ArriveHost { host, .. } | NetEvent::HostTxDone { host }) => {
                host.index() < self.net.nics.len()
            }
            Event::TcpTimer { flow } | Event::ShimTimer { flow } => {
                (flow as usize) < self.flows.records.len()
            }
            _ => true,
        };
        if !ok {
            return Err(invalid("pending event names a missing device or flow"));
        }
        Ok(())
    }
}
