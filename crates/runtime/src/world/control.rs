//! The control plane's state: routing, the §3.4 symmetric-component
//! engine, and the fault timeline whose strikes and reconvergences it
//! reacts to.

use std::io;
use std::ops::Range;

use drill_core::SymmetryEngine;
use drill_faults::{FaultInjector, FaultKind};
use drill_net::{HostId, RouteTable, Topology};
use drill_sim::codec::{invalid, put_opt_time, put_time, put_varint, Decoder};
use drill_sim::{EventQueue, Time};
use drill_telemetry::{fault_kind, FaultInfo};

use super::net::Net;
use super::{Event, Packed};
use crate::config::ExperimentConfig;
use crate::stats::RunStats;
use crate::Scheme;

/// Reserved sequence band for fault injections. Ordinary events consume
/// the global FIFO sequence from zero; fault strikes are stamped
/// `FAULT_SEQ_BASE + timeline index` so they (a) pop after every ordinary
/// event sharing their timestamp, deterministically ordered by index, and
/// (b) can be re-injected at restore without perturbing any other event's
/// sequence.
const FAULT_SEQ_BASE: u64 = 1 << 62;

pub(super) struct Control {
    pub(super) routes: RouteTable,
    /// Structural §3.4 control plane. Persists interned structure across
    /// reconvergences so a fault only re-decomposes entries whose
    /// fingerprint changed.
    symmetry: SymmetryEngine,
}

impl Control {
    /// Routes over `topo` with the §3.4 groups installed.
    pub(super) fn new(cfg: &ExperimentConfig, topo: &Topology) -> Control {
        let mut control = Control {
            routes: RouteTable::compute(topo),
            symmetry: SymmetryEngine::new(),
        };
        control.install_groups(cfg, topo);
        control
    }

    fn install_groups(&mut self, cfg: &ExperimentConfig, topo: &Topology) {
        if cfg.scheme.wants_symmetric_groups() && cfg.asymmetry_handling {
            self.symmetry.install(topo, &mut self.routes);
        }
    }

    /// Install the control plane for the fabric's current state, for
    /// reconvergence and restore alike: recompute routes (when
    /// `recompute_routes`), re-run the §3.4 decomposition — a pure function
    /// of (topo, routes), however warm the engine — and rebuild WCMP's
    /// switch policies and Presto's host policies.
    pub(super) fn install(
        &mut self,
        cfg: &ExperimentConfig,
        net: &mut Net,
        recompute_routes: bool,
    ) {
        if recompute_routes {
            self.routes = RouteTable::compute(&net.topo);
        }
        self.install_groups(cfg, &net.topo);
        let (topo, routes, scheme) = (&net.topo, &self.routes, cfg.scheme);
        match scheme {
            Scheme::Wcmp => {
                for sw in net.switches.iter_mut() {
                    sw.set_policy(scheme.make_switch_policy(topo, routes, sw.id(), cfg.engines));
                }
            }
            Scheme::Presto { .. } => {
                for (h, p) in net.host_policies.iter_mut().enumerate() {
                    *p = scheme.make_host_policy(topo, routes, HostId(h as u32));
                }
            }
            _ => {}
        }
    }
}

/// The run's fault timeline and where the run stands on it: what has
/// struck, what routing was last computed against, and the open and
/// closed degradation windows.
pub(super) struct FaultTimeline {
    /// `(strike time, kind, detection delay)`, time-sorted. Indexed by
    /// `Event::Fault`.
    entries: Vec<(Time, FaultKind, Time)>,
    injector: FaultInjector,
    /// Entries that have struck so far (`entries[..applied]` are applied
    /// to the topology). Restore replays exactly this prefix.
    applied: u64,
    /// `applied` at the moment of the last reconvergence — the fault
    /// prefix the current routing state was computed against.
    applied_at_reconv: u64,
    /// Latest scheduled reconvergence generation (see `Event::Reconverge`).
    pub(super) reconv_gen: u64,
    /// When the oldest still-unreconverged fault struck (`None` = routing
    /// is stable).
    window_open_at: Option<Time>,
    /// Total switch blackhole count when the open window started.
    blackhole_mark: u64,
    /// Closed fault windows, for FCT in/out-of-window classification.
    pub(super) windows: Vec<(Time, Time)>,
}

impl FaultTimeline {
    pub(super) fn new(cfg: &ExperimentConfig) -> FaultTimeline {
        let entries = cfg.faults.as_ref().map_or_else(Vec::new, |sched| {
            let events = sched.events().iter();
            events
                .map(|e| (e.at, e.kind, sched.detection_delay))
                .collect()
        });
        FaultTimeline {
            entries,
            injector: FaultInjector::new(),
            applied: 0,
            applied_at_reconv: 0,
            reconv_gen: 0,
            window_open_at: None,
            blackhole_mark: 0,
            windows: Vec::new(),
        }
    }

    /// Schedule every entry that has not struck yet, stamped from the
    /// reserved band. Strikes past the deadline are filtered here, not at
    /// pop time: the wheel counts every pop in `events_processed`, so
    /// enqueueing them would perturb the event-count golden of an
    /// otherwise identical run — and a fault nobody can observe is a no-op.
    pub(super) fn schedule(&self, deadline: Time, queue: &mut EventQueue<Packed>) {
        let unstruck = self.entries.iter().enumerate().skip(self.applied as usize);
        for (idx, &(at, _, _)) in unstruck.filter(|(_, e)| e.0 <= deadline) {
            let strike = Event::Fault { idx: idx as u32 };
            queue.push_stamped(at, FAULT_SEQ_BASE + idx as u64, strike.into());
        }
    }

    /// The `idx`-th entry strikes `topo` at `now`. Returns what struck and,
    /// for a fault that needs a reconvergence, that reconvergence's due
    /// time and generation. During the detection window packets keep
    /// steering into the dead/degraded paths; `blackholed` (the current
    /// switch total) marks where a newly opened window starts counting.
    pub(super) fn strike(
        &mut self,
        idx: u32,
        now: Time,
        topo: &mut Topology,
        blackholed: u64,
    ) -> (FaultInfo, Option<(Time, u64)>) {
        let (_, kind, delay) = self.entries[idx as usize];
        // Strikes arrive in timeline order (time-sorted, and the band seq
        // `FAULT_SEQ_BASE + idx` orders ties by index), so the applied set
        // is always `entries[..applied]`.
        debug_assert_eq!(self.applied, idx as u64);
        self.applied += 1;
        let info = self.injector.apply(topo, kind);
        if !kind.needs_reconvergence() {
            return (info, None);
        }
        if self.window_open_at.is_none() {
            self.window_open_at = Some(now);
            self.blackhole_mark = blackholed;
        }
        self.reconv_gen += 1;
        (info, Some((now + delay, self.reconv_gen)))
    }

    /// Routing is being brought up to date with every applied fault:
    /// whether it must be recomputed. The BFS is a pure function of the
    /// up/down link state, so a window of faults none of which can change
    /// reachability (e.g. pure capacity degradation) provably leaves the
    /// routes as they are; only the capacity-dependent group decomposition
    /// must rerun. The premise is pinned in drill-faults:
    /// `non_reachability_faults_leave_routes_unchanged`.
    pub(super) fn reconverge(&mut self) -> bool {
        let window = &self.entries[self.applied_at_reconv as usize..self.applied as usize];
        let stale = window.is_empty() || window.iter().any(|e| e.1.changes_reachability());
        self.applied_at_reconv = self.applied;
        stale
    }

    /// Close the open fault window at `now` (never before it opened),
    /// charging its blackholes and length to `stats`; returns the length.
    pub(super) fn close_window(
        &mut self,
        now: Time,
        blackholed: u64,
        stats: &mut RunStats,
    ) -> Option<u64> {
        let open = self.window_open_at.take()?;
        let end = now.max(open);
        let window_ns = (end - open).as_nanos();
        stats.fault_blackholed += blackholed.saturating_sub(self.blackhole_mark);
        stats.fault_window_ns += window_ns;
        self.windows.push((open, end));
        Some(window_ns)
    }

    /// Re-apply the struck entries `range` to `topo` (restore). The
    /// injector is not serialized: replaying the prefix reproduces its
    /// crash state.
    pub(super) fn replay(&mut self, topo: &mut Topology, range: Range<usize>) {
        for &(_, kind, _) in &self.entries[range] {
            self.injector.apply(topo, kind);
        }
    }

    /// The `FAULTS` section: the applied prefix (for the
    /// restore-compatibility check and injector replay) and the window
    /// accounting.
    pub(super) fn save(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.applied);
        put_varint(buf, self.applied_at_reconv);
        put_varint(buf, self.reconv_gen);
        put_opt_time(buf, self.window_open_at);
        put_varint(buf, self.blackhole_mark);
        put_varint(buf, self.windows.len() as u64);
        for &(a, z) in &self.windows {
            put_time(buf, a);
            put_time(buf, z);
        }
        for &(at, kind, delay) in &self.entries[..self.applied as usize] {
            put_time(buf, at);
            put_fault_kind(buf, &kind);
            put_time(buf, delay);
        }
    }

    /// Load the `FAULTS` section into a timeline built from the restore
    /// config. That timeline must agree with the snapshot on the struck
    /// prefix, and may not hold an unstruck strike before the restored
    /// clock `now`: it could not be replayed faithfully. Returns `(k1,
    /// k2)`: the struck prefix at the last reconvergence, and now.
    pub(super) fn load(&mut self, d: &mut Decoder<'_>, now: Time) -> io::Result<(usize, usize)> {
        let (k2, k1) = (d.varint()?, d.varint()?);
        if k1 > k2 || k2 > self.entries.len() as u64 {
            return Err(invalid("applied fault prefix exceeds the config timeline"));
        }
        (self.applied, self.applied_at_reconv) = (k2, k1);
        self.reconv_gen = d.varint()?;
        self.window_open_at = d.opt_time()?;
        self.blackhole_mark = d.varint()?;
        for _ in 0..d.varint_usize()? {
            self.windows.push((d.time()?, d.time()?));
        }
        for i in 0..k2 as usize {
            let entry = (d.time()?, get_fault_kind(d)?, d.time()?);
            if entry != self.entries[i] {
                return Err(invalid("fault timeline prefix diverges from snapshot"));
            }
        }
        if self.entries[k2 as usize..]
            .iter()
            .any(|&(at, _, _)| at < now)
        {
            return Err(invalid("not-yet-struck fault precedes the restored clock"));
        }
        Ok((k1 as usize, k2 as usize))
    }
}

fn put_fault_kind(buf: &mut Vec<u8>, k: &FaultKind) {
    let args: &[u32] = match *k {
        FaultKind::LinkDown { a, b } | FaultKind::LinkUp { a, b } => &[a, b],
        FaultKind::SwitchDown { switch } | FaultKind::SwitchUp { switch } => &[switch],
        FaultKind::Degrade { a, b, num, den } => &[a, b, num, den],
        FaultKind::SetLoss { a, b, ppm } => &[a, b, ppm],
    };
    buf.push(k.code());
    for &v in args {
        put_varint(buf, v as u64);
    }
}

fn get_fault_kind(d: &mut Decoder<'_>) -> io::Result<FaultKind> {
    let tag = d.u8()?;
    let arity = match tag {
        fault_kind::LINK_DOWN | fault_kind::LINK_UP => 2,
        fault_kind::SWITCH_DOWN | fault_kind::SWITCH_UP => 1,
        fault_kind::DEGRADE => 4,
        fault_kind::SET_LOSS => 3,
        _ => return Err(invalid("unknown fault kind tag")),
    };
    let mut v = [0u32; 4];
    for x in &mut v[..arity] {
        *x = d.varint_u32()?;
    }
    let [a, b, c, e] = v;
    Ok(match tag {
        fault_kind::LINK_DOWN => FaultKind::LinkDown { a, b },
        fault_kind::LINK_UP => FaultKind::LinkUp { a, b },
        fault_kind::SWITCH_DOWN => FaultKind::SwitchDown { switch: a },
        fault_kind::SWITCH_UP => FaultKind::SwitchUp { switch: a },
        fault_kind::DEGRADE => FaultKind::Degrade {
            a,
            b,
            num: c,
            den: e,
        },
        _ => FaultKind::SetLoss { a, b, ppm: c },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_kinds_roundtrip_through_the_snapshot_codec() {
        let kinds = [
            FaultKind::LinkDown { a: 3, b: 70_000 },
            FaultKind::LinkUp { a: 3, b: 70_000 },
            FaultKind::SwitchDown { switch: 9 },
            FaultKind::SwitchUp { switch: 9 },
            FaultKind::Degrade {
                a: 1,
                b: 2,
                num: 1,
                den: 4,
            },
            FaultKind::SetLoss {
                a: 1,
                b: 2,
                ppm: 1_000_000,
            },
        ];
        for kind in kinds {
            let mut buf = Vec::new();
            put_fault_kind(&mut buf, &kind);
            assert_eq!(buf[0], kind.code(), "{kind:?}: tag");
            let mut d = Decoder::new(&buf);
            assert_eq!(get_fault_kind(&mut d).unwrap(), kind);
            assert_eq!(d.remaining(), 0, "{kind:?}: trailing bytes");
        }
    }
}
