//! The chaos engine: time-ordered fault-injection and recovery schedules.
//!
//! DRILL's resilience claims (§3.4, Figs. 10–12) are about behaviour
//! *through* failures, not just after a single static one. This crate
//! models that: a [`FaultSchedule`] is a deterministic, time-ordered list
//! of [`FaultEvent`]s — link down/up, flap trains, switch crash + recover,
//! capacity degradation (exercising the Quiver's §3.4.3 capacity factors)
//! and lossy-link packet corruption — that the runtime drives through the
//! simulation. A [`FaultInjector`] owns the mutation of the `Topology`
//! plus the bookkeeping recovery needs (e.g. which links a switch crash
//! downed, so recovery revives exactly those).
//!
//! # Determinism contract
//!
//! A schedule is plain data: schedule + seed fully determine a run. The
//! schedule draws no randomness of its own, so adding one moves no other
//! stream in the simulator.
//!
//! # Staged reaction
//!
//! The schedule records when faults *happen*; the runtime reacts in
//! stages. For [`FaultSchedule::detection_delay`] after each fault the
//! switches keep forwarding into dead ports (the graceful-degradation
//! window, packets blackholing with `DropReason::LinkDown`), then routing
//! and the symmetric-component decomposition are recomputed and installed
//! atomically at reconvergence time.

#![warn(missing_docs)]

use drill_net::{LinkId, NodeRef, SwitchId, Topology};
use drill_sim::Time;
use drill_telemetry::{fault_kind, FaultInfo};

/// What a fault event does to the topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the first live switch-to-switch pair between `a` and `b`
    /// (either orientation). Panics at apply time if no live pair exists,
    /// matching the legacy `failed_links` validation.
    LinkDown {
        /// One endpoint switch.
        a: u32,
        /// The other endpoint switch.
        b: u32,
    },
    /// Restore the first failed pair between `a` and `b` (either
    /// orientation). A clean no-op when nothing is failed.
    LinkUp {
        /// One endpoint switch.
        a: u32,
        /// The other endpoint switch.
        b: u32,
    },
    /// Crash a switch: fail every live switch-to-switch pair incident to
    /// it. The injector remembers which, so recovery is exact.
    SwitchDown {
        /// The crashing switch.
        switch: u32,
    },
    /// Recover a crashed switch: restore exactly the pairs its crash
    /// downed. A clean no-op if the switch never crashed.
    SwitchUp {
        /// The recovering switch.
        switch: u32,
    },
    /// Scale both directions of the first pair between `a` and `b` to
    /// `num/den` of nominal capacity (integer fraction for exact
    /// determinism; `num >= den` restores nominal). Panics at apply time
    /// if no pair exists.
    Degrade {
        /// One endpoint switch.
        a: u32,
        /// The other endpoint switch.
        b: u32,
        /// Fraction numerator.
        num: u32,
        /// Fraction denominator (> 0).
        den: u32,
    },
    /// Set the random packet-loss probability (parts per million) on both
    /// directions of the first pair between `a` and `b`; `ppm = 0`
    /// clears. Panics at apply time if no pair exists.
    SetLoss {
        /// One endpoint switch.
        a: u32,
        /// The other endpoint switch.
        b: u32,
        /// Loss probability in parts per million (<= 1_000_000).
        ppm: u32,
    },
}

impl FaultKind {
    /// This kind's [`fault_kind`] code: the tag a [`FaultInfo`] carries
    /// and a snapshot writes.
    pub fn code(&self) -> u8 {
        match self {
            FaultKind::LinkDown { .. } => fault_kind::LINK_DOWN,
            FaultKind::LinkUp { .. } => fault_kind::LINK_UP,
            FaultKind::SwitchDown { .. } => fault_kind::SWITCH_DOWN,
            FaultKind::SwitchUp { .. } => fault_kind::SWITCH_UP,
            FaultKind::Degrade { .. } => fault_kind::DEGRADE,
            FaultKind::SetLoss { .. } => fault_kind::SET_LOSS,
        }
    }

    /// Whether applying this kind can change reachability (and therefore
    /// requires a routing reconvergence). Degradation and loss keep the
    /// graph intact — routes stay valid; only weights/quality change —
    /// but the symmetric-component decomposition depends on capacities,
    /// so [`FaultKind::Degrade`] still reconverges.
    pub fn needs_reconvergence(&self) -> bool {
        !matches!(self, FaultKind::SetLoss { .. })
    }

    /// Whether applying this kind can change *path structure*: the set of
    /// up links, and therefore distances and candidate sets.
    ///
    /// [`FaultKind::Degrade`] rescales a link's capacity but never removes
    /// it, so shortest-path routing (`RouteTable::compute`, a pure
    /// function of the up/down state) provably cannot change — the
    /// reconvergence may skip the BFS and only rebuild the capacity-
    /// dependent symmetric-component groups. [`FaultKind::SetLoss`]
    /// changes neither and skips reconvergence entirely.
    pub fn changes_reachability(&self) -> bool {
        !matches!(self, FaultKind::SetLoss { .. } | FaultKind::Degrade { .. })
    }
}

/// One scheduled fault: a kind and the instant it strikes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the physical fault happens.
    pub at: Time,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, time-ordered fault schedule.
///
/// Events are kept sorted by time; equal timestamps preserve insertion
/// order (stable), so a schedule's construction order is part of its
/// identity and replays bit-identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Per-switch failure-detection delay: how long after each fault the
    /// reconvergence (routing recompute + symmetric re-decomposition)
    /// fires. During this window packets blackhole into dead ports.
    pub detection_delay: Time,
    events: Vec<FaultEvent>,
}

/// Default detection delay: 1 ms, a conservative fast-failover detector
/// (BFD-ish), far below a 50 ms OSPF-style reconvergence.
pub const DEFAULT_DETECTION_DELAY: Time = Time::from_millis(1);

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule::new(DEFAULT_DETECTION_DELAY)
    }
}

impl FaultSchedule {
    /// An empty schedule with the given detection delay.
    pub fn new(detection_delay: Time) -> FaultSchedule {
        FaultSchedule {
            detection_delay,
            events: Vec::new(),
        }
    }

    /// Insert an event, keeping the list time-sorted (stable on ties).
    pub fn push(&mut self, at: Time, kind: FaultKind) -> &mut Self {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, FaultEvent { at, kind });
        self
    }

    /// The events, chronological.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule one link flap: down at `down_at`, back up at `up_at`.
    pub fn link_flap(&mut self, a: u32, b: u32, down_at: Time, up_at: Time) -> &mut Self {
        assert!(up_at > down_at, "flap must come back up after going down");
        self.push(down_at, FaultKind::LinkDown { a, b });
        self.push(up_at, FaultKind::LinkUp { a, b })
    }

    /// Schedule a switch crash at `down_at` recovering at `up_at`.
    pub fn switch_outage(&mut self, switch: u32, down_at: Time, up_at: Time) -> &mut Self {
        assert!(up_at > down_at, "recovery must follow the crash");
        self.push(down_at, FaultKind::SwitchDown { switch });
        self.push(up_at, FaultKind::SwitchUp { switch })
    }

    /// Degrade a link to `num/den` of nominal over `[start, end)`,
    /// restoring full capacity at `end`.
    #[allow(clippy::too_many_arguments)]
    pub fn degrade_window(
        &mut self,
        a: u32,
        b: u32,
        num: u32,
        den: u32,
        start: Time,
        end: Time,
    ) -> &mut Self {
        assert!(end > start, "degradation window must have positive length");
        self.push(start, FaultKind::Degrade { a, b, num, den });
        self.push(
            end,
            FaultKind::Degrade {
                a,
                b,
                num: 1,
                den: 1,
            },
        )
    }

    /// Make a link lossy (`ppm` parts-per-million corruption) over
    /// `[start, end)`, clearing the loss at `end`.
    pub fn lossy_window(&mut self, a: u32, b: u32, ppm: u32, start: Time, end: Time) -> &mut Self {
        assert!(end > start, "loss window must have positive length");
        self.push(start, FaultKind::SetLoss { a, b, ppm });
        self.push(end, FaultKind::SetLoss { a, b, ppm: 0 })
    }
}

/// Applies schedule events to a topology, carrying the state recovery
/// needs, and reports each application as a [`FaultInfo`] for telemetry.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    /// Per-crashed-switch list of the link pairs its crash downed (one id
    /// per pair, the switch-outbound direction).
    crashed: Vec<(u32, Vec<LinkId>)>,
}

impl FaultInjector {
    /// A fresh injector (no crash state).
    pub fn new() -> FaultInjector {
        FaultInjector::default()
    }

    /// Apply one fault to the topology. Returns the [`FaultInfo`] probes
    /// record for it. Panics on structurally impossible events (failing or
    /// degrading a pair that does not exist), mirroring the legacy
    /// `failed_links` validation; recovery events are idempotent no-ops
    /// when there is nothing to recover.
    pub fn apply(&mut self, topo: &mut Topology, kind: FaultKind) -> FaultInfo {
        let (a, b, param) = match kind {
            FaultKind::LinkDown { a, b } => {
                let ok = topo.fail_switch_link(SwitchId(a), SwitchId(b), 0)
                    || topo.fail_switch_link(SwitchId(b), SwitchId(a), 0);
                assert!(
                    ok,
                    "failed link ({a},{b}) matches no live switch-to-switch link in the topology"
                );
                (a, b, 0)
            }
            FaultKind::LinkUp { a, b } => {
                let restored = topo.restore_switch_link(SwitchId(a), SwitchId(b), 0)
                    || topo.restore_switch_link(SwitchId(b), SwitchId(a), 0);
                (a, b, restored as u64)
            }
            FaultKind::SwitchDown { switch } => {
                let mut downed = Vec::new();
                if !self.crashed.iter().any(|(s, _)| *s == switch) {
                    let ids: Vec<LinkId> = topo
                        .links()
                        .iter()
                        .filter(|l| {
                            l.up && l.src == NodeRef::Switch(SwitchId(switch))
                                && matches!(l.dst, NodeRef::Switch(_))
                        })
                        .map(|l| l.id)
                        .collect();
                    for id in ids {
                        if topo.fail_link_pair(id) {
                            downed.push(id);
                        }
                    }
                }
                let n = downed.len() as u64;
                self.crashed.push((switch, downed));
                (switch, u32::MAX, n)
            }
            FaultKind::SwitchUp { switch } => {
                let mut restored = 0u64;
                if let Some(pos) = self.crashed.iter().position(|(s, _)| *s == switch) {
                    let (_, downed) = self.crashed.remove(pos);
                    for id in downed {
                        if topo.restore_link_pair(id) {
                            restored += 1;
                        }
                    }
                }
                (switch, u32::MAX, restored)
            }
            FaultKind::Degrade { a, b, num, den } => {
                let ok = topo.degrade_switch_link(SwitchId(a), SwitchId(b), 0, num, den)
                    || topo.degrade_switch_link(SwitchId(b), SwitchId(a), 0, num, den);
                assert!(
                    ok,
                    "degraded link ({a},{b}) matches no switch-to-switch link in the topology"
                );
                (a, b, ((num as u64) << 32) | den as u64)
            }
            FaultKind::SetLoss { a, b, ppm } => {
                let ok = topo.set_switch_link_loss(SwitchId(a), SwitchId(b), 0, ppm)
                    || topo.set_switch_link_loss(SwitchId(b), SwitchId(a), 0, ppm);
                assert!(
                    ok,
                    "lossy link ({a},{b}) matches no switch-to-switch link in the topology"
                );
                (a, b, ppm as u64)
            }
        };
        FaultInfo {
            kind: kind.code(),
            a,
            b,
            param,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drill_net::{
        clos, fat_tree, leaf_spine, leaf_spine_custom, vl2, ClosSpec, LeafSpineSpec, RouteTable,
        Vl2Spec, DEFAULT_PROP,
    };

    fn topo() -> Topology {
        leaf_spine(&LeafSpineSpec {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        })
    }

    #[test]
    fn code_is_the_fault_kind_constant() {
        let pairs = [
            (FaultKind::LinkDown { a: 0, b: 2 }, fault_kind::LINK_DOWN),
            (FaultKind::LinkUp { a: 0, b: 2 }, fault_kind::LINK_UP),
            (FaultKind::SwitchDown { switch: 1 }, fault_kind::SWITCH_DOWN),
            (FaultKind::SwitchUp { switch: 1 }, fault_kind::SWITCH_UP),
            (
                FaultKind::Degrade {
                    a: 0,
                    b: 2,
                    num: 1,
                    den: 4,
                },
                fault_kind::DEGRADE,
            ),
            (
                FaultKind::SetLoss {
                    a: 0,
                    b: 2,
                    ppm: 10,
                },
                fault_kind::SET_LOSS,
            ),
        ];
        for (kind, code) in pairs {
            assert_eq!(kind.code(), code, "{kind:?}");
        }
    }

    #[test]
    fn schedule_stays_time_sorted_and_stable() {
        let mut s = FaultSchedule::new(Time::from_micros(100));
        s.push(Time::from_millis(3), FaultKind::LinkDown { a: 0, b: 2 });
        s.push(Time::from_millis(1), FaultKind::LinkDown { a: 1, b: 2 });
        s.push(Time::from_millis(3), FaultKind::LinkUp { a: 0, b: 2 });
        let times: Vec<u64> = s.events().iter().map(|e| e.at.as_millis()).collect();
        assert_eq!(times, vec![1, 3, 3]);
        // Ties keep insertion order: the LinkDown pushed first stays first.
        assert!(matches!(s.events()[1].kind, FaultKind::LinkDown { .. }));
        assert!(matches!(s.events()[2].kind, FaultKind::LinkUp { .. }));
    }

    #[test]
    fn injector_link_down_then_up_round_trips() {
        let mut t = topo();
        let mut inj = FaultInjector::new();
        // Leaves are switches 0,1; spines 2,3 in the builder's order.
        let info = inj.apply(&mut t, FaultKind::LinkDown { a: 0, b: 2 });
        assert_eq!(info.kind, fault_kind::LINK_DOWN);
        assert!(t.ports_to_switch(SwitchId(0), SwitchId(2)).is_empty());
        let info = inj.apply(&mut t, FaultKind::LinkUp { a: 0, b: 2 });
        assert_eq!(info.param, 1, "restored one pair");
        assert_eq!(t.ports_to_switch(SwitchId(0), SwitchId(2)).len(), 1);
        // Restoring again is a clean no-op.
        let info = inj.apply(&mut t, FaultKind::LinkUp { a: 0, b: 2 });
        assert_eq!(info.param, 0);
        t.validate();
    }

    #[test]
    #[should_panic(expected = "matches no live switch-to-switch link")]
    fn injector_panics_on_unknown_link_down() {
        let mut t = topo();
        FaultInjector::new().apply(&mut t, FaultKind::LinkDown { a: 0, b: 1 });
    }

    #[test]
    fn switch_crash_downs_and_recovery_restores_exactly_its_links() {
        let mut t = topo();
        let mut inj = FaultInjector::new();
        // Fail leaf0-spine2 independently, then crash spine 2.
        inj.apply(&mut t, FaultKind::LinkDown { a: 0, b: 2 });
        let info = inj.apply(&mut t, FaultKind::SwitchDown { switch: 2 });
        assert_eq!(info.param, 1, "only leaf1-spine2 was still alive");
        assert!(t.ports_to_switch(SwitchId(1), SwitchId(2)).is_empty());
        // Recovery restores only what the crash downed: leaf0-spine2 stays
        // failed (it fell independently).
        let info = inj.apply(&mut t, FaultKind::SwitchUp { switch: 2 });
        assert_eq!(info.param, 1);
        assert_eq!(t.ports_to_switch(SwitchId(1), SwitchId(2)).len(), 1);
        assert!(t.ports_to_switch(SwitchId(0), SwitchId(2)).is_empty());
        // Recovering a never-crashed switch is a no-op.
        let info = inj.apply(&mut t, FaultKind::SwitchUp { switch: 3 });
        assert_eq!(info.param, 0);
        t.validate();
    }

    #[test]
    fn degrade_and_loss_apply_in_either_orientation() {
        let mut t = topo();
        let mut inj = FaultInjector::new();
        // Stated spine-first: the injector must find the leaf->spine pair.
        let info = inj.apply(
            &mut t,
            FaultKind::Degrade {
                a: 2,
                b: 0,
                num: 1,
                den: 10,
            },
        );
        assert_eq!(info.param, (1u64 << 32) | 10);
        let degraded = t
            .links()
            .iter()
            .filter(|l| l.rate_bps == 1_000_000_000)
            .count();
        assert_eq!(degraded, 2, "both directions scaled");
        inj.apply(
            &mut t,
            FaultKind::SetLoss {
                a: 0,
                b: 2,
                ppm: 50_000,
            },
        );
        assert_eq!(t.links().iter().filter(|l| l.loss_ppm == 50_000).count(), 2);
        t.validate();
    }

    #[test]
    fn reconvergence_need_is_kind_dependent() {
        assert!(FaultKind::LinkDown { a: 0, b: 2 }.needs_reconvergence());
        assert!(FaultKind::SwitchUp { switch: 1 }.needs_reconvergence());
        assert!(FaultKind::Degrade {
            a: 0,
            b: 2,
            num: 1,
            den: 2
        }
        .needs_reconvergence());
        assert!(!FaultKind::SetLoss {
            a: 0,
            b: 2,
            ppm: 100
        }
        .needs_reconvergence());
    }

    #[test]
    fn reachability_change_is_kind_dependent() {
        assert!(FaultKind::LinkDown { a: 0, b: 2 }.changes_reachability());
        assert!(FaultKind::LinkUp { a: 0, b: 2 }.changes_reachability());
        assert!(FaultKind::SwitchDown { switch: 1 }.changes_reachability());
        assert!(FaultKind::SwitchUp { switch: 1 }.changes_reachability());
        // Degrade reconverges (group weights depend on capacity) but can
        // never change routes.
        let degrade = FaultKind::Degrade {
            a: 0,
            b: 2,
            num: 1,
            den: 2,
        };
        assert!(degrade.needs_reconvergence());
        assert!(!degrade.changes_reachability());
        assert!(!FaultKind::SetLoss {
            a: 0,
            b: 2,
            ppm: 100
        }
        .changes_reachability());
    }

    /// One destination's `dist_levels` and per-switch `candidates`.
    type DstRoutes = (Vec<Vec<SwitchId>>, Vec<Vec<u16>>);

    /// Everything `World::reconverge` reads from a `RouteTable` besides
    /// the groups it reinstalls, per destination leaf.
    fn route_shape(t: &Topology) -> Vec<DstRoutes> {
        let routes = RouteTable::compute(t);
        (0..t.num_leaves() as u32)
            .map(|d| {
                let cands = (0..t.num_switches() as u32)
                    .map(|s| routes.candidates(SwitchId(s), d).to_vec())
                    .collect();
                (routes.dist_levels(d), cands)
            })
            .collect()
    }

    #[test]
    fn non_reachability_faults_leave_routes_unchanged() {
        // The premise of the runtime's reconvergence route-skip: a fault
        // whose kind reports `!changes_reachability()` leaves a recomputed
        // RouteTable identical, on every link of every topology family.
        let ls = LeafSpineSpec {
            spines: 3,
            leaves: 4,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        };
        let families: Vec<(&str, Topology)> = vec![
            ("leaf_spine", leaf_spine(&ls)),
            (
                "leaf_spine_custom",
                leaf_spine_custom(&ls, |l, s| vec![10_000_000_000; 1 + (l + s) % 2]),
            ),
            (
                "vl2",
                vl2(&Vl2Spec {
                    tors: 4,
                    aggs: 3,
                    ints: 2,
                    hosts_per_tor: 1,
                    host_rate: 1_000_000_000,
                    core_rate: 10_000_000_000,
                    tor_uplinks: 2,
                    prop: DEFAULT_PROP,
                }),
            ),
            ("fat_tree", fat_tree(4, 10_000_000_000, DEFAULT_PROP)),
            (
                "fat_tree_oversub",
                clos(&ClosSpec::fat_tree(
                    4,
                    4,
                    10_000_000_000,
                    10_000_000_000,
                    DEFAULT_PROP,
                )),
            ),
            ("clos", clos(&ClosSpec::smoke())),
        ];
        for (name, mut t) in families {
            let before = route_shape(&t);
            let mut pairs: Vec<(u32, u32)> = t
                .links()
                .iter()
                .filter_map(|l| match (l.src, l.dst) {
                    (NodeRef::Switch(a), NodeRef::Switch(b)) if a.0 < b.0 => Some((a.0, b.0)),
                    _ => None,
                })
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            let mut inj = FaultInjector::new();
            let mut applied = 0;
            for (i, &(a, b)) in pairs.iter().enumerate() {
                // One of each kind, faults accumulating across the fabric.
                let (num, den) = (1 + i as u32 % 3, 4);
                let one_of_each = [
                    FaultKind::LinkDown { a, b },
                    FaultKind::LinkUp { a, b },
                    FaultKind::SwitchDown { switch: a },
                    FaultKind::SwitchUp { switch: a },
                    FaultKind::Degrade { a, b, num, den },
                    FaultKind::SetLoss { a, b, ppm: 1000 },
                ];
                for kind in one_of_each {
                    if !kind.changes_reachability() {
                        inj.apply(&mut t, kind);
                        applied += 1;
                    }
                }
                assert!(
                    route_shape(&t) == before,
                    "{name}: routes moved at ({a},{b})"
                );
            }
            assert_eq!(applied, 2 * pairs.len(), "{name}: Degrade and SetLoss");
            // Positive control: the comparison does see a reachability fault.
            let (a, b) = pairs[0];
            inj.apply(&mut t, FaultKind::LinkDown { a, b });
            assert!(route_shape(&t) != before, "{name}: LinkDown went unseen");
        }
    }
}
