//! Black-box runtime auditing: invariant watchdogs, typed anomaly
//! reports, the sabotages that prove the watchdogs catch real
//! corruption, and the in-memory snapshot ring behind rewind-replay.
//!
//! Every headline result in this reproduction rests on the simulator
//! silently upholding invariants — packet conservation, flow progress,
//! bounded queues, NIC backlog accounting, event-time monotonicity — that
//! goldens only check after the fact. This module is the *detection*
//! half of fault tolerance: the world samples a `BoundarySample` at
//! boundaries between events and hands it to its `Audit`, which
//! evaluates cheap incremental watchdogs over the sample. A run without
//! an auditor attached has no boundaries at all, so it pays only one
//! `Option` check per event.
//!
//! On a trip the auditor does **not** panic: it records a typed
//! [`AnomalyReport`], and the world (`world/audit.rs`, which owns every
//! file of the dump) writes out the `SnapshotRing` — the last K
//! `DRILLSNAP` checkpoints, bounded by count and bytes — plus a snapshot
//! of the faulted instant, giving [`rewind_replay`](crate::rewind_replay)
//! a rewind point just before the anomaly. Nothing here does file I/O.
//!
//! # Cost contract
//!
//! Watchdogs are O(switch ports + flows) per boundary and allocation-free
//! after warm-up. A boundary falls every 50k events by default, or a
//! quarter of the stall threshold (`stuck_after`, 500 ms by default) of
//! simulated time after the last one when events are sparser — so an
//! idle tail is still watched and a stall of 1.5 × `stuck_after` is
//! always reported — and the audit amortizes to a few percent of the
//! event loop (`drillbench`'s `audit.overhead_ratio`). Nothing an auditor
//! observes may steer the simulation: auditor-on fingerprints are pinned
//! bit-identical to auditor-off.

use std::collections::VecDeque;
use std::fmt;
use std::io;

use drill_sim::Time;

use crate::config::AuditSpec;

/// Snapshots the audit ring keeps (oldest evicted first).
const AUDIT_RING_ENTRIES: usize = 4;

/// The audit ring's total-bytes bound (the newest entry always survives).
const AUDIT_RING_BYTES: usize = 64 << 20;

/// Anomaly reports an audited run records before it stops recording.
const AUDIT_MAX_REPORTS: usize = 8;

/// Progress of one flow at a boundary, as the world reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FlowProgress {
    /// Flow id (index into the world's flow table).
    pub(crate) flow: u32,
    /// Cumulative bytes the sender has seen acknowledged.
    pub(crate) bytes_acked: u64,
    /// When the flow started.
    pub(crate) start: Time,
    /// Whether the flow has completed (completed flows are never stuck).
    pub(crate) done: bool,
    /// Bytes the sender has sent and not yet seen acknowledged.
    pub(crate) in_flight: u64,
    /// The sender's retransmission deadline, if its timer runs.
    pub(crate) rto_at: Option<Time>,
    /// The earliest pending retransmission wake for the flow, if any.
    pub(crate) wake: Option<Time>,
}

/// Everything the watchdogs see at one audit boundary.
///
/// The world assembles this between dispatches — never mid-event — so
/// every count is consistent: each live packet is in exactly one holder.
pub(crate) struct BoundarySample {
    /// Simulation clock at the boundary.
    pub(crate) now: Time,
    /// Events processed so far.
    pub(crate) events: u64,
    /// Live packet handles in the arena.
    pub(crate) arena_live: u64,
    /// Packets accounted for by walking every holder: switch queues
    /// (waiting + in-flight), NIC queues, shim reorder buffers, and
    /// pending arrive events.
    pub(crate) holders: u64,
    /// Largest per-port *waiting* byte count over all switch ports.
    pub(crate) max_wait_bytes: u64,
    /// Switch owning that port.
    pub(crate) max_wait_switch: u32,
    /// The port itself.
    pub(crate) max_wait_port: u16,
    /// Configured per-port queue capacity in bytes (0 = unlimited).
    pub(crate) queue_limit_bytes: u64,
    /// The first host NIC whose backlog counter disagrees with its queue,
    /// as `(host, counted bytes, walked bytes)`: walked is the wire size
    /// of every waiting packet plus, per unsent train of an open-loop
    /// flow, its payload and one header per segment.
    pub(crate) nic_backlog_mismatch: Option<(u32, u64, u64)>,
    /// Timestamp of the next pending event, if any.
    pub(crate) next_event_time: Option<Time>,
    /// Per-flow progress, indexed by flow id.
    pub(crate) flows: Vec<FlowProgress>,
}

/// What went wrong. Each variant carries the evidence the report prints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Arena live-count and the holder walk disagree: a packet handle
    /// leaked (live > holders) or was double-freed (live < holders).
    PacketConservation {
        /// Live handles in the arena.
        live: u64,
        /// Handles found by walking every holder.
        holders: u64,
    },
    /// A started, uncompleted flow has acknowledged no new byte for
    /// longer than the configured timeout.
    StuckFlow {
        /// The stalled flow id.
        flow: u32,
        /// How long it has been stalled.
        stalled: Time,
    },
    /// An uncompleted flow has bytes in flight but no retransmission
    /// wake pending at or before its deadline: if every packet in flight
    /// is lost, nothing will ever resend one.
    LostWake {
        /// The flow id.
        flow: u32,
        /// Its retransmission deadline (`None`: no timer runs).
        rto_at: Option<Time>,
        /// Its earliest pending wake (`None`: no wake pending).
        wake: Option<Time>,
    },
    /// A switch port's waiting bytes exceed the configured capacity —
    /// admission control failed.
    QueueCeiling {
        /// Switch owning the port.
        switch: u32,
        /// The overflowing port.
        port: u16,
        /// Waiting bytes observed.
        bytes: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// A host NIC's backlog byte counter — what admission control reads —
    /// drifted from the packets and trains actually queued behind it.
    NicBacklog {
        /// The host.
        host: u32,
        /// The counter.
        counted: u64,
        /// Bytes found by walking the queue.
        walked: u64,
    },
    /// Event time ran backwards: a pending event is older than the
    /// clock, or the clock itself regressed across boundaries.
    TimeRegression {
        /// The boundary clock.
        now: Time,
        /// The offending earlier timestamp.
        pending: Time,
    },
    /// A snapshot failed checksum or decode — the rewind chain is
    /// damaged.
    CorruptSnapshot {
        /// The decode error, stringified (section/offset included when
        /// the typed codec error carried them).
        detail: String,
    },
}

impl AnomalyKind {
    /// Stable machine-readable name (used in `anomaly.meta` files and
    /// test assertions).
    pub fn name(&self) -> &'static str {
        match self {
            AnomalyKind::PacketConservation { .. } => "packet_conservation",
            AnomalyKind::StuckFlow { .. } => "stuck_flow",
            AnomalyKind::LostWake { .. } => "lost_wake",
            AnomalyKind::QueueCeiling { .. } => "queue_ceiling",
            AnomalyKind::NicBacklog { .. } => "nic_backlog",
            AnomalyKind::TimeRegression { .. } => "time_regression",
            AnomalyKind::CorruptSnapshot { .. } => "corrupt_snapshot",
        }
    }

    /// The evidence as `(key, value)` pairs, in print order: the one
    /// list both `AnomalyReport::meta_lines` and the report's `Display`
    /// render. Instants are in nanoseconds, `none` when absent.
    fn evidence(&self) -> Vec<(&'static str, String)> {
        let ns = |t: &Time| t.as_nanos().to_string();
        let opt_ns = |t: &Option<Time>| t.as_ref().map_or_else(|| "none".to_string(), ns);
        match self {
            AnomalyKind::PacketConservation { live, holders } => {
                vec![("live", live.to_string()), ("holders", holders.to_string())]
            }
            AnomalyKind::StuckFlow { flow, stalled } => {
                vec![("flow", flow.to_string()), ("stalled_ns", ns(stalled))]
            }
            AnomalyKind::LostWake { flow, rto_at, wake } => vec![
                ("flow", flow.to_string()),
                ("rto_at_ns", opt_ns(rto_at)),
                ("wake_ns", opt_ns(wake)),
            ],
            AnomalyKind::QueueCeiling {
                switch,
                port,
                bytes,
                limit,
            } => vec![
                ("switch", switch.to_string()),
                ("port", port.to_string()),
                ("bytes", bytes.to_string()),
                ("limit", limit.to_string()),
            ],
            AnomalyKind::NicBacklog {
                host,
                counted,
                walked,
            } => vec![
                ("host", host.to_string()),
                ("counted", counted.to_string()),
                ("walked", walked.to_string()),
            ],
            AnomalyKind::TimeRegression { now, pending } => {
                vec![("now_ns", ns(now)), ("pending_ns", ns(pending))]
            }
            AnomalyKind::CorruptSnapshot { detail } => vec![("detail", detail.clone())],
        }
    }
}

/// One tripped watchdog: the kind plus where in the run it fired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnomalyReport {
    /// What tripped.
    pub kind: AnomalyKind,
    /// Simulation clock at the boundary that tripped.
    pub at: Time,
    /// Events processed when it tripped.
    pub events: u64,
}

impl AnomalyReport {
    /// Wrap a snapshot decode failure as a [`AnomalyKind::CorruptSnapshot`]
    /// report (the typed codec error's section/offset ride along in the
    /// stringified detail).
    pub fn from_decode_error(err: &io::Error, at: Time, events: u64) -> AnomalyReport {
        AnomalyReport {
            kind: AnomalyKind::CorruptSnapshot {
                detail: err.to_string(),
            },
            at,
            events,
        }
    }

    /// `key=value` lines for the `anomaly.meta` dump file: `kind`,
    /// `at_ns` and `events`, then the kind's evidence.
    pub fn meta_lines(&self) -> Vec<String> {
        let mut lines = vec![
            format!("kind={}", self.kind.name()),
            format!("at_ns={}", self.at.as_nanos()),
            format!("events={}", self.events),
        ];
        let evidence = self.kind.evidence().into_iter();
        lines.extend(evidence.map(|(key, value)| format!("{key}={value}")));
        lines
    }
}

/// `anomaly <kind> at t=<ns>ns after <n> events: <key> <value>, …`.
impl fmt::Display for AnomalyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "anomaly {} at t={}ns after {} events",
            self.kind.name(),
            self.at.as_nanos(),
            self.events
        )?;
        for (i, (key, value)) in self.kind.evidence().into_iter().enumerate() {
            let sep = if i == 0 { ": " } else { ", " };
            write!(f, "{sep}{key} {value}")?;
        }
        Ok(())
    }
}

/// A deliberate invariant violation for the auditor's negative tests:
/// unlike a `drill_faults::FaultKind` — a *modeled* failure the
/// simulator is supposed to handle gracefully — a sabotage breaks the
/// simulator's own bookkeeping the way a runtime bug would, so the
/// invariant watchdogs can be proven to catch real corruption,
/// deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SabotageKind {
    /// Leak one packet handle: intern a dummy packet into an arena and
    /// drop the reference, so the arena live-count exceeds every holder
    /// walk forever after (trips `packet_conservation`).
    LeakPacket,
    /// Silently discard every data packet of `flow` at the receiving
    /// host. The sender retransmits into the void and never sees a new
    /// byte acknowledged (trips `stuck_flow`); the discarded packets are
    /// freed, so conservation stays clean.
    BlackholeFlow {
        /// The flow to blackhole.
        flow: u32,
    },
}

/// One scheduled sabotage ([`AuditSpec::sabotage`]): what breaks and
/// when it starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SabotageSpec {
    /// When the sabotage takes effect.
    pub at: Time,
    /// What breaks.
    pub kind: SabotageKind,
}

/// Per-flow tracking for the stuck-flow and lost-wake watchdogs.
#[derive(Clone, Copy)]
struct FlowWatch {
    bytes_acked: u64,
    /// Boundary clock when `bytes_acked` last advanced (or the flow was
    /// first observed).
    since: Time,
    /// Each stuck flow is reported once, not once per boundary.
    reported: bool,
    /// Each lost wake is reported once per flow.
    wake_reported: bool,
}

/// The auditor of one world, attached whenever `cfg.audit` is set: it
/// evaluates every watchdog over each boundary sample, accumulates typed
/// reports (at most `AUDIT_MAX_REPORTS`), keeps the boundary cadence
/// and the snapshot ring, and carries the spec's sabotage.
///
/// It observes and accuses; it never steers. Nothing it returns may
/// influence the simulation — the determinism goldens pin auditor-on
/// fingerprints bit-identical to auditor-off.
pub(crate) struct Audit {
    stuck_after: Time,
    reports: Vec<AnomalyReport>,
    prev_now: Time,
    flows: Vec<FlowWatch>,
    /// Last-K `DRILLSNAP` ring retaining the most recent *clean*
    /// boundaries: the rewind pool a trip dumps. It is only ever
    /// observable through a dump, so it is armed — and the per-boundary
    /// snapshot cost paid — only when the spec names a `dump_dir`.
    pub(crate) ring: Option<SnapshotRing>,
    /// Boundary period in processed events (0 = none counted in events).
    pub(crate) every: u64,
    /// Boundary period in simulated time: a quarter of `stuck_after`, so
    /// a stall of 1.5 × `stuck_after` is seen however few events fall in
    /// it (zero = none counted in time).
    pub(crate) period: Time,
    /// When the next time-counted boundary falls.
    pub(crate) next_at: Time,
    /// A trip dumps ring + faulted snapshot + meta exactly once.
    pub(crate) dumped: bool,
    /// The spec's sabotage; the one-shot `LeakPacket` clears it when it
    /// fires.
    sabotage: Option<SabotageSpec>,
}

impl Audit {
    pub(crate) fn new(spec: &AuditSpec) -> Audit {
        let period = Time::from_nanos(spec.stuck_after.as_nanos() / 4);
        Audit {
            stuck_after: spec.stuck_after,
            reports: Vec::new(),
            prev_now: Time::ZERO,
            flows: Vec::new(),
            ring: spec
                .dump_dir
                .is_some()
                .then(|| SnapshotRing::new(AUDIT_RING_ENTRIES, AUDIT_RING_BYTES)),
            every: spec.every_events,
            period,
            next_at: period,
            dumped: false,
            sabotage: spec.sabotage,
        }
    }

    /// Whether the one-shot `LeakPacket` sabotage fires before an event
    /// at `next`.
    pub(crate) fn leak_due(&mut self, next: Time) -> bool {
        let due = matches!(
            self.sabotage,
            Some(SabotageSpec { at, kind: SabotageKind::LeakPacket }) if next >= at
        );
        if due {
            self.sabotage = None;
        }
        due
    }

    /// Whether the `BlackholeFlow` sabotage discards this packet of
    /// `flow` at its receiver.
    pub(crate) fn blackholes(&self, flow: u32, is_ack: bool, now: Time) -> bool {
        matches!(
            self.sabotage,
            Some(SabotageSpec { at, kind: SabotageKind::BlackholeFlow { flow: target } })
                if flow == target && !is_ack && now >= at
        )
    }

    /// The anomalies recorded so far (chronological).
    pub(crate) fn reports(&self) -> &[AnomalyReport] {
        &self.reports
    }

    /// Inspect one boundary sample. Called between dispatches only.
    pub(crate) fn on_boundary(&mut self, s: &BoundarySample) {
        self.watch_clock(s);
        self.watch_conservation(s);
        self.watch_queue_ceiling(s);
        self.watch_nic_backlog(s);
        self.watch_flows(s);
        self.prev_now = s.now;
    }

    fn trip(&mut self, kind: AnomalyKind, s: &BoundarySample) {
        if self.reports.len() < AUDIT_MAX_REPORTS {
            let (at, events) = (s.now, s.events);
            self.reports.push(AnomalyReport { kind, at, events });
        }
    }

    /// Event-time monotonicity: the clock never runs backwards, and no
    /// pending event may be older than the clock.
    fn watch_clock(&mut self, s: &BoundarySample) {
        let now = s.now;
        if now < self.prev_now {
            let pending = self.prev_now;
            self.trip(AnomalyKind::TimeRegression { now, pending }, s);
        }
        if let Some(pending) = s.next_event_time.filter(|&next| next < now) {
            self.trip(AnomalyKind::TimeRegression { now, pending }, s);
        }
    }

    /// Packet conservation: every live arena handle is in exactly one
    /// holder (switch queue, NIC queue, shim buffer, pending arrival).
    fn watch_conservation(&mut self, s: &BoundarySample) {
        if s.arena_live != s.holders {
            let (live, holders) = (s.arena_live, s.holders);
            self.trip(AnomalyKind::PacketConservation { live, holders }, s);
        }
    }

    /// Queue ceiling: admission control bounds *waiting* bytes per port;
    /// an excess means a packet bypassed the check.
    fn watch_queue_ceiling(&mut self, s: &BoundarySample) {
        if s.queue_limit_bytes > 0 && s.max_wait_bytes > s.queue_limit_bytes {
            let kind = AnomalyKind::QueueCeiling {
                switch: s.max_wait_switch,
                port: s.max_wait_port,
                bytes: s.max_wait_bytes,
                limit: s.queue_limit_bytes,
            };
            self.trip(kind, s);
        }
    }

    /// NIC backlog: the byte counter admission control reads must be the
    /// bytes queued, recomputed by the world from the entries.
    fn watch_nic_backlog(&mut self, s: &BoundarySample) {
        if let Some((host, counted, walked)) = s.nic_backlog_mismatch {
            let kind = AnomalyKind::NicBacklog {
                host,
                counted,
                walked,
            };
            self.trip(kind, s);
        }
    }

    /// Per flow: lost wakes, then stuck flows — a started, uncompleted
    /// flow must acknowledge a new byte at least every `stuck_after`.
    fn watch_flows(&mut self, s: &BoundarySample) {
        for f in &s.flows {
            let idx = f.flow as usize;
            if self.flows.len() <= idx {
                let watch = FlowWatch {
                    bytes_acked: 0,
                    since: f.start,
                    reported: false,
                    wake_reported: false,
                };
                self.flows.resize(idx + 1, watch);
            }
            if f.done {
                self.flows[idx].reported = true; // completed: never report again
                continue;
            }
            self.watch_lost_wake(f, s);
            self.watch_stuck_flow(f, s);
        }
    }

    /// Lost wakes: bytes in flight need a retransmission wake at or
    /// before the deadline, or a lost tail is never resent.
    fn watch_lost_wake(&mut self, f: &FlowProgress, s: &BoundarySample) {
        let covered = matches!((f.rto_at, f.wake), (Some(at), Some(wake)) if wake <= at);
        let w = &mut self.flows[f.flow as usize];
        if f.in_flight > 0 && !covered && !w.wake_reported {
            w.wake_reported = true;
            let (flow, rto_at, wake) = (f.flow, f.rto_at, f.wake);
            self.trip(AnomalyKind::LostWake { flow, rto_at, wake }, s);
        }
    }

    /// Stuck flows: no newly acknowledged byte for `stuck_after`.
    fn watch_stuck_flow(&mut self, f: &FlowProgress, s: &BoundarySample) {
        let w = &mut self.flows[f.flow as usize];
        if f.bytes_acked > w.bytes_acked {
            w.bytes_acked = f.bytes_acked;
            w.since = s.now;
            w.reported = false;
            return;
        }
        let stalled = s.now - w.since.max(f.start);
        if !w.reported && stalled >= self.stuck_after {
            w.reported = true;
            let flow = f.flow;
            self.trip(AnomalyKind::StuckFlow { flow, stalled }, s);
        }
    }
}

/// One retained checkpoint in the `SnapshotRing`.
pub(crate) struct RingEntry {
    /// Events processed at the checkpoint.
    pub(crate) events: u64,
    /// The encoded `DRILLSNAP` bytes.
    pub(crate) bytes: Vec<u8>,
}

/// The last K encoded `DRILLSNAP` checkpoints, bounded by entry count
/// *and* total bytes. Eviction drops the oldest entries first and always
/// keeps the newest, even when it alone exceeds the byte budget — a
/// rewind point beats an empty ring.
pub(crate) struct SnapshotRing {
    max_entries: usize,
    max_bytes: usize,
    total_bytes: usize,
    entries: VecDeque<RingEntry>,
}

impl SnapshotRing {
    /// A ring holding at most `max_entries` snapshots and `max_bytes`
    /// total encoded bytes.
    pub(crate) fn new(max_entries: usize, max_bytes: usize) -> SnapshotRing {
        SnapshotRing {
            max_entries: max_entries.max(1),
            max_bytes,
            total_bytes: 0,
            entries: VecDeque::new(),
        }
    }

    /// Append a checkpoint, evicting from the oldest end until both
    /// bounds hold (the newest entry is never evicted).
    pub(crate) fn push(&mut self, events: u64, bytes: Vec<u8>) {
        self.total_bytes += bytes.len();
        self.entries.push_back(RingEntry { events, bytes });
        while self.entries.len() > 1
            && (self.entries.len() > self.max_entries || self.total_bytes > self.max_bytes)
        {
            let dropped = self.entries.pop_front().expect("len > 1");
            self.total_bytes -= dropped.bytes.len();
        }
    }

    /// The retained checkpoints, oldest first.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &RingEntry> {
        self.entries.iter()
    }

    /// The most recent checkpoint, if any.
    pub(crate) fn newest(&self) -> Option<&RingEntry> {
        self.entries.back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An auditor that calls a flow stuck after `stuck_after`.
    fn auditor(stuck_after: Time) -> Audit {
        Audit::new(&AuditSpec {
            stuck_after,
            ..AuditSpec::default()
        })
    }

    fn sample(flows: &[FlowProgress]) -> BoundarySample {
        BoundarySample {
            now: Time::from_millis(1),
            events: 1000,
            arena_live: 5,
            holders: 5,
            max_wait_bytes: 100,
            max_wait_switch: 0,
            max_wait_port: 0,
            queue_limit_bytes: 1000,
            nic_backlog_mismatch: None,
            next_event_time: None,
            flows: flows.to_vec(),
        }
    }

    #[test]
    fn clean_sample_trips_nothing() {
        let mut a = auditor(Time::from_millis(500));
        for i in 1..=10u64 {
            let mut s = sample(&[]);
            s.now = Time::from_millis(i);
            s.events = i * 1000;
            s.next_event_time = Some(Time::from_millis(i + 1));
            a.on_boundary(&s);
        }
        assert!(a.reports().is_empty());
    }

    #[test]
    fn conservation_mismatch_trips() {
        let mut a = auditor(Time::from_millis(500));
        let mut s = sample(&[]);
        s.arena_live = 6; // one leaked handle
        a.on_boundary(&s);
        assert_eq!(a.reports().len(), 1);
        assert!(matches!(
            a.reports()[0].kind,
            AnomalyKind::PacketConservation {
                live: 6,
                holders: 5
            }
        ));
        assert_eq!(a.reports()[0].kind.name(), "packet_conservation");
    }

    #[test]
    fn queue_ceiling_trips_with_location() {
        let mut a = auditor(Time::from_millis(500));
        let mut s = sample(&[]);
        s.max_wait_bytes = 2000;
        s.max_wait_switch = 7;
        s.max_wait_port = 3;
        a.on_boundary(&s);
        assert!(matches!(
            a.reports()[0].kind,
            AnomalyKind::QueueCeiling {
                switch: 7,
                port: 3,
                bytes: 2000,
                limit: 1000
            }
        ));
        // Unlimited queues (limit 0) never trip.
        let mut a = auditor(Time::from_millis(500));
        s.queue_limit_bytes = 0;
        a.on_boundary(&s);
        assert!(a.reports().is_empty());
    }

    #[test]
    fn nic_backlog_mismatch_trips_with_evidence() {
        let mut a = auditor(Time::from_millis(500));
        let mut s = sample(&[]);
        s.nic_backlog_mismatch = Some((3, 4500, 3000));
        a.on_boundary(&s);
        assert_eq!(
            a.reports()[0].kind,
            AnomalyKind::NicBacklog {
                host: 3,
                counted: 4500,
                walked: 3000
            }
        );
        assert!(a.reports()[0].meta_lines().contains(&"walked=3000".into()));
        assert!(a.reports()[0].to_string().contains("host 3"));
    }

    #[test]
    fn time_regression_trips_on_stale_pending_and_clock_rollback() {
        let mut a = auditor(Time::from_millis(500));
        let mut s = sample(&[]);
        s.next_event_time = Some(Time::from_nanos(1)); // long past
        a.on_boundary(&s);
        assert!(matches!(
            a.reports()[0].kind,
            AnomalyKind::TimeRegression { .. }
        ));
        let mut a = auditor(Time::from_millis(500));
        let mut s1 = sample(&[]);
        s1.now = Time::from_millis(9);
        a.on_boundary(&s1);
        let mut s2 = sample(&[]);
        s2.now = Time::from_millis(3); // clock went backwards
        a.on_boundary(&s2);
        assert!(a
            .reports()
            .iter()
            .any(|r| matches!(r.kind, AnomalyKind::TimeRegression { .. })));
    }

    #[test]
    fn stuck_flow_trips_once_and_progress_resets_the_clock() {
        let stuck_after = Time::from_millis(5);
        let mut a = auditor(stuck_after);
        let flow = |acked: u64, done: bool| {
            [FlowProgress {
                flow: 0,
                bytes_acked: acked,
                start: Time::ZERO,
                done,
                in_flight: 0,
                rto_at: None,
                wake: None,
            }]
        };
        fn at(ms: u64, flows: &[FlowProgress]) -> BoundarySample {
            let mut s = sample(flows);
            s.now = Time::from_millis(ms);
            s
        }
        a.on_boundary(&at(1, &flow(100, false)));
        a.on_boundary(&at(4, &flow(200, false))); // progress at 4ms
        a.on_boundary(&at(8, &flow(200, false))); // stalled 4ms: ok
        assert!(a.reports().is_empty());
        a.on_boundary(&at(10, &flow(200, false))); // stalled 6ms: stuck
        assert_eq!(a.reports().len(), 1);
        assert!(matches!(
            a.reports()[0].kind,
            AnomalyKind::StuckFlow { flow: 0, .. }
        ));
        // Still stalled: no duplicate report.
        a.on_boundary(&at(20, &flow(200, false)));
        assert_eq!(a.reports().len(), 1);
        // Completed flows never report.
        let mut a = auditor(stuck_after);
        a.on_boundary(&at(1, &flow(100, false)));
        a.on_boundary(&at(100, &flow(100, true)));
        assert!(a.reports().is_empty());
    }

    /// A flow with bytes in flight whose earliest wake is `wake`, against
    /// a deadline at 5 ms.
    fn in_flight(wake: Option<Time>) -> [FlowProgress; 1] {
        [FlowProgress {
            flow: 3,
            bytes_acked: 100,
            start: Time::ZERO,
            done: false,
            in_flight: 1442,
            rto_at: Some(Time::from_millis(5)),
            wake,
        }]
    }

    #[test]
    fn lost_wake_trips_once_when_no_wake_is_pending() {
        let mut a = auditor(Time::from_secs(10));
        let flows = in_flight(None);
        a.on_boundary(&sample(&flows));
        let lost = AnomalyKind::LostWake {
            flow: 3,
            rto_at: Some(Time::from_millis(5)),
            wake: None,
        };
        assert_eq!(a.reports().len(), 1);
        assert_eq!(a.reports()[0].kind, lost);
        assert!(a.reports()[0].meta_lines().contains(&"wake_ns=none".into()));
        // Still lost at the next boundary: reported once per flow.
        a.on_boundary(&sample(&flows));
        assert_eq!(a.reports().len(), 1);
    }

    #[test]
    fn lost_wake_trips_when_the_wake_is_after_the_deadline() {
        let mut a = auditor(Time::from_secs(10));
        let late = Some(Time::from_millis(5) + Time::from_nanos(1));
        a.on_boundary(&sample(&in_flight(late)));
        assert_eq!(a.reports().len(), 1);
        assert_eq!(a.reports()[0].kind.name(), "lost_wake");
        assert!(a.reports()[0].to_string().contains("flow 3"));
        assert!(a.reports()[0]
            .meta_lines()
            .contains(&"wake_ns=5000001".into()));
    }

    #[test]
    fn wake_at_or_before_the_deadline_is_quiet() {
        let mut a = auditor(Time::from_secs(10));
        for wake in [Time::from_millis(5), Time::from_millis(2)] {
            a.on_boundary(&sample(&in_flight(Some(wake))));
        }
        // Nothing in flight, or done: no wake is owed.
        let mut idle = in_flight(None);
        idle[0].in_flight = 0;
        a.on_boundary(&sample(&idle));
        let mut done = in_flight(None);
        done[0].done = true;
        a.on_boundary(&sample(&done));
        assert!(a.reports().is_empty(), "{:?}", a.reports());
    }

    #[test]
    fn report_cap_holds() {
        let mut a = auditor(Time::from_millis(500));
        for i in 0..AUDIT_MAX_REPORTS as u64 + 3 {
            let mut s = sample(&[]);
            s.now = Time::from_millis(i + 1);
            s.arena_live = 100 + i; // conservation broken every boundary
            a.on_boundary(&s);
        }
        assert_eq!(a.reports().len(), AUDIT_MAX_REPORTS);
    }

    #[test]
    fn ring_evicts_oldest_by_count_and_bytes() {
        let mut r = SnapshotRing::new(3, 1000);
        for i in 0..5u64 {
            r.push(i * 100, vec![0u8; 100]);
        }
        assert_eq!(r.entries.len(), 3);
        let events: Vec<u64> = r.entries().map(|e| e.events).collect();
        assert_eq!(events, vec![200, 300, 400], "oldest evicted first");
        assert_eq!(r.newest().unwrap().events, 400);
        assert_eq!(r.total_bytes, 300);

        // Byte bound evicts too, but the newest always survives.
        let mut r = SnapshotRing::new(10, 250);
        r.push(0, vec![0u8; 100]);
        r.push(1, vec![0u8; 100]);
        r.push(2, vec![0u8; 100]);
        assert_eq!(r.entries.len(), 2, "300B > 250B budget drops the oldest");
        r.push(3, vec![0u8; 10_000]);
        assert_eq!(r.entries.len(), 1, "oversized newest still retained");
        assert_eq!(r.newest().unwrap().events, 3);
    }

    #[test]
    fn report_display_and_meta_lines_carry_evidence() {
        let r = AnomalyReport {
            kind: AnomalyKind::StuckFlow {
                flow: 42,
                stalled: Time::from_millis(7),
            },
            at: Time::from_millis(9),
            events: 123_456,
        };
        let text = r.to_string();
        assert!(text.contains("stuck_flow"));
        assert!(text.contains("flow 42"));
        let meta = r.meta_lines();
        assert_eq!(meta[0], "kind=stuck_flow");
        assert!(meta.contains(&"flow=42".to_string()));
        assert!(meta.contains(&format!("events={}", 123_456)));

        let err = io::Error::new(
            io::ErrorKind::InvalidData,
            "bad section (section 3, offset 9)",
        );
        let r = AnomalyReport::from_decode_error(&err, Time::ZERO, 0);
        assert_eq!(r.kind.name(), "corrupt_snapshot");
        assert!(r.to_string().contains("section 3"));
    }

    /// One report of every kind: each renders its header and every one
    /// of its expected evidence pairs, as `key=value` meta lines and as
    /// `key value` in the display text.
    #[test]
    fn every_kind_carries_its_evidence_into_both_renderings() {
        let t = Time::from_nanos;
        let cases: [(AnomalyKind, &[(&str, &str)]); 7] = [
            (
                AnomalyKind::PacketConservation {
                    live: 6,
                    holders: 5,
                },
                &[("live", "6"), ("holders", "5")],
            ),
            (
                AnomalyKind::StuckFlow {
                    flow: 4,
                    stalled: t(700),
                },
                &[("flow", "4"), ("stalled_ns", "700")],
            ),
            (
                AnomalyKind::LostWake {
                    flow: 2,
                    rto_at: Some(t(50)),
                    wake: None,
                },
                &[("flow", "2"), ("rto_at_ns", "50"), ("wake_ns", "none")],
            ),
            (
                AnomalyKind::QueueCeiling {
                    switch: 7,
                    port: 3,
                    bytes: 2000,
                    limit: 1000,
                },
                &[
                    ("switch", "7"),
                    ("port", "3"),
                    ("bytes", "2000"),
                    ("limit", "1000"),
                ],
            ),
            (
                AnomalyKind::NicBacklog {
                    host: 9,
                    counted: 4500,
                    walked: 3000,
                },
                &[("host", "9"), ("counted", "4500"), ("walked", "3000")],
            ),
            (
                AnomalyKind::TimeRegression {
                    now: t(30),
                    pending: t(10),
                },
                &[("now_ns", "30"), ("pending_ns", "10")],
            ),
            (
                AnomalyKind::CorruptSnapshot {
                    detail: "bad checksum".into(),
                },
                &[("detail", "bad checksum")],
            ),
        ];
        for (kind, pairs) in cases {
            let name = kind.name();
            let r = AnomalyReport {
                kind,
                at: t(1234),
                events: 56,
            };
            let meta = r.meta_lines();
            let head = [
                format!("kind={name}"),
                "at_ns=1234".into(),
                "events=56".into(),
            ];
            assert_eq!(meta[..3], head, "{name}");
            assert_eq!(meta.len(), 3 + pairs.len(), "{name}: {meta:?}");
            let text = r.to_string();
            let header = format!("anomaly {name} at t=1234ns after 56 events: ");
            assert!(text.starts_with(&header), "{text}");
            for (key, value) in pairs {
                assert!(meta.contains(&format!("{key}={value}")), "{name}: {meta:?}");
                assert!(text.contains(&format!("{key} {value}")), "{text}");
            }
        }
    }
}
