//! Black-box runtime auditing: invariant watchdogs, typed anomaly
//! reports, and the in-memory snapshot ring behind rewind-replay.
//!
//! Every headline result in this reproduction rests on the simulator
//! silently upholding invariants — packet conservation, flow progress,
//! bounded queues, NIC backlog accounting, event-time monotonicity — that
//! goldens only check after the fact. This crate is the *detection* half
//! of fault tolerance: the runtime samples a [`BoundarySample`] at
//! boundaries between events and hands it to the [`InvariantAuditor`],
//! which evaluates cheap incremental watchdogs over the sample. A run
//! without an auditor attached has no boundaries at all, so it pays only
//! one `Option` check per event.
//!
//! On a trip the auditor does **not** panic: it records a typed
//! [`AnomalyReport`], and the runtime dumps the [`SnapshotRing`] — the
//! last K `DRILLSNAP` checkpoints, bounded by count and bytes — plus a
//! snapshot of the faulted instant, giving `drill_runtime::rewind_replay`
//! a rewind point just before the anomaly.
//!
//! # Cost contract
//!
//! Watchdogs are O(switch ports + flows) per boundary and allocation-free
//! after warm-up. A boundary falls every 50k events by default, or a
//! quarter of the stall threshold (`stuck_after`, 500 ms by default) of
//! simulated time after the last one when events are sparser — so an
//! idle tail is still watched and a stall of 1.5 × `stuck_after` is
//! always reported — and the audit amortizes to a few percent of the
//! event loop (`drillbench`'s `audit.overhead_ratio`). Nothing an auditor observes may steer the
//! simulation: auditor-on fingerprints are pinned bit-identical to
//! auditor-off.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use drill_sim::Time;

/// Progress of one flow at a boundary, as the runtime reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowProgress {
    /// Flow id (index into the runtime's flow table).
    pub flow: u32,
    /// Cumulative bytes the sender has seen acknowledged.
    pub bytes_acked: u64,
    /// When the flow started.
    pub start: Time,
    /// Whether the flow has completed (completed flows are never stuck).
    pub done: bool,
    /// Bytes the sender has sent and not yet seen acknowledged.
    pub in_flight: u64,
    /// The sender's retransmission deadline, if its timer runs.
    pub rto_at: Option<Time>,
    /// The earliest pending retransmission wake for the flow, if any.
    pub wake: Option<Time>,
}

/// Everything the watchdogs see at one audit boundary.
///
/// The runtime assembles this between dispatches — never mid-event — so
/// every count is consistent: each live packet is in exactly one holder.
#[derive(Clone, Copy, Debug)]
pub struct BoundarySample<'a> {
    /// Simulation clock at the boundary.
    pub now: Time,
    /// Events processed so far.
    pub events: u64,
    /// Live packet handles in the arena.
    pub arena_live: u64,
    /// Packets accounted for by walking every holder: switch queues
    /// (waiting + in-flight), NIC queues, shim reorder buffers, and
    /// pending arrive events.
    pub holders: u64,
    /// Largest per-port *waiting* byte count over all switch ports.
    pub max_wait_bytes: u64,
    /// Switch owning that port.
    pub max_wait_switch: u32,
    /// The port itself.
    pub max_wait_port: u16,
    /// Configured per-port queue capacity in bytes (0 = unlimited).
    pub queue_limit_bytes: u64,
    /// The first host NIC whose backlog counter disagrees with its queue,
    /// as `(host, counted bytes, walked bytes)`: walked is the wire size
    /// of every waiting packet plus, per unsent train of an open-loop
    /// flow, its payload and one header per segment.
    pub nic_backlog_mismatch: Option<(u32, u64, u64)>,
    /// Timestamp of the next pending event, if any.
    pub next_event_time: Option<Time>,
    /// Per-flow progress, indexed by flow id.
    pub flows: &'a [FlowProgress],
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

    /// `key=value` lines for the `anomaly.meta` dump file. The first
    /// three lines are always `kind`, `at_ns`, `events`.
    pub fn meta_lines(&self) -> Vec<String> {
        let mut lines = vec![
            format!("kind={}", self.kind.name()),
            format!("at_ns={}", self.at.as_nanos()),
            format!("events={}", self.events),
        ];
        match &self.kind {
            AnomalyKind::PacketConservation { live, holders } => {
                lines.push(format!("live={live}"));
                lines.push(format!("holders={holders}"));
            }
            AnomalyKind::StuckFlow { flow, stalled } => {
                lines.push(format!("flow={flow}"));
                lines.push(format!("stalled_ns={}", stalled.as_nanos()));
            }
            AnomalyKind::LostWake { flow, rto_at, wake } => {
                lines.push(format!("flow={flow}"));
                lines.push(format!("rto_at_ns={}", opt_ns(*rto_at)));
                lines.push(format!("wake_ns={}", opt_ns(*wake)));
            }
            AnomalyKind::QueueCeiling {
                switch,
                port,
                bytes,
                limit,
            } => {
                lines.push(format!("switch={switch}"));
                lines.push(format!("port={port}"));
                lines.push(format!("bytes={bytes}"));
                lines.push(format!("limit={limit}"));
            }
            AnomalyKind::NicBacklog {
                host,
                counted,
                walked,
            } => {
                lines.push(format!("host={host}"));
                lines.push(format!("counted={counted}"));
                lines.push(format!("walked={walked}"));
            }
            AnomalyKind::TimeRegression { now, pending } => {
                lines.push(format!("now_ns={}", now.as_nanos()));
                lines.push(format!("pending_ns={}", pending.as_nanos()));
            }
            AnomalyKind::CorruptSnapshot { detail } => {
                lines.push(format!("detail={detail}"));
            }
        }
        lines
    }
}

impl fmt::Display for AnomalyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "anomaly {} at t={}ns after {} events",
            self.kind.name(),
            self.at.as_nanos(),
            self.events
        )?;
        match &self.kind {
            AnomalyKind::PacketConservation { live, holders } => {
                write!(f, ": {live} live handles vs {holders} held")
            }
            AnomalyKind::StuckFlow { flow, stalled } => {
                write!(f, ": flow {flow} stalled {}ns", stalled.as_nanos())
            }
            AnomalyKind::LostWake { flow, rto_at, wake } => write!(
                f,
                ": flow {flow} has bytes in flight, RTO due at {}ns, earliest wake {}ns",
                opt_ns(*rto_at),
                opt_ns(*wake)
            ),
            AnomalyKind::QueueCeiling {
                switch,
                port,
                bytes,
                limit,
            } => write!(f, ": switch {switch} port {port} holds {bytes}B > {limit}B"),
            AnomalyKind::NicBacklog {
                host,
                counted,
                walked,
            } => write!(f, ": host {host} NIC counts {counted}B, queues {walked}B"),
            AnomalyKind::TimeRegression { now, pending } => write!(
                f,
                ": pending t={}ns behind clock t={}ns",
                pending.as_nanos(),
                now.as_nanos()
            ),
            AnomalyKind::CorruptSnapshot { detail } => write!(f, ": {detail}"),
        }
    }
}

/// An optional instant in nanoseconds, `none` when absent.
fn opt_ns(t: Option<Time>) -> String {
    t.map_or_else(|| "none".to_string(), |t| t.as_nanos().to_string())
}

/// Per-flow tracking for the stuck-flow and lost-wake watchdogs.
#[derive(Clone, Copy, Debug)]
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

/// The auditor: evaluates every watchdog over each boundary sample and
/// accumulates typed reports, capped at `max_reports`.
///
/// It observes and accuses; it never steers. Nothing it returns may
/// influence the simulation — the determinism goldens pin auditor-on
/// fingerprints bit-identical to auditor-off.
#[derive(Clone, Debug)]
pub struct InvariantAuditor {
    stuck_after: Time,
    max_reports: usize,
    reports: Vec<AnomalyReport>,
    prev_now: Time,
    flows: Vec<FlowWatch>,
}

impl InvariantAuditor {
    /// An auditor that calls a flow stuck after `stuck_after` without a
    /// newly acknowledged byte, recording at most `max_reports` anomalies.
    pub fn new(stuck_after: Time, max_reports: usize) -> InvariantAuditor {
        InvariantAuditor {
            stuck_after,
            max_reports: max_reports.max(1),
            reports: Vec::new(),
            prev_now: Time::ZERO,
            flows: Vec::new(),
        }
    }

    /// Record an externally detected anomaly (e.g. a snapshot decode
    /// failure), honoring the report cap.
    pub fn record(&mut self, report: AnomalyReport) {
        if self.reports.len() < self.max_reports {
            self.reports.push(report);
        }
    }

    /// Whether any watchdog has tripped.
    pub fn tripped(&self) -> bool {
        !self.reports.is_empty()
    }

    fn trip(&mut self, kind: AnomalyKind, at: Time, events: u64) {
        self.record(AnomalyReport { kind, at, events });
    }

    /// Inspect one boundary sample. Called between dispatches only.
    pub fn on_boundary(&mut self, s: &BoundarySample<'_>) {
        // Event-time monotonicity: the clock never runs backwards, and
        // no pending event may be older than the clock.
        if s.now < self.prev_now {
            self.trip(
                AnomalyKind::TimeRegression {
                    now: s.now,
                    pending: self.prev_now,
                },
                s.now,
                s.events,
            );
        }
        if let Some(next) = s.next_event_time {
            if next < s.now {
                self.trip(
                    AnomalyKind::TimeRegression {
                        now: s.now,
                        pending: next,
                    },
                    s.now,
                    s.events,
                );
            }
        }

        // Packet conservation: every live arena handle is in exactly one
        // holder (switch queue, NIC queue, shim buffer, pending arrival).
        if s.arena_live != s.holders {
            self.trip(
                AnomalyKind::PacketConservation {
                    live: s.arena_live,
                    holders: s.holders,
                },
                s.now,
                s.events,
            );
        }

        // Queue ceiling: admission control bounds *waiting* bytes per
        // port; an excess means a packet bypassed the check.
        if s.queue_limit_bytes > 0 && s.max_wait_bytes > s.queue_limit_bytes {
            self.trip(
                AnomalyKind::QueueCeiling {
                    switch: s.max_wait_switch,
                    port: s.max_wait_port,
                    bytes: s.max_wait_bytes,
                    limit: s.queue_limit_bytes,
                },
                s.now,
                s.events,
            );
        }

        // NIC backlog: the byte counter admission control reads must be
        // the bytes queued, recomputed by the runtime from the entries.
        if let Some((host, counted, walked)) = s.nic_backlog_mismatch {
            self.trip(
                AnomalyKind::NicBacklog {
                    host,
                    counted,
                    walked,
                },
                s.now,
                s.events,
            );
        }

        // Per flow: lost wakes, then stuck flows — a started, uncompleted
        // flow must acknowledge a new byte at least every `stuck_after`.
        for f in s.flows {
            let idx = f.flow as usize;
            if self.flows.len() <= idx {
                self.flows.resize(
                    idx + 1,
                    FlowWatch {
                        bytes_acked: 0,
                        since: f.start,
                        reported: false,
                        wake_reported: false,
                    },
                );
            }
            if f.done {
                self.flows[idx].reported = true; // completed: never report again
                continue;
            }
            // Lost wakes: bytes in flight need a retransmission wake at or
            // before the deadline, or a lost tail is never resent.
            let covered = matches!((f.rto_at, f.wake), (Some(at), Some(wake)) if wake <= at);
            if f.in_flight > 0 && !covered && !self.flows[idx].wake_reported {
                self.flows[idx].wake_reported = true;
                let kind = AnomalyKind::LostWake {
                    flow: f.flow,
                    rto_at: f.rto_at,
                    wake: f.wake,
                };
                self.trip(kind, s.now, s.events);
            }
            let w = &mut self.flows[idx];
            if f.bytes_acked > w.bytes_acked {
                w.bytes_acked = f.bytes_acked;
                w.since = s.now;
                w.reported = false;
                continue;
            }
            let stalled = s.now - w.since.max(f.start);
            if !w.reported && stalled >= self.stuck_after {
                w.reported = true;
                let kind = AnomalyKind::StuckFlow {
                    flow: f.flow,
                    stalled,
                };
                self.trip(kind, s.now, s.events);
            }
        }

        self.prev_now = s.now;
    }

    /// The anomalies recorded so far (chronological).
    pub fn reports(&self) -> &[AnomalyReport] {
        &self.reports
    }
}

/// One retained checkpoint in the [`SnapshotRing`].
#[derive(Clone, Debug)]
pub struct RingEntry {
    /// Simulation clock at the checkpoint.
    pub at: Time,
    /// Events processed at the checkpoint.
    pub events: u64,
    /// The encoded `DRILLSNAP` bytes.
    pub bytes: Vec<u8>,
}

/// The last K encoded `DRILLSNAP` checkpoints, bounded by entry count
/// *and* total bytes. Eviction drops the oldest entries first and always
/// keeps the newest, even when it alone exceeds the byte budget — a
/// rewind point beats an empty ring.
#[derive(Clone, Debug)]
pub struct SnapshotRing {
    max_entries: usize,
    max_bytes: usize,
    total_bytes: usize,
    entries: VecDeque<RingEntry>,
}

impl SnapshotRing {
    /// A ring holding at most `max_entries` snapshots and `max_bytes`
    /// total encoded bytes.
    pub fn new(max_entries: usize, max_bytes: usize) -> SnapshotRing {
        SnapshotRing {
            max_entries: max_entries.max(1),
            max_bytes,
            total_bytes: 0,
            entries: VecDeque::new(),
        }
    }

    /// Append a checkpoint, evicting from the oldest end until both
    /// bounds hold (the newest entry is never evicted).
    pub fn push(&mut self, at: Time, events: u64, bytes: Vec<u8>) {
        self.total_bytes += bytes.len();
        self.entries.push_back(RingEntry { at, events, bytes });
        while self.entries.len() > 1
            && (self.entries.len() > self.max_entries || self.total_bytes > self.max_bytes)
        {
            let dropped = self.entries.pop_front().expect("len > 1");
            self.total_bytes -= dropped.bytes.len();
        }
    }

    /// The retained checkpoints, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &RingEntry> {
        self.entries.iter()
    }

    /// The most recent checkpoint, if any.
    pub fn newest(&self) -> Option<&RingEntry> {
        self.entries.back()
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Write every retained checkpoint to `dir` as
    /// `ring-<idx>-<events>.drillsnap` (idx 0 = oldest; the highest idx
    /// is the rewind point closest to the anomaly). Returns the written
    /// paths, oldest first.
    pub fn dump(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        fs::create_dir_all(dir)?;
        let mut paths = Vec::with_capacity(self.entries.len());
        for (i, e) in self.entries.iter().enumerate() {
            let path = dir.join(format!("ring-{i:03}-{}.drillsnap", e.events));
            fs::write(&path, &e.bytes)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<'a>(flows: &'a [FlowProgress]) -> BoundarySample<'a> {
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
            flows,
        }
    }

    #[test]
    fn clean_sample_trips_nothing() {
        let mut a = InvariantAuditor::new(Time::from_millis(500), 8);
        for i in 1..=10u64 {
            let mut s = sample(&[]);
            s.now = Time::from_millis(i);
            s.events = i * 1000;
            s.next_event_time = Some(Time::from_millis(i + 1));
            a.on_boundary(&s);
        }
        assert!(!a.tripped());
    }

    #[test]
    fn conservation_mismatch_trips() {
        let mut a = InvariantAuditor::new(Time::from_millis(500), 8);
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
        let mut a = InvariantAuditor::new(Time::from_millis(500), 8);
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
        let mut a = InvariantAuditor::new(Time::from_millis(500), 8);
        s.queue_limit_bytes = 0;
        a.on_boundary(&s);
        assert!(!a.tripped());
    }

    #[test]
    fn nic_backlog_mismatch_trips_with_evidence() {
        let mut a = InvariantAuditor::new(Time::from_millis(500), 8);
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
        let mut a = InvariantAuditor::new(Time::from_millis(500), 8);
        let mut s = sample(&[]);
        s.next_event_time = Some(Time::from_nanos(1)); // long past
        a.on_boundary(&s);
        assert!(matches!(
            a.reports()[0].kind,
            AnomalyKind::TimeRegression { .. }
        ));
        let mut a = InvariantAuditor::new(Time::from_millis(500), 8);
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
        let mut a = InvariantAuditor::new(stuck_after, 8);
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
        fn at<'a>(ms: u64, flows: &'a [FlowProgress]) -> BoundarySample<'a> {
            let mut s = sample(flows);
            s.now = Time::from_millis(ms);
            s
        }
        a.on_boundary(&at(1, &flow(100, false)));
        a.on_boundary(&at(4, &flow(200, false))); // progress at 4ms
        a.on_boundary(&at(8, &flow(200, false))); // stalled 4ms: ok
        assert!(!a.tripped());
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
        let mut a = InvariantAuditor::new(stuck_after, 8);
        a.on_boundary(&at(1, &flow(100, false)));
        a.on_boundary(&at(100, &flow(100, true)));
        assert!(!a.tripped());
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
        let mut a = InvariantAuditor::new(Time::from_secs(10), 8);
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
        let mut a = InvariantAuditor::new(Time::from_secs(10), 8);
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
        let mut a = InvariantAuditor::new(Time::from_secs(10), 8);
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
        assert!(!a.tripped(), "{:?}", a.reports());
    }

    #[test]
    fn report_cap_holds() {
        let mut a = InvariantAuditor::new(Time::from_millis(500), 2);
        for i in 0..5u64 {
            let mut s = sample(&[]);
            s.now = Time::from_millis(i + 1);
            s.arena_live = 100 + i; // conservation broken every boundary
            a.on_boundary(&s);
        }
        assert_eq!(a.reports().len(), 2);
    }

    #[test]
    fn ring_evicts_oldest_by_count_and_bytes() {
        let mut r = SnapshotRing::new(3, 1000);
        for i in 0..5u64 {
            r.push(Time::from_millis(i), i * 100, vec![0u8; 100]);
        }
        assert_eq!(r.len(), 3);
        let events: Vec<u64> = r.entries().map(|e| e.events).collect();
        assert_eq!(events, vec![200, 300, 400], "oldest evicted first");
        assert_eq!(r.newest().unwrap().events, 400);
        assert_eq!(r.total_bytes, 300);

        // Byte bound evicts too, but the newest always survives.
        let mut r = SnapshotRing::new(10, 250);
        r.push(Time::ZERO, 0, vec![0u8; 100]);
        r.push(Time::ZERO, 1, vec![0u8; 100]);
        r.push(Time::ZERO, 2, vec![0u8; 100]);
        assert_eq!(r.len(), 2, "300B > 250B budget drops the oldest");
        r.push(Time::ZERO, 3, vec![0u8; 10_000]);
        assert_eq!(r.len(), 1, "oversized newest still retained");
        assert_eq!(r.newest().unwrap().events, 3);
    }

    #[test]
    fn ring_dump_writes_oldest_first() {
        let dir = std::env::temp_dir().join(format!("drill-audit-ring-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut r = SnapshotRing::new(2, usize::MAX);
        r.push(Time::from_millis(1), 111, b"aaa".to_vec());
        r.push(Time::from_millis(2), 222, b"bbb".to_vec());
        let paths = r.dump(&dir).unwrap();
        assert_eq!(paths.len(), 2);
        assert!(paths[0]
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("111"));
        assert_eq!(fs::read(&paths[1]).unwrap(), b"bbb");
        fs::remove_dir_all(&dir).unwrap();
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
}
