//! The audit layer's state: the invariant auditor, its snapshot ring
//! and boundary cadence, and the sabotage hooks of the auditor's
//! negative tests. Attached exactly when `cfg.audit` is set.

use drill_audit::{AnomalyReport, BoundarySample, FlowProgress, InvariantAuditor, SnapshotRing};
use drill_faults::{SabotageKind, SabotageSpec};
use drill_net::{HostId, NetEvent, Packet};
use drill_sim::Time;
use drill_telemetry::Probe;

use super::{Event, World};
use crate::config::AuditSpec;

/// Snapshots the audit ring keeps (oldest evicted first).
const AUDIT_RING_ENTRIES: usize = 4;

/// The audit ring's total-bytes bound (the newest entry always survives).
const AUDIT_RING_BYTES: usize = 64 << 20;

/// Anomaly reports an audited run records before it stops recording.
const AUDIT_MAX_REPORTS: usize = 8;

/// Attached whenever `cfg.audit` is set. The auditor observes boundary
/// samples but never steers, so auditor-on fingerprints are pinned
/// bit-identical to auditor-off; a run without one has no boundaries and
/// honours no sabotage.
pub(super) struct Audit {
    pub(super) auditor: InvariantAuditor,
    /// Last-K `DRILLSNAP` ring retaining the most recent *clean*
    /// boundaries: the rewind pool a trip dumps. It is only ever
    /// observable through a dump, so it is armed — and the per-boundary
    /// snapshot cost paid — only when the spec names a `dump_dir`.
    ring: Option<SnapshotRing>,
    /// Boundary period in processed events (0 = none counted in events).
    every: u64,
    /// Boundary period in simulated time: a quarter of `stuck_after`, so
    /// a stall of 1.5 × `stuck_after` is seen however few events fall in
    /// it (zero = none counted in time).
    period: Time,
    /// When the next time-counted boundary falls.
    next_at: Time,
    /// A trip dumps ring + faulted snapshot + meta exactly once.
    dumped: bool,
    /// `cfg.sabotage`; the one-shot `LeakPacket` clears it when it fires.
    sabotage: Option<SabotageSpec>,
}

impl Audit {
    pub(super) fn new(spec: &AuditSpec, sabotage: Option<SabotageSpec>) -> Audit {
        Audit {
            auditor: InvariantAuditor::new(spec.stuck_after, AUDIT_MAX_REPORTS),
            ring: spec
                .dump_dir
                .is_some()
                .then(|| SnapshotRing::new(AUDIT_RING_ENTRIES, AUDIT_RING_BYTES)),
            every: spec.every_events,
            period: Time::from_nanos(spec.stuck_after.as_nanos() / 4),
            next_at: Time::from_nanos(spec.stuck_after.as_nanos() / 4),
            dumped: false,
            sabotage,
        }
    }

    /// Whether the one-shot `LeakPacket` sabotage fires at `now`.
    pub(super) fn leak_due(&mut self, now: Time) -> bool {
        let due = matches!(
            self.sabotage,
            Some(SabotageSpec { at, kind: SabotageKind::LeakPacket }) if now >= at
        );
        if due {
            self.sabotage = None;
        }
        due
    }

    /// Whether the `BlackholeFlow` sabotage discards this packet of
    /// `flow` at its receiver.
    pub(super) fn blackholes(&self, flow: u32, is_ack: bool, now: Time) -> bool {
        matches!(
            self.sabotage,
            Some(SabotageSpec { at, kind: SabotageKind::BlackholeFlow { flow: target } })
                if flow == target && !is_ack && now >= at
        )
    }
}

impl<P: Probe> World<P> {
    /// The `LeakPacket` sabotage (audited runs only; negative tests and
    /// the tracedump demo): intern a dummy packet and drop the handle.
    pub(super) fn leak_packet(&mut self, now: Time) {
        self.flows.pkt_ids += 1;
        let id = drill_net::FlowId(u32::MAX);
        let p = Packet::data(self.flows.pkt_ids, id, HostId(0), HostId(0), 0, 0, 1, now);
        let _leaked = self.net.arena.insert(p);
    }

    /// The boundaries due after a dispatch: one if the event count is a
    /// multiple of `every`, then one at each period mark before the next
    /// pending event and the deadline. The world does not change between
    /// events, so a mark in an idle stretch samples it as it stands.
    pub(super) fn audit_boundaries(&mut self, events: u64, deadline: Time) {
        let now = self.queue.now();
        if self
            .audit
            .as_ref()
            .is_some_and(|a| a.every > 0 && events.is_multiple_of(a.every))
        {
            self.audit_boundary(now);
        }
        let next = self.queue.peek_time().unwrap_or(now);
        while let Some(at) = self
            .audit
            .as_ref()
            .filter(|a| a.period > Time::ZERO)
            .map(|a| a.next_at.max(now))
            .filter(|&at| at < next && at <= deadline)
        {
            self.audit_boundary(at);
        }
    }

    /// Assemble one [`BoundarySample`] as of `now` — between dispatches,
    /// so every count is consistent — and hand it to the auditor. Clean
    /// boundaries feed the snapshot ring; the first tripped boundary
    /// dumps it.
    fn audit_boundary(&mut self, now: Time) {
        let (mut sample, flows) = self.boundary_sample(now);
        let Some(audit) = self.audit.as_mut() else {
            return;
        };
        audit.next_at = now + audit.period;
        sample.flows = &flows;
        let before = audit.auditor.reports().len();
        audit.auditor.on_boundary(&sample);
        let events = sample.events;
        if let Some(report) = audit.auditor.reports().get(before).cloned() {
            self.audit_trip(report);
        } else if before == 0
            && (audit.ring.as_ref()).is_some_and(|r| r.newest().is_none_or(|e| e.events < events))
        {
            // Only clean boundaries enter the ring: after a trip the ring
            // freezes as the rewind pool ending just before the anomaly.
            // Marks in one idle stretch share a snapshot; the first keeps it.
            let bytes = self.snapshot().to_bytes();
            if let Some(ring) = self.audit.as_mut().and_then(|a| a.ring.as_mut()) {
                ring.push(now, events, bytes);
            }
        }
    }

    /// The boundary sample, with its flow rows apart. Holder walk: every
    /// live arena handle is in exactly one of the switch queues (waiting +
    /// in-flight), NIC queues (the in-flight head stays queued until
    /// tx-done), shim reorder buffers, or packet-carrying pending events.
    /// Along the way, find the fullest waiting queue for the ceiling
    /// watchdog, and each flow's earliest pending RTO wake for the
    /// lost-wake one.
    fn boundary_sample(&mut self, now: Time) -> (BoundarySample<'static>, Vec<FlowProgress>) {
        let mut holders: u64 = 0;
        let mut max_wait = (0u64, 0u32, 0u16);
        for (si, sw) in self.net.switches.iter().enumerate() {
            for port in 0..sw.num_ports() as u16 {
                holders += sw.queue_pkts(port) as u64;
                let wb = sw.waiting_bytes(port);
                if wb > max_wait.0 {
                    max_wait = (wb, si as u32, port);
                }
            }
        }
        // A NIC holds only its built packets; the unsent segments of a
        // raw-flow train are in no arena yet. Its byte counter, though,
        // covers both, and must match a recount from the entries.
        let mut nic_backlog_mismatch = None;
        for (h, nic) in self.net.nics.iter().enumerate() {
            holders += nic.backlog_pkts() as u64;
            let (counted, walked) = (nic.backlog_bytes(), nic.walked_backlog_bytes());
            if counted != walked && nic_backlog_mismatch.is_none() {
                nic_backlog_mismatch = Some((h as u32, counted, walked));
            }
        }
        let shims = self.flows.records.iter().filter_map(|r| r.shim.as_ref());
        holders += shims.map(|s| s.held() as u64).sum::<u64>();
        let mut wakes = vec![Time::MAX; self.flows.records.len()];
        self.queue
            .for_each_pending(|at, _, &ev| match Event::from(ev) {
                Event::Net(NetEvent::ArriveSwitch { .. } | NetEvent::ArriveHost { .. }) => {
                    holders += 1
                }
                Event::TcpTimer { flow } => wakes[flow as usize] = wakes[flow as usize].min(at),
                _ => {}
            });
        let records = self.flows.records.iter().zip(wakes).enumerate();
        let flows = records
            .map(|(i, (r, wake))| FlowProgress {
                flow: i as u32,
                bytes_acked: r.tcp.bytes_acked,
                start: r.tcp.start,
                done: r.tcp.done.is_some(),
                in_flight: r.tcp.in_flight(),
                rto_at: r.tcp.rto_at(),
                wake: (wake != Time::MAX).then_some(wake),
            })
            .collect();
        let sample = BoundarySample {
            now,
            events: self.queue.events_processed(),
            arena_live: self.net.arena.live() as u64,
            holders,
            max_wait_bytes: max_wait.0,
            max_wait_switch: max_wait.1,
            max_wait_port: max_wait.2,
            queue_limit_bytes: self.cfg.queue_limit_bytes,
            nic_backlog_mismatch,
            next_event_time: self.queue.peek_time(),
            flows: &[],
        };
        (sample, flows)
    }

    /// Graceful degradation on a watchdog trip: no panic — dump the
    /// snapshot ring, a `DRILLSNAP` of the faulted instant, and an
    /// `anomaly.meta` describing the first new report into the spec's
    /// `dump_dir` (once per run), leaving the run to complete normally.
    fn audit_trip(&mut self, report: AnomalyReport) {
        let Some(audit) = self.audit.as_mut().filter(|a| !a.dumped) else {
            return;
        };
        audit.dumped = true;
        let Some(dir) = self.cfg.audit.as_ref().and_then(|s| s.dump_dir.clone()) else {
            return;
        };
        let ring = self.audit.as_ref().and_then(|a| a.ring.as_ref());
        let result = (|| -> std::io::Result<()> {
            std::fs::create_dir_all(&dir)?;
            let ring_paths = match ring {
                Some(ring) => ring.dump(&dir)?,
                None => Vec::new(),
            };
            self.snapshot().save(dir.join("faulted.drillsnap"))?;
            let mut meta = report.meta_lines();
            if let Some(rewind) = ring_paths.last().and_then(|p| p.file_name()) {
                meta.push(format!("rewind={}", rewind.to_string_lossy()));
            }
            if let Some(e) = ring.and_then(|r| r.newest()) {
                meta.push(format!("rewind_events={}", e.events));
            }
            meta.push("faulted=faulted.drillsnap".to_string());
            std::fs::write(dir.join("anomaly.meta"), meta.join("\n") + "\n")
        })();
        if let Err(e) = result {
            eprintln!("audit dump {}: {e}", dir.display());
        }
    }
}
