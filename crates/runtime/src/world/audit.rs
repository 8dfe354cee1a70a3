//! The world's side of the auditor (`crate::audit`): the sabotage
//! hooks, the boundary cadence, the sample each boundary hands the
//! auditor, and every file of a trip's dump. The ring snapshots, the
//! faulted snapshot and `anomaly.meta` are named and written here, and
//! read back here by [`rewind_replay`].

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use drill_net::{HostId, NetEvent, Packet};
use drill_sim::Time;
use drill_telemetry::Probe;

use super::{Event, World};
use crate::audit::{AnomalyReport, BoundarySample, FlowProgress, SnapshotRing};
use crate::{ExperimentConfig, Snapshot};

impl<P: Probe> World<P> {
    /// The `LeakPacket` sabotage (audited runs only; the auditor's
    /// negative tests): once `next`, the next pending event's time, is at
    /// or after its instant, intern a dummy packet and drop the handle
    /// before that event runs.
    pub(super) fn leak_if_due(&mut self, next: Option<Time>) {
        let due = next.filter(|&t| self.audit.as_mut().is_some_and(|a| a.leak_due(t)));
        let Some(next) = due else {
            return;
        };
        self.flows.pkt_ids += 1;
        let id = drill_net::FlowId(u32::MAX);
        let p = Packet::data(self.flows.pkt_ids, id, HostId(0), HostId(0), 0, 0, 1, next);
        let _leaked = self.net.arena.insert(p);
    }

    /// The audit hook after a dispatch: the boundaries due, then a
    /// `LeakPacket` sabotage due before the next event. A boundary falls
    /// if the event count is a multiple of `every`, then one at each
    /// period mark before the next pending event and the deadline. The
    /// world does not change between events, so a mark in an idle
    /// stretch samples it as it stands.
    pub(super) fn audit_boundaries(&mut self, events: u64, deadline: Time) {
        let now = self.queue.now();
        if self
            .audit
            .as_ref()
            .is_some_and(|a| a.every > 0 && events.is_multiple_of(a.every))
        {
            self.audit_boundary(now);
        }
        let next = self.queue.peek_time();
        while let Some(at) = self
            .audit
            .as_ref()
            .filter(|a| a.period > Time::ZERO)
            .map(|a| a.next_at.max(now))
            .filter(|&at| at < next.unwrap_or(now) && at <= deadline)
        {
            self.audit_boundary(at);
        }
        self.leak_if_due(next);
    }

    /// Assemble one [`BoundarySample`] as of `now` — between dispatches,
    /// so every count is consistent — and hand it to the auditor. Clean
    /// boundaries feed the snapshot ring; the first tripped boundary
    /// dumps it.
    fn audit_boundary(&mut self, now: Time) {
        let sample = self.boundary_sample(now);
        let Some(audit) = self.audit.as_mut() else {
            return;
        };
        audit.next_at = now + audit.period;
        let before = audit.reports().len();
        audit.on_boundary(&sample);
        let events = sample.events;
        if let Some(report) = audit.reports().get(before).cloned() {
            self.audit_trip(report);
        } else if before == 0
            && (audit.ring.as_ref()).is_some_and(|r| r.newest().is_none_or(|e| e.events < events))
        {
            // Only clean boundaries enter the ring: after a trip the ring
            // freezes as the rewind pool ending just before the anomaly.
            // Marks in one idle stretch share a snapshot; the first keeps it.
            let bytes = self.snapshot().to_bytes();
            if let Some(ring) = self.audit.as_mut().and_then(|a| a.ring.as_mut()) {
                ring.push(events, bytes);
            }
        }
    }

    /// The boundary sample as of `now`. Holder walk: every
    /// live arena handle is in exactly one of the switch queues (waiting +
    /// in-flight), NIC queues (the in-flight head stays queued until
    /// tx-done), shim reorder buffers, or packet-carrying pending events.
    /// Along the way, find the fullest waiting queue for the ceiling
    /// watchdog, and each flow's earliest pending RTO wake for the
    /// lost-wake one.
    fn boundary_sample(&mut self, now: Time) -> BoundarySample {
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
        BoundarySample {
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
            flows,
        }
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
        let result = (|| -> io::Result<()> {
            fs::create_dir_all(&dir)?;
            let rewind = write_ring(ring, &dir)?;
            self.snapshot().save(dir.join(FAULTED_FILE))?;
            let rewind = rewind
                .as_ref()
                .map(|(file, events)| (file.as_str(), *events));
            fs::write(dir.join(META_FILE), meta_text(&report, rewind))
        })();
        if let Err(e) = result {
            eprintln!("audit dump {}: {e}", dir.display());
        }
    }
}

/// The file a trip writes its report and rewind pointer into.
const META_FILE: &str = "anomaly.meta";

/// The file a trip writes the snapshot of the tripped boundary into.
const FAULTED_FILE: &str = "faulted.drillsnap";

/// Write every retained ring snapshot into `dir` as
/// `ring-<idx>-<events>.drillsnap` (idx 0 = oldest; the highest idx is
/// the rewind point closest to the anomaly). Returns the newest one's
/// file name and event count: the `rewind=` / `rewind_events=` pointer.
fn write_ring(ring: Option<&SnapshotRing>, dir: &Path) -> io::Result<Option<(String, u64)>> {
    let mut newest = None;
    for (i, e) in ring.into_iter().flat_map(SnapshotRing::entries).enumerate() {
        let file = format!("ring-{i:03}-{}.drillsnap", e.events);
        fs::write(dir.join(&file), &e.bytes)?;
        newest = Some((file, e.events));
    }
    Ok(newest)
}

/// The text of `anomaly.meta`: the report's `key=value` lines, then
/// `rewind=` / `rewind_events=` naming the newest clean ring snapshot
/// (absent when the ring held none), then `faulted=`.
fn meta_text(report: &AnomalyReport, rewind: Option<(&str, u64)>) -> String {
    let mut lines = report.meta_lines();
    if let Some((file, events)) = rewind {
        lines.push(format!("rewind={file}"));
        lines.push(format!("rewind_events={events}"));
    }
    lines.push(format!("faulted={FAULTED_FILE}"));
    lines.join("\n") + "\n"
}

/// What a trip's `anomaly.meta` says: which watchdog tripped where, and
/// the ring snapshot to rewind to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnomalyMeta {
    /// The tripped watchdog ([`AnomalyKind::name`](crate::AnomalyKind::name)).
    pub kind: String,
    /// Simulated time of the tripped boundary.
    pub at: Time,
    /// Events processed at the tripped boundary.
    pub events: u64,
    /// The newest clean ring snapshot, inside the dump directory.
    pub rewind: PathBuf,
    /// Events processed at that snapshot.
    pub rewind_events: u64,
}

impl AnomalyMeta {
    /// Read `dir/anomaly.meta`. A missing file or key, a number that
    /// does not parse, or no `rewind=` line (the ring held no clean
    /// snapshot) is an error.
    pub fn read(dir: &Path) -> io::Result<AnomalyMeta> {
        let path = dir.join(META_FILE);
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let text = fs::read_to_string(&path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let get = |key: &str| {
            let value = text
                .lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='));
            value.ok_or_else(|| bad(format!("{} has no {key}= line", path.display())))
        };
        let num = |key: &str| {
            let value = get(key)?;
            value
                .parse::<u64>()
                .map_err(|e| bad(format!("{} {key}={value}: {e}", path.display())))
        };
        Ok(AnomalyMeta {
            kind: get("kind")?.to_string(),
            at: Time::from_nanos(num("at_ns")?),
            events: num("events")?,
            rewind: dir.join(get("rewind")?),
            rewind_events: num("rewind_events")?,
        })
    }
}

/// Rewind-replay a trip's dump in `dir`: restore its newest clean ring
/// snapshot with `probe` attached, under `cfg` — the config of the run
/// that wrote the dump — with `audit` (and so its sabotage) cleared and
/// `max_events` set to the anomaly's event count. Finishing the returned
/// world re-runs exactly the window up to the tripped boundary. An
/// unreadable dump, a corrupt snapshot or a `cfg` that does not match it
/// is an error.
pub fn rewind_replay<P: Probe>(
    dir: &Path,
    cfg: &ExperimentConfig,
    probe: P,
) -> io::Result<(AnomalyMeta, World<P>)> {
    let meta = AnomalyMeta::read(dir)?;
    let snap = Snapshot::load(&meta.rewind)?;
    let mut cfg = cfg.clone();
    cfg.audit = None;
    cfg.max_events = meta.events;
    let w = World::restore_probed(&snap, &cfg, probe)?;
    Ok((meta, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnomalyKind;

    const REWIND: (&str, u64) = ("ring-003-120000.drillsnap", 120_000);

    fn stuck_report() -> AnomalyReport {
        AnomalyReport {
            kind: AnomalyKind::StuckFlow {
                flow: 42,
                stalled: Time::from_millis(7),
            },
            at: Time::from_millis(9),
            events: 123_456,
        }
    }

    /// A fresh directory holding `meta` as its `anomaly.meta`.
    fn dump_with(tag: &str, meta: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("drill-meta-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(META_FILE), meta).unwrap();
        dir
    }

    /// `AnomalyMeta::read` on `meta` with `line` removed or replaced.
    fn read_edited(tag: &str, line: &str, with: Option<&str>) -> io::Result<AnomalyMeta> {
        let text = meta_text(&stuck_report(), Some(REWIND));
        let edited: Vec<&str> = text
            .lines()
            .filter_map(|l| if l == line { with } else { Some(l) })
            .collect();
        let dir = dump_with(tag, &edited.join("\n"));
        let read = AnomalyMeta::read(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        read
    }

    #[test]
    fn meta_text_is_pinned_and_reads_back() {
        let text = meta_text(&stuck_report(), Some(REWIND));
        assert_eq!(
            text,
            "kind=stuck_flow\nat_ns=9000000\nevents=123456\nflow=42\nstalled_ns=7000000\n\
             rewind=ring-003-120000.drillsnap\nrewind_events=120000\nfaulted=faulted.drillsnap\n"
        );
        let dir = dump_with("pinned", &text);
        let meta = AnomalyMeta::read(&dir).unwrap();
        assert_eq!(
            meta,
            AnomalyMeta {
                kind: "stuck_flow".into(),
                at: Time::from_millis(9),
                events: 123_456,
                rewind: dir.join("ring-003-120000.drillsnap"),
                rewind_events: 120_000,
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ring_dump_writes_oldest_first() {
        let dir = std::env::temp_dir().join(format!("drill-audit-ring-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut r = SnapshotRing::new(2, usize::MAX);
        r.push(111, b"aaa".to_vec());
        r.push(222, b"bbb".to_vec());
        let newest = write_ring(Some(&r), &dir).unwrap();
        assert_eq!(newest, Some(("ring-001-222.drillsnap".into(), 222)));
        assert_eq!(
            fs::read(dir.join("ring-000-111.drillsnap")).unwrap(),
            b"aaa"
        );
        assert_eq!(
            fs::read(dir.join("ring-001-222.drillsnap")).unwrap(),
            b"bbb"
        );
        assert_eq!(write_ring(None, &dir).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dump_dir_is_an_error() {
        let dir = std::env::temp_dir().join(format!("drill-meta-none-{}", std::process::id()));
        let err = AnomalyMeta::read(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn missing_meta_file_is_an_error() {
        let dir = dump_with("nofile", "");
        std::fs::remove_file(dir.join(META_FILE)).unwrap();
        let err = AnomalyMeta::read(&dir).unwrap_err();
        assert!(err.to_string().contains(META_FILE), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_key_is_an_error() {
        let err = read_edited("nokey", "events=123456", None).unwrap_err();
        assert!(err.to_string().contains("no events= line"), "{err}");
    }

    #[test]
    fn unparsable_number_is_an_error() {
        let err = read_edited("nan", "at_ns=9000000", Some("at_ns=9ms")).unwrap_err();
        assert!(err.to_string().contains("at_ns=9ms"), "{err}");
    }

    #[test]
    fn a_ring_without_clean_snapshot_is_an_error() {
        let dir = dump_with("norewind", &meta_text(&stuck_report(), None));
        let err = AnomalyMeta::read(&dir).unwrap_err();
        assert!(err.to_string().contains("no rewind= line"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
