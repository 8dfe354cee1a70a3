//! Post-hoc trace analyzers: the tables `tracedump` prints.
//!
//! Everything here works on the [`FlightRecorder`] a run returns; no
//! simulator state is needed, so a recording can be analyzed after the
//! world that made it is gone.

use std::collections::BTreeMap;

use drill_sim::Time;

use crate::probe::meta_flags;
use crate::record::{FlightRecorder, TraceEvent};

/// Per-port queue-depth step series: `(bucket, depth at bucket end)`,
/// keyed by (switch, port). Derived from the depth fields carried on every
/// enqueue/dequeue event (last event in a bucket wins; buckets without
/// queue activity are omitted).
pub fn queue_timelines(
    trace: &FlightRecorder,
    bucket: Time,
) -> BTreeMap<(u32, u16), Vec<(u64, u32)>> {
    let every = bucket.as_nanos().max(1);
    let mut out: BTreeMap<(u32, u16), Vec<(u64, u32)>> = BTreeMap::new();
    for ev in trace.merged_events() {
        let (switch, port, t, depth) = match ev {
            TraceEvent::Enqueue {
                t,
                switch,
                port,
                depth_pkts,
                ..
            }
            | TraceEvent::Dequeue {
                t,
                switch,
                port,
                depth_pkts,
                ..
            } => (*switch, *port, *t, *depth_pkts),
            _ => continue,
        };
        let b = t.as_nanos() / every;
        let series = out.entry((switch, port)).or_default();
        match series.last_mut() {
            Some((last_b, last_d)) if *last_b == b => *last_d = depth,
            _ => series.push((b, depth)),
        }
    }
    out
}

/// Cross-port queue-length standard deviation per bucket for one switch —
/// the Fig. 2 imbalance metric, recomputed from the trace. Port depths are
/// forward-filled between their sampled buckets.
pub fn depth_stdev_timeline(
    timelines: &BTreeMap<(u32, u16), Vec<(u64, u32)>>,
    switch: u32,
    ports: &[u16],
) -> Vec<(u64, f64)> {
    let series: Vec<&Vec<(u64, u32)>> = ports
        .iter()
        .filter_map(|p| timelines.get(&(switch, *p)))
        .collect();
    if series.len() != ports.len() || series.is_empty() {
        return Vec::new();
    }
    let mut buckets: Vec<u64> = series
        .iter()
        .flat_map(|s| s.iter().map(|&(b, _)| b))
        .collect();
    buckets.sort_unstable();
    buckets.dedup();
    // Forward-fill each port with a cursor over its own samples.
    let mut cursors = vec![0usize; series.len()];
    let mut depths = vec![0f64; series.len()];
    let mut out = Vec::with_capacity(buckets.len());
    for &b in &buckets {
        for (i, s) in series.iter().enumerate() {
            while cursors[i] < s.len() && s[cursors[i]].0 <= b {
                depths[i] = s[cursors[i]].1 as f64;
                cursors[i] += 1;
            }
        }
        let mean = depths.iter().sum::<f64>() / depths.len() as f64;
        let var = depths.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / depths.len() as f64;
        out.push((b, var.sqrt()));
    }
    out
}

/// One packet's reconstructed trip through the fabric.
#[derive(Clone, Debug, Default)]
pub struct PacketTrip {
    /// Packet id.
    pub id: u64,
    /// Flow id (from the send event).
    pub flow: u32,
    /// NIC-accept time, ns (if the send survived in the ring).
    pub send_ns: Option<u64>,
    /// Delivery time, ns (if delivered and surviving).
    pub recv_ns: Option<u64>,
    /// Switch hops observed (enqueue events).
    pub hops: u32,
    /// Total queueing + serialization time across observed hops, ns.
    pub wait_ns: u64,
    /// Whether a drop event for this packet was recorded.
    pub dropped: bool,
}

impl PacketTrip {
    /// End-to-end latency in ns when both endpoints were recorded.
    pub fn latency_ns(&self) -> Option<u64> {
        match (self.send_ns, self.recv_ns) {
            (Some(s), Some(r)) if r >= s => Some(r - s),
            _ => None,
        }
    }
}

/// Join every packet's lifecycle events by id into per-packet trips,
/// keyed by packet id.
pub fn packet_trips(trace: &FlightRecorder) -> BTreeMap<u64, PacketTrip> {
    let mut trips: BTreeMap<u64, PacketTrip> = BTreeMap::new();
    for ev in trace.merged_events() {
        match ev {
            TraceEvent::HostSend { t, pkt, .. } => {
                let e = trips.entry(pkt.id).or_default();
                e.id = pkt.id;
                e.flow = pkt.flow;
                e.send_ns = Some(t.as_nanos());
            }
            TraceEvent::HostRecv { t, pkt, .. } => {
                let e = trips.entry(pkt.id).or_default();
                e.id = pkt.id;
                e.flow = pkt.flow;
                e.recv_ns = Some(t.as_nanos());
            }
            TraceEvent::Enqueue { pkt_id, .. } => {
                let e = trips.entry(*pkt_id).or_default();
                e.id = *pkt_id;
                e.hops += 1;
            }
            TraceEvent::Dequeue {
                pkt_id, wait_ns, ..
            } => {
                let e = trips.entry(*pkt_id).or_default();
                e.id = *pkt_id;
                e.wait_ns += wait_ns;
            }
            TraceEvent::Drop { pkt_id, .. } => {
                let e = trips.entry(*pkt_id).or_default();
                e.id = *pkt_id;
                e.dropped = true;
            }
            TraceEvent::EngineChoice { .. }
            | TraceEvent::NicDrop { .. }
            | TraceEvent::Fault { .. } => {}
        }
    }
    trips
}

/// One entry of the control-plane fault timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultTimelineEntry {
    /// Event time in ns.
    pub t_ns: u64,
    /// [`crate::fault_kind`] code.
    pub kind: u8,
    /// First affected switch (`u32::MAX` when unused).
    pub a: u32,
    /// Second affected switch (`u32::MAX` when unused).
    pub b: u32,
    /// Kind-specific payload.
    pub param: u64,
}

/// Extract the chronological fault/reconvergence timeline from the
/// control ring (empty for traces recorded without fault injection).
pub fn fault_timeline(trace: &FlightRecorder) -> Vec<FaultTimelineEntry> {
    let mut out = Vec::new();
    for ev in trace.merged_events() {
        if let TraceEvent::Fault {
            t,
            kind,
            a,
            b,
            param,
            ..
        } = ev
        {
            out.push(FaultTimelineEntry {
                t_ns: t.as_nanos(),
                kind: *kind,
                a: *a,
                b: *b,
                param: *param,
            });
        }
    }
    out
}

/// Reordering observed at delivery, per flow and in aggregate.
#[derive(Clone, Debug, Default)]
pub struct ReorderReport {
    /// Flows with at least one delivered data packet.
    pub flows: u64,
    /// Delivered (non-retransmit) data packets inspected.
    pub deliveries: u64,
    /// Total inversions: deliveries whose emission index was below the
    /// flow's running maximum. Cross-checks `TcpFlow::reorder_events`.
    pub inversions: u64,
    /// Histogram of inversion *degree* (`max_seen - emit_idx`), indexed by
    /// `min(degree, len-1)` — the last bucket aggregates the tail.
    pub degree_hist: Vec<u64>,
}

/// Build the reordering-degree histogram from delivered data packets
/// (retransmissions excluded, matching the TCP counter's rule).
pub fn reordering(trace: &FlightRecorder, hist_buckets: usize) -> ReorderReport {
    let mut rep = ReorderReport {
        degree_hist: vec![0; hist_buckets.max(1)],
        ..Default::default()
    };
    let mut max_seen: BTreeMap<u32, u32> = BTreeMap::new();
    for ev in trace.merged_events() {
        let pkt = match ev {
            TraceEvent::HostRecv { pkt, .. } => pkt,
            _ => continue,
        };
        if pkt.flags & meta_flags::DATA == 0 || pkt.flags & meta_flags::RETX != 0 {
            continue;
        }
        rep.deliveries += 1;
        match max_seen.get_mut(&pkt.flow) {
            None => {
                rep.flows += 1;
                max_seen.insert(pkt.flow, pkt.emit_idx);
            }
            Some(m) => {
                if pkt.emit_idx < *m {
                    rep.inversions += 1;
                    let degree = (*m - pkt.emit_idx) as usize;
                    let idx = degree.min(rep.degree_hist.len() - 1);
                    rep.degree_hist[idx] += 1;
                } else {
                    *m = pkt.emit_idx;
                }
            }
        }
    }
    rep
}

/// How well one forwarding engine's choices tracked the true shortest
/// queue (§3.2.1: engines act on stale, committed state).
#[derive(Clone, Copy, Debug, Default)]
pub struct DecisionQuality {
    /// Choices recorded.
    pub choices: u64,
    /// Choices whose chosen port had the minimum actual occupancy.
    pub optimal: u64,
    /// Sum over choices of `chosen_pkts - best_pkts` (excess queue).
    pub excess_sum: u64,
    /// Largest single excess.
    pub max_excess: u32,
}

impl DecisionQuality {
    /// Fraction of choices that were truly shortest.
    pub fn optimal_frac(&self) -> f64 {
        if self.choices == 0 {
            0.0
        } else {
            self.optimal as f64 / self.choices as f64
        }
    }

    /// Mean excess occupancy of the chosen port, in packets.
    pub fn mean_excess(&self) -> f64 {
        if self.choices == 0 {
            0.0
        } else {
            self.excess_sum as f64 / self.choices as f64
        }
    }
}

/// Aggregate decision quality per (switch, engine).
pub fn decision_quality(trace: &FlightRecorder) -> BTreeMap<(u32, u16), DecisionQuality> {
    let mut out: BTreeMap<(u32, u16), DecisionQuality> = BTreeMap::new();
    for ev in trace.merged_events() {
        let (switch, engine, choice) = match ev {
            TraceEvent::EngineChoice {
                switch,
                engine,
                choice,
                ..
            } => (*switch, *engine, choice),
            _ => continue,
        };
        let q = out.entry((switch, engine)).or_default();
        q.choices += 1;
        let excess = choice.chosen_pkts.saturating_sub(choice.best_pkts);
        if excess == 0 {
            q.optimal += 1;
        }
        q.excess_sum += excess as u64;
        q.max_excess = q.max_excess.max(excess);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{EngineChoice, PacketMeta};

    /// A switchless recorder whose host ring holds `events`.
    fn trace_of(events: Vec<TraceEvent>) -> FlightRecorder {
        let mut rec = FlightRecorder::new(0, 1, events.len().max(1));
        for ev in events {
            rec.host_ring().push(ev);
        }
        rec
    }

    fn enq(ns: u64, switch: u32, port: u16, depth: u32) -> TraceEvent {
        TraceEvent::Enqueue {
            t: Time::from_nanos(ns),
            switch,
            port,
            engine: 0,
            pkt_id: ns,
            size: 1500,
            depth_pkts: depth,
            depth_bytes: depth as u64 * 1500,
        }
    }

    fn recv(ns: u64, flow: u32, emit_idx: u32, flags: u8) -> TraceEvent {
        TraceEvent::HostRecv {
            t: Time::from_nanos(ns),
            host: 1,
            pkt: PacketMeta {
                id: ns,
                flow,
                emit_idx,
                flags,
                ..Default::default()
            },
        }
    }

    #[test]
    fn timelines_bucket_last_value() {
        let tr = trace_of(vec![
            enq(10, 0, 0, 1),
            enq(40, 0, 0, 2),
            enq(120, 0, 0, 3),
            enq(10, 0, 1, 5),
        ]);
        let tl = queue_timelines(&tr, Time::from_nanos(100));
        assert_eq!(tl[&(0, 0)], vec![(0, 2), (1, 3)]);
        assert_eq!(tl[&(0, 1)], vec![(0, 5)]);
    }

    #[test]
    fn stdev_timeline_forward_fills() {
        let tr = trace_of(vec![enq(10, 0, 0, 4), enq(10, 0, 1, 0), enq(150, 0, 1, 4)]);
        let tl = queue_timelines(&tr, Time::from_nanos(100));
        let sd = depth_stdev_timeline(&tl, 0, &[0, 1]);
        assert_eq!(sd.len(), 2);
        // Bucket 0: depths 4 and 0 -> stdev 2. Bucket 1: 4 and 4 -> 0.
        assert!((sd[0].1 - 2.0).abs() < 1e-12);
        assert_eq!(sd[1].1, 0.0);
        assert!(depth_stdev_timeline(&tl, 0, &[0, 7]).is_empty());
    }

    #[test]
    fn trips_join_by_packet_id() {
        let m = PacketMeta {
            id: 1,
            flow: 9,
            ..Default::default()
        };
        let tr = trace_of(vec![
            TraceEvent::HostSend {
                t: Time::from_nanos(100),
                host: 0,
                pkt: m,
            },
            TraceEvent::Enqueue {
                t: Time::from_nanos(200),
                switch: 0,
                port: 0,
                engine: 0,
                pkt_id: 1,
                size: 1500,
                depth_pkts: 1,
                depth_bytes: 1500,
            },
            TraceEvent::Dequeue {
                t: Time::from_nanos(1400),
                switch: 0,
                port: 0,
                pkt_id: 1,
                depth_pkts: 0,
                wait_ns: 1200,
            },
            TraceEvent::HostRecv {
                t: Time::from_nanos(1900),
                host: 1,
                pkt: m,
            },
        ]);
        let trips = packet_trips(&tr);
        let t = &trips[&1];
        assert_eq!(t.flow, 9);
        assert_eq!(t.hops, 1);
        assert_eq!(t.wait_ns, 1200);
        assert_eq!(t.latency_ns(), Some(1800));
        assert!(!t.dropped);
    }

    #[test]
    fn reordering_counts_inversions_not_retx() {
        let d = meta_flags::DATA;
        let tr = trace_of(vec![
            recv(1, 0, 0, d),
            recv(2, 0, 2, d),
            recv(3, 0, 1, d),                    // inversion, degree 1
            recv(4, 0, 0, d | meta_flags::RETX), // retx: ignored
            recv(5, 1, 5, d),
            recv(6, 1, 1, d), // inversion, degree 4
            recv(7, 1, 6, d),
        ]);
        let rep = reordering(&tr, 4);
        assert_eq!(rep.flows, 2);
        assert_eq!(rep.deliveries, 6);
        assert_eq!(rep.inversions, 2);
        assert_eq!(rep.degree_hist, vec![0, 1, 0, 1]); // degree 4 clamped
    }

    #[test]
    fn fault_timeline_is_chronological() {
        use crate::probe::fault_kind;
        let f = |ns: u64, kind: u8| TraceEvent::Fault {
            t: Time::from_nanos(ns),
            kind,
            a: 0,
            b: 4,
            param: 0,
        };
        let tr = trace_of(vec![
            enq(5, 0, 0, 1),
            f(100, fault_kind::LINK_DOWN),
            f(50_100, fault_kind::RECONVERGE),
            f(200_000, fault_kind::LINK_UP),
        ]);
        let tl = fault_timeline(&tr);
        assert_eq!(tl.len(), 3, "packet events are excluded");
        assert_eq!(tl[0].kind, fault_kind::LINK_DOWN);
        assert_eq!(tl[1].kind, fault_kind::RECONVERGE);
        assert!(tl.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert!(fault_timeline(&trace_of(vec![enq(1, 0, 0, 1)])).is_empty());
    }

    #[test]
    fn decision_quality_aggregates() {
        let mk = |chosen_pkts: u32, best_pkts: u32| TraceEvent::EngineChoice {
            t: Time::ZERO,
            switch: 2,
            engine: 1,
            choice: EngineChoice {
                chosen: 0,
                chosen_pkts,
                best: 1,
                best_pkts,
                candidates: 4,
            },
        };
        let tr = trace_of(vec![mk(3, 3), mk(5, 2), mk(2, 2)]);
        let q = decision_quality(&tr)[&(2, 1)];
        assert_eq!(q.choices, 3);
        assert_eq!(q.optimal, 2);
        assert_eq!(q.excess_sum, 3);
        assert_eq!(q.max_excess, 3);
        assert!((q.optimal_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.mean_excess() - 1.0).abs() < 1e-12);
    }
}
