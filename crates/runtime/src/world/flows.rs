//! The transport layer's state: one record per TCP flow (connection,
//! receive shim, RTO wake), and the counters that are all a raw-packet
//! flow leaves behind.

use std::io;

use drill_net::{BufPool, FlowId, HostId, Packet, PacketArena, PacketBufPool, PacketRef, Train};
use drill_sim::codec::{invalid, put_bool, put_time, put_varint, Decoder};
use drill_sim::{EventQueue, Time};
use drill_transport::{ShimBuffer, TcpConfig, TcpFlow};

use super::{Event, Packed};
use crate::stats::RunStats;
use crate::Scheme;

/// How the run counts a flow; the discriminant is its `FLOWS` byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum FlowClass {
    Background = 0,
    Incast = 1,
    Mice = 2,
    Elephant = 3,
}

const CLASSES: [FlowClass; 4] = [
    FlowClass::Background,
    FlowClass::Incast,
    FlowClass::Mice,
    FlowClass::Elephant,
];

/// One TCP flow: its connection, how the run counts it, its receive-side
/// shim, and its retransmission timer (see [`FlowTable::schedule_rto`]).
pub(super) struct FlowRecord {
    pub(super) tcp: TcpFlow,
    pub(super) class: FlowClass,
    measured: bool,
    pub(super) shim: Option<ShimBuffer>,
    /// Time of the flow's one live `TcpTimer` wake in the wheel
    /// (`Time::MAX` = none pending). Never later than the connection's
    /// [`rto_at`](TcpFlow::rto_at).
    pub(super) rto_wake: Time,
}

/// Every flow of the run, plus the packet-id counter and the buffer pools
/// the transport emits through.
pub(super) struct FlowTable {
    /// TCP runs only: a raw-packet flow is handed to its NIC whole and
    /// nothing asks about it again, so it leaves no record — only the
    /// `raw_*` counters below.
    pub(super) records: Vec<FlowRecord>,
    /// Raw-packet flows started so far (the next one's flow id).
    pub(super) raw_flows: u32,
    /// Of those, the measured non-elephants: each is owed a zero
    /// `dupacks`/`reorders` sample at [`finalize`](FlowTable::finalize).
    pub(super) raw_measured: u64,
    /// Raw elephants (always measured): each is owed a zero
    /// `elephant_gbps` sample. No figure or workload makes one.
    pub(super) raw_elephants: u64,
    /// The last packet id handed out.
    pub(super) pkt_ids: u64,
    /// Receive-shim `(flush threshold, hold timeout)` when the scheme
    /// deploys one.
    pub(super) shim: Option<(usize, Time)>,
    /// Recycled `Vec<Packet>` buffers for TCP/ACK emission batches.
    pub(super) pkt_pool: PacketBufPool,
    /// Recycled `Vec<PacketRef>` buffers for shim release batches.
    pub(super) ref_pool: BufPool<PacketRef>,
}

impl FlowTable {
    pub(super) fn new(scheme: Scheme) -> FlowTable {
        FlowTable {
            records: Vec::new(),
            raw_flows: 0,
            raw_measured: 0,
            raw_elephants: 0,
            pkt_ids: 0,
            shim: scheme.uses_shim().then(|| scheme.shim_params()),
            pkt_pool: PacketBufPool::new(),
            ref_pool: BufPool::new(),
        }
    }

    /// Count a raw-packet flow and cut its train.
    pub(super) fn open_raw(
        &mut self,
        dst: u32,
        flow_hash: u64,
        bytes: u64,
        class: FlowClass,
        measured: bool,
        now: Time,
    ) -> Train {
        let id = FlowId(self.raw_flows);
        self.raw_flows += 1;
        if class == FlowClass::Elephant {
            self.raw_elephants += 1;
        } else if measured {
            self.raw_measured += 1;
        }
        let train = Train::new(id, HostId(dst), flow_hash, self.pkt_ids + 1, bytes, now);
        self.pkt_ids += train.segments();
        train
    }

    /// Open a TCP flow; returns its id, with its first flight in `out`.
    pub(super) fn open(
        &mut self,
        tcp: TcpFlow,
        class: FlowClass,
        measured: bool,
        now: Time,
        out: &mut Vec<Packet>,
    ) -> u32 {
        let flow = self.records.len();
        self.records.push(FlowRecord {
            tcp,
            class,
            measured,
            shim: None,
            rto_wake: Time::MAX,
        });
        self.records[flow]
            .tcp
            .start_sending(now, &mut self.pkt_ids, out);
        flow as u32
    }

    /// Keep **one** wake per flow in the wheel for its retransmission
    /// deadline instead of one event per timer restart: a restart only
    /// moves [`TcpFlow::rto_at`], and the pending wake re-arms itself at
    /// the new deadline when it pops. A push happens only when no wake is
    /// pending or the deadline precedes it (the RTO shrank after a
    /// back-off). Wheel residency is O(flows), not O(ACKs inside one RTO).
    /// Called after every call into the flow's sender.
    pub(super) fn schedule_rto(&mut self, flow: u32, queue: &mut EventQueue<Packed>) {
        let r = &mut self.records[flow as usize];
        if let Some(at) = r.tcp.rto_at().filter(|&at| at < r.rto_wake) {
            r.rto_wake = at;
            queue.push(at, Event::TcpTimer { flow }.into());
        }
    }

    /// A `TcpTimer` wake popped at `now`. Only the live wake counts; it
    /// re-arms at the deadline if ACKs moved it on since the wake was
    /// pushed, and otherwise *is* the deadline — the RTO fires at the
    /// nanosecond the latest restart asked for. Returns the flow's source
    /// when it fired, with the retransmissions in `out`.
    pub(super) fn on_rto_wake(
        &mut self,
        flow: u32,
        now: Time,
        queue: &mut EventQueue<Packed>,
        out: &mut Vec<Packet>,
    ) -> Option<HostId> {
        let r = &mut self.records[flow as usize];
        if r.rto_wake != now {
            // Orphaned by an earlier wake pushed when the RTO shrank.
            return None;
        }
        r.rto_wake = Time::MAX;
        // No deadline: the flow finished, so nothing re-arms.
        let at = r.tcp.rto_at()?;
        if at > now {
            r.rto_wake = at;
            queue.push(at, Event::TcpTimer { flow }.into());
            return None;
        }
        r.tcp.on_timer(now, &mut self.pkt_ids, out);
        Some(r.tcp.src)
    }

    /// Per-flow metrics of the measured flows. `windows` are the closed
    /// fault windows FCTs are classified against; `sim_end` closes every
    /// flow still running.
    pub(super) fn finalize(&self, stats: &mut RunStats, windows: &[(Time, Time)], sim_end: Time) {
        for r in self.records.iter().filter(|r| r.measured) {
            let f = &r.tcp;
            stats.retransmissions += f.retransmissions as u64;
            stats.timeouts += f.timeouts as u64;
            stats.gro_batches += f.gro_batches;
            if r.class == FlowClass::Elephant {
                // Per-flow goodput over the flow's own active lifetime
                // (completed flows: until the final ACK; persistent flows:
                // until the end of the run).
                let end = f.done.unwrap_or(sim_end);
                let active = end.saturating_sub(f.start).max(Time::from_nanos(1));
                stats
                    .elephant_gbps
                    .add(f.bytes_acked as f64 * 8.0 / active.as_secs_f64() / 1e9);
                continue;
            }
            stats.dupacks.add(f.dup_acks_sent as usize);
            stats.reorders.add(f.reorder_events as usize);
            let Some(fct) = f.fct() else { continue };
            stats.flows_completed += 1;
            let ms = fct.as_nanos() as f64 / 1e6;
            // Graceful-degradation split: flows whose lifetime overlapped
            // a fault window vs. undisturbed flows.
            let done = f.done.unwrap_or(sim_end);
            if windows.iter().any(|&(ws, we)| f.start <= we && done >= ws) {
                stats.fct_fault_ms.add(ms);
            } else if !windows.is_empty() {
                stats.fct_clear_ms.add(ms);
            }
            match r.class {
                FlowClass::Mice => stats.fct_mice_ms.add(ms),
                FlowClass::Incast => {
                    stats.fct_ms.add(ms);
                    stats.fct_incast_ms.add(ms);
                }
                _ => stats.fct_ms.add(ms),
            }
        }
        // A raw flow never hears back from its receiver: what the loop
        // above records for one is a zero sample, owed per measured flow.
        for _ in 0..self.raw_elephants {
            stats.elephant_gbps.add(0.0);
        }
        for _ in 0..self.raw_measured {
            stats.dupacks.add(0);
            stats.reorders.add(0);
        }
    }

    /// The `FLOWS` section: per flow, TCP state (its RTO deadline
    /// included), class, measured flag, shim, and the time of the live
    /// RTO wake. Without the last a restored world would ignore every
    /// pending wake.
    pub(super) fn save(&self, arena: &PacketArena, buf: &mut Vec<u8>) {
        put_varint(buf, self.records.len() as u64);
        for r in &self.records {
            r.tcp.save_state(buf);
            buf.push(r.class as u8);
            put_bool(buf, r.measured);
            put_bool(buf, r.shim.is_some());
            if let Some(shim) = &r.shim {
                shim.save_state(arena, buf);
            }
            put_time(buf, r.rto_wake);
        }
    }

    pub(super) fn load(
        &mut self,
        d: &mut Decoder<'_>,
        arena: &PacketArena,
        tcp: TcpConfig,
    ) -> io::Result<()> {
        for _ in 0..d.varint_usize()? {
            let tcp = TcpFlow::load_state(d, tcp)?;
            let class = CLASSES.get(d.u8()? as usize);
            let class = *class.ok_or_else(|| invalid("unknown flow class"))?;
            let measured = d.bool()?;
            let shim = if d.bool()? {
                let Some((threshold, timeout)) = self.shim else {
                    return Err(invalid("shim state for a shim-less scheme"));
                };
                let mut s = ShimBuffer::with_threshold(timeout, threshold);
                s.load_state(arena, d)?;
                Some(s)
            } else {
                None
            };
            self.records.push(FlowRecord {
                tcp,
                class,
                measured,
                shim,
                rto_wake: d.time()?,
            });
        }
        Ok(())
    }

    /// The packet-id and raw-flow counters (their slice of the
    /// `WORKLOAD` section).
    pub(super) fn save_counters(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.pkt_ids);
        put_varint(buf, self.raw_flows as u64);
        put_varint(buf, self.raw_measured);
        put_varint(buf, self.raw_elephants);
    }

    pub(super) fn load_counters(&mut self, d: &mut Decoder<'_>) -> io::Result<()> {
        self.pkt_ids = d.varint()?;
        self.raw_flows = d.varint_u32()?;
        self.raw_measured = d.varint()?;
        self.raw_elephants = d.varint()?;
        Ok(())
    }
}
