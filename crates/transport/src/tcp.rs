//! Compact TCP Reno/NewReno.

use std::collections::BTreeMap;
use std::io;

use drill_net::{flags, FlowId, HostId, Packet};
use drill_sim::codec::{
    invalid, put_bool, put_f64, put_opt_time, put_time, put_u64, put_varint, Decoder,
};
use drill_sim::Time;

/// GRO merges in-order packets into batches of at most this many payload
/// bytes (one maximal TSO/GRO segment).
pub const GRO_BATCH_LIMIT: u32 = 64 * 1024;

/// TCP tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Maximum segment (payload) size in bytes.
    pub mss: u32,
    /// Initial congestion window, in segments.
    pub init_cwnd: u32,
    /// Lower bound on the retransmission timeout.
    ///
    /// Linux 2.6 defaults to 200 ms; datacenter deployments (and the
    /// incast literature the paper cites) tune it down. Experiments record
    /// the value used.
    pub rto_min: Time,
    /// Upper bound on the (backed-off) retransmission timeout.
    pub rto_max: Time,
    /// RTO before any RTT sample exists.
    pub rto_init: Time,
    /// Congestion-window cap (models the receive window), bytes.
    pub max_cwnd_bytes: u64,
}

/// Duplicate ACKs that trigger fast retransmit (RFC 5681): a flow whose
/// receiver sent this many has crossed TCP's reordering threshold.
pub const DUPACK_THRESH: u32 = 3;

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1442, // 1500B wire frames with our 58B of headers
            init_cwnd: 4,
            rto_min: Time::from_millis(200),
            rto_max: Time::from_secs(2),
            rto_init: Time::from_millis(200),
            // Linux 2.6-era receive windows autotuned to a few hundred KB;
            // this cap also bounds per-flow self-inflicted (bufferbloat)
            // queueing at the last hop.
            max_cwnd_bytes: 256 * 1024,
        }
    }
}

/// One TCP flow: sender and receiver endpoints of a `size`-byte transfer.
///
/// The embedding simulation owns the flow table; this type is a pure state
/// machine. Methods emit packets into an output buffer. The flow owns its
/// retransmission deadline, [`TcpFlow::rto_at`]: every call that restarts
/// the timer moves it, and the caller runs [`TcpFlow::on_timer`] once the
/// clock reaches it.
#[derive(Debug)]
pub struct TcpFlow {
    /// Flow id (index in the runtime's flow table).
    pub id: FlowId,
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Stable 5-tuple hash shared by all the flow's packets.
    pub flow_hash: u64,
    /// Transfer size in bytes (`u64::MAX` = persistent "elephant").
    pub size: u64,
    /// Time the flow started.
    pub start: Time,
    cfg: TcpConfig,

    // --- sender ---
    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    recover: u64,
    in_recovery: bool,
    srtt_ns: Option<f64>,
    rttvar_ns: f64,
    rto: Time,
    /// Retransmission deadline: `now + rto` at the last restart, `None`
    /// while nothing is in flight or once the flow is done.
    rto_at: Option<Time>,
    emit_counter: u32,
    last_partial_retx: Time,

    // --- receiver ---
    rcv_nxt: u64,
    ooo: BTreeMap<u64, u64>,
    last_ack_sent: u64,

    // --- GRO model (receiver) ---
    gro_expected: u64,
    gro_cur_bytes: u32,
    /// Completed GRO batches delivered up the stack.
    pub gro_batches: u64,

    // --- metrics ---
    /// Duplicate ACKs this receiver generated (Figure 11a's metric).
    pub dup_acks_sent: u32,
    /// True path inversions observed at the receiver: non-retransmitted
    /// segments that arrived after a segment the sender emitted later
    /// (loss-independent reordering signal).
    pub reorder_events: u32,
    max_emit_seen: i64,
    /// Data segments retransmitted.
    pub retransmissions: u32,
    /// Retransmission timeouts taken.
    pub timeouts: u32,
    /// Completion time (final byte cumulatively ACKed at the sender).
    pub done: Option<Time>,
    /// Cumulative bytes ACKed (throughput accounting for elephants).
    pub bytes_acked: u64,
}

impl TcpFlow {
    /// A new flow of `size` bytes from `src` to `dst`.
    pub fn new(
        id: FlowId,
        src: HostId,
        dst: HostId,
        flow_hash: u64,
        size: u64,
        start: Time,
        cfg: TcpConfig,
    ) -> TcpFlow {
        TcpFlow {
            id,
            src,
            dst,
            flow_hash,
            size,
            start,
            cfg,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: (cfg.init_cwnd * cfg.mss) as f64,
            ssthresh: cfg.max_cwnd_bytes as f64,
            dup_acks: 0,
            recover: 0,
            in_recovery: false,
            srtt_ns: None,
            rttvar_ns: 0.0,
            rto: cfg.rto_init,
            rto_at: None,
            emit_counter: 0,
            last_partial_retx: Time::ZERO,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            last_ack_sent: u64::MAX,
            gro_expected: 0,
            gro_cur_bytes: 0,
            gro_batches: 0,
            dup_acks_sent: 0,
            reorder_events: 0,
            max_emit_seen: -1,
            retransmissions: 0,
            timeouts: 0,
            done: None,
            bytes_acked: 0,
        }
    }

    /// Whether the sender has delivered (and had ACKed) every byte.
    pub fn is_done(&self) -> bool {
        self.done.is_some()
    }

    /// Flow completion time, if finished.
    pub fn fct(&self) -> Option<Time> {
        self.done.map(|d| d - self.start)
    }

    /// Current retransmission timeout (diagnostics).
    pub fn rto(&self) -> Time {
        self.rto
    }

    /// The retransmission deadline, if the timer runs.
    pub fn rto_at(&self) -> Option<Time> {
        self.rto_at
    }

    /// Bytes sent and not yet acknowledged.
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Restart the timer one RTO from `now`, or stop it when nothing is
    /// in flight or the flow is done.
    fn restart_timer(&mut self, now: Time) {
        self.rto_at = (self.in_flight() > 0 && self.done.is_none()).then(|| now + self.rto);
    }

    fn effective_cwnd(&self) -> u64 {
        (self.cwnd as u64).clamp(self.cfg.mss as u64, self.cfg.max_cwnd_bytes)
    }

    fn make_segment(&mut self, seq: u64, now: Time, pkt_ids: &mut u64, retx: bool) -> Packet {
        let payload = (self.size - seq).min(self.cfg.mss as u64) as u32;
        debug_assert!(payload > 0);
        *pkt_ids += 1;
        let mut p = Packet::data(
            *pkt_ids,
            self.id,
            self.src,
            self.dst,
            self.flow_hash,
            seq,
            payload,
            now,
        );
        if seq + payload as u64 >= self.size {
            p.flags |= flags::FIN;
        }
        if retx {
            p.flags |= flags::RETX;
        }
        p.emit_idx = self.emit_counter;
        self.emit_counter += 1;
        p
    }

    /// Start the flow: emit the initial window.
    pub fn start_sending(&mut self, now: Time, pkt_ids: &mut u64, out: &mut Vec<Packet>) {
        self.try_send(now, pkt_ids, out);
        self.restart_timer(now);
    }

    /// Emit as many new segments as the window and Nagle's algorithm
    /// allow.
    ///
    /// Nagle (RFC 896) is always on, as in Linux 2.6: a sub-MSS segment is
    /// held back while any data is unacknowledged. Besides its latency
    /// trade-off, it keeps a flow's short trailing segment from leaving
    /// back-to-back behind a full one — which, under per-packet
    /// multipathing in a store-and-forward fabric, would routinely
    /// overtake it and masquerade as reordering.
    fn try_send(&mut self, now: Time, pkt_ids: &mut u64, out: &mut Vec<Packet>) {
        let limit = (self.snd_una + self.effective_cwnd()).min(self.size);
        while self.snd_nxt < limit {
            let seg_len = (limit - self.snd_nxt).min(self.cfg.mss as u64);
            let short = seg_len < self.cfg.mss as u64;
            let outstanding = self.snd_nxt > self.snd_una;
            // Nagle holds a short segment while data is in flight (a
            // window-clipped one too: real stacks wait for the window to
            // open rather than send runts); a runt never leaves mid-stream.
            if short && (outstanding || self.snd_nxt + seg_len < self.size) {
                break;
            }
            let p = self.make_segment(self.snd_nxt, now, pkt_ids, false);
            self.snd_nxt += p.payload as u64;
            out.push(p);
        }
    }

    // ------------------------------------------------------------------
    // Receiver side
    // ------------------------------------------------------------------

    /// Process an arriving data segment at the receiver; emits the ACK.
    pub fn on_data(&mut self, pkt: &Packet, now: Time, pkt_ids: &mut u64, out: &mut Vec<Packet>) {
        debug_assert!(pkt.is_data());
        if !pkt.is_retx() {
            if (pkt.emit_idx as i64) < self.max_emit_seen {
                self.reorder_events += 1;
            }
            self.max_emit_seen = self.max_emit_seen.max(pkt.emit_idx as i64);
        }
        self.gro_account(pkt);
        let seq = pkt.seq;
        let end = pkt.seq_end();
        if seq <= self.rcv_nxt {
            if end > self.rcv_nxt {
                self.rcv_nxt = end;
                // Consume contiguous out-of-order segments.
                while let Some((&s, &e)) = self.ooo.first_key_value() {
                    if s > self.rcv_nxt {
                        break;
                    }
                    self.ooo.pop_first();
                    if e > self.rcv_nxt {
                        self.rcv_nxt = e;
                    }
                }
            }
            // else: pure duplicate, re-ACK current edge.
        } else {
            // Out of order: buffer it (merge exact duplicates by key).
            let cur = self.ooo.entry(seq).or_insert(end);
            if *cur < end {
                *cur = end;
            }
        }

        *pkt_ids += 1;
        let mut ack = Packet::pure_ack(
            *pkt_ids,
            self.id,
            self.dst,
            self.src,
            self.flow_hash,
            self.rcv_nxt,
            now,
        );
        // Echo the segment's send timestamp for RTT sampling, unless it is
        // a retransmission (Karn's rule).
        if !pkt.is_retx() {
            ack.echo = pkt.sent;
        }
        if self.rcv_nxt == self.last_ack_sent {
            self.dup_acks_sent += 1;
        }
        self.last_ack_sent = self.rcv_nxt;
        out.push(ack);
    }

    fn gro_account(&mut self, pkt: &Packet) {
        // GRO merges a flow's packets while they arrive in-order and the
        // batch stays under 64 KB; an out-of-order packet or a full batch
        // flushes to the stack. More batches = more per-packet CPU work.
        if pkt.seq == self.gro_expected
            && self.gro_cur_bytes + pkt.payload <= GRO_BATCH_LIMIT
            && self.gro_cur_bytes > 0
        {
            self.gro_cur_bytes += pkt.payload;
        } else {
            if self.gro_cur_bytes > 0 {
                self.gro_batches += 1;
            }
            self.gro_cur_bytes = pkt.payload;
        }
        self.gro_expected = pkt.seq_end();
    }

    // ------------------------------------------------------------------
    // Sender side
    // ------------------------------------------------------------------

    /// Process an arriving ACK at the sender.
    pub fn on_ack(&mut self, pkt: &Packet, now: Time, pkt_ids: &mut u64, out: &mut Vec<Packet>) {
        debug_assert!(pkt.is_ack());
        if self.done.is_some() {
            return;
        }
        let ack = pkt.ack;
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            self.bytes_acked += newly;
            self.dup_acks = 0;

            if pkt.echo != Time::ZERO {
                self.sample_rtt(now.saturating_sub(pkt.echo));
            }

            if self.in_recovery {
                if ack >= self.recover {
                    // Full recovery.
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // NewReno partial ACK: retransmit the next hole and
                    // deflate — but at most one retransmission per RTT.
                    // Plain NewReno retransmits on *every* partial ACK,
                    // which under packet reordering (holes that are merely
                    // in flight) floods the fabric with spurious
                    // retransmissions; SACK-era stacks (the paper's Linux
                    // 2.6 has SACK on) do not. Genuine multi-loss windows
                    // are unaffected: NewReno heals one hole per RTT anyway.
                    let srtt = Time::from_nanos(self.srtt_ns.unwrap_or(0.0) as u64);
                    if now.saturating_sub(self.last_partial_retx) >= srtt {
                        self.last_partial_retx = now;
                        let p = self.make_segment(self.snd_una, now, pkt_ids, true);
                        self.retransmissions += 1;
                        out.push(p);
                    }
                    self.cwnd =
                        (self.cwnd - newly as f64 + self.cfg.mss as f64).max(self.cfg.mss as f64);
                }
            } else if self.cwnd < self.ssthresh {
                // Slow start.
                self.cwnd += newly.min(self.cfg.mss as u64) as f64;
            } else {
                // Congestion avoidance (per-ACK increment).
                self.cwnd += (self.cfg.mss as f64) * (self.cfg.mss as f64) / self.cwnd;
            }
            self.cwnd = self.cwnd.min(self.cfg.max_cwnd_bytes as f64);

            if self.snd_una >= self.size {
                self.done = Some(now);
            } else {
                self.try_send(now, pkt_ids, out);
            }
            self.restart_timer(now);
        } else if ack == self.snd_una && self.in_flight() > 0 {
            self.dup_acks += 1;
            if !self.in_recovery && self.dup_acks == DUPACK_THRESH {
                // Fast retransmit + fast recovery.
                self.ssthresh = (self.in_flight() as f64 / 2.0).max(2.0 * self.cfg.mss as f64);
                self.cwnd = self.ssthresh + (DUPACK_THRESH * self.cfg.mss) as f64;
                self.recover = self.snd_nxt;
                self.in_recovery = true;
                let p = self.make_segment(self.snd_una, now, pkt_ids, true);
                self.retransmissions += 1;
                out.push(p);
            } else if self.in_recovery {
                // Window inflation lets new data flow during recovery.
                self.cwnd += self.cfg.mss as f64;
                self.cwnd = self.cwnd.min(self.cfg.max_cwnd_bytes as f64);
                self.try_send(now, pkt_ids, out);
            }
        }
    }

    fn sample_rtt(&mut self, rtt: Time) {
        let r = rtt.as_nanos() as f64;
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(r);
                self.rttvar_ns = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * (srtt - r).abs();
                self.srtt_ns = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let rto_ns = self.srtt_ns.unwrap() + 4.0 * self.rttvar_ns;
        self.rto = Time::from_nanos(rto_ns as u64)
            .max(self.cfg.rto_min)
            .min(self.cfg.rto_max);
    }

    /// The RTO deadline came due: back off and retransmit the first
    /// unacknowledged segment. Call only once the clock reaches
    /// [`rto_at`](TcpFlow::rto_at).
    pub fn on_timer(&mut self, now: Time, pkt_ids: &mut u64, out: &mut Vec<Packet>) {
        debug_assert!(self.rto_at.is_some_and(|at| at <= now), "RTO not due");
        self.timeouts += 1;
        self.ssthresh = (self.in_flight() as f64 / 2.0).max(2.0 * self.cfg.mss as f64);
        self.cwnd = self.cfg.mss as f64;
        self.rto = (self.rto.mul(2)).min(self.cfg.rto_max);
        self.in_recovery = false;
        self.dup_acks = 0;
        let p = self.make_segment(self.snd_una, now, pkt_ids, true);
        self.retransmissions += 1;
        out.push(p);
        self.restart_timer(now);
    }

    /// Serialize the flow: identity plus every sender/receiver/GRO/metric
    /// field. `cfg` is not serialized (it comes from the experiment config
    /// at restore).
    pub fn save_state(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.id.0 as u64);
        put_varint(buf, self.src.0 as u64);
        put_varint(buf, self.dst.0 as u64);
        put_u64(buf, self.flow_hash);
        put_u64(buf, self.size); // u64::MAX elephants stay 8 bytes
        put_time(buf, self.start);
        put_varint(buf, self.snd_una);
        put_varint(buf, self.snd_nxt);
        put_f64(buf, self.cwnd);
        put_f64(buf, self.ssthresh);
        put_varint(buf, self.dup_acks as u64);
        put_varint(buf, self.recover);
        put_bool(buf, self.in_recovery);
        put_bool(buf, self.srtt_ns.is_some());
        if let Some(s) = self.srtt_ns {
            put_f64(buf, s);
        }
        put_f64(buf, self.rttvar_ns);
        put_time(buf, self.rto);
        put_opt_time(buf, self.rto_at);
        put_varint(buf, self.emit_counter as u64);
        put_time(buf, self.last_partial_retx);
        put_varint(buf, self.rcv_nxt);
        put_varint(buf, self.ooo.len() as u64);
        for (&s, &e) in &self.ooo {
            put_varint(buf, s);
            put_varint(buf, e);
        }
        put_u64(buf, self.last_ack_sent); // u64::MAX sentinel stays 8 bytes
        put_varint(buf, self.gro_expected);
        put_varint(buf, self.gro_cur_bytes as u64);
        put_varint(buf, self.gro_batches);
        put_varint(buf, self.dup_acks_sent as u64);
        put_varint(buf, self.reorder_events as u64);
        // Zigzag: max_emit_seen starts at -1.
        put_varint(
            buf,
            ((self.max_emit_seen << 1) ^ (self.max_emit_seen >> 63)) as u64,
        );
        put_varint(buf, self.retransmissions as u64);
        put_varint(buf, self.timeouts as u64);
        put_opt_time(buf, self.done);
        put_varint(buf, self.bytes_acked);
    }

    /// Rebuild a flow serialized by [`save_state`](TcpFlow::save_state).
    pub fn load_state(d: &mut Decoder<'_>, cfg: TcpConfig) -> io::Result<TcpFlow> {
        let id = FlowId(d.varint_u32()?);
        let src = HostId(d.varint_u32()?);
        let dst = HostId(d.varint_u32()?);
        let flow_hash = d.u64_fixed()?;
        let size = d.u64_fixed()?;
        let start = d.time()?;
        let mut f = TcpFlow::new(id, src, dst, flow_hash, size, start, cfg);
        f.snd_una = d.varint()?;
        f.snd_nxt = d.varint()?;
        f.cwnd = d.f64_fixed()?;
        f.ssthresh = d.f64_fixed()?;
        f.dup_acks = d.varint_u32()?;
        f.recover = d.varint()?;
        f.in_recovery = d.bool()?;
        f.srtt_ns = if d.bool()? {
            Some(d.f64_fixed()?)
        } else {
            None
        };
        f.rttvar_ns = d.f64_fixed()?;
        f.rto = d.time()?;
        f.rto_at = d.opt_time()?;
        f.emit_counter = d.varint_u32()?;
        f.last_partial_retx = d.time()?;
        f.rcv_nxt = d.varint()?;
        let n_ooo = d.varint_usize()?;
        for _ in 0..n_ooo {
            let s = d.varint()?;
            let e = d.varint()?;
            if e <= s {
                return Err(invalid("empty out-of-order range"));
            }
            f.ooo.insert(s, e);
        }
        f.last_ack_sent = d.u64_fixed()?;
        f.gro_expected = d.varint()?;
        f.gro_cur_bytes = d.varint_u32()?;
        f.gro_batches = d.varint()?;
        f.dup_acks_sent = d.varint_u32()?;
        f.reorder_events = d.varint_u32()?;
        let z = d.varint()?;
        f.max_emit_seen = ((z >> 1) as i64) ^ -((z & 1) as i64);
        f.retransmissions = d.varint_u32()?;
        f.timeouts = d.varint_u32()?;
        f.done = d.opt_time()?;
        f.bytes_acked = d.varint()?;
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(size: u64) -> TcpFlow {
        TcpFlow::new(
            FlowId(0),
            HostId(0),
            HostId(1),
            0xfeed,
            size,
            Time::ZERO,
            TcpConfig::default(),
        )
    }

    /// A flow with a large initial window (several tests need many
    /// segments in flight at once).
    fn flow_iw10(size: u64) -> TcpFlow {
        let cfg = TcpConfig {
            init_cwnd: 10,
            ..Default::default()
        };
        TcpFlow::new(
            FlowId(0),
            HostId(0),
            HostId(1),
            0xfeed,
            size,
            Time::ZERO,
            cfg,
        )
    }

    /// Drive sender + receiver over a perfect in-order pipe with fixed
    /// one-way delay; returns the completion time.
    fn run_perfect_pipe(mut f: TcpFlow, delay: Time) -> TcpFlow {
        let mut ids = 0u64;
        let mut in_flight: Vec<Packet> = Vec::new();
        let mut now = Time::ZERO;
        f.start_sending(now, &mut ids, &mut in_flight);
        let mut guard = 0;
        while f.done.is_none() {
            guard += 1;
            assert!(guard < 100_000, "no progress");
            now += delay;
            let data: Vec<Packet> = std::mem::take(&mut in_flight);
            let mut acks = Vec::new();
            for p in &data {
                f.on_data(p, now, &mut ids, &mut acks);
            }
            now += delay;
            for a in &acks {
                f.on_ack(a, now, &mut ids, &mut in_flight);
            }
        }
        f
    }

    #[test]
    fn initial_window_matches_config() {
        let mut f = flow(1_000_000);
        let mut ids = 0;
        let mut out = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut out);
        assert_eq!(out.len(), 4, "Linux 2.6-era initial window");
        assert_eq!(out[0].seq, 0);
        assert_eq!(out[3].seq, 3 * 1442);
        assert!(out.iter().all(|p| p.payload == 1442));
        let mut big = flow_iw10(1_000_000);
        out.clear();
        big.start_sending(Time::ZERO, &mut ids, &mut out);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn nagle_holds_trailing_runt() {
        // 3000 bytes = two full segments + a 116-byte residual: the runt
        // is held until the outstanding data is ACKed.
        let mut f = flow_iw10(3_000);
        let mut ids = 0;
        let mut out = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut out);
        assert_eq!(out.len(), 2, "runt held by Nagle");
        let data: Vec<Packet> = std::mem::take(&mut out);
        let mut acks = Vec::new();
        for p in &data {
            f.on_data(p, Time::from_micros(20), &mut ids, &mut acks);
        }
        for a in &acks {
            f.on_ack(a, Time::from_micros(40), &mut ids, &mut out);
        }
        assert_eq!(out.len(), 1, "runt released once un-ACKed data drains");
        assert_eq!(out[0].payload, 3_000 - 2 * 1442);
        assert!(out[0].flags & flags::FIN != 0);
    }

    #[test]
    fn small_flow_single_segment_with_fin() {
        let mut f = flow(500);
        let mut ids = 0;
        let mut out = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, 500);
        assert!(out[0].flags & flags::FIN != 0);
    }

    #[test]
    fn completes_over_perfect_pipe() {
        let f = run_perfect_pipe(flow(100_000), Time::from_micros(10));
        assert!(f.is_done());
        assert_eq!(f.bytes_acked, 100_000);
        assert_eq!(f.dup_acks_sent, 0, "in-order delivery: no dup ACKs");
        assert_eq!(f.retransmissions, 0);
        assert_eq!(f.timeouts, 0);
        assert!(f.fct().unwrap() > Time::ZERO);
    }

    /// Seeded transfers over a pipe that drops a periodic share of the
    /// data packets and may swap the first two of each round: every run
    /// terminates with all bytes ACKed.
    #[test]
    fn completes_over_lossy_reordering_pipe() {
        let cfg = TcpConfig {
            rto_min: Time::from_micros(500),
            rto_init: Time::from_micros(500),
            rto_max: Time::from_millis(5),
            init_cwnd: 10,
            ..Default::default()
        };
        let mut rng = drill_sim::SimRng::seed_from(0x7C9);
        for seed in 0..48 {
            let size = 1_000 + rng.below(199_000) as u64;
            let drop_mod = 5 + rng.below(45) as u64;
            let swap = rng.below(2) == 1;
            let mut f = TcpFlow::new(FlowId(0), HostId(0), HostId(1), seed, size, Time::ZERO, cfg);
            let (mut ids, mut now) = (0u64, Time::ZERO);
            let mut wire = Vec::new();
            f.start_sending(now, &mut ids, &mut wire);
            let mut rounds = 0;
            while !f.is_done() {
                rounds += 1;
                assert!(rounds < 30_000, "size {size} drop_mod {drop_mod}: livelock");
                now += Time::from_micros(20);
                let mut data: Vec<Packet> = std::mem::take(&mut wire);
                if swap && data.len() >= 2 {
                    data.swap(0, 1);
                }
                let mut acks = Vec::new();
                // Drop two of every three drop_mod-th ids; retransmissions
                // get fresh ids, so no segment is dropped forever.
                for p in data
                    .iter()
                    .filter(|p| p.id % drop_mod != 0 || p.id % (3 * drop_mod) == 0)
                {
                    f.on_data(p, now, &mut ids, &mut acks);
                }
                now += Time::from_micros(20);
                for a in &acks {
                    f.on_ack(a, now, &mut ids, &mut wire);
                }
                if wire.is_empty() && !f.is_done() {
                    if let Some(at) = f.rto_at() {
                        now = now.max(at);
                        f.on_timer(now, &mut ids, &mut wire);
                    }
                }
            }
            assert_eq!(f.bytes_acked, size);
        }
    }

    #[test]
    fn slow_start_doubles_window() {
        let mut f = flow(10_000_000);
        let mut ids = 0;
        let mut out = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut out);
        let w0 = out.len();
        // ACK the whole first window in-order.
        let data: Vec<Packet> = std::mem::take(&mut out);
        let mut acks = Vec::new();
        for p in &data {
            f.on_data(p, Time::from_micros(50), &mut ids, &mut acks);
        }
        for a in &acks {
            f.on_ack(a, Time::from_micros(100), &mut ids, &mut out);
        }
        // Each ACK grows cwnd by one MSS and releases ~2 segments.
        assert!(
            out.len() >= 2 * w0 - 2,
            "slow start: {} vs {}",
            out.len(),
            w0
        );
    }

    #[test]
    fn rtt_estimator_sets_rto() {
        let f = run_perfect_pipe(flow(200_000), Time::from_micros(25));
        // RTT = 50us; RTO clamps at the default rto_min (200ms).
        assert_eq!(f.rto(), TcpConfig::default().rto_min);
        assert!(f.srtt_ns.unwrap() > 0.0);
    }

    #[test]
    fn out_of_order_triggers_dup_acks_and_fast_retransmit() {
        let mut f = flow_iw10(1_000_000);
        let mut ids = 0;
        let mut sent = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut sent);
        assert!(sent.len() >= 5);
        // Deliver packet 0, then packets 2,3,4 (packet 1 lost/late).
        let now = Time::from_micros(100);
        let mut acks = Vec::new();
        f.on_data(&sent[0], now, &mut ids, &mut acks);
        for p in &sent[2..5] {
            f.on_data(p, now, &mut ids, &mut acks);
        }
        assert_eq!(f.dup_acks_sent, 3, "three duplicate ACKs generated");
        // Feed the ACKs to the sender: the three dups trigger fast retx.
        let mut retx = Vec::new();
        for a in &acks {
            f.on_ack(a, now + Time::from_micros(50), &mut ids, &mut retx);
        }
        assert_eq!(f.retransmissions, 1);
        let r = retx
            .iter()
            .find(|p| p.is_retx())
            .expect("retransmission emitted");
        assert_eq!(r.seq, sent[1].seq);
        assert!(f.in_recovery);
        // The late packet 1 finally arrives: receiver jumps rcv_nxt to
        // cover the buffered OOO segments.
        let mut late_acks = Vec::new();
        f.on_data(
            &sent[1],
            now + Time::from_micros(60),
            &mut ids,
            &mut late_acks,
        );
        assert_eq!(late_acks[0].ack, sent[4].seq_end());
    }

    #[test]
    fn reorder_events_count_emit_inversions_excluding_retx() {
        let mut f = flow_iw10(1_000_000);
        let mut ids = 0;
        let mut sent = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut sent);
        assert!(sent.len() >= 4);
        let now = Time::from_micros(100);
        let mut acks = Vec::new();
        // Delivery order 0, 2, 1, 3: exactly one inversion (1 after 2).
        f.on_data(&sent[0], now, &mut ids, &mut acks);
        f.on_data(&sent[2], now, &mut ids, &mut acks);
        f.on_data(&sent[1], now, &mut ids, &mut acks);
        f.on_data(&sent[3], now, &mut ids, &mut acks);
        assert_eq!(f.reorder_events, 1, "one emit-index inversion");
        // A retransmitted copy of an old segment necessarily carries a
        // stale emit index; Karn-style, it must not count as reordering.
        let mut old = sent[1].clone();
        old.flags |= flags::RETX;
        f.on_data(&old, now, &mut ids, &mut acks);
        assert_eq!(f.reorder_events, 1, "retx excluded from reorder count");
        // ACK trail: segment 2 repeated the edge once, the retx duplicate
        // re-ACKed it once more.
        assert_eq!(f.dup_acks_sent, 2);
    }

    #[test]
    fn ooo_buffer_merges_and_flushes_contiguously() {
        let mut f = flow_iw10(1_000_000);
        let mut ids = 0;
        let mut sent = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut sent);
        assert!(sent.len() >= 4);
        let now = Time::from_micros(100);
        let mut acks = Vec::new();
        // Buffer segments 2 and 3 behind the missing 0: edge stays put.
        f.on_data(&sent[2], now, &mut ids, &mut acks);
        f.on_data(&sent[3], now, &mut ids, &mut acks);
        assert_eq!(f.rcv_nxt, 0);
        // An exact duplicate of a buffered segment neither regresses the
        // stored range nor advances the edge.
        f.on_data(&sent[2], now, &mut ids, &mut acks);
        assert_eq!(f.rcv_nxt, 0);
        // Segment 0 advances only to the gap before 1.
        f.on_data(&sent[0], now, &mut ids, &mut acks);
        assert_eq!(f.rcv_nxt, sent[0].seq_end());
        // Segment 1 closes the gap: the contiguous-consume loop drains the
        // whole buffer in one step.
        f.on_data(&sent[1], now, &mut ids, &mut acks);
        assert_eq!(f.rcv_nxt, sent[3].seq_end());
        // Every ACK emitted while the edge was pinned was a duplicate.
        assert_eq!(f.dup_acks_sent, 2);
        // Each cumulative ACK carries the current edge.
        assert_eq!(acks.last().unwrap().ack, sent[3].seq_end());
    }

    #[test]
    fn recovery_exits_on_full_ack() {
        let mut f = flow_iw10(1_000_000);
        let mut ids = 0;
        let mut sent = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut sent);
        let now = Time::from_micros(100);
        let mut acks = Vec::new();
        f.on_data(&sent[0], now, &mut ids, &mut acks);
        for p in &sent[2..6] {
            f.on_data(p, now, &mut ids, &mut acks);
        }
        let mut out = Vec::new();
        for a in &acks {
            f.on_ack(a, now, &mut ids, &mut out);
        }
        assert!(f.in_recovery);
        let recover_point = f.recover;
        // ACK everything up to the recovery point.
        ids += 1;
        let full = Packet::pure_ack(ids, f.id, f.dst, f.src, f.flow_hash, recover_point, now);
        f.on_ack(&full, now + Time::from_micros(10), &mut ids, &mut out);
        assert!(!f.in_recovery);
        assert!(
            (f.cwnd - f.ssthresh).abs() < 1.0,
            "cwnd deflates to ssthresh"
        );
    }

    #[test]
    fn rto_retransmits_and_backs_off() {
        let mut f = flow(100_000);
        let mut ids = 0;
        let mut out = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut out);
        let rto0 = f.rto();
        assert_eq!(f.rto_at(), Some(rto0));
        out.clear();
        f.on_timer(rto0, &mut ids, &mut out);
        assert_eq!(f.timeouts, 1);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_retx());
        assert_eq!(out[0].seq, 0);
        assert_eq!(f.cwnd as u64, 1442, "cwnd collapses to one MSS");
        assert_eq!(f.rto(), rto0.mul(2), "exponential backoff");
        assert_eq!(
            f.rto_at(),
            Some(rto0 + rto0.mul(2)),
            "re-armed one backed-off RTO out"
        );
    }

    #[test]
    fn timer_deadline_only_when_outstanding() {
        let mut f = flow(10_000);
        assert!(f.rto_at().is_none(), "nothing in flight yet");
        let mut ids = 0;
        let mut out = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut out);
        assert!(f.rto_at().is_some());
        let f2 = run_perfect_pipe(flow(10_000), Time::from_micros(5));
        assert!(f2.rto_at().is_none(), "done flow needs no timer");
    }

    #[test]
    fn karn_rule_suppresses_retx_rtt_echo() {
        let mut f = flow(100_000);
        let mut ids = 0;
        let mut out = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut out);
        let due = f.rto_at().unwrap();
        let mut retx = Vec::new();
        f.on_timer(due, &mut ids, &mut retx);
        let mut acks = Vec::new();
        f.on_data(&retx[0], due + Time::from_millis(1), &mut ids, &mut acks);
        assert_eq!(acks[0].echo, Time::ZERO, "no RTT echo for retransmissions");
    }

    #[test]
    fn duplicate_segments_reack_without_advancing() {
        let mut f = flow(100_000);
        let mut ids = 0;
        let mut sent = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut sent);
        let now = Time::from_micros(10);
        let mut acks = Vec::new();
        f.on_data(&sent[0], now, &mut ids, &mut acks);
        let edge = acks[0].ack;
        f.on_data(&sent[0], now, &mut ids, &mut acks);
        assert_eq!(acks[1].ack, edge);
        assert_eq!(f.dup_acks_sent, 1);
        assert_eq!(f.rcv_nxt, 1442);
    }

    #[test]
    fn gro_batches_count_in_order_vs_reordered() {
        // In-order: 100 MSS-sized packets = ~3 batches (64KB each).
        let mut f = flow(u64::MAX);
        let mut ids = 0;
        let mut sink = Vec::new();
        let mk = |seq: u64, ids: &mut u64| {
            *ids += 1;
            Packet::data(
                *ids,
                FlowId(0),
                HostId(0),
                HostId(1),
                1,
                seq,
                1442,
                Time::ZERO,
            )
        };
        for i in 0..100u64 {
            let p = mk(i * 1442, &mut ids);
            f.on_data(&p, Time::ZERO, &mut ids, &mut sink);
        }
        let in_order = f.gro_batches;
        assert!(in_order <= 3, "{in_order}");

        // Reordered: every swap of adjacent packets breaks a batch.
        let mut g = flow(u64::MAX);
        for i in 0..50u64 {
            let a = mk((2 * i + 1) * 1442, &mut ids);
            let b = mk((2 * i) * 1442, &mut ids);
            g.on_data(&a, Time::ZERO, &mut ids, &mut sink);
            g.on_data(&b, Time::ZERO, &mut ids, &mut sink);
        }
        assert!(
            g.gro_batches > 20,
            "reordering multiplies batches: {}",
            g.gro_batches
        );
    }

    #[test]
    fn elephant_flow_never_completes() {
        let mut f = flow_iw10(u64::MAX);
        let mut ids = 0;
        let mut out = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut out);
        let data: Vec<Packet> = std::mem::take(&mut out);
        let mut acks = Vec::new();
        for p in &data {
            f.on_data(p, Time::from_micros(20), &mut ids, &mut acks);
        }
        for a in &acks {
            f.on_ack(a, Time::from_micros(40), &mut ids, &mut out);
        }
        assert!(!f.is_done());
        assert_eq!(f.bytes_acked, 10 * 1442);
        assert!(!out.is_empty(), "keeps sending");
    }

    #[test]
    fn cwnd_respects_receive_window_cap() {
        let cfg = TcpConfig {
            max_cwnd_bytes: 20_000,
            ..Default::default()
        };
        let mut f = TcpFlow::new(
            FlowId(0),
            HostId(0),
            HostId(1),
            1,
            u64::MAX,
            Time::ZERO,
            cfg,
        );
        let mut ids = 0;
        let mut out = Vec::new();
        f.start_sending(Time::ZERO, &mut ids, &mut out);
        for _round in 0..20 {
            let data: Vec<Packet> = std::mem::take(&mut out);
            let mut acks = Vec::new();
            for p in &data {
                f.on_data(p, Time::from_micros(20), &mut ids, &mut acks);
            }
            for a in &acks {
                f.on_ack(a, Time::from_micros(40), &mut ids, &mut out);
            }
        }
        assert!(f.cwnd as u64 <= 20_000);
    }
}
