//! The probe trait: static-dispatch observation hooks on the packet path.
//!
//! Every hook site in `drill-net` / `drill-runtime` is generic over
//! `P: Probe` and monomorphized, so the disabled path ([`NoopProbe`])
//! compiles to *nothing*: the empty `#[inline]` bodies vanish, and any
//! work needed only to feed a hook (building a [`PacketMeta`], scanning
//! candidate queues for the true shortest) is gated on the associated
//! constant [`Probe::ENABLED`], which the optimizer const-folds away.
//! `drillbench`'s `telemetry.record_overhead_ratio` measures the cost of
//! a recording probe against exactly that noop build.
//!
//! Probes observe; they must never steer. None of the hooks can touch the
//! simulation RNG, schedule events, or mutate packets, which is what makes
//! the determinism contract (bit-identical metrics with telemetry on or
//! off) hold by construction.

use drill_sim::Time;

/// The packet fields probes may record (a plain-data mirror of the
/// interesting part of `drill_net::Packet`, kept here so the telemetry
/// crate can sit below `drill-net` in the dependency order).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PacketMeta {
    /// Globally unique packet id.
    pub id: u64,
    /// Flow id.
    pub flow: u32,
    /// Sending host.
    pub src: u32,
    /// Destination host.
    pub dst: u32,
    /// Bytes on the wire.
    pub size: u32,
    /// First payload byte's sequence number.
    pub seq: u64,
    /// Sender-side emission index within the flow (reordering analysis).
    pub emit_idx: u32,
    /// Packet flag bits ([`meta_flags`] encoding: DATA/ACK/FIN/RETX).
    pub flags: u8,
}

/// TCP-style packet flag bits, the one definition of the encoding carried
/// by both [`PacketMeta::flags`] and `drill_net::Packet::flags` (this
/// crate sits below `drill-net`, which re-exports the module as
/// `drill_net::flags`).
pub mod meta_flags {
    /// Carries payload bytes.
    pub const DATA: u8 = 1 << 0;
    /// Carries a cumulative acknowledgement.
    pub const ACK: u8 = 1 << 1;
    /// Final segment of the flow.
    pub const FIN: u8 = 1 << 2;
    /// Retransmission (Karn's rule: do not sample RTT).
    pub const RETX: u8 = 1 << 3;
}

/// Why a packet was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Output-queue tail drop.
    TailDrop,
    /// Egress link was (or went) down.
    LinkDown,
    /// No route to the destination leaf.
    NoRoute,
    /// Host NIC transmit-buffer overflow.
    NicOverflow,
    /// Random corruption on a lossy wire (fault injection).
    LinkLoss,
}

impl DropReason {
    /// Human name.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::TailDrop => "tail-drop",
            DropReason::LinkDown => "link-down",
            DropReason::NoRoute => "no-route",
            DropReason::NicOverflow => "nic-overflow",
            DropReason::LinkLoss => "link-loss",
        }
    }
}

/// Stable wire codes for control-plane fault/reconvergence events
/// ([`FaultInfo::kind`]). Defined here (below `drill-net` and the fault
/// engine in the dependency order) so every layer shares one encoding.
pub mod fault_kind {
    /// A switch-to-switch link pair went down.
    pub const LINK_DOWN: u8 = 0;
    /// A failed link pair was restored.
    pub const LINK_UP: u8 = 1;
    /// A switch crashed (all its switch-to-switch links downed).
    pub const SWITCH_DOWN: u8 = 2;
    /// A crashed switch recovered.
    pub const SWITCH_UP: u8 = 3;
    /// A link pair's capacity was degraded (param = num<<32 | den).
    pub const DEGRADE: u8 = 4;
    /// A link pair's random-loss probability changed (param = ppm).
    pub const SET_LOSS: u8 = 5;
    /// Routing + symmetric groups recomputed and installed atomically.
    pub const RECONVERGE: u8 = 6;
    /// The post-fault queue/drop churn settled (time-to-requeue-stability).
    pub const STABLE: u8 = 7;

    /// Human name for a kind code.
    pub fn name(kind: u8) -> &'static str {
        match kind {
            LINK_DOWN => "link-down",
            LINK_UP => "link-up",
            SWITCH_DOWN => "switch-down",
            SWITCH_UP => "switch-up",
            DEGRADE => "degrade",
            SET_LOSS => "set-loss",
            RECONVERGE => "reconverge",
            STABLE => "stable",
            _ => "unknown",
        }
    }
}

/// A control-plane fault or reconvergence event, as seen by probes.
///
/// `a`/`b` identify the affected switches (`u32::MAX` when unused, e.g.
/// `b` for switch crashes or both for reconvergence); `param` carries the
/// kind-specific payload (degradation fraction, loss ppm, reconvergence
/// generation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultInfo {
    /// One of the [`fault_kind`] codes.
    pub kind: u8,
    /// First affected switch (`u32::MAX` when unused).
    pub a: u32,
    /// Second affected switch (`u32::MAX` when unused).
    pub b: u32,
    /// Kind-specific payload.
    pub param: u64,
}

/// A forwarding engine's port choice, with the ground truth it could not
/// see (§3.2.1 queue-visibility lag): the *actual* occupancy of the chosen
/// port and of the truly shortest candidate at selection time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineChoice {
    /// Port the policy chose.
    pub chosen: u16,
    /// Actual occupancy (packets) of the chosen port.
    pub chosen_pkts: u32,
    /// Truly shortest candidate port (first among ties).
    pub best: u16,
    /// Actual occupancy (packets) of the shortest candidate.
    pub best_pkts: u32,
    /// Number of candidate ports the policy chose among.
    pub candidates: u16,
}

/// Observation hooks on the packet lifecycle.
///
/// All methods default to no-ops so probes implement only what they need.
/// Call sites gate hook-only work on [`Probe::ENABLED`]:
///
/// ```
/// use drill_telemetry::{NoopProbe, Probe};
/// fn hot_path<P: Probe>(probe: &mut P) {
///     if P::ENABLED {
///         // expensive: scan queues, build metadata ...
///     }
/// }
/// hot_path(&mut NoopProbe);
/// ```
#[allow(unused_variables)]
pub trait Probe {
    /// Whether this probe records anything. Hook sites skip probe-only
    /// work (metadata assembly, ground-truth queue scans) when `false`;
    /// the constant is monomorphized, so the check costs nothing.
    const ENABLED: bool = true;

    /// A packet was accepted by the sending host's NIC.
    #[inline]
    fn on_host_send(&mut self, now: Time, host: u32, pkt: &PacketMeta) {}

    /// A packet was delivered to the receiving host.
    #[inline]
    fn on_host_recv(&mut self, now: Time, host: u32, pkt: &PacketMeta) {}

    /// A forwarding engine picked an egress port among several candidates.
    #[inline]
    fn on_engine_choice(&mut self, now: Time, switch: u32, engine: u16, choice: &EngineChoice) {}

    /// A packet was appended to a switch output queue. `depth_pkts` /
    /// `depth_bytes` are the *actual* occupancy after the append
    /// (waiting + in flight, ignoring the visibility lag).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn on_enqueue(
        &mut self,
        now: Time,
        switch: u32,
        port: u16,
        engine: u16,
        pkt: &PacketMeta,
        depth_pkts: u32,
        depth_bytes: u64,
    ) {
    }

    /// A packet finished serializing and left a switch output port.
    /// `depth_pkts` is the occupancy after departure; `wait_ns` the
    /// packet's full sojourn (enqueue to end of serialization).
    #[inline]
    fn on_dequeue(
        &mut self,
        now: Time,
        switch: u32,
        port: u16,
        pkt_id: u64,
        depth_pkts: u32,
        wait_ns: u64,
    ) {
    }

    /// A packet was dropped at a switch (`port == u16::MAX` when no egress
    /// port was ever chosen, i.e. [`DropReason::NoRoute`]).
    #[inline]
    fn on_drop(
        &mut self,
        now: Time,
        switch: u32,
        port: u16,
        engine: u16,
        pkt: &PacketMeta,
        reason: DropReason,
    ) {
    }

    /// A packet was dropped at a host NIC (buffer overflow).
    #[inline]
    fn on_nic_drop(&mut self, now: Time, host: u32, pkt: &PacketMeta) {}

    /// A control-plane fault or reconvergence event fired (chaos engine).
    #[inline]
    fn on_fault(&mut self, now: Time, info: &FaultInfo) {}
}

/// The disabled probe: every hook is an empty `#[inline]` body and
/// [`Probe::ENABLED`] is `false`, so monomorphized call sites compile to
/// exactly the pre-telemetry code.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire_all<P: Probe>(p: &mut P) {
        let m = PacketMeta::default();
        p.on_host_send(Time::ZERO, 0, &m);
        p.on_host_recv(Time::ZERO, 0, &m);
        p.on_engine_choice(Time::ZERO, 0, 0, &EngineChoice::default());
        p.on_enqueue(Time::ZERO, 0, 0, 0, &m, 1, 100);
        p.on_dequeue(Time::ZERO, 0, 0, 1, 0, 10);
        p.on_drop(Time::ZERO, 0, 0, 0, &m, DropReason::TailDrop);
        p.on_nic_drop(Time::ZERO, 0, &m);
        p.on_fault(Time::ZERO, &FaultInfo::default());
    }

    #[test]
    fn noop_is_disabled_and_inert() {
        const { assert!(!NoopProbe::ENABLED) };
        fire_all(&mut NoopProbe); // must compile and do nothing
    }

    #[test]
    fn fault_kind_names_are_distinct() {
        let kinds = [
            fault_kind::LINK_DOWN,
            fault_kind::LINK_UP,
            fault_kind::SWITCH_DOWN,
            fault_kind::SWITCH_UP,
            fault_kind::DEGRADE,
            fault_kind::SET_LOSS,
            fault_kind::RECONVERGE,
            fault_kind::STABLE,
        ];
        let names: Vec<_> = kinds.iter().map(|&k| fault_kind::name(k)).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!n.is_empty());
            assert!(!names[..i].contains(n), "duplicate name {n}");
        }
        assert_eq!(fault_kind::name(200), "unknown");
    }
}
