//! The load-balancer plug-in API.
//!
//! A *switch policy* decides, per packet, which candidate egress port to
//! use whenever the routing table offers more than one (the ECMP group).
//! A *host policy* can tag packets before they leave the sender's NIC
//! (Presto's source routing). The DRILL algorithm (`drill-core`) and all
//! baselines (`drill-lb`) implement these traits; `drill-net` only defines
//! the contract.

use std::io;

use drill_sim::codec::Decoder;
use drill_sim::{SimRng, Time};

use crate::ids::{FlowId, SwitchId};
use crate::packet::Packet;
use crate::topology::Topology;

/// A set of mutually *symmetric* candidate ports plus its traffic weight
/// (§3.4: components of the symmetric-path decomposition, weighted by
/// aggregate path capacity). A symmetric topology has a single group per
/// (switch, destination-leaf).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PortGroup {
    /// Candidate egress ports in this component.
    pub ports: Vec<u16>,
    /// Relative share of flows hashed onto this component.
    pub weight: u64,
}

/// Pick a group by flow hash, proportionally to the group weights
/// (deterministic per flow, like ECMP's hash).
pub fn weighted_group_pick(groups: &[PortGroup], flow_hash: u64) -> &PortGroup {
    debug_assert!(!groups.is_empty());
    let total: u64 = groups.iter().map(|g| g.weight).sum();
    if total == 0 {
        return &groups[0];
    }
    // Re-mix so the same hash used for intra-group selection does not
    // correlate with group choice.
    let mut x = flow_hash ^ 0x517c_c1b7_2722_0a95;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    let mut pick = x % total;
    for g in groups {
        if pick < g.weight {
            return g;
        }
        pick -= g.weight;
    }
    groups.last().expect("non-empty groups")
}

/// Read-only view of a switch's output-queue occupancies as the forwarding
/// engines see them (i.e. *excluding* packets still being written into the
/// queue — the §3.2.1 visibility model).
pub trait QueueView {
    /// Visible queued bytes at `port` (including the packet on the wire).
    fn visible_bytes(&self, port: u16) -> u64;
    /// Visible queued packets at `port` (including the packet on the wire).
    fn visible_pkts(&self, port: u16) -> u32;
    /// Number of ports on this switch.
    fn num_ports(&self) -> usize;
    /// Visible bytes as seen by a specific engine: the shared committed
    /// count *plus the asking engine's own not-yet-committed enqueues*. A
    /// forwarding engine always knows what it just wrote; what it cannot
    /// see is the other engines' in-flight writes — which is precisely the
    /// staleness behind the paper's synchronization effect (§3.2.3).
    fn visible_bytes_for(&self, _engine: usize, port: u16) -> u64 {
        self.visible_bytes(port)
    }
}

/// Per-packet context handed to [`SwitchPolicy::select`].
#[derive(Debug)]
pub struct SelectCtx<'a> {
    /// Current simulated time.
    pub now: Time,
    /// Forwarding engine handling this packet (ingress-port affinity).
    pub engine: usize,
    /// The flow's stable 5-tuple hash.
    pub flow_hash: u64,
    /// The flow id.
    pub flow: FlowId,
    /// Dense index of the destination leaf.
    pub dst_leaf: u32,
    /// Candidate egress ports (the ECMP group, or one symmetric component).
    pub candidates: &'a [u16],
}

/// A switch-local forwarding policy.
///
/// One instance per switch, so implementations may keep per-switch state
/// (per-engine memory, round-robin pointers, flowlet tables, DREs...).
pub trait SwitchPolicy: Send {
    /// Choose one of `ctx.candidates` for this packet. Must return a member
    /// of `ctx.candidates`.
    fn select(&mut self, ctx: &SelectCtx<'_>, queues: &dyn QueueView, rng: &mut SimRng) -> u16;

    /// Called after the egress port has been determined (by `select`, by
    /// source routing, or trivially), just before enqueue. CONGA uses this
    /// to update DREs and stamp congestion metadata.
    fn on_forward(
        &mut self,
        _pkt: &mut Packet,
        _port: u16,
        _now: Time,
        _topo: &Topology,
        _switch: SwitchId,
        _from_host: bool,
    ) {
    }

    /// Called when a packet arrives at this switch, before forwarding.
    /// CONGA leaves harvest congestion metadata and feedback here.
    fn on_arrival(&mut self, _pkt: &mut Packet, _now: Time, _topo: &Topology, _switch: SwitchId) {}

    /// Serialize the policy's *dynamic* state for a snapshot. Stateless
    /// policies (ECMP, Random, WCMP — whose weights are structural and
    /// rebuilt from the topology) keep the empty default; stateful ones
    /// (DRILL engine memory, round-robin pointers, CONGA DREs/flowlet
    /// tables) must write every field that influences future decisions,
    /// in a deterministic order (sorted where the backing map is hashed).
    fn save_state(&self, _buf: &mut Vec<u8>) {}

    /// Restore state written by [`save_state`](SwitchPolicy::save_state)
    /// into a freshly constructed policy of the same scheme and shape.
    fn load_state(&mut self, _d: &mut Decoder<'_>) -> io::Result<()> {
        Ok(())
    }
}

/// A sender-host policy applied to every packet entering the host NIC.
pub trait HostPolicy: Send {
    /// Tag/modify an outgoing packet (e.g. attach a source route).
    fn on_send(&mut self, pkt: &mut Packet, now: Time, rng: &mut SimRng);

    /// Serialize dynamic state for a snapshot (see
    /// [`SwitchPolicy::save_state`]); Presto's flowcell offsets are the
    /// only stateful host policy today.
    fn save_state(&self, _buf: &mut Vec<u8>) {}

    /// Restore state written by [`save_state`](HostPolicy::save_state).
    fn load_state(&mut self, _d: &mut Decoder<'_>) -> io::Result<()> {
        Ok(())
    }
}

/// Host policy that does nothing (all schemes except Presto).
pub struct NullHostPolicy;

impl HostPolicy for NullHostPolicy {
    fn on_send(&mut self, _pkt: &mut Packet, _now: Time, _rng: &mut SimRng) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups(weights: &[u64]) -> Vec<PortGroup> {
        weights
            .iter()
            .enumerate()
            .map(|(i, &w)| PortGroup {
                ports: vec![i as u16],
                weight: w,
            })
            .collect()
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let gs = groups(&[1, 2]);
        let mut counts = [0usize; 2];
        for h in 0..30_000u64 {
            // Use well-mixed hashes, as flows get in practice.
            let hash = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let g = weighted_group_pick(&gs, hash);
            counts[g.ports[0] as usize] += 1;
        }
        let frac = counts[1] as f64 / 30_000.0;
        assert!((frac - 2.0 / 3.0).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn weighted_pick_is_deterministic_per_hash() {
        let gs = groups(&[3, 1, 5]);
        for h in [0u64, 1, 42, u64::MAX] {
            assert_eq!(
                weighted_group_pick(&gs, h).ports,
                weighted_group_pick(&gs, h).ports
            );
        }
    }

    #[test]
    fn weighted_pick_zero_total_falls_back() {
        let gs = groups(&[0, 0]);
        assert_eq!(weighted_group_pick(&gs, 123).ports, vec![0]);
    }

    #[test]
    fn weighted_pick_single_group() {
        let gs = groups(&[7]);
        assert_eq!(weighted_group_pick(&gs, 999).ports, vec![0]);
    }
}
