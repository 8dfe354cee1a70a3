//! Load-balancing scheme registry.

use drill_core::DrillPolicy;
use drill_lb::{
    CongaConfig, CongaPolicy, EcmpPolicy, PrestoHostPolicy, RandomPolicy, RoundRobinPolicy,
    WcmpPolicy,
};
use drill_net::{HostId, HostPolicy, NullHostPolicy, RouteTable, SwitchId, SwitchPolicy, Topology};

/// Every load balancer evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Per-flow hashing (the deployed baseline).
    Ecmp,
    /// Per-packet uniform random ("Per-packet Random").
    Random,
    /// Per-packet round robin ("Per-packet RR").
    RoundRobin,
    /// DRILL(d, m); `shim` restores ordering at the receiver.
    Drill {
        /// Random samples per decision.
        d: usize,
        /// Memory units per engine.
        m: usize,
        /// Deploy the receiver-side reordering shim.
        shim: bool,
    },
    /// Presto: 64 KB flowcells source-routed round robin; `shim` is
    /// Presto's standard configuration (disable to measure "before shim").
    Presto {
        /// Deploy the receiver-side reordering shim.
        shim: bool,
    },
    /// CONGA: congestion-aware flowlets.
    Conga,
    /// WCMP: capacity-weighted ECMP.
    Wcmp,
}

impl Scheme {
    /// DRILL at the paper's recommended operating point, with the shim.
    pub fn drill_default() -> Scheme {
        Scheme::Drill {
            d: 2,
            m: 1,
            shim: true,
        }
    }

    /// DRILL(2,1) without the shim ("DRILL w/o shim" in the figures).
    pub fn drill_no_shim() -> Scheme {
        Scheme::Drill {
            d: 2,
            m: 1,
            shim: false,
        }
    }

    /// Presto as deployed (with its shim).
    pub fn presto() -> Scheme {
        Scheme::Presto { shim: true }
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Scheme::Ecmp => "ECMP".into(),
            Scheme::Random => "Per-packet Random".into(),
            Scheme::RoundRobin => "Per-packet RR".into(),
            Scheme::Drill { d, m, shim: true } => format!("DRILL({d},{m})"),
            Scheme::Drill { d, m, shim: false } => format!("DRILL({d},{m}) w/o shim"),
            Scheme::Presto { shim: true } => "Presto".into(),
            Scheme::Presto { shim: false } => "Presto before shim".into(),
            Scheme::Conga => "CONGA".into(),
            Scheme::Wcmp => "WCMP".into(),
        }
    }

    /// Whether receivers run the reordering shim for this scheme.
    pub fn uses_shim(&self) -> bool {
        matches!(
            self,
            Scheme::Drill { shim: true, .. } | Scheme::Presto { shim: true }
        )
    }

    /// Shim parameters `(flush threshold in packets, hold timeout)`.
    ///
    /// DRILL reorders by a packet or two, so the shim flushes on TCP's own
    /// 3-packet loss evidence ([`SHIM_FLUSH_THRESHOLD`](drill_transport::SHIM_FLUSH_THRESHOLD)). Presto reorders at flowcell granularity —
    /// its real shim tracks flowcell sequence numbers and knows a whole
    /// cell may still be in flight — so its threshold covers one cell.
    pub fn shim_params(&self) -> (usize, drill_sim::Time) {
        match self {
            Scheme::Presto { .. } => (64, drill_sim::Time::from_micros(200)),
            _ => (
                drill_transport::SHIM_FLUSH_THRESHOLD,
                drill_transport::SHIM_DEFAULT_TIMEOUT,
            ),
        }
    }

    /// Whether DRILL's symmetric-component decomposition should be
    /// installed (the scheme micro load balances per packet and therefore
    /// needs the §3.4 asymmetry handling).
    pub fn wants_symmetric_groups(&self) -> bool {
        matches!(self, Scheme::Drill { .. })
    }

    /// Build the switch policy for one switch.
    pub fn make_switch_policy(
        &self,
        topo: &Topology,
        routes: &RouteTable,
        switch: SwitchId,
        engines: usize,
    ) -> Box<dyn SwitchPolicy> {
        match self {
            Scheme::Ecmp => Box::new(EcmpPolicy),
            Scheme::Random => Box::new(RandomPolicy),
            Scheme::RoundRobin => Box::new(RoundRobinPolicy::new(engines)),
            Scheme::Drill { d, m, .. } => Box::new(DrillPolicy::new(*d, *m, engines)),
            // Presto's fabric behaviour for non-source-routed packets
            // (ACKs, fallbacks) is ECMP.
            Scheme::Presto { .. } => Box::new(EcmpPolicy),
            Scheme::Conga => Box::new(CongaPolicy::build(topo, switch, CongaConfig::default())),
            Scheme::Wcmp => Box::new(WcmpPolicy::build(topo, routes, switch)),
        }
    }

    /// Build the host policy for one sending host.
    pub fn make_host_policy(
        &self,
        topo: &Topology,
        routes: &RouteTable,
        host: HostId,
    ) -> Box<dyn HostPolicy> {
        match self {
            Scheme::Presto { .. } => Box::new(PrestoHostPolicy::build(topo, routes, host)),
            _ => Box::new(NullHostPolicy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_figures() {
        assert_eq!(Scheme::Ecmp.name(), "ECMP");
        assert_eq!(Scheme::drill_default().name(), "DRILL(2,1)");
        assert_eq!(Scheme::drill_no_shim().name(), "DRILL(2,1) w/o shim");
        assert_eq!(Scheme::Presto { shim: false }.name(), "Presto before shim");
    }

    #[test]
    fn shim_flags() {
        assert!(Scheme::drill_default().uses_shim());
        assert!(!Scheme::drill_no_shim().uses_shim());
        assert!(Scheme::presto().uses_shim());
        assert!(!Scheme::Conga.uses_shim());
    }

    #[test]
    fn group_flags() {
        assert!(Scheme::drill_default().wants_symmetric_groups());
        assert!(!Scheme::Ecmp.wants_symmetric_groups());
        assert!(!Scheme::Conga.wants_symmetric_groups());
    }
}
