//! Test support shared by the integration suites (`mod support;`); not a
//! test target itself. Each suite uses its own part.
#![allow(dead_code)]

pub mod golden;
pub mod oracle;
pub mod sweep;

use drill_net::{PortGroup, RouteTable, SwitchId, Topology};

/// Every group table installed in `routes`, in the shape of
/// [`oracle::Oracle::table`]: `(switch, dst leaf, groups)` per entry that
/// has groups, in (switch, dst) order.
pub fn group_table(topo: &Topology, routes: &RouteTable) -> Vec<(u32, u32, Vec<PortGroup>)> {
    let mut out = Vec::new();
    for si in 0..topo.num_switches() as u32 {
        for d in 0..topo.num_leaves() as u32 {
            let g = routes.groups(SwitchId(si), d);
            if !g.is_empty() {
                out.push((si, d, g.to_vec()));
            }
        }
    }
    out
}
