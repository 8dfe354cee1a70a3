//! The incast application (§4, Figure 14).
//!
//! Modeled on the paper's setup (itself following Vasudevan et al. [69]):
//! periodically, 10% of hosts each issue simultaneous requests to a set of
//! servers, which all answer with a fixed-size (10 KB) response at the same
//! instant — a many-to-one microburst.

use drill_sim::{SimRng, Time};

/// Incast traffic parameters.
#[derive(Clone, Debug)]
pub struct IncastSpec {
    /// Fraction of hosts acting as requesters each epoch.
    pub frac_requesters: f64,
    /// Fraction of hosts each requester fetches from (the fan-in).
    pub frac_servers: f64,
    /// Response size per server (bytes).
    pub response_bytes: u64,
    /// Gap between incast epochs.
    pub epoch_gap: Time,
}

impl Default for IncastSpec {
    fn default() -> Self {
        IncastSpec {
            frac_requesters: 0.1,
            frac_servers: 0.1,
            response_bytes: 10_000,
            epoch_gap: Time::from_millis(10),
        }
    }
}

impl IncastSpec {
    /// Generate one epoch's response flows: `(server, requester, bytes)`
    /// triples, all starting simultaneously. Requesters and their servers
    /// are drawn fresh each epoch; a requester never fetches from itself.
    pub fn epoch_flows(&self, hosts: u32, rng: &mut SimRng) -> Vec<(u32, u32, u64)> {
        let n_req = ((hosts as f64 * self.frac_requesters).round() as usize).max(1);
        let fan_in = ((hosts as f64 * self.frac_servers).round() as usize).max(1);
        let requesters = rng.sample_indices(hosts as usize, n_req);
        let mut flows = Vec::with_capacity(n_req * fan_in);
        for &r in &requesters {
            // Sample servers distinct from the requester.
            let mut servers = rng.sample_indices(hosts as usize, (fan_in + 1).min(hosts as usize));
            servers.retain(|&s| s != r);
            servers.truncate(fan_in);
            for &s in &servers {
                flows.push((s as u32, r as u32, self.response_bytes));
            }
        }
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_shape() {
        let spec = IncastSpec::default();
        let mut rng = SimRng::seed_from(1);
        let flows = spec.epoch_flows(320, &mut rng);
        // 32 requesters x 32 servers.
        assert_eq!(flows.len(), 32 * 32);
        for &(s, r, b) in &flows {
            assert_ne!(s, r, "no self-fetch");
            assert!(s < 320 && r < 320);
            assert_eq!(b, 10_000);
        }
    }

    #[test]
    fn each_requester_gets_full_fan_in() {
        let spec = IncastSpec::default();
        let mut rng = SimRng::seed_from(2);
        let flows = spec.epoch_flows(100, &mut rng);
        let mut per_req = std::collections::HashMap::new();
        for &(_, r, _) in &flows {
            *per_req.entry(r).or_insert(0usize) += 1;
        }
        assert_eq!(per_req.len(), 10, "10% requesters");
        assert!(per_req.values().all(|&c| c == 10), "fan-in 10 each");
    }

    #[test]
    fn servers_are_distinct_per_requester() {
        let spec = IncastSpec {
            frac_servers: 0.5,
            ..Default::default()
        };
        let mut rng = SimRng::seed_from(3);
        let flows = spec.epoch_flows(20, &mut rng);
        let mut by_req: std::collections::HashMap<u32, Vec<u32>> = Default::default();
        for &(s, r, _) in &flows {
            by_req.entry(r).or_default().push(s);
        }
        for (_, mut servers) in by_req {
            let len = servers.len();
            servers.sort_unstable();
            servers.dedup();
            assert_eq!(servers.len(), len);
        }
    }

    #[test]
    fn tiny_cluster_still_works() {
        let spec = IncastSpec::default();
        let mut rng = SimRng::seed_from(4);
        let flows = spec.epoch_flows(4, &mut rng);
        assert!(!flows.is_empty());
        for &(s, r, _) in &flows {
            assert_ne!(s, r);
        }
    }
}
