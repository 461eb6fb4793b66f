//! The simulated topology: links with capacities, and one route per DC
//! pair.
//!
//! The simulator is agnostic to where the topology comes from; adapters
//! build it from a planned region (nominal shortest paths and provisioned
//! capacities) or synthetically. Capacities are in Gbps but are usually
//! *scaled down* uniformly — FCT ratios between two designs are invariant
//! to a uniform capacity/arrival scaling under fluid max-min sharing, and
//! smaller capacities keep flow counts tractable (see DESIGN.md).

use iris_fibermap::Region;
use iris_planner::workload::{pair_count, pair_index};
use iris_planner::{topology::nominal_paths, DesignGoals, Provisioning};
use serde::{Deserialize, Serialize};

/// Identifier of a simulated link.
pub type LinkId = usize;

/// A simulated unidirectional link aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Capacity, Gbps.
    pub capacity_gbps: f64,
}

/// Links plus one route per unordered DC pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimTopology {
    /// Number of DCs.
    pub n_dcs: usize,
    /// All links.
    pub links: Vec<Link>,
    /// `routes[pair_index]` — link ids the pair's traffic traverses.
    pub routes: Vec<Vec<LinkId>>,
    /// `route_rtt_s[pair_index]` — round-trip propagation delay of the
    /// pair's fiber route, seconds. Flows pay it on top of their
    /// transfer time; it is the quantity the §2.1 latency analysis is
    /// about. Zero for abstract topologies.
    pub route_rtt_s: Vec<f64>,
}

impl SimTopology {
    /// Route of pair `(i, j)`.
    #[must_use]
    pub fn route(&self, i: usize, j: usize) -> &[LinkId] {
        &self.routes[pair_index(self.n_dcs, i.min(j), i.max(j))]
    }

    /// Bottleneck capacity along pair `(i, j)`'s route, Gbps.
    #[must_use]
    pub fn bottleneck_gbps(&self, i: usize, j: usize) -> f64 {
        self.route(i, j)
            .iter()
            .map(|&l| self.links[l].capacity_gbps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total link capacity, Gbps.
    #[must_use]
    pub fn total_capacity_gbps(&self) -> f64 {
        self.links.iter().map(|l| l.capacity_gbps).sum()
    }

    /// Build from a planned region: one simulated link per used duct,
    /// capacity = provisioned wavelengths x `gbps_per_wavelength` x
    /// `scale`; routes are the nominal shortest paths.
    ///
    /// # Panics
    ///
    /// Panics if some DC pair has no nominal path.
    #[must_use]
    pub fn from_provisioning(
        region: &Region,
        goals: &DesignGoals,
        prov: &Provisioning,
        scale: f64,
    ) -> Self {
        let n = region.dcs.len();
        let used = prov.used_edges();
        // Dense re-indexing of used ducts.
        let mut link_of_edge = vec![usize::MAX; prov.edge_capacity_wl.len()];
        let mut links = Vec::with_capacity(used.len());
        for &e in &used {
            link_of_edge[e] = links.len();
            links.push(Link {
                capacity_gbps: prov.edge_capacity_wl[e] * region.gbps_per_wavelength * scale,
            });
        }
        let mut routes = vec![Vec::new(); pair_count(n)];
        let mut route_rtt_s = vec![0.0; pair_count(n)];
        for p in nominal_paths(region, goals) {
            let idx = pair_index(n, p.a, p.b);
            routes[idx] = p
                .edges
                .iter()
                .map(|&e| {
                    let l = link_of_edge[e];
                    assert_ne!(l, usize::MAX, "path uses unprovisioned duct");
                    l
                })
                .collect();
            route_rtt_s[idx] = iris_geo::rtt_ms(p.length_km) / 1000.0;
        }
        for (idx, r) in routes.iter().enumerate() {
            assert!(!r.is_empty(), "pair {idx} has no route");
        }
        Self {
            n_dcs: n,
            links,
            routes,
            route_rtt_s,
        }
    }

    /// The `scale` at which [`SimTopology::from_provisioning`] gives the
    /// plan's largest link `largest_gbps`. FCT ratios do not depend on
    /// the scale; a largest link of ~2 Gbps makes short runs contend.
    #[must_use]
    pub fn scale_for_largest_link(region: &Region, prov: &Provisioning, largest_gbps: f64) -> f64 {
        let unscaled = prov.edge_capacity_wl.iter();
        let largest = unscaled.map(|&wl| wl * region.gbps_per_wavelength);
        largest_gbps / largest.fold(0.0f64, f64::max)
    }

    /// A synthetic hub-and-spoke topology: `n_dcs` spokes of
    /// `spoke_gbps` each through one hub (each pair's route is its two
    /// spokes). Handy for unit tests and quick studies.
    #[must_use]
    pub fn hub_and_spoke(n_dcs: usize, spoke_gbps: f64) -> Self {
        assert!(n_dcs >= 2, "need at least two DCs");
        let links = vec![
            Link {
                capacity_gbps: spoke_gbps
            };
            n_dcs
        ];
        // Each pair's two spokes, in the triangular pair order.
        let routes: Vec<Vec<LinkId>> = (0..n_dcs)
            .flat_map(|i| ((i + 1)..n_dcs).map(move |j| vec![i, j]))
            .collect();
        Self {
            n_dcs,
            links,
            route_rtt_s: vec![0.0; routes.len()],
            routes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_fibermap::{synth, MetroParams, PlacementParams};
    use iris_planner::provision;

    #[test]
    fn hub_and_spoke_routes() {
        let t = SimTopology::hub_and_spoke(4, 100.0);
        assert_eq!(t.links.len(), 4);
        assert_eq!(t.route(0, 3), &[0, 3]);
        assert_eq!(t.route(3, 0), &[0, 3]);
        assert_eq!(t.bottleneck_gbps(1, 2), 100.0);
        assert_eq!(t.total_capacity_gbps(), 400.0);
    }

    #[test]
    fn from_provisioning_builds_consistent_routes() {
        let region = synth::place_dcs(
            synth::generate_metro(&MetroParams::default()),
            &PlacementParams {
                n_dcs: 5,
                ..PlacementParams::default()
            },
        );
        let goals = DesignGoals::with_cuts(0);
        let prov = provision(&region, &goals);
        let t = SimTopology::from_provisioning(&region, &goals, &prov, 0.01);
        assert_eq!(t.n_dcs, 5);
        assert_eq!(t.routes.len(), 10);
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert!(t.bottleneck_gbps(i, j) > 0.0, "pair ({i},{j})");
            }
        }
        // Scale applies to every link.
        let unscaled = SimTopology::from_provisioning(&region, &goals, &prov, 1.0);
        assert!(
            (t.total_capacity_gbps() - unscaled.total_capacity_gbps() * 0.01).abs()
                / unscaled.total_capacity_gbps()
                < 1e-9
        );
    }
}
