//! Per-scenario DC-pair shortest-path computation shared by the planning
//! stages.

use crate::goals::DesignGoals;
use iris_fibermap::Region;
use iris_netgraph::{shortest::path_length_km, DijkstraScratch, EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// The shortest path between one DC pair in one failure scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DcPath {
    /// Index (into `region.dcs`) of the lower-numbered endpoint.
    pub a: usize,
    /// Index of the higher-numbered endpoint.
    pub b: usize,
    /// Node sequence from `a`'s site to `b`'s site.
    pub nodes: Vec<NodeId>,
    /// Edge sequence, parallel to `nodes` windows.
    pub edges: Vec<EdgeId>,
    /// Total fiber length, km (unperturbed).
    pub length_km: f64,
}

impl DcPath {
    /// In-network OSS traversals of this path: one per intermediate node
    /// (hut or transited DC). Terminal OSS/mux losses at the endpoint DCs
    /// are compensated by the DCs' own booster/pre-amplifiers (Fig. 11 of
    /// the paper), so they do not count against the in-network budgets.
    #[must_use]
    pub fn oss_traversals(&self) -> usize {
        self.nodes.len().saturating_sub(2)
    }

    /// In-network loss of the whole path with no amplification: fiber
    /// attenuation plus one OSS insertion loss per intermediate node, dB.
    #[must_use]
    pub fn unamplified_loss_db(&self) -> f64 {
        self.length_km * iris_optics::FIBER_LOSS_DB_PER_KM
            + self.oss_traversals() as f64 * iris_optics::OSS_LOSS_DB
    }

    /// Whether the path needs in-line amplification: its end-to-end loss
    /// exceeds what one terminal amplifier pair restores (TC1 generalized
    /// to include switch insertion loss).
    #[must_use]
    pub fn needs_amplification(&self) -> bool {
        self.unamplified_loss_db() > iris_optics::AMPLIFIER_GAIN_DB + 1e-9
    }

    /// Losses of the two segments created by amplifying at interior node
    /// index `at` (index into `nodes`, `1..=nodes.len()-2`): the amplifier
    /// location's own OSS traversal lands on the *prefix* side (the fiber
    /// is switched into the amplifier loopback after the OSS).
    ///
    /// # Panics
    ///
    /// Panics if `at` is not an interior index.
    #[must_use]
    pub fn split_losses_db(&self, region: &Region, at: usize) -> (f64, f64) {
        self.split_losses_with(&self.prefix_km(region), at)
    }

    /// [`DcPath::split_losses_db`] given the path's own `prefix_km`, so
    /// that a caller trying every split computes the prefix once.
    pub(crate) fn split_losses_with(&self, prefix_km: &[f64], at: usize) -> (f64, f64) {
        assert!(
            at >= 1 && at + 1 < self.nodes.len(),
            "amplifier must sit at an interior node"
        );
        let fiber = iris_optics::FIBER_LOSS_DB_PER_KM;
        let oss = iris_optics::OSS_LOSS_DB;
        let pre = prefix_km[at] * fiber + at as f64 * oss;
        let interior_after = (self.nodes.len() - 2) - at;
        let post = (self.length_km - prefix_km[at]) * fiber + interior_after as f64 * oss;
        (pre, post)
    }

    /// The set of intermediate nodes (candidate amplifier locations).
    #[must_use]
    pub fn interior_nodes(&self) -> &[NodeId] {
        if self.nodes.len() <= 2 {
            &[]
        } else {
            &self.nodes[1..self.nodes.len() - 1]
        }
    }

    /// Cumulative km from the start to each node (len = nodes.len()).
    #[must_use]
    pub fn prefix_km(&self, region: &Region) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut acc = 0.0;
        out.push(0.0);
        for &e in &self.edges {
            acc += region.map.graph().edge(e).length_km;
            out.push(acc);
        }
        out
    }
}

/// The disabled-edge mask that removes (a) the scenario's failed ducts and
/// (b) every duct longer than the unamplified span limit, which no
/// switching technology can use point-to-point (TC1, §4.1).
#[must_use]
pub fn scenario_mask(region: &Region, goals: &DesignGoals, failed: &[EdgeId]) -> Vec<bool> {
    let g = region.map.graph();
    let mut mask = vec![false; g.edge_count()];
    for (e, edge) in g.edges().iter().enumerate() {
        if edge.length_km > goals.max_span_km {
            mask[e] = true;
        }
    }
    for &e in failed {
        mask[e] = true;
    }
    mask
}

/// Pair `(a, b)`'s path after `dijkstra` ran from DC `a`: the shortest
/// one, unless the pair is disconnected or that path is over the SLA.
pub(crate) fn route(
    dijkstra: &DijkstraScratch,
    region: &Region,
    goals: &DesignGoals,
    a: usize,
    b: usize,
) -> Option<DcPath> {
    let (g, target) = (region.map.graph(), region.dcs[b]);
    let edges = dijkstra.path_edges(g, target)?;
    let length_km = path_length_km(g, &edges);
    (length_km <= goals.sla_km + 1e-9).then(|| DcPath {
        a,
        b,
        nodes: dijkstra.path_nodes(g, target).expect("reachable"),
        edges,
        length_km,
    })
}

/// All DC-pair shortest paths in the failure scenario `failed`.
///
/// Pairs that are disconnected, or whose shortest path exceeds the SLA
/// length, are returned in the second list as `(a, b)` index pairs.
#[must_use]
pub fn scenario_paths(
    region: &Region,
    goals: &DesignGoals,
    failed: &[EdgeId],
) -> (Vec<DcPath>, Vec<(usize, usize)>) {
    let mask = scenario_mask(region, goals, failed);
    let mut dijkstra = DijkstraScratch::new();
    let (mut paths, mut unreachable) = (Vec::new(), Vec::new());
    for a in 0..region.dcs.len() {
        dijkstra.run(region.map.graph(), region.dcs[a], &mask);
        for b in (a + 1)..region.dcs.len() {
            match route(&dijkstra, region, goals, a, b) {
                Some(path) => paths.push(path),
                None => unreachable.push((a, b)),
            }
        }
    }
    (paths, unreachable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_fibermap::{synth, MetroParams, PlacementParams};

    fn region() -> Region {
        synth::place_dcs(
            synth::generate_metro(&MetroParams::default()),
            &PlacementParams::default(),
        )
    }

    #[test]
    fn nominal_scenario_reaches_all_pairs() {
        let r = region();
        let goals = DesignGoals::default();
        let (paths, unreachable) = scenario_paths(&r, &goals, &[]);
        let n = r.dcs.len();
        assert_eq!(paths.len() + unreachable.len(), n * (n - 1) / 2);
        assert!(
            unreachable.is_empty(),
            "nominal scenario should reach all pairs: {unreachable:?}"
        );
    }

    #[test]
    fn paths_respect_sla() {
        let r = region();
        let goals = DesignGoals::default();
        let (paths, _) = scenario_paths(&r, &goals, &[]);
        for p in &paths {
            assert!(p.length_km <= goals.sla_km + 1e-9);
            assert_eq!(p.nodes.len(), p.edges.len() + 1);
        }
    }

    #[test]
    fn long_edges_are_masked() {
        let r = region();
        let goals = DesignGoals::default();
        let mask = scenario_mask(&r, &goals, &[]);
        for (e, edge) in r.map.graph().edges().iter().enumerate() {
            if edge.length_km > goals.max_span_km {
                assert!(mask[e]);
            }
        }
    }

    #[test]
    fn failed_edges_are_avoided() {
        let r = region();
        let goals = DesignGoals::default();
        let (paths, _) = scenario_paths(&r, &goals, &[]);
        let victim = paths[0].edges[0];
        let (paths2, _) = scenario_paths(&r, &goals, &[victim]);
        for p in &paths2 {
            assert!(!p.edges.contains(&victim), "path uses failed duct");
        }
    }

    #[test]
    fn oss_traversal_count() {
        let p = DcPath {
            a: 0,
            b: 1,
            nodes: vec![10, 11, 12, 13],
            edges: vec![0, 1, 2],
            length_km: 30.0,
        };
        // Only the 2 intermediate nodes count as in-network traversals.
        assert_eq!(p.oss_traversals(), 2);
        assert_eq!(p.interior_nodes(), &[11, 12]);
        // 30 km * 0.25 + 2 * 1.5 dB.
        assert!((p.unamplified_loss_db() - 10.5).abs() < 1e-9);
        assert!(!p.needs_amplification());
    }

    #[test]
    fn long_path_needs_amplification() {
        let p = DcPath {
            a: 0,
            b: 1,
            nodes: vec![10, 11],
            edges: vec![0],
            length_km: 81.0,
        };
        assert!(p.needs_amplification());
        let ok = DcPath {
            length_km: 80.0,
            ..p
        };
        assert!(!ok.needs_amplification());
    }

    #[test]
    fn split_losses_partition_total() {
        let r = region();
        let goals = DesignGoals::default();
        let (paths, _) = scenario_paths(&r, &goals, &[]);
        let p = paths
            .iter()
            .find(|p| p.edges.len() >= 3)
            .expect("3-hop path");
        for at in 1..p.nodes.len() - 1 {
            let (pre, post) = p.split_losses_db(&r, at);
            assert!(
                (pre + post - p.unamplified_loss_db()).abs() < 1e-9,
                "split at {at} does not partition the loss"
            );
            assert!(pre > 0.0 && post >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "interior node")]
    fn split_at_endpoint_panics() {
        let r = region();
        let goals = DesignGoals::default();
        let (paths, _) = scenario_paths(&r, &goals, &[]);
        let p = &paths[0];
        let _ = p.split_losses_db(&r, 0);
    }

    #[test]
    fn prefix_km_accumulates() {
        let r = region();
        let goals = DesignGoals::default();
        let (paths, _) = scenario_paths(&r, &goals, &[]);
        let p = paths
            .iter()
            .find(|p| p.edges.len() >= 2)
            .expect("multi-hop path");
        let pre = p.prefix_km(&r);
        assert_eq!(pre.len(), p.nodes.len());
        assert_eq!(pre[0], 0.0);
        assert!((pre.last().unwrap() - p.length_km).abs() < 1e-9);
        for w in pre.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }
}
