//! Greedy link clustering: simulate one representative per cluster.
//!
//! Most links in a region look alike — similar offered load, similar
//! flow-size mix, same outage timeline — and processor sharing is
//! governed by exactly those features. Clustering keys each link on
//! (offered load, flow-size ECDF) and greedily groups links whose
//! feature distance is within a tolerance **and** whose capacity-scale
//! timelines are identical (an outage window changes tail behaviour
//! qualitatively; links that go dark differently are never merged).
//!
//! Only cluster representatives are simulated. A member's flows are
//! estimated by *broadcasting the representative's slowdown
//! distribution*: the rep's per-flow slowdowns (transfer time over
//! ideal transfer time at full capacity) form a size-indexed table, and
//! each member flow pays the slowdown of the nearest-sized rep flow on
//! its own ideal time. Everything is a deterministic function of the
//! decomposition, so clustered runs keep the byte-identical artifact
//! contract.

use crate::decompose::Decomposition;
use crate::link::INCOMPLETE;
use iris_simnet::SimTopology;

/// Feature vector of one link's offered workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFeatures {
    /// Offered load: admitted bits over `capacity * duration`.
    pub load: f64,
    /// log10 flow-size deciles (9 interior quantiles of the ECDF).
    pub size_deciles: [f64; 9],
}

/// Weight of the mean ECDF-decile distance relative to the offered-load
/// distance in [`feature_distance`].
const ECDF_WEIGHT: f64 = 0.25;

/// Extract [`LinkFeatures`] for `link`.
#[must_use]
pub fn link_features(topo: &SimTopology, dec: &Decomposition, link: usize) -> LinkFeatures {
    let ids = &dec.link_flows[link];
    let mut sizes: Vec<f64> = ids
        .iter()
        .map(|&id| dec.flows[id as usize].size_bytes)
        .collect();
    sizes.sort_by(|a, b| a.partial_cmp(b).expect("finite sizes"));
    let total_bits: f64 = sizes.iter().map(|s| s * 8.0).sum();
    let cap_bits = topo.links[link].capacity_gbps * 1e9 * dec.duration_s;
    let mut size_deciles = [0.0f64; 9];
    if !sizes.is_empty() {
        for (k, d) in size_deciles.iter_mut().enumerate() {
            let q = (k + 1) as f64 / 10.0;
            let idx = ((sizes.len() - 1) as f64 * q).round() as usize;
            *d = sizes[idx].max(1.0).log10();
        }
    }
    LinkFeatures {
        load: if cap_bits > 0.0 {
            total_bits / cap_bits
        } else {
            0.0
        },
        size_deciles,
    }
}

/// Distance between two links' features: |Δload| plus the mean
/// log10-decile gap, weighted by `ECDF_WEIGHT`.
#[must_use]
pub fn feature_distance(a: &LinkFeatures, b: &LinkFeatures) -> f64 {
    let decile_gap: f64 = a
        .size_deciles
        .iter()
        .zip(&b.size_deciles)
        .map(|(x, y)| (x - y).abs())
        .sum::<f64>()
        / 9.0;
    (a.load - b.load).abs() + ECDF_WEIGHT * decile_gap
}

/// One cluster: the representative link (simulated) and its members
/// (estimated from the rep's slowdown distribution; the rep itself is
/// not listed as a member).
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// The simulated representative.
    pub rep: usize,
    /// Member links estimated from the rep.
    pub members: Vec<usize>,
}

/// Greedily cluster `links` (ascending link ids — the deterministic
/// iteration order). A link joins the first existing cluster whose rep
/// is within `epsilon` feature distance and has an identical
/// capacity-scale timeline; otherwise it founds a new cluster.
#[must_use]
pub fn cluster_links(
    topo: &SimTopology,
    dec: &Decomposition,
    links: &[usize],
    epsilon: f64,
) -> Vec<Cluster> {
    let mut clusters: Vec<(Cluster, LinkFeatures)> = Vec::new();
    for &l in links {
        let feat = link_features(topo, dec, l);
        let found = clusters.iter_mut().find(|(c, rep_feat)| {
            dec.segments[c.rep] == dec.segments[l] && feature_distance(rep_feat, &feat) <= epsilon
        });
        match found {
            Some((c, _)) => c.members.push(l),
            None => clusters.push((
                Cluster {
                    rep: l,
                    members: Vec::new(),
                },
                feat,
            )),
        }
    }
    clusters.into_iter().map(|(c, _)| c).collect()
}

/// The representative's slowdown distribution, indexed by flow size:
/// for each completed rep flow, `slowdown = transfer / ideal` where
/// `ideal = bits / capacity`. Incomplete rep flows mark their size
/// range as unfinishable.
#[derive(Debug)]
pub struct SlowdownTable {
    /// (size_bytes, slowdown), sorted by size. Slowdown < 0 encodes an
    /// incomplete rep flow.
    entries: Vec<(f64, f64)>,
}

impl SlowdownTable {
    /// Build from the rep link's simulation result (`finishes` aligned
    /// with `dec.link_flows[rep]`).
    #[must_use]
    pub fn build(topo: &SimTopology, dec: &Decomposition, rep: usize, finishes: &[f64]) -> Self {
        let cap_bps = topo.links[rep].capacity_gbps * 1e9;
        let mut entries: Vec<(f64, f64)> = dec.link_flows[rep]
            .iter()
            .zip(finishes)
            .map(|(&id, &fin)| {
                let f = &dec.flows[id as usize];
                let slowdown = if fin < 0.0 {
                    -1.0
                } else {
                    let ideal = (f.size_bytes * 8.0) / cap_bps;
                    if ideal > 0.0 {
                        ((fin - f.start_s) / ideal).max(1.0)
                    } else {
                        1.0
                    }
                };
                (f.size_bytes, slowdown)
            })
            .collect();
        entries.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Self { entries }
    }

    /// Slowdown for a flow of `size_bytes`: the entry with the nearest
    /// size (ties to the smaller). Returns `None` if the table is empty
    /// or the nearest rep flow was incomplete.
    #[must_use]
    pub fn slowdown(&self, size_bytes: f64) -> Option<f64> {
        if self.entries.is_empty() {
            return None;
        }
        let idx = self
            .entries
            .partition_point(|&(s, _)| s < size_bytes)
            .min(self.entries.len() - 1);
        let best = if idx > 0
            && (size_bytes - self.entries[idx - 1].0).abs()
                <= (self.entries[idx].0 - size_bytes).abs()
        {
            idx - 1
        } else {
            idx
        };
        let (_, sd) = self.entries[best];
        (sd >= 0.0).then_some(sd)
    }
}

/// Estimate a member link's finishes by broadcasting the rep's slowdown
/// distribution: each member flow pays `slowdown(size) * ideal` on the
/// *member's* capacity. Output aligns with `dec.link_flows[member]`;
/// flows whose nearest rep flow was incomplete — or that would finish
/// past the duration — come back [`INCOMPLETE`].
#[must_use]
pub fn estimate_member(
    topo: &SimTopology,
    dec: &Decomposition,
    member: usize,
    table: &SlowdownTable,
) -> Vec<f64> {
    let cap_bps = topo.links[member].capacity_gbps * 1e9;
    dec.link_flows[member]
        .iter()
        .map(|&id| {
            let f = &dec.flows[id as usize];
            match table.slowdown(f.size_bytes) {
                Some(sd) if cap_bps > 0.0 => {
                    let fin = f.start_s + sd * (f.size_bytes * 8.0) / cap_bps;
                    if fin < dec.duration_s {
                        fin
                    } else {
                        INCOMPLETE
                    }
                }
                _ => INCOMPLETE,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_simnet::engine::{FabricModel, SimConfig};
    use iris_simnet::traffic::ChangeModel;
    use iris_simnet::workloads::FlowSizeDist;
    use iris_simnet::{TrafficMatrix, WorkSpec};

    fn dec_for(topo: &SimTopology, seed: u64) -> Decomposition {
        let trace = WorkSpec {
            topo: topo.clone(),
            matrix: TrafficMatrix::heavy_tailed(topo.n_dcs, seed),
            config: SimConfig {
                duration_s: 4.0,
                utilization: 0.5,
                flow_sizes: FlowSizeDist::facebook_web(),
                change_interval_s: Some(1.0),
                change_model: ChangeModel::Bounded(0.5),
                fabric: FabricModel::Eps,
                capacity_events: Vec::new(),
                seed,
            },
        }
        .trace();
        Decomposition::build(topo, &trace)
    }

    #[test]
    fn identical_links_cluster_together_at_modest_epsilon() {
        // A symmetric matrix seed still loads spokes unevenly, but a
        // huge epsilon must collapse everything into one cluster and a
        // zero epsilon into singletons.
        let topo = SimTopology::hub_and_spoke(6, 1.0);
        let dec = dec_for(&topo, 5);
        let links = dec.occupied_links();
        let one = cluster_links(&topo, &dec, &links, f64::INFINITY);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].members.len() + 1, links.len());
        let singletons = cluster_links(&topo, &dec, &links, 0.0);
        // Distinct workloads -> (almost) all singletons; at minimum the
        // clustering must be a partition.
        let covered: usize = singletons.iter().map(|c| 1 + c.members.len()).sum();
        assert_eq!(covered, links.len());
    }

    #[test]
    fn clustering_is_a_partition() {
        let topo = SimTopology::hub_and_spoke(8, 1.0);
        let dec = dec_for(&topo, 9);
        let links = dec.occupied_links();
        let clusters = cluster_links(&topo, &dec, &links, 0.05);
        let mut seen: Vec<usize> = clusters
            .iter()
            .flat_map(|c| std::iter::once(c.rep).chain(c.members.iter().copied()))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, links);
    }

    #[test]
    fn slowdown_table_interpolates_by_nearest_size() {
        let topo = SimTopology::hub_and_spoke(2, 1.0);
        let dec = dec_for(&topo, 2);
        let link = dec.occupied_links()[0];
        let finishes = dec.simulate(&topo, link);
        let table = SlowdownTable::build(&topo, &dec, link, &finishes);
        // Any queried slowdown is >= 1 (PS can never beat the ideal).
        for size in [100.0, 1e4, 1e6, 1e8] {
            if let Some(sd) = table.slowdown(size) {
                assert!(sd >= 1.0, "slowdown {sd} for size {size}");
            }
        }
    }

    #[test]
    fn member_estimate_scales_with_capacity() {
        // Same workload broadcast to a member with twice the capacity
        // must halve the estimated transfer times.
        let topo = SimTopology::hub_and_spoke(2, 1.0);
        let dec = dec_for(&topo, 2);
        let link = dec.occupied_links()[0];
        let finishes = dec.simulate(&topo, link);
        let table = SlowdownTable::build(&topo, &dec, link, &finishes);
        let mut fat = topo.clone();
        fat.links[link].capacity_gbps *= 2.0;
        let est_same = estimate_member(&topo, &dec, link, &table);
        let est_fat = estimate_member(&fat, &dec, link, &table);
        for (id, (a, b)) in est_same.iter().zip(&est_fat).enumerate() {
            if *a >= 0.0 && *b >= 0.0 {
                let f = &dec.flows[dec.link_flows[link][id] as usize];
                let ta = a - f.start_s;
                let tb = b - f.start_s;
                assert!(
                    (ta - 2.0 * tb).abs() <= 1e-9 * ta.abs().max(1.0),
                    "{ta} vs {tb}"
                );
            }
        }
    }
}
