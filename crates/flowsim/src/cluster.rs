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
    let order = dec.size_order(link);
    let size = |k: usize| dec.flows[ids[order[k] as usize] as usize].size_bytes;
    let total_bits: f64 = (0..order.len()).map(|k| size(k) * 8.0).sum();
    let cap_bits = topo.links[link].capacity_gbps * 1e9 * dec.duration_s;
    let mut size_deciles = [0.0f64; 9];
    if !order.is_empty() {
        for (k, d) in size_deciles.iter_mut().enumerate() {
            let q = (k + 1) as f64 / 10.0;
            let idx = ((order.len() - 1) as f64 * q).round() as usize;
            *d = size(idx).max(1.0).log10();
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
    /// (size_bytes, slowdown), sorted by size, then slowdown. Slowdown
    /// < 0 encodes an incomplete rep flow.
    entries: Vec<(f64, f64)>,
}

impl SlowdownTable {
    /// Build from the rep link's simulation result (`finishes` aligned
    /// with `dec.link_flows[rep]`).
    #[must_use]
    pub fn build(topo: &SimTopology, dec: &Decomposition, rep: usize, finishes: &[f64]) -> Self {
        let cap_bps = topo.links[rep].capacity_gbps * 1e9;
        let ids = &dec.link_flows[rep];
        // Emitted in the rep's size order, so only runs of equal size
        // are left to order by slowdown.
        let mut entries: Vec<(f64, f64)> = dec
            .size_order(rep)
            .iter()
            .map(|&pos| {
                let f = &dec.flows[ids[pos as usize] as usize];
                let fin = finishes[pos as usize];
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
        for run in entries.chunk_by_mut(|a, b| a.0 == b.0) {
            run.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        }
        Self { entries }
    }

    /// Slowdown for a flow of `size_bytes`: the entry with the nearest
    /// size (ties to the smaller). Returns `None` if the table is empty
    /// or the nearest rep flow was incomplete.
    #[must_use]
    pub fn slowdown(&self, size_bytes: f64) -> Option<f64> {
        let mut lower_bound = self.entries.partition_point(|&(s, _)| s < size_bytes);
        self.lookup(size_bytes, &mut lower_bound)
    }

    /// [`SlowdownTable::slowdown`] from a cursor at or before the first
    /// entry of size ≥ `size_bytes`, moved forward to it: queries in
    /// ascending size walk the table once, as a merge.
    fn lookup(&self, size_bytes: f64, cursor: &mut usize) -> Option<f64> {
        let e = &self.entries;
        debug_assert!(
            *cursor == 0 || e[*cursor - 1].0 < size_bytes,
            "cursor past the query"
        );
        while *cursor < e.len() && e[*cursor].0 < size_bytes {
            *cursor += 1;
        }
        let idx = (*cursor).min(e.len().checked_sub(1)?);
        let smaller_is_nearer =
            idx > 0 && (size_bytes - e[idx - 1].0).abs() <= (e[idx].0 - size_bytes).abs();
        let (_, sd) = e[if smaller_is_nearer { idx - 1 } else { idx }];
        (sd >= 0.0).then_some(sd)
    }
}

/// Estimate a member link's finishes by broadcasting the rep's slowdown
/// distribution: each member flow pays `slowdown(size) * ideal` on the
/// *member's* capacity. Output aligns with `dec.link_flows[member]`;
/// flows whose nearest rep flow was incomplete — or that would finish
/// past the duration — come back [`INCOMPLETE`]. The member's flows are
/// looked up in size order, one forward pass through the table.
#[must_use]
pub fn estimate_member(
    topo: &SimTopology,
    dec: &Decomposition,
    member: usize,
    table: &SlowdownTable,
) -> Vec<f64> {
    let cap_bps = topo.links[member].capacity_gbps * 1e9;
    let ids = &dec.link_flows[member];
    let mut finishes = vec![INCOMPLETE; ids.len()];
    if cap_bps > 0.0 {
        let order = dec.size_order(member);
        // Gather before the merge: these loads do not wait on each
        // other, so they overlap instead of stalling the merge's
        // branches one cache miss at a time.
        let sized: Vec<(f64, f64)> = order
            .iter()
            .map(|&pos| {
                let f = &dec.flows[ids[pos as usize] as usize];
                (f.size_bytes, f.start_s)
            })
            .collect();
        let mut cursor = 0;
        for (&pos, &(size_bytes, start_s)) in order.iter().zip(&sized) {
            if let Some(sd) = table.lookup(size_bytes, &mut cursor) {
                let fin = start_s + sd * (size_bytes * 8.0) / cap_bps;
                if fin < dec.duration_s {
                    finishes[pos as usize] = fin;
                }
            }
        }
    }
    finishes
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

    /// The nearest-size rule as it stood before the size order, its
    /// binary search spelled as a linear scan: the first entry not smaller
    /// than the query, else the last; the smaller neighbour wins ties.
    fn reference_slowdown(entries: &[(f64, f64)], size: f64) -> Option<f64> {
        let lb = entries
            .iter()
            .position(|&(s, _)| s >= size)
            .unwrap_or(entries.len());
        let idx = lb.min(entries.len().checked_sub(1)?);
        let best = if idx > 0 && (size - entries[idx - 1].0).abs() <= (entries[idx].0 - size).abs()
        {
            idx - 1
        } else {
            idx
        };
        let (_, sd) = entries[best];
        (sd >= 0.0).then_some(sd)
    }

    /// The table as built before: flow-id order, then one full sort.
    fn reference_table(
        topo: &SimTopology,
        dec: &Decomposition,
        rep: usize,
        finishes: &[f64],
    ) -> Vec<(f64, f64)> {
        let cap_bps = topo.links[rep].capacity_gbps * 1e9;
        let mut entries: Vec<(f64, f64)> = dec.link_flows[rep]
            .iter()
            .zip(finishes)
            .map(|(&id, &fin)| {
                let f = &dec.flows[id as usize];
                let ideal = (f.size_bytes * 8.0) / cap_bps;
                let sd = if fin < 0.0 {
                    -1.0
                } else if ideal > 0.0 {
                    ((fin - f.start_s) / ideal).max(1.0)
                } else {
                    1.0
                };
                (f.size_bytes, sd)
            })
            .collect();
        entries.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        entries
    }

    /// The member estimate as done before: flow-id order, one search each.
    fn reference_member(
        topo: &SimTopology,
        dec: &Decomposition,
        member: usize,
        entries: &[(f64, f64)],
    ) -> Vec<f64> {
        let cap_bps = topo.links[member].capacity_gbps * 1e9;
        dec.link_flows[member]
            .iter()
            .map(|&id| {
                let f = &dec.flows[id as usize];
                match reference_slowdown(entries, f.size_bytes) {
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Ascending queries through one cursor, and each query on its own,
    /// against the reference rule.
    fn assert_cursor_matches(entries: Vec<(f64, f64)>, queries: &[f64]) {
        let table = SlowdownTable { entries };
        let mut cursor = 0;
        for &q in queries {
            let want = reference_slowdown(&table.entries, q);
            assert_eq!(
                table.lookup(q, &mut cursor),
                want,
                "cursor, query {q}: {:?}",
                table.entries
            );
            assert_eq!(
                table.slowdown(q),
                want,
                "alone, query {q}: {:?}",
                table.entries
            );
        }
    }

    #[test]
    fn cursor_lookup_matches_the_reference_on_hostile_tables() {
        let queries = [
            0.5, 5.0, 5.0, 7.5, 10.0, 12.0, 15.0, 15.0, 17.0, 20.0, 30.0, 35.0, 40.0, 1e9,
        ];
        assert_cursor_matches(Vec::new(), &queries);
        // Duplicate sizes (ordered by slowdown), incomplete entries
        // (slowdown < 0) inside and at both ends, and queries below,
        // above and exactly halfway between entries.
        let hostile = vec![
            (5.0, -1.0),
            (10.0, -1.0),
            (10.0, 1.0),
            (10.0, 3.0),
            (20.0, 2.0),
            (20.0, 2.5),
            (40.0, -1.0),
        ];
        assert_cursor_matches(hostile, &queries);
        assert_cursor_matches(vec![(7.0, 1.5)], &queries);
        // Seeded tables of small integer sizes (many duplicates) under
        // half-integer queries (many exact midpoints).
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for _ in 0..200 {
            let len = next(12) as usize;
            let mut entries: Vec<(f64, f64)> = (0..len)
                .map(|_| {
                    let sd = if next(4) == 0 {
                        -1.0
                    } else {
                        1.0 + next(5) as f64
                    };
                    (1.0 + next(8) as f64, sd)
                })
                .collect();
            entries.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let mut qs: Vec<f64> = (0..next(20)).map(|_| next(21) as f64 / 2.0).collect();
            qs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            assert_cursor_matches(entries, &qs);
        }
    }

    #[test]
    fn size_ordered_table_and_member_walk_match_sort_and_search() {
        let topo = SimTopology::hub_and_spoke(6, 1.0);
        let mut dec = dec_for(&topo, 4);
        // Sizes on a coarse grid: long runs of equal size on every link.
        for f in &mut dec.flows {
            f.size_bytes = (f.size_bytes / 5e3).ceil() * 5e3;
        }
        let links = dec.occupied_links();
        let rep = links[0];
        let mut finishes = dec.simulate(&topo, rep);
        // Incomplete rep flows mark their sizes unfinishable.
        for fin in finishes.iter_mut().step_by(7) {
            *fin = INCOMPLETE;
        }
        let table = SlowdownTable::build(&topo, &dec, rep, &finishes);
        let want = reference_table(&topo, &dec, rep, &finishes);
        assert_eq!(table.entries.len(), want.len());
        for (a, b) in table.entries.iter().zip(&want) {
            assert_eq!(
                (a.0.to_bits(), a.1.to_bits()),
                (b.0.to_bits(), b.1.to_bits())
            );
        }
        let mut thin = topo.clone();
        thin.links[links[2]].capacity_gbps = 0.0;
        for t in [&topo, &thin] {
            for &m in &links {
                let got = estimate_member(t, &dec, m, &table);
                assert_eq!(
                    bits(&got),
                    bits(&reference_member(t, &dec, m, &want)),
                    "member {m}"
                );
            }
        }
        let zero = estimate_member(&thin, &dec, links[2], &table);
        assert!(zero.iter().all(|&f| f == INCOMPLETE));
        let empty = SlowdownTable {
            entries: Vec::new(),
        };
        assert!(estimate_member(&topo, &dec, links[1], &empty)
            .iter()
            .all(|&f| f == INCOMPLETE));
    }

    #[test]
    fn features_read_the_size_order_as_a_full_sort_would() {
        let topo = SimTopology::hub_and_spoke(5, 1.0);
        let dec = dec_for(&topo, 6);
        for l in dec.occupied_links() {
            let mut sizes: Vec<f64> = dec.link_flows[l]
                .iter()
                .map(|&id| dec.flows[id as usize].size_bytes)
                .collect();
            sizes.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let total_bits: f64 = sizes.iter().map(|s| s * 8.0).sum();
            let feat = link_features(&topo, &dec, l);
            let cap_bits = topo.links[l].capacity_gbps * 1e9 * dec.duration_s;
            assert_eq!(feat.load.to_bits(), (total_bits / cap_bits).to_bits());
            for (k, d) in feat.size_deciles.iter().enumerate() {
                let idx = ((sizes.len() - 1) as f64 * (k + 1) as f64 / 10.0).round() as usize;
                assert_eq!(d.to_bits(), sizes[idx].max(1.0).log10().to_bits());
            }
        }
    }
}
