//! Worst-case per-edge load under the hose traffic model.
//!
//! Operational constraint OC2: the DCI must carry *any* traffic matrix in
//! which each DC's aggregate ingress/egress stays within its capacity (the
//! hose model of Duffield et al.). With shortest-path routing fixed, the
//! load a duct `e` must support is
//!
//! ```text
//!   max  Σ_{(u,v) ∈ P_e} t_uv
//!   s.t. Σ_{pairs incident on a} t ≤ C_a   for every DC a,  t ≥ 0
//! ```
//!
//! where `P_e` is the set of DC pairs whose shortest path crosses `e`.
//! §4.1 notes the naive bound (summing `min(C_u, C_v)` over pairs)
//! over-provisions because a DC in several pairs gets double-counted; the
//! precise value is a maximum fractional b-matching, solved exactly as half
//! the max-flow on the bipartite double cover (Juttner et al., INFOCOM'03).
//!
//! Most pair sets a planner meets have a closed form. When the pairs are
//! exactly `S × T` for two disjoint DC sets (a complete bipartite set: a
//! star, a single pair, every DC on one side of a cut to every DC on the
//! other), the load is `min(ΣC_S, ΣC_T)`. The double cover of a
//! bipartite graph is two disjoint copies of it, and each copy is a
//! transportation problem with unbounded edges, whose maximum flow is
//! `min(ΣC_S, ΣC_T)`; half their sum is that same integer, so the closed
//! form returns the max-flow's bits. Every other pair set — odd cycles,
//! bipartite sets missing a pair, disjoint unions — runs Dinic on the
//! double cover.

use crate::graph::NodeId;
use crate::maxflow::Dinic;

/// Worst-case hose-model load on an edge crossed by the DC pairs `pairs`.
///
/// `capacity` maps each DC (by [`NodeId`]) to its hose capacity in
/// wavelength units; pairs must be distinct unordered pairs of DCs with
/// non-zero capacity. Returns the load in the same units (may be
/// half-integral, e.g. a triangle of unit-capacity DCs yields 1.5).
///
/// # Examples
///
/// ```
/// use iris_netgraph::hose::{max_edge_load, naive_edge_load};
/// // DC 0 (capacity 5) talks to DCs 1 and 2 over the same duct: its own
/// // hose cap bounds the duct load at 5, where the naive rule says 10.
/// let cap = |dc: usize| if dc == 0 { 5 } else { 10 };
/// assert_eq!(max_edge_load(&cap, &[(0, 1), (0, 2)]), 5.0);
/// assert_eq!(naive_edge_load(&cap, &[(0, 1), (0, 2)]), 10.0);
/// ```
///
/// # Panics
///
/// Panics if a pair is degenerate (`u == v`).
#[must_use]
pub fn max_edge_load(capacity: &impl Fn(NodeId) -> u64, pairs: &[(NodeId, NodeId)]) -> f64 {
    HoseScratch::new().max_edge_load(capacity, pairs)
}

/// Reusable workspace for [`max_edge_load`]: the distinct-DC index, the
/// colouring and the Dinic arena survive across calls, so a planning run
/// that evaluates thousands of pair sets allocates the flow network once.
#[derive(Debug, Default)]
pub struct HoseScratch {
    dcs: Vec<NodeId>,
    /// The distinct pairs as dense `(lo, hi)` indices into `dcs`.
    edges: Vec<(usize, usize)>,
    /// Each dense DC's side in the colouring: [`SIDE_S`] or [`SIDE_T`],
    /// both if it neighbours both ends of the first pair.
    side: Vec<u8>,
    dinic: Dinic,
}

const SIDE_S: u8 = 1;
const SIDE_T: u8 = 2;

impl HoseScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// As [`max_edge_load`], reusing this scratch's allocations.
    ///
    /// # Panics
    ///
    /// Panics if a pair is degenerate (`u == v`).
    #[must_use]
    pub fn max_edge_load(
        &mut self,
        capacity: &impl Fn(NodeId) -> u64,
        pairs: &[(NodeId, NodeId)],
    ) -> f64 {
        if pairs.is_empty() {
            return 0.0;
        }
        self.index(pairs);
        self.complete_bipartite_load(capacity)
            .unwrap_or_else(|| self.double_cover_load(capacity, pairs))
    }

    /// Collect the distinct DCs touching this edge and index them
    /// densely: sort + dedup + binary search instead of the quadratic
    /// `contains`/`position` scan. `edges` gets the distinct pairs.
    fn index(&mut self, pairs: &[(NodeId, NodeId)]) {
        self.dcs.clear();
        for &(u, v) in pairs {
            assert_ne!(u, v, "degenerate DC pair");
            self.dcs.push(u);
            self.dcs.push(v);
        }
        self.dcs.sort_unstable();
        self.dcs.dedup();
        let dcs = &self.dcs;
        let index = |n: NodeId| dcs.binary_search(&n).expect("indexed above");
        self.edges.clear();
        self.edges.extend(pairs.iter().map(|&(u, v)| {
            let (iu, iv) = (index(u), index(v));
            (iu.min(iv), iu.max(iv))
        }));
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// `min(ΣC_S, ΣC_T)` if the distinct pairs are exactly `S × T` for a
    /// 2-colouring `S`, `T` of their DCs; `None` otherwise.
    ///
    /// In a complete bipartite set the two ends `a ∈ S`, `b ∈ T` of any
    /// pair see the whole other side, so colouring each DC by the end it
    /// neighbours (`T` = neighbours of `a`, `S` = neighbours of `b`) is the
    /// 2-colouring. The set is complete bipartite iff every DC gets exactly
    /// one colour, every pair crosses, and the distinct pairs number
    /// `|S|·|T|` — counting `edges`, not `pairs`, so a repeated pair
    /// cannot stand in for a missing one.
    fn complete_bipartite_load(&mut self, capacity: &impl Fn(NodeId) -> u64) -> Option<f64> {
        let (a, b) = self.edges[0];
        self.side.clear();
        self.side.resize(self.dcs.len(), 0);
        for &(u, v) in &self.edges {
            for (x, y) in [(u, v), (v, u)] {
                if x == a {
                    self.side[y] |= SIDE_T;
                } else if x == b {
                    self.side[y] |= SIDE_S;
                }
            }
        }
        let (mut cap_s, mut cap_t, mut n_s) = (0u64, 0u64, 0usize);
        for (&dc, &side) in self.dcs.iter().zip(&self.side) {
            match side {
                SIDE_S => (cap_s, n_s) = (cap_s + capacity(dc), n_s + 1),
                SIDE_T => cap_t += capacity(dc),
                _ => return None,
            }
        }
        let (side, n_t) = (&self.side, self.dcs.len() - n_s);
        let crossing = self.edges.iter().all(|&(u, v)| side[u] != side[v]);
        (crossing && self.edges.len() == n_s * n_t).then(|| cap_s.min(cap_t) as f64)
    }

    /// Half the max-flow on the bipartite double cover of `pairs`, over
    /// the DCs [`Self::index`] collected: exact for every pair set.
    fn double_cover_load(
        &mut self,
        capacity: &impl Fn(NodeId) -> u64,
        pairs: &[(NodeId, NodeId)],
    ) -> f64 {
        let dcs = &self.dcs;
        let index = |n: NodeId| dcs.binary_search(&n).expect("indexed above");

        // Bipartite double cover: source -> left_a (cap C_a),
        // right_a -> sink (cap C_a); each pair contributes left_u -> right_v
        // and left_v -> right_u with unbounded capacity. The max flow is
        // twice the maximum fractional b-matching.
        let k = dcs.len();
        let source = 2 * k;
        let sink = 2 * k + 1;
        self.dinic.reset(2 * k + 2);
        for (i, &dc) in dcs.iter().enumerate() {
            let c = capacity(dc);
            self.dinic.add_edge(source, i, c); // left copy
            self.dinic.add_edge(k + i, sink, c); // right copy
        }
        for &(u, v) in pairs {
            let (iu, iv) = (index(u), index(v));
            self.dinic.add_edge(iu, k + iv, u64::MAX / 4);
            self.dinic.add_edge(iv, k + iu, u64::MAX / 4);
        }
        self.dinic.max_flow(source, sink) as f64 / 2.0
    }
}

/// The naive per-edge bound of §4.1: sum of `min(C_u, C_v)` over pairs.
///
/// Always an upper bound on [`max_edge_load`]; strictly larger whenever a
/// DC participates in multiple pairs crossing the edge with total demand
/// exceeding its own hose capacity. Kept as a comparison point for the
/// over-provisioning ablation.
#[must_use]
pub fn naive_edge_load(capacity: &impl Fn(NodeId) -> u64, pairs: &[(NodeId, NodeId)]) -> f64 {
    pairs
        .iter()
        .map(|&(u, v)| capacity(u).min(capacity(v)) as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pairs_no_load() {
        let cap = |_: NodeId| 10u64;
        assert_eq!(max_edge_load(&cap, &[]), 0.0);
    }

    #[test]
    fn single_pair_is_min_capacity() {
        let cap = |n: NodeId| if n == 0 { 4 } else { 9 };
        assert_eq!(max_edge_load(&cap, &[(0, 1)]), 4.0);
        assert_eq!(naive_edge_load(&cap, &[(0, 1)]), 4.0);
    }

    #[test]
    fn shared_endpoint_not_double_counted() {
        // §4.1's example: DC A paired with both B and C. A's hose capacity
        // caps the total; naive would count it twice.
        let cap = |n: NodeId| match n {
            0 => 5,  // A
            1 => 10, // B
            _ => 10, // C
        };
        let pairs = [(0, 1), (0, 2)];
        assert_eq!(max_edge_load(&cap, &pairs), 5.0);
        assert_eq!(naive_edge_load(&cap, &pairs), 10.0);
    }

    #[test]
    fn disjoint_pairs_sum() {
        let cap = |_: NodeId| 3u64;
        let pairs = [(0, 1), (2, 3)];
        assert_eq!(max_edge_load(&cap, &pairs), 6.0);
    }

    #[test]
    fn triangle_is_half_integral() {
        // Three unit-capacity DCs, all three pairs crossing: LP optimum is
        // t = 1/2 on each pair, total 1.5.
        let cap = |_: NodeId| 1u64;
        let pairs = [(0, 1), (1, 2), (0, 2)];
        assert_eq!(max_edge_load(&cap, &pairs), 1.5);
        assert_eq!(naive_edge_load(&cap, &pairs), 3.0);
    }

    #[test]
    fn load_bounded_by_half_total_capacity() {
        let cap = |n: NodeId| [7u64, 3, 5, 2][n];
        let pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let load = max_edge_load(&cap, &pairs);
        assert!(load <= (7 + 3 + 5 + 2) as f64 / 2.0);
        assert!(load <= naive_edge_load(&cap, &pairs));
    }

    #[test]
    fn star_bounded_by_center() {
        // Hub DC 0 paired with 4 others, each huge; load = C_0.
        let cap = |n: NodeId| if n == 0 { 8 } else { 100 };
        let pairs = [(0, 1), (0, 2), (0, 3), (0, 4)];
        assert_eq!(max_edge_load(&cap, &pairs), 8.0);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_pair_panics() {
        let cap = |_: NodeId| 1u64;
        let _ = max_edge_load(&cap, &[(3, 3)]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_calls() {
        let mut scratch = HoseScratch::new();
        let cap = |n: NodeId| [7u64, 3, 5, 2, 9][n];
        let sets: Vec<Vec<(usize, usize)>> = vec![
            vec![(0, 1), (0, 2), (0, 3), (1, 2)],
            vec![(3, 4)],
            vec![],
            vec![(0, 4), (1, 4), (2, 4), (3, 4), (0, 1)],
            vec![(2, 3), (0, 1)],
        ];
        for pairs in &sets {
            assert_eq!(
                scratch.max_edge_load(&cap, pairs),
                max_edge_load(&cap, pairs),
                "pairs {pairs:?}"
            );
        }
    }

    /// The general path alone: half the double cover's max-flow.
    fn double_cover(cap: &impl Fn(NodeId) -> u64, pairs: &[(NodeId, NodeId)]) -> f64 {
        let mut scratch = HoseScratch::new();
        scratch.index(pairs);
        scratch.double_cover_load(cap, pairs)
    }

    #[test]
    fn repeated_pairs_never_stand_in_for_missing_ones() {
        let cap = |n: NodeId| [7u64, 3, 5, 2][n];
        let mut scratch = HoseScratch::new();
        // Four pairs over S = {0, 1}, T = {2, 3}, but (1, 2) is missing.
        let gappy = [(0, 2), (2, 0), (0, 3), (1, 3)];
        assert_eq!(
            scratch.max_edge_load(&cap, &gappy),
            double_cover(&cap, &gappy)
        );
        assert_eq!(scratch.complete_bipartite_load(&cap), None);
        // A complete set given twice over is still complete.
        let twice = [(0, 2), (1, 2), (2, 1), (0, 2)];
        assert_eq!(scratch.max_edge_load(&cap, &twice), 5.0);
        assert_eq!(double_cover(&cap, &twice), 5.0);
    }

    /// A random distinct pair set of one of six shapes over DC ids drawn
    /// sparsely from `0..64`: 0 a star, 1 a single pair, 2 complete
    /// bipartite, 3 complete bipartite less one pair, 4 an odd cycle,
    /// 5 two disjoint complete bipartite sets. Each pair is given either
    /// way round, in shuffled order.
    fn pair_set(kind: usize, rng: &mut rand::rngs::StdRng) -> Vec<(NodeId, NodeId)> {
        use rand::Rng;
        let mut ids: Vec<NodeId> = (0..64).collect();
        for i in 0..16 {
            ids.swap(i, rng.random_range(i..64));
        }
        let complete = |side_s: &[NodeId], side_t: &[NodeId]| -> Vec<(NodeId, NodeId)> {
            let cross = side_s
                .iter()
                .flat_map(|&u| side_t.iter().map(move |&v| (u, v)));
            cross.collect()
        };
        let mut pairs = match kind {
            0 => complete(&ids[..1], &ids[1..rng.random_range(2usize..10)]),
            1 => complete(&ids[..1], &ids[1..2]),
            2 => {
                let (s, t) = (rng.random_range(1usize..6), rng.random_range(1usize..6));
                complete(&ids[..s], &ids[s..s + t])
            }
            3 => {
                // Every DC keeps a pair, so only the pair count falls short.
                let (s, t) = (rng.random_range(2usize..6), rng.random_range(2usize..6));
                let mut pairs = complete(&ids[..s], &ids[s..s + t]);
                pairs.swap_remove(rng.random_range(0..pairs.len()));
                pairs
            }
            4 => {
                let len = [3, 5, 7][rng.random_range(0usize..3)];
                (0..len).map(|i| (ids[i], ids[(i + 1) % len])).collect()
            }
            _ => {
                let (s, t) = (rng.random_range(1usize..4), rng.random_range(1usize..4));
                let mut pairs = complete(&ids[..s], &ids[s..s + t]);
                pairs.extend(complete(&ids[8..8 + t], &ids[12..12 + s]));
                pairs
            }
        };
        let n = pairs.len();
        for i in 0..n {
            pairs.swap(i, rng.random_range(i..n));
            if rng.random_bool(0.5) {
                pairs[i] = (pairs[i].1, pairs[i].0);
            }
        }
        pairs
    }

    proptest::proptest! {
        /// `max_edge_load` returns the double cover's bits on every shape
        /// of pair set, with capacities from 1 to 2^32 and one scratch
        /// reused across the calls; the closed form answers exactly the
        /// complete bipartite sets.
        #[test]
        fn closed_form_matches_the_double_cover(
            calls in proptest::collection::vec(
                (0usize..6, proptest::prelude::any::<u64>()),
                1..8,
            ),
        ) {
            use rand::{Rng, SeedableRng};
            let mut scratch = HoseScratch::new();
            for (kind, seed) in calls {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let caps: Vec<u64> = (0..64).map(|_| rng.random_range(1..=1u64 << 32)).collect();
                let cap = |dc: NodeId| caps[dc];
                let pairs = pair_set(kind, &mut rng);
                let load = scratch.max_edge_load(&cap, &pairs);
                proptest::prop_assert_eq!(load.to_bits(), double_cover(&cap, &pairs).to_bits());
                let closed = scratch.complete_bipartite_load(&cap);
                proptest::prop_assert_eq!(closed.is_some(), kind <= 2);
            }
        }
    }
}
