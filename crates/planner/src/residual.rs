//! Residual-fiber accounting for fiber-granularity switching (§4.3) and
//! the hybrid wavelength-switched aggregation of Appendix B.
//!
//! Fiber switching rounds every DC-pair circuit up to whole fibers, so a
//! DC whose demands fragment across destinations may need one extra fiber
//! per destination: `n·(n-1)` residual fibers region-wide in the worst
//! case. Crucially, **no extra transceivers** are needed — transceivers at
//! the DCs multiplex across base and residual fibers as required — so the
//! overhead is cheap fiber, not expensive optics.
//!
//! Appendix B shows the overhead can be compressed by switching *residual*
//! traffic at wavelength granularity at one hut per path:
//!
//! * **Observation 1** — any 2 residual fibers from one source can be
//!   combined into 1;
//! * **Observation 2** — any `n` residual fibers from one source fit in
//!   `⌈n/4⌉` fibers, because the worst-case total residual demand is
//!   `λ·n/4` wavelengths.

use crate::engine::{thread_count, FailureSweep};
use crate::goals::DesignGoals;
use crate::paths::{scenario_paths, DcPath};
use iris_fibermap::Region;

/// Total residual fibers (not pairs) needed region-wide by pure fiber
/// switching: one per ordered DC pair (§4.3).
#[must_use]
pub fn residual_fiber_overhead(n_dcs: usize) -> usize {
    n_dcs * n_dcs.saturating_sub(1)
}

/// Residual fiber *pairs* to lease on each duct: for every unordered DC
/// pair, one pair along its shortest path, taking the per-duct maximum
/// across failure scenarios (the residual must exist on whatever path the
/// pair is using). A failure scenario only moves the pairs it re-routed
/// off their baseline ducts onto their detours, so only those ducts'
/// counts are looked at again.
#[must_use]
pub fn residual_pairs_per_edge(region: &Region, goals: &DesignGoals) -> Vec<u32> {
    residual_pairs_recorded(region, &FailureSweep::record(region, goals, thread_count()))
}

/// [`residual_pairs_per_edge`] over a recorded sweep of `region`.
pub(crate) fn residual_pairs_recorded(region: &Region, sweep: &FailureSweep) -> Vec<u32> {
    fn ducts(path: Option<&DcPath>) -> impl Iterator<Item = usize> + '_ {
        path.into_iter().flat_map(|p| p.edges.iter().copied())
    }
    let m = region.map.graph().edge_count();
    // Pairs per duct: without failures, this scenario's change, the worst.
    let (mut base, mut delta, mut worst) = (vec![0i32; m], vec![0i32; m], vec![0u32; m]);
    sweep.visit(|scenario, view| {
        if scenario.is_empty() {
            (view.paths().flat_map(|p| &p.edges)).for_each(|&e| base[e] += 1);
            worst = base.iter().map(|&c| c as u32).collect();
        }
        for &i in view.rerouted() {
            ducts(view.baseline(i)).for_each(|e| delta[e] -= 1);
            ducts(view.path(i)).for_each(|e| delta[e] += 1);
        }
        for &i in view.rerouted() {
            for e in ducts(view.baseline(i)).chain(ducts(view.path(i))) {
                worst[e] = worst[e].max((base[e] + std::mem::take(&mut delta[e])) as u32);
            }
        }
    });
    worst
}

/// Worst-case total residual demand (in wavelengths) from one DC with `n`
/// reachable destinations: `(n - D/λ) · D/n` maximized over the aggregate
/// demand `D`, which peaks at `D = λ·n/2` giving `λ·n/4` (Appendix B,
/// Observation 2's key step).
#[must_use]
pub fn worst_case_residual_wavelengths(n_destinations: usize, lambda: u32) -> f64 {
    f64::from(lambda) * n_destinations as f64 / 4.0
}

/// Residual demand (wavelengths over the residual links) for a *concrete*
/// per-destination demand vector, following Appendix B's construction:
/// the base capacity provisions `B = floor(D/λ)` full fibers, assigned to
/// the largest demands first; whatever remains travels on residual links.
#[must_use]
pub fn residual_after_base(demands_wl: &[u64], lambda: u32) -> u64 {
    let lambda = u64::from(lambda);
    let total: u64 = demands_wl.iter().sum();
    let base_fibers = total / lambda;
    // Fiber granularity: each base fiber serves exactly one destination
    // (up to λ of its demand). Greedily assign fibers to the largest
    // remaining demand; whatever is left travels on residual links.
    let mut remaining: Vec<u64> = demands_wl.to_vec();
    for _ in 0..base_fibers {
        let Some(max) = remaining.iter_mut().max() else {
            break;
        };
        *max = max.saturating_sub(lambda);
    }
    remaining.iter().sum()
}

/// Minimum residual fibers from one source after wavelength-switched
/// aggregation: `⌈n/4⌉` (Appendix B, Observation 2).
#[must_use]
pub fn min_residual_fibers_after_aggregation(n_destinations: usize) -> usize {
    n_destinations.div_ceil(4)
}

/// First-fit-decreasing packing of residual demands (wavelengths) into
/// fibers of `lambda` wavelengths. Returns the number of fibers used.
///
/// # Panics
///
/// Panics if any single residual demand exceeds one fiber (then it is not
/// residual — it should be base capacity).
#[must_use]
pub fn pack_residuals(residuals_wl: &[u64], lambda: u32) -> usize {
    let lambda = u64::from(lambda);
    let mut sorted: Vec<u64> = residuals_wl.iter().copied().filter(|&r| r > 0).collect();
    for &r in &sorted {
        assert!(
            r <= lambda,
            "residual demand {r} exceeds one fiber ({lambda} wavelengths)"
        );
    }
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut bins: Vec<u64> = Vec::new();
    for r in sorted {
        match bins.iter_mut().find(|b| **b + r <= lambda) {
            Some(b) => *b += r,
            None => bins.push(r),
        }
    }
    bins.len()
}

/// Result of the hybrid aggregation heuristic.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct HybridAggregation {
    /// Residual fiber pairs per duct before aggregation.
    pub before_pairs_per_edge: Vec<u32>,
    /// Residual fiber pairs per duct after aggregation.
    pub after_pairs_per_edge: Vec<u32>,
    /// Huts where wavelength-switching (WSS) hardware is installed,
    /// with the number of aggregated groups at each.
    pub wss_sites: Vec<(usize, u32)>,
}

impl HybridAggregation {
    /// Fraction of residual fiber-pair-spans saved.
    #[must_use]
    pub fn savings_fraction(&self) -> f64 {
        let before: u64 = self
            .before_pairs_per_edge
            .iter()
            .map(|&x| u64::from(x))
            .sum();
        let after: u64 = self
            .after_pairs_per_edge
            .iter()
            .map(|&x| u64::from(x))
            .sum();
        if before == 0 {
            0.0
        } else {
            1.0 - after as f64 / before as f64
        }
    }
}

/// The Appendix B hybrid heuristic: residual circuits sharing a subpath
/// from their common source (or to their common destination) are carried
/// on `⌈g/4⌉` aggregated fibers over the shared run, split back into
/// dedicated residual fibers at a WSS (Observation 2).
///
/// Only one wavelength-switching point per path is allowed (TC4: a WSS
/// traversal costs ~an OXC), so each residual circuit joins at most one
/// aggregation group — at its source side or its destination side. As in
/// the paper, candidate placements are scored by fiber-pair-spans saved
/// and placed greedily until no candidate saves anything.
#[must_use]
pub fn hybrid_aggregate(region: &Region, goals: &DesignGoals) -> HybridAggregation {
    let graph = region.map.graph();
    let m = graph.edge_count();
    let (paths, _) = scenario_paths(region, goals, &[]);

    // Before: one residual pair per unordered DC pair along its path.
    let mut before = vec![0u32; m];
    for p in &paths {
        for &e in &p.edges {
            before[e] += 1;
        }
    }

    // A candidate group: paths sharing a DC endpoint and the maximal
    // common edge-run adjacent to it. `side 0` = grouped at `p.a`
    // (shared prefix), `side 1` = grouped at `p.b` (shared suffix).
    #[derive(Clone)]
    struct Candidate {
        paths: Vec<usize>,
        shared_edges: Vec<usize>,
        split_node: usize,
        saving: i64,
    }

    let oriented_edges = |pi: usize, side: usize| -> Vec<usize> {
        // Edge sequence walking away from the grouping endpoint.
        let p = &paths[pi];
        if side == 0 {
            p.edges.clone()
        } else {
            p.edges.iter().rev().copied().collect()
        }
    };
    let build_candidates = |consumed: &[bool]| -> Vec<Candidate> {
        let mut out = Vec::new();
        // Group unconsumed multi-hop paths by (endpoint DC, side, first
        // edge away from that endpoint).
        let mut groups: std::collections::BTreeMap<(usize, usize, usize), Vec<usize>> =
            std::collections::BTreeMap::new();
        for (pi, p) in paths.iter().enumerate() {
            if consumed[pi] || p.edges.len() < 2 {
                continue;
            }
            groups.entry((p.a, 0, p.edges[0])).or_default().push(pi);
            groups
                .entry((p.b, 1, *p.edges.last().expect("non-empty")))
                .or_default()
                .push(pi);
        }
        for ((_dc, side, _), members) in groups {
            if members.len() < 2 {
                continue;
            }
            // Maximal common edge-run from the endpoint.
            let first = oriented_edges(members[0], side);
            let mut shared_len = first.len();
            for &pi in &members[1..] {
                let o = oriented_edges(pi, side);
                let common = first.iter().zip(&o).take_while(|(a, b)| a == b).count();
                shared_len = shared_len.min(common);
            }
            // Keep at least one dedicated hop beyond the split so the
            // WSS sits at an intermediate hut, not at the far DC.
            let max_shared = members
                .iter()
                .map(|&pi| paths[pi].edges.len() - 1)
                .min()
                .unwrap_or(0);
            let shared_len = shared_len.min(max_shared);
            if shared_len == 0 {
                continue;
            }
            let g = members.len();
            let agg = min_residual_fibers_after_aggregation(g) as i64;
            let saving = (g as i64 - agg) * shared_len as i64;
            if saving <= 0 {
                continue;
            }
            let shared_edges = first[..shared_len].to_vec();
            let split_node = {
                // Node at the end of the shared run, walking from the
                // grouping endpoint.
                let p = &paths[members[0]];
                if side == 0 {
                    p.nodes[shared_len]
                } else {
                    p.nodes[p.nodes.len() - 1 - shared_len]
                }
            };
            out.push(Candidate {
                paths: members,
                shared_edges,
                split_node,
                saving,
            });
        }
        out
    };

    let mut after = vec![0u32; m];
    let mut wss: std::collections::BTreeMap<usize, u32> = std::collections::BTreeMap::new();
    let mut consumed = vec![false; paths.len()];
    // Greedy: repeatedly place the WSS group that saves the most spans.
    loop {
        let candidates = build_candidates(&consumed);
        let Some(best) = candidates.into_iter().max_by_key(|c| c.saving) else {
            break;
        };
        let g = best.paths.len();
        let agg = min_residual_fibers_after_aggregation(g) as u32;
        for &e in &best.shared_edges {
            after[e] += agg;
        }
        *wss.entry(best.split_node).or_insert(0) += 1;
        let shared: std::collections::HashSet<usize> = best.shared_edges.iter().copied().collect();
        for &pi in &best.paths {
            consumed[pi] = true;
            for &e in &paths[pi].edges {
                if !shared.contains(&e) {
                    after[e] += 1;
                }
            }
        }
    }
    // Unaggregated paths keep dedicated residual fiber end to end.
    for (pi, p) in paths.iter().enumerate() {
        if !consumed[pi] {
            for &e in &p.edges {
                after[e] += 1;
            }
        }
    }

    HybridAggregation {
        before_pairs_per_edge: before,
        after_pairs_per_edge: after,
        wss_sites: wss.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_fibermap::{synth, MetroParams, PlacementParams};

    #[test]
    fn overhead_is_n_squared_ish() {
        assert_eq!(residual_fiber_overhead(4), 12);
        assert_eq!(residual_fiber_overhead(20), 380);
        assert_eq!(residual_fiber_overhead(1), 0);
        assert_eq!(residual_fiber_overhead(0), 0);
    }

    #[test]
    fn worst_case_formula() {
        // n = 20, λ = 40: λ·n/4 = 200 wavelengths = 5 fibers' worth.
        assert_eq!(worst_case_residual_wavelengths(20, 40), 200.0);
        assert_eq!(min_residual_fibers_after_aggregation(20), 5);
        assert_eq!(min_residual_fibers_after_aggregation(1), 1);
        assert_eq!(min_residual_fibers_after_aggregation(4), 1);
        assert_eq!(min_residual_fibers_after_aggregation(5), 2);
    }

    #[test]
    fn residual_after_base_worst_case_bound() {
        // Appendix B: the worst demand vector is uniform D/n at D = λ·n/2.
        let lambda = 40u32;
        let n = 8usize;
        let uniform = vec![20u64; n]; // D = 160 = λ·n/2
        let r = residual_after_base(&uniform, lambda);
        assert_eq!(r as f64, worst_case_residual_wavelengths(n, lambda));
    }

    #[test]
    fn residual_after_base_examples() {
        // One destination takes a full fiber: no residual.
        assert_eq!(residual_after_base(&[40], 40), 0);
        // A fractional single demand has no base fiber: all residual.
        assert_eq!(residual_after_base(&[30], 40), 30);
        // 50 + 30 = 80 = 2 base fibers, one per destination; the 50
        // destination still has 10 wavelengths of residual.
        assert_eq!(residual_after_base(&[50, 30], 40), 10);
        // 39 + 39 = 78 -> 1 base fiber fully serves one destination,
        // leaving the other's 39 on a residual link.
        assert_eq!(residual_after_base(&[39, 39], 40), 39);
    }

    #[test]
    fn observation_1_two_residuals_fit_one_fiber() {
        // Any two *residual* components after base assignment total <= λ
        // when demands are per-destination fractions. Check the packing:
        // residuals are each < λ, and the theorem's packing bound holds
        // for the worst split the base assignment can leave.
        let lambda = 40u32;
        for d1 in 0..40u64 {
            for d2 in 0..40u64 {
                let r = residual_after_base(&[d1, d2], lambda);
                // Observation 1: the leftover fits in one fiber.
                assert!(r <= u64::from(lambda), "d1={d1} d2={d2} r={r}");
            }
        }
    }

    #[test]
    fn pack_residuals_first_fit() {
        assert_eq!(pack_residuals(&[20, 20, 20, 20], 40), 2);
        assert_eq!(pack_residuals(&[], 40), 0);
        assert_eq!(pack_residuals(&[40], 40), 1);
        assert_eq!(pack_residuals(&[39, 2, 1], 40), 2);
        assert_eq!(pack_residuals(&[0, 0, 5], 40), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds one fiber")]
    fn oversized_residual_panics() {
        let _ = pack_residuals(&[41], 40);
    }

    #[test]
    fn residual_pairs_match_pair_counts_on_star() {
        use iris_fibermap::{FiberMap, SiteKind};
        use iris_geo::Point;
        let mut map = FiberMap::new();
        let hub = map.add_site(SiteKind::Hut, Point::new(0.0, 0.0));
        let mut dcs = Vec::new();
        for (x, y) in [(10.0, 0.0), (-10.0, 0.0), (0.0, 10.0), (0.0, -10.0)] {
            let d = map.add_site(SiteKind::DataCenter, Point::new(x, y));
            map.add_duct(d, hub, 12.0);
            dcs.push(d);
        }
        let r = iris_fibermap::Region {
            map,
            dcs,
            capacity_fibers: vec![10; 4],
            wavelengths_per_fiber: 40,
            gbps_per_wavelength: 400.0,
        };
        let res = residual_pairs_per_edge(&r, &DesignGoals::with_cuts(0));
        // Each spoke carries its DC's 3 pairs.
        assert_eq!(res, vec![3, 3, 3, 3]);
    }

    #[test]
    fn hybrid_reduces_residual_fiber() {
        let region = synth::place_dcs(
            synth::generate_metro(&MetroParams::default()),
            &PlacementParams::default(),
        );
        let goals = DesignGoals::with_cuts(0);
        let agg = hybrid_aggregate(&region, &goals);
        let before: u64 = agg
            .before_pairs_per_edge
            .iter()
            .map(|&x| u64::from(x))
            .sum();
        let after: u64 = agg.after_pairs_per_edge.iter().map(|&x| u64::from(x)).sum();
        assert!(after <= before, "aggregation must not add fiber");
        assert!(
            agg.savings_fraction() > 0.15,
            "expected sizeable savings, got {:.2}",
            agg.savings_fraction()
        );
        assert!(!agg.wss_sites.is_empty());
    }
}
