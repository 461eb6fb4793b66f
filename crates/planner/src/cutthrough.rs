//! Cut-through link placement (Appendix A, second heuristic).
//!
//! A cut-through is an uninterrupted run of fiber spliced *through* one or
//! more switching points: the bypassed huts contribute no OSS insertion
//! loss to paths riding the cut-through. Cut-throughs fix two problems:
//!
//! * segments whose fiber + OSS loss exceeds one amplifier's gain even
//!   after amplifier placement, and
//! * paths with more OSS traversals than the TC4 reconfiguration budget
//!   allows (more than 6).
//!
//! Like amplifier placement, the heuristic scores candidates by paths
//! resolved per fiber leased and accumulates across failure scenarios.

use crate::amplifiers::AmpPlacement;
use crate::engine::{thread_count, FailureSweep};
use crate::goals::DesignGoals;
use crate::memo::PathMemo;
use crate::paths::DcPath;
use crate::topology::hose_load;
use iris_fibermap::Region;
use iris_netgraph::{EdgeId, NodeId};
use iris_telemetry::labeled;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One cut-through link: fiber spliced through `nodes[1..len-1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CutThrough {
    /// Node sequence, endpoints included (`len >= 3`).
    pub nodes: Vec<NodeId>,
    /// Ducts the cut-through fiber occupies.
    pub edges: Vec<EdgeId>,
    /// Total length, km.
    pub length_km: f64,
    /// Fiber pairs leased along the whole run.
    pub fiber_pairs: u32,
}

/// The set of placed cut-throughs plus any paths that remain violating.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CutThroughPlan {
    /// Placed cut-throughs.
    pub cuts: Vec<CutThrough>,
    /// DC index pairs (with scenario) whose paths still violate budgets.
    pub unresolved: Vec<(usize, usize, Vec<EdgeId>)>,
}

impl CutThroughPlan {
    /// Total extra fiber pairs leased, counted per duct traversed (fiber
    /// leases are per span, §3.3).
    #[must_use]
    pub fn total_fiber_pair_spans(&self) -> u64 {
        self.cuts
            .iter()
            .map(|c| u64::from(c.fiber_pairs) * c.edges.len() as u64)
            .sum()
    }
}

/// Which interior nodes of `path` stay switched (not bypassed), given the
/// cut-throughs placed so far. Cuts are applied greedily left-to-right,
/// longest-first, never overlapping, and never swallowing the path's
/// amplifier node (`amp_at`, an index into `path.nodes`).
///
/// Returns indices (into `path.nodes`) of interior nodes still traversing
/// an OSS.
#[must_use]
pub fn active_switch_points(
    path: &DcPath,
    amp_at: Option<usize>,
    cuts: &[CutThrough],
) -> Vec<usize> {
    let n = path.nodes.len();
    let mut bypassed = vec![false; n];
    let mut i = 0usize;
    while i + 2 < n {
        // Longest cut starting at node i that matches the path and does
        // not strictly contain the amplifier node.
        let mut best_end: Option<usize> = None;
        for c in cuts {
            let cl = c.nodes.len();
            if i + cl > n || path.nodes[i..i + cl] != c.nodes[..] {
                continue;
            }
            let end = i + cl - 1;
            if let Some(a) = amp_at {
                if a > i && a < end {
                    continue;
                }
            }
            if best_end.is_none_or(|b| end > b) {
                best_end = Some(end);
            }
        }
        if let Some(end) = best_end {
            for b in bypassed.iter_mut().take(end).skip(i + 1) {
                *b = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    (1..n - 1).filter(|&i| !bypassed[i]).collect()
}

/// Loss of each amplifier-delimited segment of `path` given the active
/// switch points. Returns one entry per segment (1 or 2).
#[must_use]
pub fn segment_losses_db(
    region: &Region,
    path: &DcPath,
    amp_at: Option<usize>,
    cuts: &[CutThrough],
) -> Vec<f64> {
    realized_losses(region, path, amp_at, cuts).0
}

/// [`segment_losses_db`], and how many switch points stay active.
fn realized_losses(
    region: &Region,
    path: &DcPath,
    amp_at: Option<usize>,
    cuts: &[CutThrough],
) -> (Vec<f64>, usize) {
    let (fiber, oss) = (iris_optics::FIBER_LOSS_DB_PER_KM, iris_optics::OSS_LOSS_DB);
    let active = active_switch_points(path, amp_at, cuts);
    let losses = match amp_at {
        None => vec![path.length_km * fiber + active.len() as f64 * oss],
        Some(a) => {
            // The amp location's own OSS sits on the prefix side.
            let pre_switch = active.iter().filter(|&&i| i <= a).count() as f64 * oss;
            let post_switch = active.iter().filter(|&&i| i > a).count() as f64 * oss;
            let pre_km = path.prefix_km(region)[a];
            vec![
                pre_km * fiber + pre_switch,
                (path.length_km - pre_km) * fiber + post_switch,
            ]
        }
    };
    (losses, active.len())
}

/// Pick the amplifier split for a path, preferring nodes that already
/// hold amplifiers: the best feasible split by balance.
#[must_use]
pub fn choose_amp_split(region: &Region, path: &DcPath, amps: &AmpPlacement) -> Option<usize> {
    if !path.needs_amplification() {
        return None;
    }
    let prefix = path.prefix_km(region);
    let balance = |at: usize| {
        let (pre, post) = path.split_losses_with(&prefix, at);
        pre.max(post)
    };
    AmpPlacement::feasible_splits(region, path)
        .into_iter()
        .filter(|&at| amps.amps_per_node.contains_key(&path.nodes[at]))
        .min_by(|&x, &y| balance(x).partial_cmp(&balance(y)).expect("finite"))
}

/// Does the realized path meet both the per-segment gain budget and the
/// TC4 switch-traversal budget?
fn path_ok(
    region: &Region,
    goals: &DesignGoals,
    path: &DcPath,
    amp_at: Option<usize>,
    cuts: &[CutThrough],
) -> bool {
    let (losses, active) = realized_losses(region, path, amp_at, cuts);
    let budget = iris_optics::AMPLIFIER_GAIN_DB + 1e-9;
    active <= goals.max_switch_hops && losses.iter().all(|&l| l <= budget)
}

/// Add `cut` to the plan, or raise the fiber count of the identical run
/// already placed. Returns whether a cut was inserted — the one event
/// that can change a [`path_ok`] verdict.
fn commit(plan: &mut CutThroughPlan, cut: CutThrough) -> bool {
    if let Some(existing) = plan.cuts.iter_mut().find(|c| c.nodes == cut.nodes) {
        existing.fiber_pairs = existing.fiber_pairs.max(cut.fiber_pairs);
        return false;
    }
    plan.cuts.push(cut);
    true
}

/// Place cut-throughs until every path in every scenario meets its
/// budgets (or no candidate helps).
///
/// Delta-driven like amplifier placement: a path's amplifier split and
/// its verdict under the cuts placed so far are worked out once, and a
/// scenario looks only at the baseline's violating paths and its detours.
#[must_use]
pub fn place_cutthroughs(
    region: &Region,
    goals: &DesignGoals,
    amps: &AmpPlacement,
) -> CutThroughPlan {
    let sweep = FailureSweep::record(region, goals, thread_count());
    place_cutthroughs_recorded(region, goals, amps, &sweep)
}

/// [`place_cutthroughs`] over a recorded sweep of `region` and `goals`.
/// `amps` must be the final amplifier placement: every verdict depends
/// on it.
pub(crate) fn place_cutthroughs_recorded(
    region: &Region,
    goals: &DesignGoals,
    amps: &AmpPlacement,
    sweep: &FailureSweep,
) -> CutThroughPlan {
    let (g, lambda) = (region.map.graph(), f64::from(region.wavelengths_per_fiber));
    let mut plan = CutThroughPlan::default();
    // Per distinct path: (amplifier split, within budget under `plan.cuts`).
    let mut verdicts = PathMemo::new(sweep);
    // Baseline pairs over budget; `None` once a cut is inserted.
    let mut base_bad: Option<Vec<u32>> = None;
    let (mut hose_load, mut resolved) = (hose_load(region), Vec::new());

    sweep.visit(|scenario, view| loop {
        let mut judge = |id: u32| {
            verdicts.get(id, || {
                let p = view.by_id(id);
                let amp_at = choose_amp_split(region, p, amps);
                (amp_at, path_ok(region, goals, p, amp_at, &plan.cuts))
            })
        };
        let bad = base_bad.get_or_insert_with(|| {
            let over = |&i: &u32| view.baseline_id(i).is_some_and(|id| !judge(id).1);
            (0..view.pair_count() as u32).filter(over).collect()
        });
        // Violating paths, in pair order: the baseline's and the detours.
        let kept = |i: &&u32| view.rerouted().binary_search(i).is_err();
        let mut violating: Vec<(u32, &DcPath, Option<usize>)> = (bad.iter().filter(kept))
            .chain(view.rerouted())
            .filter_map(|&i| {
                let id = view.path_id(i)?;
                let (amp_at, ok) = judge(id);
                (!ok).then_some((i, view.by_id(id), amp_at))
            })
            .collect();
        if violating.is_empty() {
            break;
        }
        violating.sort_unstable_by_key(|v| v.0);

        // Candidate cut-throughs: contiguous interior runs of any
        // violating path, not containing its amp node strictly inside.
        let mut candidates: BTreeMap<Vec<NodeId>, (Vec<EdgeId>, f64)> = BTreeMap::new();
        for (_, p, a) in &violating {
            let n = p.nodes.len();
            for i in 0..n.saturating_sub(2) {
                for j in (i + 2)..n {
                    if a.is_some_and(|amp| amp > i && amp < j) {
                        continue;
                    }
                    let edges = p.edges[i..j].to_vec();
                    let len: f64 = edges.iter().map(|&e| g.edge(e).length_km).sum();
                    candidates
                        .entry(p.nodes[i..=j].to_vec())
                        .or_insert((edges, len));
                }
            }
        }

        // Score each candidate: violating paths it resolves per fiber
        // pair leased (pairs x spans, since leases are per span). A
        // candidate is tried in place, on the end of `plan.cuts`.
        let mut best: Option<(CutThrough, f64)> = None;
        for (nodes, (edges, length_km)) in candidates {
            plan.cuts.push(CutThrough {
                nodes,
                edges,
                length_km,
                fiber_pairs: 0,
            });
            resolved.clear();
            resolved.extend(
                (violating.iter())
                    .filter(|(_, p, a)| path_ok(region, goals, p, *a, &plan.cuts))
                    .map(|v| v.0),
            );
            let mut trial = plan.cuts.pop().expect("pushed above");
            if resolved.is_empty() {
                continue;
            }
            let fibers = (hose_load(view, &resolved) / lambda).ceil() as u32;
            trial.fiber_pairs = fibers.max(1);
            let cost = f64::from(trial.fiber_pairs) * trial.edges.len() as f64;
            let score = resolved.len() as f64 / cost;
            if best.as_ref().is_none_or(|(_, s)| score > *s) {
                best = Some((trial, score));
            }
        }

        let Some((cut, _)) = best else {
            for (_, p, _) in violating {
                plan.unresolved.push((p.a, p.b, scenario.to_vec()));
            }
            break;
        };
        if commit(&mut plan, cut) {
            base_bad = None;
            verdicts.clear();
        }
    });

    verdicts.flush(
        &labeled("iris_planner_path_evals_total", "stage", "cutthroughs"),
        &labeled("iris_planner_path_memo_hits_total", "stage", "cutthroughs"),
    );
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amplifiers::place_amplifiers;
    use crate::paths::scenario_paths;
    use iris_fibermap::{FiberMap, SiteKind};
    use iris_geo::Point;

    /// A chain of 8 huts between two DCs, 5 km per hop: loss is fine but
    /// there are 8 OSS traversals, violating TC4's budget of 6.
    fn many_hop_region() -> Region {
        let mut map = FiberMap::new();
        let d0 = map.add_site(SiteKind::DataCenter, Point::new(0.0, 0.0));
        let mut prev = d0;
        for i in 0..8 {
            let h = map.add_site(SiteKind::Hut, Point::new(5.0 * (i + 1) as f64, 0.0));
            map.add_duct(prev, h, 5.0);
            prev = h;
        }
        let d1 = map.add_site(SiteKind::DataCenter, Point::new(45.0, 0.0));
        map.add_duct(prev, d1, 5.0);
        Region {
            map,
            dcs: vec![d0, d1],
            capacity_fibers: vec![8, 8],
            wavelengths_per_fiber: 40,
            gbps_per_wavelength: 400.0,
        }
    }

    #[test]
    fn hop_violation_is_fixed_with_cut_through() {
        let r = many_hop_region();
        let goals = DesignGoals::with_cuts(0);
        let amps = place_amplifiers(&r, &goals);
        let plan = place_cutthroughs(&r, &goals, &amps);
        assert!(plan.unresolved.is_empty());
        assert!(!plan.cuts.is_empty(), "TC4 violation needs a cut-through");
        // Verify the realized path now meets both budgets.
        let (paths, _) = scenario_paths(&r, &goals, &[]);
        let amp_at = choose_amp_split(&r, &paths[0], &amps);
        assert!(path_ok(&r, &goals, &paths[0], amp_at, &plan.cuts));
    }

    #[test]
    fn only_an_inserted_cut_voids_cached_verdicts() {
        let r = many_hop_region();
        let goals = DesignGoals::with_cuts(0);
        let (paths, _) = scenario_paths(&r, &goals, &[]);
        let p = &paths[0];
        let run = |fiber_pairs| CutThrough {
            nodes: p.nodes[1..=5].to_vec(),
            edges: p.edges[1..5].to_vec(),
            length_km: 20.0,
            fiber_pairs,
        };
        let mut plan = CutThroughPlan::default();
        assert!(!path_ok(&r, &goals, p, None, &plan.cuts), "8 hops");
        // Inserting a cut changes the path's verdict, and says so ...
        assert!(commit(&mut plan, run(1)));
        assert!(path_ok(&r, &goals, p, None, &plan.cuts), "5 hops");
        // ... raising its fiber count changes no verdict, and says so.
        assert!(!commit(&mut plan, run(3)));
        assert_eq!((plan.cuts.len(), plan.cuts[0].fiber_pairs), (1, 3));
        assert!(path_ok(&r, &goals, p, None, &plan.cuts));
    }

    #[test]
    fn active_switch_points_bypass_cut_nodes() {
        let p = DcPath {
            a: 0,
            b: 1,
            nodes: vec![0, 1, 2, 3, 4, 5],
            edges: vec![10, 11, 12, 13, 14],
            length_km: 25.0,
        };
        let cut = CutThrough {
            nodes: vec![1, 2, 3],
            edges: vec![11, 12],
            length_km: 10.0,
            fiber_pairs: 1,
        };
        let active = active_switch_points(&p, None, &[cut]);
        // Node 2 is spliced through; 1, 3, 4 still switch.
        assert_eq!(active, vec![1, 3, 4]);
    }

    #[test]
    fn cut_cannot_swallow_amplifier_node() {
        let p = DcPath {
            a: 0,
            b: 1,
            nodes: vec![0, 1, 2, 3, 4, 5],
            edges: vec![10, 11, 12, 13, 14],
            length_km: 25.0,
        };
        let cut = CutThrough {
            nodes: vec![1, 2, 3],
            edges: vec![11, 12],
            length_km: 10.0,
            fiber_pairs: 1,
        };
        // Amp at node index 2 (inside the cut): the cut must not apply.
        let active = active_switch_points(&p, Some(2), &[cut]);
        assert_eq!(active, vec![1, 2, 3, 4]);
    }

    #[test]
    fn no_cuts_needed_for_short_direct_paths() {
        let mut map = FiberMap::new();
        let d0 = map.add_site(SiteKind::DataCenter, Point::new(0.0, 0.0));
        let h = map.add_site(SiteKind::Hut, Point::new(10.0, 0.0));
        let d1 = map.add_site(SiteKind::DataCenter, Point::new(20.0, 0.0));
        map.add_duct(d0, h, 12.0);
        map.add_duct(h, d1, 12.0);
        let r = Region {
            map,
            dcs: vec![d0, d1],
            capacity_fibers: vec![8, 8],
            wavelengths_per_fiber: 40,
            gbps_per_wavelength: 400.0,
        };
        let goals = DesignGoals::with_cuts(0);
        let amps = place_amplifiers(&r, &goals);
        let plan = place_cutthroughs(&r, &goals, &amps);
        assert!(plan.cuts.is_empty());
        assert!(plan.unresolved.is_empty());
        assert_eq!(plan.total_fiber_pair_spans(), 0);
    }

    #[test]
    fn segment_losses_sum_to_path_loss_without_cuts() {
        let r = many_hop_region();
        let goals = DesignGoals::with_cuts(0);
        let (paths, _) = scenario_paths(&r, &goals, &[]);
        let p = &paths[0];
        let segs = segment_losses_db(&r, p, None, &[]);
        assert_eq!(segs.len(), 1);
        assert!((segs[0] - p.unamplified_loss_db()).abs() < 1e-9);
    }

    #[test]
    fn cut_through_fiber_spans_accounted() {
        let plan = CutThroughPlan {
            cuts: vec![
                CutThrough {
                    nodes: vec![0, 1, 2],
                    edges: vec![5, 6],
                    length_km: 10.0,
                    fiber_pairs: 3,
                },
                CutThrough {
                    nodes: vec![2, 3, 4, 5],
                    edges: vec![7, 8, 9],
                    length_km: 15.0,
                    fiber_pairs: 2,
                },
            ],
            unresolved: vec![],
        };
        assert_eq!(plan.total_fiber_pair_spans(), 3 * 2 + 2 * 3);
    }
}
