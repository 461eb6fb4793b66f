//! Algorithm 2 — greedy in-line amplifier placement (Appendix A).
//!
//! Some DC-DC light paths lose more power than the terminal amplifier
//! pair can restore (long fiber runs, many OSS traversals). Iris fixes
//! them with at most **one** in-line amplifier per path (TC2), placed at a
//! hut or transited DC. Since one EDFA amplifies one fiber, a location
//! needs as many amplifiers as the worst-case number of fibers amplified
//! there simultaneously — a hose-model quantity, computed exactly like
//! duct capacities.
//!
//! The heuristic scores each candidate location by *constraints resolved
//! per new amplifier* and places greedily until every path in every
//! failure scenario is covered, accumulating placements across scenarios
//! (amplifiers installed for one scenario are reused by others).
//!
//! A location's pending pairs are a bitset over the sweep's dense pair
//! index. The baseline's per-location sets are built once; a scenario
//! copies them, clears the pairs it re-routed and adds its detours that
//! need amplification. Each round scores locations in ascending node
//! order, each by the hose load of its set read out as an ascending list
//! (the memo's key), and once a location wins removes its pairs from
//! every location word by word. The sets, their order and the strict
//! comparison are those of the list form, so every choice is too.

use crate::engine::{thread_count, FailureSweep};
use crate::goals::DesignGoals;
use crate::memo::{PairBits, PathMemo, SliceMemo};
use crate::paths::DcPath;
use crate::topology::hose_load;
use iris_fibermap::Region;
use iris_netgraph::NodeId;
use iris_telemetry::labeled;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Result of amplifier placement.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AmpPlacement {
    /// Amplifiers installed per node (each amplifies one fiber).
    pub amps_per_node: BTreeMap<NodeId, u32>,
    /// Paths (as DC index pairs, with the exhibiting scenario) for which
    /// no single interior amplifier location can satisfy the budget; the
    /// cut-through stage must reduce their switching loss first.
    pub unresolved: Vec<UnresolvedPath>,
}

/// A path Algorithm 2 could not fix on its own.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnresolvedPath {
    /// DC index pair.
    pub pair: (usize, usize),
    /// The failure scenario in which the problem appeared.
    pub scenario: Vec<usize>,
}

impl AmpPlacement {
    /// Total number of amplifiers installed.
    #[must_use]
    pub fn total_amps(&self) -> u64 {
        self.amps_per_node.values().map(|&a| u64::from(a)).sum()
    }

    /// Interior amplifier locations available on `path` (indices into
    /// `path.nodes` whose split leaves both segments within budget).
    ///
    /// If no split fits with OSS insertion losses included, fall back to
    /// fiber-only feasibility: the cut-through stage can always splice
    /// away the switching losses afterwards, but nothing can shorten the
    /// fiber itself.
    #[must_use]
    pub fn feasible_splits(region: &Region, path: &DcPath) -> Vec<usize> {
        let budget = iris_optics::AMPLIFIER_GAIN_DB;
        let within = |(pre, post): (f64, f64)| pre <= budget + 1e-9 && post <= budget + 1e-9;
        let prefix = path.prefix_km(region);
        let interior = 1..path.nodes.len().saturating_sub(1);
        let with_oss: Vec<usize> = (interior.clone())
            .filter(|&at| within(path.split_losses_with(&prefix, at)))
            .collect();
        if !with_oss.is_empty() {
            return with_oss;
        }
        // Best achievable after maximal cut-throughs: only the amplifier
        // node's own OSS traversal (the loopback entry) is unavoidable.
        let fiber = iris_optics::FIBER_LOSS_DB_PER_KM;
        interior
            .filter(|&at| {
                let pre = prefix[at] * fiber + iris_optics::OSS_LOSS_DB;
                within((pre, (path.length_km - prefix[at]) * fiber))
            })
            .collect()
    }
}

/// Pair sets mostly recur in neighbouring scenarios (which share a failed
/// duct): emptying the load memo at this size loses few hits, not memory.
const LOAD_MEMO_CAP: usize = 1024;

/// Run Algorithm 2 over all failure scenarios of `goals`.
///
/// Placements accumulate across scenarios in enumeration order, so this
/// stage stays sequential. It is delta-driven (docs/PLANNING.md): a
/// scenario evaluates only the paths it re-routed, and when none of those
/// needs amplification its pending set is a subset of the baseline's,
/// which cannot change `amps_per_node` — the greedy is skipped.
#[must_use]
pub fn place_amplifiers(region: &Region, goals: &DesignGoals) -> AmpPlacement {
    let sweep = FailureSweep::record(region, goals, thread_count());
    place_amplifiers_recorded(region, &sweep)
}

/// [`place_amplifiers`] over a recorded sweep of `region` and `goals`.
pub(crate) fn place_amplifiers_recorded(region: &Region, sweep: &FailureSweep) -> AmpPlacement {
    let (lambda, pairs) = (f64::from(region.wavelengths_per_fiber), sweep.pair_count());
    let mut placement = AmpPlacement::default();
    // Per distinct path, its amplifier locations (none: unsplittable);
    // per distinct pair set, its hose load.
    let mut located: PathMemo<Rc<[NodeId]>> = PathMemo::new(sweep);
    let mut loads: SliceMemo<u32, f64> = SliceMemo::default();
    let (mut hose_load, mut resolved_pairs) = (hose_load(region), Vec::new());
    // The no-failure scenario's locations with the pairs each resolves,
    // ascending, and its unsplittable pairs; greedies skipped.
    let (mut base_rows, mut base_stuck) = (Vec::<(NodeId, PairBits)>::new(), Vec::new());
    let mut skipped = 0u64;
    // Per node, the pending pairs it resolves (empty between scenarios);
    // the nodes with any, ascending; the re-routed pairs; the pairs the
    // last amplifier placed resolved.
    let mut resolves = vec![PairBits::new(pairs); region.map.graph().node_count()];
    let (mut live, mut moved, mut done) = (Vec::new(), PairBits::new(pairs), PairBits::new(pairs));

    sweep.visit(|scenario, view| {
        if loads.seen.len() >= LOAD_MEMO_CAP {
            loads.seen.clear();
        }
        let mut long = |i: u32, id: Option<u32>| {
            let id = id.filter(|&id| view.by_id(id).needs_amplification())?;
            let p = view.by_id(id);
            let splits = || AmpPlacement::feasible_splits(region, p);
            let locations = || splits().into_iter().map(|at| p.nodes[at]).collect();
            Some((i, located.get(id, locations)))
        };
        // P <- long paths that require amplification: the re-routed ones
        // that do (in the no-failure scenario, every pair's), and the
        // baseline's that were not re-routed. One with no location is
        // never resolved.
        let every = 0..if scenario.is_empty() { pairs as u32 } else { 0 };
        let fresh = view.rerouted().iter().copied().chain(every);
        let fresh: Vec<_> = fresh.filter_map(|i| long(i, view.path_id(i))).collect();
        let kept = |i: &&u32| view.rerouted().binary_search(i).is_err();
        let mut stuck: Vec<u32> = base_stuck.iter().filter(kept).copied().collect();
        stuck.extend(fresh.iter().filter(|(_, l)| l.is_empty()).map(|r| r.0));
        stuck.sort_unstable();
        for &i in &stuck {
            placement.unresolved.push(UnresolvedPath {
                pair: view.pair(i),
                scenario: scenario.to_vec(),
            });
        }
        if !scenario.is_empty() && fresh.is_empty() {
            skipped += 1;
            return;
        }

        // S <- possible amplifier locations for all pending paths, with
        // the pairs each resolves: the baseline's less the re-routed
        // pairs, and the fresh paths'.
        view.rerouted().iter().for_each(|&i| moved.set(i));
        for (loc, bits) in &base_rows {
            resolves[*loc].copy_from(bits);
            resolves[*loc].and_not(&moved);
            live.push(*loc);
        }
        view.rerouted().iter().for_each(|&i| moved.clear(i));
        for (i, locations) in &fresh {
            live.extend(locations.iter());
            locations.iter().for_each(|&loc| resolves[loc].set(*i));
        }
        live.sort_unstable();
        live.dedup();
        live.retain(|&loc| !resolves[loc].is_empty());
        if scenario.is_empty() {
            base_rows = live
                .iter()
                .map(|&loc| (loc, resolves[loc].clone()))
                .collect();
            base_stuck = stuck;
        }

        while !live.is_empty() {
            // Score each location: paths resolved per amplifier to be
            // placed (Appendix A). One needing no new amplifier scores
            // infinitely well and, `>` being strict, wins outright.
            let mut best: Option<(NodeId, f64, u32)> = None;
            for &loc in &live {
                // Worst-case fibers simultaneously amplified at `loc`:
                // hose load of the resolved pairs, in fibers.
                resolved_pairs.clear();
                resolved_pairs.extend(resolves[loc].iter());
                let resolved = &resolved_pairs[..];
                let load = loads.get(resolved, || hose_load(view, resolved));
                let noa = (load / lambda).ceil() as u32;
                let noea = placement.amps_per_node.get(&loc).copied().unwrap_or(0);
                let ntbp = noa.saturating_sub(noea);
                let score = match ntbp {
                    0 => f64::INFINITY,
                    _ => resolved.len() as f64 / f64::from(ntbp),
                };
                if best.is_none_or(|(_, s, _)| score > s) {
                    best = Some((loc, score, noa));
                }
                if ntbp == 0 {
                    break;
                }
            }
            let (loc, _, noa) = best.expect("live is non-empty");
            let entry = placement.amps_per_node.entry(loc).or_insert(0);
            *entry = (*entry).max(noa);
            // Remove resolved paths from the pending set: `loc` empties too.
            done.copy_from(&resolves[loc]);
            live.retain(|&still| {
                resolves[still].and_not(&done);
                !resolves[still].is_empty()
            });
        }
    });

    located.flush(
        &labeled("iris_planner_path_evals_total", "stage", "amplifiers"),
        &labeled("iris_planner_path_memo_hits_total", "stage", "amplifiers"),
    );
    loads.flush(
        "iris_planner_amp_hose_maxflow_total",
        "iris_planner_amp_hose_memo_hits_total",
    );
    let skips = "iris_planner_placement_scenarios_skipped_total";
    iris_telemetry::global().counter(skips).add(skipped);
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::scenario_paths;
    use iris_fibermap::{FiberMap, SiteKind};
    use iris_geo::Point;

    /// DC0 --60km-- HUT --55km-- DC1: needs one in-line amplifier.
    fn long_line_region() -> Region {
        let mut map = FiberMap::new();
        let d0 = map.add_site(SiteKind::DataCenter, Point::new(0.0, 0.0));
        let h = map.add_site(SiteKind::Hut, Point::new(55.0, 0.0));
        let d1 = map.add_site(SiteKind::DataCenter, Point::new(100.0, 0.0));
        map.add_duct(d0, h, 60.0);
        map.add_duct(h, d1, 55.0);
        Region {
            map,
            dcs: vec![d0, d1],
            capacity_fibers: vec![10, 10],
            wavelengths_per_fiber: 40,
            gbps_per_wavelength: 400.0,
        }
    }

    #[test]
    fn long_path_gets_one_amp_at_the_hut() {
        let r = long_line_region();
        let goals = DesignGoals::with_cuts(0);
        let placement = place_amplifiers(&r, &goals);
        assert!(placement.unresolved.is_empty());
        assert_eq!(placement.amps_per_node.len(), 1);
        let (&loc, &count) = placement.amps_per_node.iter().next().unwrap();
        assert_eq!(loc, 1, "amp should sit at the hut");
        // The pair's hose demand is 400 wavelengths = 10 fibers.
        assert_eq!(count, 10);
        assert_eq!(placement.total_amps(), 10);
    }

    #[test]
    fn short_region_needs_no_amps() {
        let mut map = FiberMap::new();
        let d0 = map.add_site(SiteKind::DataCenter, Point::new(0.0, 0.0));
        let d1 = map.add_site(SiteKind::DataCenter, Point::new(30.0, 0.0));
        map.add_duct(d0, d1, 35.0);
        let r = Region {
            map,
            dcs: vec![d0, d1],
            capacity_fibers: vec![8, 8],
            wavelengths_per_fiber: 40,
            gbps_per_wavelength: 400.0,
        };
        let placement = place_amplifiers(&r, &DesignGoals::with_cuts(0));
        assert!(placement.amps_per_node.is_empty());
        assert!(placement.unresolved.is_empty());
    }

    #[test]
    fn shared_hut_amplifiers_are_not_double_counted() {
        // Two long DC pairs share the same hut; the hut's amplifier pool
        // is sized by the hose load, not the sum of both pairs' demands.
        let mut map = FiberMap::new();
        let h = map.add_site(SiteKind::Hut, Point::new(0.0, 0.0));
        let mut dcs = Vec::new();
        for (x, y) in [(-60.0, 0.0), (60.0, 0.0), (0.0, 60.0), (0.0, -60.0)] {
            let d = map.add_site(SiteKind::DataCenter, Point::new(x, y));
            map.add_duct(d, h, 60.0);
            dcs.push(d);
        }
        let r = Region {
            map,
            dcs,
            capacity_fibers: vec![10; 4],
            wavelengths_per_fiber: 40,
            gbps_per_wavelength: 400.0,
        };
        let placement = place_amplifiers(&r, &DesignGoals::with_cuts(0));
        assert!(placement.unresolved.is_empty());
        // All 6 pairs (120 km paths) amplify at the hut. Hose load of the
        // 6-pair clique with 400-wavelength DCs is 800 wavelengths = 20
        // fibers, not 6 * 10 = 60.
        assert_eq!(placement.amps_per_node.get(&0), Some(&20));
    }

    #[test]
    fn feasible_splits_respect_budget() {
        let r = long_line_region();
        let goals = DesignGoals::with_cuts(0);
        let (paths, _) = scenario_paths(&r, &goals, &[]);
        let p = &paths[0];
        let splits = AmpPlacement::feasible_splits(&r, p);
        assert_eq!(splits, vec![1]);
        let (pre, post) = p.split_losses_db(&r, 1);
        assert!(pre <= 20.0 && post <= 20.0, "pre {pre}, post {post}");
    }

    #[test]
    fn unsplittable_path_is_reported() {
        // 75 + 44 km: total 119 km needs an amp, but splitting at the hut
        // leaves a 75 km + OSS prefix (20.25 dB) over budget.
        let mut map = FiberMap::new();
        let d0 = map.add_site(SiteKind::DataCenter, Point::new(0.0, 0.0));
        let h = map.add_site(SiteKind::Hut, Point::new(74.0, 0.0));
        let d1 = map.add_site(SiteKind::DataCenter, Point::new(110.0, 0.0));
        map.add_duct(d0, h, 75.0);
        map.add_duct(h, d1, 44.0);
        let r = Region {
            map,
            dcs: vec![d0, d1],
            capacity_fibers: vec![10, 10],
            wavelengths_per_fiber: 40,
            gbps_per_wavelength: 400.0,
        };
        let placement = place_amplifiers(&r, &DesignGoals::with_cuts(0));
        assert_eq!(placement.unresolved.len(), 1);
        assert_eq!(placement.unresolved[0].pair, (0, 1));
    }

    #[test]
    fn placement_is_deterministic() {
        let r = long_line_region();
        let goals = DesignGoals::with_cuts(0);
        let p1 = place_amplifiers(&r, &goals);
        let p2 = place_amplifiers(&r, &goals);
        assert_eq!(p1.amps_per_node, p2.amps_per_node);
    }
}
