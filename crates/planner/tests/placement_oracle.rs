//! Brute-force oracles for Algorithm 1, Appendix A's two placement
//! heuristics and the residual-fiber count.
//!
//! `provision*`, `place_amplifiers`, `place_cutthroughs` and
//! `residual_pairs_per_edge` are delta-driven: they keep what they worked
//! out for the baseline paths and, per failure scenario, look only at the
//! re-routed ones. The oracles below are the loops as written — every
//! scenario recomputes every DC-pair path from scratch
//! ([`scenario_paths`], no engine) and re-evaluates every path (no memo,
//! no skip) — and the planner's output must equal theirs field for field,
//! `unresolved` order included.

use iris_fibermap::{synth, FiberMap, MetroParams, PlacementParams, Region, SiteKind};
use iris_geo::Point;
use iris_netgraph::{hose, EdgeId, FailureScenarios, NodeId};
use iris_planner::amplifiers::{place_amplifiers, AmpPlacement, UnresolvedPath};
use iris_planner::cutthrough::{
    active_switch_points, choose_amp_split, place_cutthroughs, segment_losses_db, CutThrough,
    CutThroughPlan,
};
use iris_planner::paths::{scenario_paths, DcPath};
use iris_planner::residual::residual_pairs_per_edge;
use iris_planner::topology::{provision_naive, InfeasiblePair, Provisioning};
use iris_planner::workload::{FamilyKind, FamilySpec, MatrixFamily};
use iris_planner::{provision_robust_with_threads, provision_with_threads};
use iris_planner::{DesignGoals, ScenarioEngine};
use std::collections::{BTreeMap, HashMap, HashSet};

fn scenarios(region: &Region, goals: &DesignGoals) -> FailureScenarios {
    FailureScenarios::new(region.map.graph().edge_count(), goals.max_cuts)
}

/// Algorithm 2 as written: per scenario, every pending path's feasible
/// splits are recomputed in every greedy round and every location is
/// scored with a fresh max-flow.
fn oracle_amplifiers(region: &Region, goals: &DesignGoals) -> AmpPlacement {
    let caps: Vec<u64> = (0..region.dcs.len())
        .map(|i| region.capacity_wavelengths(i))
        .collect();
    let lambda = f64::from(region.wavelengths_per_fiber);
    let mut placement = AmpPlacement::default();
    for scenario in scenarios(region, goals) {
        let (paths, _) = scenario_paths(region, goals, &scenario);
        let mut pending: Vec<&DcPath> = paths.iter().filter(|p| p.needs_amplification()).collect();
        while !pending.is_empty() {
            let mut resolves: HashMap<NodeId, Vec<usize>> = HashMap::new();
            for (i, p) in pending.iter().enumerate() {
                for at in AmpPlacement::feasible_splits(region, p) {
                    resolves.entry(p.nodes[at]).or_default().push(i);
                }
            }
            let mut best: Option<(NodeId, f64, u32, Vec<usize>)> = None;
            let mut locations: Vec<(&NodeId, &Vec<usize>)> = resolves.iter().collect();
            locations.sort_by_key(|(n, _)| **n);
            for (&loc, resolved) in locations {
                let pairs: Vec<(usize, usize)> = resolved
                    .iter()
                    .map(|&i| (pending[i].a, pending[i].b))
                    .collect();
                let noa = (hose::max_edge_load(&|dc| caps[dc], &pairs) / lambda).ceil() as u32;
                let noea = placement.amps_per_node.get(&loc).copied().unwrap_or(0);
                let ntbp = noa.saturating_sub(noea);
                let score = if ntbp == 0 {
                    f64::INFINITY
                } else {
                    resolved.len() as f64 / f64::from(ntbp)
                };
                if best.as_ref().is_none_or(|(_, s, ..)| score > *s) {
                    best = Some((loc, score, noa, resolved.clone()));
                }
            }
            let Some((loc, _, noa, resolved)) = best else {
                for p in &pending {
                    placement.unresolved.push(UnresolvedPath {
                        pair: (p.a, p.b),
                        scenario: scenario.clone(),
                    });
                }
                break;
            };
            let entry = placement.amps_per_node.entry(loc).or_insert(0);
            *entry = (*entry).max(noa);
            let resolved: HashSet<usize> = resolved.into_iter().collect();
            pending = pending
                .into_iter()
                .enumerate()
                .filter(|(i, _)| !resolved.contains(i))
                .map(|(_, p)| p)
                .collect();
        }
    }
    placement
}

fn path_ok(
    region: &Region,
    goals: &DesignGoals,
    path: &DcPath,
    amp_at: Option<usize>,
    cuts: &[CutThrough],
) -> bool {
    let segs = segment_losses_db(region, path, amp_at, cuts);
    segs.iter()
        .all(|&l| l <= iris_optics::AMPLIFIER_GAIN_DB + 1e-9)
        && active_switch_points(path, amp_at, cuts).len() <= goals.max_switch_hops
}

/// The cut-through heuristic as written: per scenario, every path's
/// amplifier split and verdict are recomputed, and every candidate is
/// scored against a copy of the cuts placed so far.
fn oracle_cutthroughs(region: &Region, goals: &DesignGoals, amps: &AmpPlacement) -> CutThroughPlan {
    let g = region.map.graph();
    let caps: Vec<u64> = (0..region.dcs.len())
        .map(|i| region.capacity_wavelengths(i))
        .collect();
    let lambda = f64::from(region.wavelengths_per_fiber);
    let mut plan = CutThroughPlan::default();
    for scenario in scenarios(region, goals) {
        let (paths, _) = scenario_paths(region, goals, &scenario);
        let with_amp: Vec<(&DcPath, Option<usize>)> = paths
            .iter()
            .map(|p| (p, choose_amp_split(region, p, amps)))
            .collect();
        loop {
            let violating: Vec<&(&DcPath, Option<usize>)> = with_amp
                .iter()
                .filter(|(p, a)| !path_ok(region, goals, p, *a, &plan.cuts))
                .collect();
            if violating.is_empty() {
                break;
            }
            let mut candidates: BTreeMap<Vec<NodeId>, (Vec<EdgeId>, f64)> = BTreeMap::new();
            for (p, a) in &violating {
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
            let mut best: Option<(CutThrough, f64)> = None;
            for (nodes, (edges, len)) in &candidates {
                let mut trial = CutThrough {
                    nodes: nodes.clone(),
                    edges: edges.clone(),
                    length_km: *len,
                    fiber_pairs: 0,
                };
                let mut trial_cuts = plan.cuts.clone();
                trial_cuts.push(trial.clone());
                let pairs: Vec<(usize, usize)> = violating
                    .iter()
                    .filter(|(p, a)| path_ok(region, goals, p, *a, &trial_cuts))
                    .map(|(p, _)| (p.a, p.b))
                    .collect();
                if pairs.is_empty() {
                    continue;
                }
                let load = hose::max_edge_load(&|dc| caps[dc], &pairs);
                trial.fiber_pairs = ((load / lambda).ceil() as u32).max(1);
                let cost = f64::from(trial.fiber_pairs) * edges.len() as f64;
                let score = pairs.len() as f64 / cost;
                if best.as_ref().is_none_or(|(_, s)| score > *s) {
                    best = Some((trial, score));
                }
            }
            let Some((cut, _)) = best else {
                for (p, _) in violating {
                    plan.unresolved.push((p.a, p.b, scenario.clone()));
                }
                break;
            };
            match plan.cuts.iter_mut().find(|c| c.nodes == cut.nodes) {
                Some(existing) => existing.fiber_pairs = existing.fiber_pairs.max(cut.fiber_pairs),
                None => plan.cuts.push(cut),
            }
        }
    }
    plan
}

/// §4.3's residual count as written: recount every path in every scenario.
fn oracle_residual(region: &Region, goals: &DesignGoals) -> Vec<u32> {
    let mut worst = vec![0u32; region.map.graph().edge_count()];
    for scenario in scenarios(region, goals) {
        let mut count = vec![0u32; worst.len()];
        for p in scenario_paths(region, goals, &scenario).0 {
            p.edges.iter().for_each(|&e| count[e] += 1);
        }
        for (w, c) in worst.iter_mut().zip(count) {
            *w = (*w).max(c);
        }
    }
    worst
}

/// Algorithm 1 as written: every scenario's paths from scratch, every
/// duct loaded with the pairs crossing it (ascending) by `load`, the
/// worst load kept; the pairs without a path reported per scenario.
fn oracle_sweep(
    region: &Region,
    goals: &DesignGoals,
    load: impl Fn(&[(usize, usize)]) -> f64,
) -> Provisioning {
    let m = region.map.graph().edge_count();
    let mut prov = Provisioning {
        edge_capacity_wl: vec![0.0; m],
        infeasible: Vec::new(),
        scenarios_examined: 0,
    };
    for scenario in scenarios(region, goals) {
        let (paths, unreachable) = scenario_paths(region, goals, &scenario);
        let mut crossing = vec![Vec::new(); m];
        for p in &paths {
            p.edges.iter().for_each(|&e| crossing[e].push((p.a, p.b)));
        }
        for (cap, pairs) in prov.edge_capacity_wl.iter_mut().zip(&crossing) {
            if !pairs.is_empty() {
                *cap = cap.max(load(pairs));
            }
        }
        prov.infeasible
            .extend(unreachable.into_iter().map(|pair| InfeasiblePair {
                pair,
                scenario: scenario.clone(),
            }));
        prov.scenarios_examined += 1;
    }
    prov
}

/// The hose model: a fresh max-flow per duct and scenario.
fn oracle_provision(region: &Region, goals: &DesignGoals) -> Provisioning {
    let cap = |dc| region.capacity_wavelengths(dc);
    oracle_sweep(region, goals, |pairs| hose::max_edge_load(&cap, pairs))
}

fn assert_same(got: &Provisioning, want: &Provisioning, what: &str) {
    let bits =
        |p: &Provisioning| -> Vec<u64> { p.edge_capacity_wl.iter().map(|c| c.to_bits()).collect() };
    assert_eq!(bits(got), bits(want), "{what}");
    assert_eq!(got.infeasible, want.infeasible, "{what}");
    assert_eq!(got.scenarios_examined, want.scenarios_examined, "{what}");
}

/// Algorithm 1 and all three passes against their oracles; returns what
/// was placed so a
/// caller can check the region exercised what it was built to exercise.
fn check(region: &Region, k: usize, what: &str) -> (AmpPlacement, CutThroughPlan) {
    let goals = DesignGoals::with_cuts(k);
    let want = oracle_provision(region, &goals);
    for threads in [1, 3] {
        let got = provision_with_threads(region, &goals, threads);
        assert_same(&got, &want, &format!("{what} k={k}, {threads} threads"));
    }
    let amps = place_amplifiers(region, &goals);
    let want = oracle_amplifiers(region, &goals);
    assert_eq!(amps.amps_per_node, want.amps_per_node, "{what} k={k}");
    assert_eq!(amps.unresolved, want.unresolved, "{what} k={k}");
    let cuts = place_cutthroughs(region, &goals, &amps);
    let want = oracle_cutthroughs(region, &goals, &amps);
    assert_eq!(cuts.cuts, want.cuts, "{what} k={k}");
    assert_eq!(cuts.unresolved, want.unresolved, "{what} k={k}");
    assert_eq!(
        residual_pairs_per_edge(region, &goals),
        oracle_residual(region, &goals),
        "{what} k={k}"
    );
    (amps, cuts)
}

fn synthetic(seed: u64, n_dcs: usize, n_huts: usize) -> Region {
    synth::place_dcs(
        synth::generate_metro(&MetroParams {
            seed,
            n_huts,
            ..MetroParams::default()
        }),
        &PlacementParams {
            seed: seed.wrapping_mul(7919).wrapping_add(n_dcs as u64),
            n_dcs,
            ..PlacementParams::default()
        },
    )
}

fn check_grid(seeds: std::ops::Range<u64>, sizes: &[usize], n_huts: usize, k: usize) {
    for seed in seeds {
        for &n_dcs in sizes {
            check(
                &synthetic(seed, n_dcs, n_huts),
                k,
                &format!("seed {seed}, {n_dcs} DCs"),
            );
        }
    }
}

#[test]
fn synthetic_regions_no_cuts() {
    check_grid(1..17, &[4, 5, 6, 8], 16, 0);
}

#[test]
fn synthetic_regions_one_cut() {
    check_grid(1..17, &[4, 5, 6, 8], 16, 1);
}

#[test]
fn synthetic_regions_two_cuts() {
    check_grid(1..17, &[4, 5, 6, 8], 16, 2);
}

/// The release-mode grid of the CI `artifacts` job: more seeds, larger
/// regions on a denser map.
#[test]
#[ignore = "minutes in a debug build; CI runs it in release"]
fn synthetic_regions_large_grid() {
    for k in 0..=2 {
        check_grid(1..25, &[4, 6, 8, 12], 16, k);
        check_grid(100..104, &[12, 16], 24, k);
    }
}

/// The naive ablation and the robust plan are the same sweep under other
/// load models: each against the oracle loop under its own.
#[test]
fn naive_and_robust_provisioning_match_the_oracle_sweep() {
    for seed in 1..5 {
        for (n_dcs, k) in [(5, 2), (8, 1)] {
            let (region, goals) = (synthetic(seed, n_dcs, 16), DesignGoals::with_cuts(k));
            let what = format!("seed {seed}, {n_dcs} DCs, k={k}");
            let cap = |dc| region.capacity_wavelengths(dc) as f64;
            let naive = |pairs: &[(usize, usize)]| -> f64 {
                pairs.iter().map(|&(a, b)| cap(a).min(cap(b))).sum()
            };
            let want = oracle_sweep(&region, &goals, naive);
            assert_same(&provision_naive(&region, &goals), &want, &what);

            let spec = FamilySpec::new(FamilyKind::Burst, 4, seed);
            let family = MatrixFamily::build(&region, &goals, &spec);
            let robust = |pairs: &[(usize, usize)]| {
                (family.matrices().iter())
                    .map(|d| pairs.iter().map(|&(a, b)| d[a][b]).sum::<f64>())
                    .fold(0.0f64, f64::max)
            };
            let want = oracle_sweep(&region, &goals, robust);
            for threads in [1, 3] {
                let got = provision_robust_with_threads(&region, &goals, &family, threads);
                assert_same(&got, &want, &format!("{what}, {threads} threads"));
            }
        }
    }
}

fn region_of(map: FiberMap, dcs: Vec<NodeId>) -> Region {
    Region {
        capacity_fibers: vec![10; dcs.len()],
        map,
        dcs,
        wavelengths_per_fiber: 40,
        gbps_per_wavelength: 400.0,
    }
}

/// Two DCs joined by two chains of huts, 5 km of (coiled) fiber a hop —
/// `hops_a` huts on one, `hops_b` on the other — with a third DC hanging
/// off the middle of each chain. Every path is short but crosses more
/// than six huts.
fn ladder_region(hops_a: usize, hops_b: usize) -> Region {
    let mut map = FiberMap::new();
    let d0 = map.add_site(SiteKind::DataCenter, Point::new(0.0, 0.0));
    let d1 = map.add_site(SiteKind::DataCenter, Point::new(2.0, 0.0));
    let d2 = map.add_site(SiteKind::DataCenter, Point::new(1.0, 0.5));
    for (hops, y) in [(hops_a, 0.0), (hops_b, 1.0)] {
        let mut prev = d0;
        for i in 0..hops {
            let h = map.add_site(SiteKind::Hut, Point::new(0.1 * (i + 1) as f64, y));
            map.add_duct(prev, h, 5.0);
            if i == hops / 2 {
                map.add_duct(h, d2, 5.0);
            }
            prev = h;
        }
        map.add_duct(prev, d1, 5.0);
    }
    region_of(map, vec![d0, d1, d2])
}

#[test]
fn hop_budget_regions_place_cutthroughs() {
    // At k=0 the cuts are found on baseline paths; at k=1 and 2 a failed
    // chain pushes pairs onto the longer one, so cuts are also inserted
    // in later scenarios, voiding the verdicts cached until then.
    for (hops_a, hops_b) in [(8, 9), (9, 12), (10, 10)] {
        let region = ladder_region(hops_a, hops_b);
        let mut placed = Vec::new();
        for k in 0..=2 {
            let (_, cuts) = check(&region, k, &format!("ladder {hops_a}/{hops_b}"));
            assert!(!cuts.cuts.is_empty(), "TC4 violations need cut-throughs");
            placed.push(cuts.cuts.len());
        }
        assert!(
            placed[1] > placed[0],
            "no cut was placed after the baseline"
        );
    }
}

/// DC0 --75-- H --44-- DC1 (119 km: needs an amplifier, but splitting at H
/// leaves a 75 km + OSS prefix over budget), a splittable 60 + 55 km pair
/// DC2 .. DC3 through hut G, and 20 km ducts DC0-DC2 and DC1-DC3 that give
/// the mixed pairs a route and every scenario something to re-route.
fn unsplittable_region() -> Region {
    let mut map = FiberMap::new();
    let d0 = map.add_site(SiteKind::DataCenter, Point::new(0.0, 0.0));
    let h = map.add_site(SiteKind::Hut, Point::new(74.0, 0.0));
    let d1 = map.add_site(SiteKind::DataCenter, Point::new(110.0, 0.0));
    let d2 = map.add_site(SiteKind::DataCenter, Point::new(0.0, 20.0));
    let g = map.add_site(SiteKind::Hut, Point::new(55.0, 20.0));
    let d3 = map.add_site(SiteKind::DataCenter, Point::new(110.0, 20.0));
    map.add_duct(d0, h, 75.0);
    map.add_duct(h, d1, 44.0);
    map.add_duct(d2, g, 60.0);
    map.add_duct(g, d3, 55.0);
    map.add_duct(d0, d2, 20.0);
    map.add_duct(d1, d3, 20.0);
    region_of(map, vec![d0, d1, d2, d3])
}

#[test]
fn unsplittable_baseline_path_is_reported_in_every_scenario_that_keeps_it() {
    let region = unsplittable_region();
    for k in 0..=2 {
        let (amps, _) = check(&region, k, "unsplittable");
        assert!(amps.unresolved.iter().any(|u| u.pair == (0, 1)));
    }
}

#[test]
fn subset_scenarios_leave_amplifiers_untouched_but_report_their_unresolved_paths() {
    // Every detour here is over the SLA, so a cut only ever takes pairs
    // out of the pending set: no scenario may move `amps_per_node`, yet
    // pair (0, 1) is still unresolved wherever its path survives.
    let region = unsplittable_region();
    let baseline = place_amplifiers(&region, &DesignGoals::with_cuts(0));
    assert_eq!(baseline.unresolved.len(), 1);
    assert!(!baseline.amps_per_node.is_empty());
    let one_cut = place_amplifiers(&region, &DesignGoals::with_cuts(1));
    assert_eq!(one_cut.amps_per_node, baseline.amps_per_node);
    let reported: Vec<&[usize]> = (one_cut.unresolved.iter())
        .filter(|u| u.pair == (0, 1))
        .map(|u| u.scenario.as_slice())
        .collect();
    // Every scenario but the two that cut the pair's own ducts (0 and 1).
    assert_eq!(reported, [&[][..], &[2], &[3], &[4], &[5]]);
}

#[test]
fn rerouted_list_is_the_pairs_whose_baseline_path_crosses_a_failed_duct() {
    // The engine's own test regions (`engine.rs`: seeds 1, 5, 9 at k=2,
    // seed 3 and seed 7 at k=1).
    for (seed, n_dcs, k) in [(1, 5, 2), (5, 5, 2), (9, 5, 2), (3, 5, 1), (7, 4, 1)] {
        let region = synth::place_dcs(
            synth::generate_metro(&MetroParams {
                seed,
                ..MetroParams::default()
            }),
            &PlacementParams {
                seed: seed.wrapping_add(17),
                n_dcs,
                ..PlacementParams::default()
            },
        );
        let goals = DesignGoals::with_cuts(k);
        let (baseline, _) = scenario_paths(&region, &goals, &[]);
        ScenarioEngine::new(&region, &goals).for_each_scenario(|scenario, view| {
            let crossing: Vec<(usize, usize)> = (baseline.iter())
                .filter(|p| p.edges.iter().any(|e| scenario.contains(e)))
                .map(|p| (p.a, p.b))
                .collect();
            let rerouted: Vec<(usize, usize)> =
                view.rerouted().iter().map(|&i| view.pair(i)).collect();
            assert_eq!(rerouted, crossing, "seed {seed}, scenario {scenario:?}");
            for &i in view.rerouted() {
                let (a, b) = view.pair(i);
                let base = baseline.iter().find(|p| (p.a, p.b) == (a, b));
                assert_eq!(view.baseline(i), base, "seed {seed}, pair {i}");
                assert_ne!(view.path(i), base, "seed {seed}, pair {i}");
            }
        });
    }
}

/// The grids above stop at 8 DCs, 28 pairs. Twelve DCs are 66, so pair
/// indices 64 and 65 — (9, 11) and (10, 11) — lie past the first 64-bit
/// word of a pair set; this region routes long paths for them.
#[test]
fn a_twelve_dc_region_spans_two_words_of_pairs() {
    let region = synthetic(8, 12, 16);
    for k in 1..=2 {
        let goals = DesignGoals::with_cuts(k);
        let mut past_one_word = 0;
        ScenarioEngine::new(&region, &goals).for_each_scenario(|_, view| {
            past_one_word += (view.indexed_paths())
                .filter(|&(i, p)| i >= 64 && p.needs_amplification())
                .count();
        });
        assert!(past_one_word > 0, "k={k}");
        let (amps, _) = check(&region, k, "seed 8, 12 DCs");
        assert!(!amps.amps_per_node.is_empty(), "k={k}");
    }
}
