//! Algorithm 1 — topology & capacity planning (§4.1).
//!
//! For every failure scenario up to the cut tolerance, route every DC pair
//! over its unique shortest path, and set each duct's capacity to the
//! worst-case hose-model load it must carry across scenarios. Ducts that
//! end up with zero capacity — and huts with no capacitated ducts — are
//! simply not part of the topology, so Algorithm 1 answers all three of
//! the §2 questions at once: which ducts are used, at what capacity, and
//! which huts house switching equipment.
//!
//! The loop is written once (`sweep`), generic over the *load model* —
//! what a set of DC pairs crossing a duct can load it with. The hose plan
//! ([`provision`]: Dinic max-flow), the naive ablation
//! ([`provision_naive`]: Σ min(C_a, C_b)) and the robust plan
//! ([`crate::workload::provision_robust`]: family maximum of per-matrix
//! sums) are that one function under three load models.

use crate::engine::{self, FailureSweep, ScenarioView};
use crate::goals::DesignGoals;
use crate::memo::{PairBits, SliceMemo};
use crate::paths::{scenario_paths, DcPath};
use iris_fibermap::{Region, SiteId, SiteKind};
use iris_netgraph::{EdgeId, HoseScratch};
use serde::{Deserialize, Serialize};

/// A DC pair that cannot meet the goals in some failure scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InfeasiblePair {
    /// DC indices (into `region.dcs`).
    pub pair: (usize, usize),
    /// The failure scenario (failed duct ids) exhibiting the problem.
    pub scenario: Vec<EdgeId>,
}

/// The output of Algorithm 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Provisioning {
    /// Worst-case hose load per duct, in wavelengths (indexed by duct id;
    /// zero for unused ducts). May be half-integral.
    pub edge_capacity_wl: Vec<f64>,
    /// DC pairs that were unreachable (or SLA-violating) in at least one
    /// scenario. Empty for a feasible instance.
    pub infeasible: Vec<InfeasiblePair>,
    /// Number of failure scenarios examined.
    pub scenarios_examined: u64,
}

impl Provisioning {
    /// Ducts with non-zero provisioned capacity.
    #[must_use]
    pub fn used_edges(&self) -> Vec<EdgeId> {
        (0..self.edge_capacity_wl.len())
            .filter(|&e| self.edge_capacity_wl[e] > 0.0)
            .collect()
    }

    /// Fiber pairs to lease per duct: the hose load rounded up to whole
    /// fibers of `lambda` wavelengths each (zero where unused).
    #[must_use]
    pub fn edge_fiber_pairs(&self, lambda: u32) -> Vec<u32> {
        self.edge_capacity_wl
            .iter()
            .map(|&wl| (wl / f64::from(lambda)).ceil() as u32)
            .collect()
    }

    /// Huts that terminate at least one used duct — these house switching
    /// equipment; the rest of the fiber map is not built out.
    #[must_use]
    pub fn used_huts(&self, region: &Region) -> Vec<SiteId> {
        let g = region.map.graph();
        let mut used = vec![false; g.node_count()];
        for e in self.used_edges() {
            let edge = g.edge(e);
            used[edge.u] = true;
            used[edge.v] = true;
        }
        (0..g.node_count())
            .filter(|&n| used[n] && region.map.site(n).kind == SiteKind::Hut)
            .collect()
    }

    /// Total leased fiber pairs across all ducts.
    #[must_use]
    pub fn total_fiber_pairs(&self, lambda: u32) -> u64 {
        self.edge_fiber_pairs(lambda)
            .iter()
            .map(|&f| u64::from(f))
            .sum()
    }
}

/// Algorithm 1's sweep, generic over what "load of a pair set" means.
///
/// For every ≤k-cut failure scenario, group the routed DC pairs by the
/// ducts their paths cross, and raise each duct's capacity to the load of
/// the pair set crossing it. `new_load` builds one load model per chunk;
/// the model owns whatever scratch it needs and maps a pair set (ascending
/// engine pair indices, resolvable through the [`ScenarioView`]) to a load
/// in wavelengths. A load depends only on the pair set, so it is memoized
/// by pair set — across thousands of scenarios the same sets recur
/// constantly; each chunk's memo adds its evaluations and hits to the two
/// `memo_counters`. Also returned: each chunk's scenario count, in order.
///
/// This records the region's sweep in `threads` chunks and replays it
/// ([`sweep_recorded`]).
pub(crate) fn sweep<L>(
    region: &Region,
    goals: &DesignGoals,
    threads: usize,
    memo_counters: Option<[&str; 2]>,
    new_load: impl Fn() -> L + Sync,
) -> (Provisioning, Vec<u64>)
where
    L: FnMut(ScenarioView<'_>, &[u32]) -> f64,
{
    let recording = FailureSweep::record(region, goals, threads);
    sweep_recorded(region, &recording, memo_counters, new_load)
}

/// [`sweep`] over a recording: its chunks are replayed in parallel
/// ([`FailureSweep::par_chunks`]). The baseline's per-duct pair bitsets
/// are built once and only read; the rest of the sweep's state is
/// chunk-local: the overlay, the memo, the load model and the per-duct
/// pair buffers. Duct capacities merge by elementwise max (a commutative,
/// associative reduction over finite values) and infeasible pairs
/// concatenate in chunk order (= global scenario order), so the output is
/// **bit-identical for every thread count**.
///
/// The sweep is delta-driven. The no-failure scenario loads every duct
/// with its baseline pair set. A failure scenario loads only the ducts
/// its detours cross: each one's set is its baseline set less the
/// re-routed pairs, plus the re-routed pairs whose detour crosses it,
/// ascending (the memo key a full rebuild would give), worked out on
/// pair bitsets and read out in order, never sorted. Every other duct
/// keeps its baseline set or a subset of it, and a load model is
/// monotone in the pair set, exactly in f64 (hose loads are
/// half-integers; a sum of non-negative terms in a fixed order can only
/// grow when a term joins), so such a duct cannot raise its maximum. The
/// first chunk starts with the no-failure scenario, so the merge sees
/// every baseline load.
pub(crate) fn sweep_recorded<L>(
    region: &Region,
    recording: &FailureSweep,
    memo_counters: Option<[&str; 2]>,
    new_load: impl Fn() -> L + Sync,
) -> (Provisioning, Vec<u64>)
where
    L: FnMut(ScenarioView<'_>, &[u32]) -> f64,
{
    let (m, pair_count) = (region.map.graph().edge_count(), recording.pair_count());
    // Per duct, the pairs whose baseline path crosses it.
    let base_bits: Vec<PairBits> = (0..m)
        .map(|e| PairBits::of(pair_count, recording.pairs_crossing(e)))
        .collect();
    let results = recording.par_chunks(|chunk| {
        let mut load_of = new_load();
        // This chunk's own worst-case capacities and reports.
        let mut out = Provisioning {
            edge_capacity_wl: vec![0.0f64; m],
            infeasible: Vec::new(),
            scenarios_examined: chunk.len() as u64,
        };
        // Keyed by the pair-index set crossing a duct.
        let mut memo = SliceMemo::default();
        // gained[e] — re-routed pairs whose detour crosses duct `e` in the
        // current scenario; `touched` lists the non-empty entries so
        // clearing is O(touched), not O(m).
        let mut gained: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut touched: Vec<EdgeId> = Vec::new();
        let (mut moved, mut crossing) = (PairBits::new(pair_count), PairBits::new(pair_count));
        let mut pairs = Vec::new();

        chunk.visit(|scenario, view| {
            for pair in view.unreachable() {
                out.infeasible.push(InfeasiblePair {
                    pair,
                    scenario: scenario.to_vec(),
                });
            }
            if scenario.is_empty() {
                for (e, cap) in out.edge_capacity_wl.iter_mut().enumerate() {
                    let base = recording.pairs_crossing(e);
                    if !base.is_empty() {
                        *cap = cap.max(memo.get(base, || load_of(view, base)));
                    }
                }
                return;
            }
            for &idx in view.rerouted() {
                moved.set(idx);
                for &e in view.path(idx).map_or(&[][..], |p| &p.edges) {
                    if gained[e].is_empty() {
                        touched.push(e);
                    }
                    gained[e].push(idx);
                }
            }
            for e in touched.drain(..) {
                crossing.copy_from(&base_bits[e]);
                crossing.and_not(&moved);
                gained[e].drain(..).for_each(|idx| crossing.set(idx));
                pairs.clear();
                pairs.extend(crossing.iter());
                let load = memo.get(&pairs, || load_of(view, &pairs));
                out.edge_capacity_wl[e] = out.edge_capacity_wl[e].max(load);
            }
            view.rerouted().iter().for_each(|&idx| moved.clear(idx));
        });
        if let Some([evals, hits]) = memo_counters {
            memo.flush(evals, hits);
        }
        out
    });

    let mut prov = Provisioning {
        edge_capacity_wl: vec![0.0f64; m],
        infeasible: Vec::new(),
        scenarios_examined: 0,
    };
    let mut chunk_scenarios = Vec::with_capacity(results.len());
    for chunk in results {
        let worst = prov.edge_capacity_wl.iter_mut();
        (worst.zip(&chunk.edge_capacity_wl)).for_each(|(c, rc)| *c = c.max(*rc));
        prov.infeasible.extend(chunk.infeasible);
        prov.scenarios_examined += chunk.scenarios_examined;
        chunk_scenarios.push(chunk.scenarios_examined);
    }
    (prov, chunk_scenarios)
}

/// The hose load model: the worst load, in wavelengths, a traffic matrix
/// within the per-DC capacities can put on a duct that `pairs` cross.
pub(crate) fn hose_load(region: &Region) -> impl FnMut(ScenarioView<'_>, &[u32]) -> f64 + '_ {
    let (mut hose, mut pair_buf) = (HoseScratch::new(), Vec::new());
    move |view, pairs| {
        pair_buf.clear();
        pair_buf.extend(pairs.iter().map(|&i| view.pair(i)));
        hose.max_edge_load(&|dc| region.capacity_wavelengths(dc), &pair_buf)
    }
}

/// Run Algorithm 1 on a region with the default thread count
/// ([`engine::thread_count`]: `IRIS_THREADS`, programmatic default, or
/// the machine's available parallelism).
#[must_use]
pub fn provision(region: &Region, goals: &DesignGoals) -> Provisioning {
    provision_with_threads(region, goals, engine::thread_count())
}

/// Run Algorithm 1 with an explicit thread count: the sweep (private
/// `sweep` above) under the hose load model — a duct's load is the Dinic
/// max-flow of the worst traffic matrix the per-DC capacities allow over
/// the pairs crossing it. Bit-identical for every thread count.
///
/// # Panics
///
/// Panics if a worker thread panics.
#[must_use]
pub fn provision_with_threads(
    region: &Region,
    goals: &DesignGoals,
    threads: usize,
) -> Provisioning {
    provision_recorded(region, &FailureSweep::record(region, goals, threads))
}

/// Algorithm 1 under the hose load model over a recorded sweep, replayed
/// in the recording's chunks.
pub(crate) fn provision_recorded(region: &Region, recording: &FailureSweep) -> Provisioning {
    let telemetry = iris_telemetry::global();
    let wall =
        iris_telemetry::Span::enter_ms(telemetry.histogram("iris_planner_provision_wall_ms"));
    let memo_counters = [
        "iris_planner_hose_maxflow_total",
        "iris_planner_hose_memo_hits_total",
    ];
    let (prov, chunk_scenarios) =
        sweep_recorded(region, recording, Some(memo_counters), || hose_load(region));

    for (i, &n) in chunk_scenarios.iter().enumerate() {
        let name = "iris_planner_sweep_thread_scenarios_total";
        let thread = iris_telemetry::labeled(name, "thread", &i.to_string());
        telemetry.counter(&thread).add(n);
    }
    telemetry
        .counter("iris_planner_scenarios_total")
        .add(prov.scenarios_examined);
    wall.finish();
    prov
}

/// The naive §4.1 provisioning — the sweep under the load model "sum of
/// `min(C_u, C_v)` per crossing pair" — kept as an ablation to quantify
/// the over-provisioning it causes.
#[must_use]
pub fn provision_naive(region: &Region, goals: &DesignGoals) -> Provisioning {
    let cap = |dc| region.capacity_wavelengths(dc);
    let (prov, _) = sweep(region, goals, engine::thread_count(), None, || {
        move |view: ScenarioView<'_>, pairs: &[u32]| {
            pairs
                .iter()
                .map(|&i| view.pair(i))
                .map(|(a, b)| cap(a).min(cap(b)) as f64)
                .sum()
        }
    });
    prov
}

/// Check that provisioned capacities suffice for a *specific* traffic
/// matrix routed over nominal shortest paths. Used by tests as an
/// independent oracle of the hose computation.
///
/// `demands[i][j]` is in wavelengths; only `i < j` entries are read.
#[must_use]
pub fn supports_matrix(
    region: &Region,
    goals: &DesignGoals,
    prov: &Provisioning,
    demands: &[Vec<f64>],
) -> bool {
    let (_, load) = nominal_load(region, goals, |a, b| demands[a][b]);
    load.iter()
        .zip(&prov.edge_capacity_wl)
        .all(|(&l, &c)| l <= c + 1e-6)
}

/// The nominal-scenario shortest paths, and the load each duct carries
/// when every DC pair `(a, b)` sends `demand(a, b)` over its path.
pub(crate) fn nominal_load(
    region: &Region,
    goals: &DesignGoals,
    demand: impl Fn(usize, usize) -> f64,
) -> (Vec<DcPath>, Vec<f64>) {
    let paths = nominal_paths(region, goals);
    let mut load = vec![0.0f64; region.map.graph().edge_count()];
    for p in &paths {
        p.edges.iter().for_each(|&e| load[e] += demand(p.a, p.b));
    }
    (paths, load)
}

/// All nominal-scenario shortest paths (convenience for downstream
/// consumers that only need the no-failure topology).
#[must_use]
pub fn nominal_paths(region: &Region, goals: &DesignGoals) -> Vec<DcPath> {
    scenario_paths(region, goals, &[]).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_fibermap::{synth, FiberMap, MetroParams, PlacementParams};
    use iris_geo::Point;

    fn small_region() -> Region {
        synth::place_dcs(
            synth::generate_metro(&MetroParams {
                n_huts: 10,
                ..MetroParams::default()
            }),
            &PlacementParams {
                n_dcs: 4,
                ..PlacementParams::default()
            },
        )
    }

    /// Hand-built hub-and-spoke: 4 DCs around one hut.
    fn star_region(capacity_fibers: u32) -> Region {
        let mut map = FiberMap::new();
        let hub = map.add_site(SiteKind::Hut, Point::new(0.0, 0.0));
        let mut dcs = Vec::new();
        for (x, y) in [(10.0, 0.0), (-10.0, 0.0), (0.0, 10.0), (0.0, -10.0)] {
            let d = map.add_site(SiteKind::DataCenter, Point::new(x, y));
            map.add_duct(d, hub, 12.0);
            dcs.push(d);
        }
        Region {
            map,
            dcs,
            capacity_fibers: vec![capacity_fibers; 4],
            wavelengths_per_fiber: 40,
            gbps_per_wavelength: 400.0,
        }
    }

    #[test]
    fn star_provisions_each_spoke_at_dc_capacity() {
        let r = star_region(10);
        let prov = provision(&r, &DesignGoals::with_cuts(0));
        // Every spoke carries its DC's full hose capacity: 400 wavelengths.
        for e in 0..4 {
            assert!(
                (prov.edge_capacity_wl[e] - 400.0).abs() < 1e-6,
                "spoke {e} = {}",
                prov.edge_capacity_wl[e]
            );
        }
        assert_eq!(prov.edge_fiber_pairs(40), vec![10, 10, 10, 10]);
        assert!(prov.infeasible.is_empty());
        assert_eq!(prov.used_huts(&r), vec![0]);
    }

    #[test]
    fn star_with_cut_tolerance_reports_infeasibility() {
        // A star has no alternate routes: any single cut isolates a DC.
        let r = star_region(10);
        let prov = provision(&r, &DesignGoals::with_cuts(1));
        assert!(!prov.infeasible.is_empty());
    }

    #[test]
    fn hose_capacity_never_exceeds_naive() {
        let r = small_region();
        let goals = DesignGoals::with_cuts(1);
        let exact = provision(&r, &goals);
        let naive = provision_naive(&r, &goals);
        for e in 0..exact.edge_capacity_wl.len() {
            assert!(
                exact.edge_capacity_wl[e] <= naive.edge_capacity_wl[e] + 1e-6,
                "edge {e}: exact {} > naive {}",
                exact.edge_capacity_wl[e],
                naive.edge_capacity_wl[e]
            );
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn capacity_supports_uniform_matrix() {
        let r = small_region();
        let goals = DesignGoals::with_cuts(0);
        let prov = provision(&r, &goals);
        let n = r.dcs.len();
        // Uniform all-to-all matrix: each DC splits its hose capacity
        // evenly across the other DCs.
        let mut demands = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let di = r.capacity_wavelengths(i) as f64 / (n - 1) as f64;
                let dj = r.capacity_wavelengths(j) as f64 / (n - 1) as f64;
                demands[i][j] = di.min(dj);
            }
        }
        assert!(supports_matrix(&r, &goals, &prov, &demands));
    }

    #[test]
    fn capacity_supports_single_hot_pair() {
        let r = small_region();
        let goals = DesignGoals::with_cuts(0);
        let prov = provision(&r, &goals);
        let n = r.dcs.len();
        // The extreme hose matrix: DCs 0 and 1 exchange their full caps.
        let mut demands = vec![vec![0.0; n]; n];
        demands[0][1] = r.capacity_wavelengths(0).min(r.capacity_wavelengths(1)) as f64;
        assert!(supports_matrix(&r, &goals, &prov, &demands));
    }

    #[test]
    fn overfull_matrix_is_rejected() {
        let r = star_region(10);
        let goals = DesignGoals::with_cuts(0);
        let prov = provision(&r, &goals);
        let mut demands = vec![vec![0.0; 4]; 4];
        demands[0][1] = 800.0; // 2x DC 0's hose capacity
        assert!(!supports_matrix(&r, &goals, &prov, &demands));
    }

    #[test]
    fn more_cut_tolerance_never_shrinks_capacity() {
        let r = small_region();
        let p0 = provision(&r, &DesignGoals::with_cuts(0));
        let p1 = provision(&r, &DesignGoals::with_cuts(1));
        let total0: f64 = p0.edge_capacity_wl.iter().sum();
        let total1: f64 = p1.edge_capacity_wl.iter().sum();
        assert!(total1 >= total0 - 1e-6, "{total1} < {total0}");
        assert!(p1.scenarios_examined > p0.scenarios_examined);
    }

    #[test]
    fn scenario_count_matches_formula() {
        let r = small_region();
        let m = r.map.graph().edge_count();
        let p = provision(&r, &DesignGoals::with_cuts(1));
        assert_eq!(p.scenarios_examined, 1 + m as u64);
    }

    #[test]
    fn unused_ducts_have_zero_capacity() {
        let r = small_region();
        let prov = provision(&r, &DesignGoals::with_cuts(0));
        let used = prov.used_edges();
        for e in 0..prov.edge_capacity_wl.len() {
            if !used.contains(&e) {
                assert_eq!(prov.edge_capacity_wl[e], 0.0);
                assert_eq!(prov.edge_fiber_pairs(40)[e], 0);
            }
        }
    }

    #[test]
    fn parallel_provision_is_bit_identical_to_sequential() {
        let r = small_region();
        let goals = DesignGoals::with_cuts(1);
        let seq = provision_with_threads(&r, &goals, 1);
        for threads in [2, 3, 7] {
            let par = provision_with_threads(&r, &goals, threads);
            // f64 equality must be exact, not approximate: compare bits.
            let seq_bits: Vec<u64> = seq.edge_capacity_wl.iter().map(|c| c.to_bits()).collect();
            let par_bits: Vec<u64> = par.edge_capacity_wl.iter().map(|c| c.to_bits()).collect();
            assert_eq!(seq_bits, par_bits, "{threads} threads");
            assert_eq!(seq.infeasible, par.infeasible, "{threads} threads");
            assert_eq!(
                seq.scenarios_examined, par.scenarios_examined,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_provision_identical_with_infeasible_pairs() {
        // The star has no alternate routes, so every cut scenario yields
        // infeasible pairs — their global order must survive chunking.
        let r = star_region(10);
        let goals = DesignGoals::with_cuts(1);
        let seq = provision_with_threads(&r, &goals, 1);
        let par = provision_with_threads(&r, &goals, 3);
        assert!(!seq.infeasible.is_empty());
        assert_eq!(seq.infeasible, par.infeasible);
        let seq_bits: Vec<u64> = seq.edge_capacity_wl.iter().map(|c| c.to_bits()).collect();
        let par_bits: Vec<u64> = par.edge_capacity_wl.iter().map(|c| c.to_bits()).collect();
        assert_eq!(seq_bits, par_bits);
    }

    #[test]
    fn thread_count_larger_than_scenario_count_is_clamped() {
        let r = star_region(4);
        let goals = DesignGoals::with_cuts(0); // 1 scenario
        let p = provision_with_threads(&r, &goals, 64);
        assert_eq!(p.scenarios_examined, 1);
    }

    #[test]
    fn fiber_rounding_is_ceil() {
        let prov = Provisioning {
            edge_capacity_wl: vec![0.0, 1.0, 40.0, 40.5, 81.0],
            infeasible: vec![],
            scenarios_examined: 1,
        };
        assert_eq!(prov.edge_fiber_pairs(40), vec![0, 1, 1, 2, 3]);
        assert_eq!(prov.total_fiber_pairs(40), 7);
    }
}
