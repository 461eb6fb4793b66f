//! The shared scenario engine: incremental per-scenario path computation
//! for every planning stage that enumerates fiber-cut scenarios.
//!
//! Algorithm 1, amplifier placement, cut-through placement and residual
//! accounting all iterate `C(m, ≤k)` failure scenarios and need the
//! shortest DC-pair paths in each. Recomputing every pair from scratch —
//! `n` Dijkstras per scenario — dominates planning time. The engine
//! instead computes the baseline (no-failure) paths once and, for each
//! scenario, re-runs Dijkstra **only for sources whose cached path
//! crosses a failed duct**:
//!
//! * a pair whose baseline path avoids all failed ducts keeps that path —
//!   removing edges never shortens any route, and the baseline path's
//!   length is unchanged, so it remains the (unique, by deterministic
//!   perturbation) shortest path in the scenario subgraph;
//! * a pair that was already unreachable or SLA-violating at baseline
//!   stays so under any failure — distances only grow.
//!
//! With `k ≤ 2` (operational practice) the vast majority of pairs are
//! untouched per scenario, so a sweep costs `O(scenarios · invalidated)`
//! Dijkstras instead of `O(scenarios · n)`.
//!
//! The same argument, one level down, serves most re-routes of a
//! multi-cut scenario `S` without Dijkstra. A pair whose baseline path
//! crosses a failed duct `e` takes its detour from the single-cut
//! scenario `{e}` when that detour avoids every duct of `S` (`G∖S ⊆ G∖{e}`
//! still holds it, with the same length, so it is still the unique
//! shortest path), or stays without a path when `{e}` left it none.
//! Each duct's single-cut detours are routed once, the first time a
//! scenario fails it, and kept. Only a pair whose every such detour
//! crosses another failed duct runs Dijkstra from its source.
//!
//! A plan needs the same sweep four times (Algorithm 1 and the three
//! placement passes), so it runs the live [`ScenarioEngine`] once, as the
//! recorder of a `FailureSweep`: one path id per re-route plus a table of
//! the distinct detours. Every pass replays the recording through the
//! same [`ScenarioView`] the live engine shows. The live engine stays the
//! router for arbitrary cut sets (the controller's).
//!
//! Thread policy lives here too. [`thread_count`] resolves the budget:
//! `IRIS_THREADS` overrides everything, then a programmatic default
//! ([`set_default_threads`]), then the machine's available parallelism.
//! [`par_map`] is the one fan-out that spends it — the sweep's recorded
//! and replayed scenario chunks, the flow simulator's link jobs and the
//! figure binaries' sweep points all map through it, so "thread count
//! never changes output" is implemented once.

use crate::goals::DesignGoals;
use crate::paths::{route, scenario_mask, DcPath};
use iris_fibermap::Region;
use iris_netgraph::{DijkstraScratch, EdgeId, FailureScenarios};
use std::collections::HashMap;
use std::mem::take;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The path id of "no path": the pair is disconnected or over the SLA.
const NO_PATH: u32 = u32::MAX;

/// A read-only view of all DC-pair routes in the current scenario,
/// handed to [`ScenarioEngine::for_each_scenario`] callbacks and to a
/// recorded sweep's replays. It also says which pairs the scenario
/// re-routed: every other pair still has its baseline path, so a
/// pass that keeps its answers for the baseline (the first, empty
/// scenario) evaluates only those.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioView<'a> {
    ends: &'a [(usize, usize)],
    /// Each pair's path id in this scenario: an index into `paths`.
    current: &'a [u32],
    paths: &'a [DcPath],
    rerouted: &'a [u32],
    /// The baseline path ids of the `rerouted` pairs, parallel to it.
    stash: &'a [u32],
}

impl<'a> ScenarioView<'a> {
    /// Pair indices this scenario re-routed (their baseline path crosses
    /// a failed duct), ascending. Empty in the no-failure scenario.
    #[must_use]
    pub fn rerouted(&self) -> &'a [u32] {
        self.rerouted
    }

    /// Pair `idx`'s path in this scenario, `None` if infeasible.
    #[must_use]
    pub fn path(&self, idx: u32) -> Option<&'a DcPath> {
        self.paths.get(self.current[idx as usize] as usize)
    }

    /// Pair `idx`'s *baseline* path, whether or not this scenario
    /// re-routed it; `None` if the pair is infeasible even without cuts.
    #[must_use]
    pub fn baseline(&self, idx: u32) -> Option<&'a DcPath> {
        Some(self.by_id(self.baseline_id(idx)?))
    }

    /// The id of pair `idx`'s path in this scenario. In a
    /// [`FailureSweep`] replay an id names one path for the whole sweep;
    /// the live engine reuses its detours' ids from scenario to scenario.
    pub(crate) fn path_id(&self, idx: u32) -> Option<u32> {
        Some(self.current[idx as usize]).filter(|&id| id != NO_PATH)
    }

    /// The id of pair `idx`'s baseline path.
    pub(crate) fn baseline_id(&self, idx: u32) -> Option<u32> {
        match self.rerouted.binary_search(&idx) {
            Ok(k) => Some(self.stash[k]).filter(|&id| id != NO_PATH),
            Err(_) => self.path_id(idx),
        }
    }

    /// The path an id names.
    pub(crate) fn by_id(&self, id: u32) -> &'a DcPath {
        &self.paths[id as usize]
    }

    /// The feasible DC-pair paths, ordered by `(a, b)` ascending —
    /// exactly the order (and contents) of
    /// [`crate::paths::scenario_paths`]'s first return value.
    pub fn paths(&self) -> impl Iterator<Item = &'a DcPath> + 'a {
        let paths = self.paths;
        self.current
            .iter()
            .filter_map(move |&id| paths.get(id as usize))
    }

    /// Feasible paths together with their dense pair index (the engine's
    /// stable identifier for the unordered pair `(a, b)`).
    pub fn indexed_paths(&self) -> impl Iterator<Item = (u32, &'a DcPath)> + 'a {
        let paths = self.paths;
        (self.current.iter().enumerate())
            .filter_map(move |(i, &id)| Some((i as u32, paths.get(id as usize)?)))
    }

    /// DC index pairs that are unreachable or SLA-violating in this
    /// scenario, ordered by `(a, b)` ascending — exactly
    /// [`crate::paths::scenario_paths`]'s second return value.
    pub fn unreachable(&self) -> impl Iterator<Item = (usize, usize)> + 'a {
        (self.current.iter().zip(self.ends))
            .filter_map(|(&id, &ends)| (id == NO_PATH).then_some(ends))
    }

    /// Number of DC pairs (feasible + infeasible).
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.ends.len()
    }

    /// The endpoints of pair `idx` (as returned by
    /// [`ScenarioView::indexed_paths`]).
    #[must_use]
    pub fn pair(&self, idx: u32) -> (usize, usize) {
        self.ends[idx as usize]
    }
}

/// One scenario laid over the baseline: each pair's current path id and
/// the pairs the scenario re-routed. Shared by the live engine, which
/// fills the re-routed slots with fresh Dijkstras, and the replay, which
/// fills them from a recording.
#[derive(Debug)]
struct Overlay {
    /// Path id per pair; outside a scenario, the baseline's.
    current: Vec<u32>,
    /// Pairs whose baseline path crosses a failed duct, ascending.
    affected: Vec<u32>,
    affected_mark: Vec<bool>,
    /// Baseline ids of the pairs re-routed so far, parallel to `affected`.
    stash: Vec<u32>,
}

impl Overlay {
    fn new(baseline: Vec<u32>) -> Self {
        Self {
            affected_mark: vec![false; baseline.len()],
            current: baseline,
            affected: Vec::new(),
            stash: Vec::new(),
        }
    }

    /// List the pairs `failed` re-routes: those whose baseline path
    /// crosses a failed duct (`edge_pairs` is the baseline's index).
    /// Pair indices ascend with `(a, b)`, so sorting also groups them by
    /// source DC.
    fn invalidate(&mut self, edge_pairs: &[Vec<u32>], failed: &[EdgeId]) {
        debug_assert!(self.affected.is_empty() && self.stash.is_empty());
        for &e in failed {
            for &p in &edge_pairs[e] {
                if !std::mem::replace(&mut self.affected_mark[p as usize], true) {
                    self.affected.push(p);
                }
            }
        }
        self.affected.sort_unstable();
    }

    /// Give the next affected pair (in `affected` order) path `id`.
    fn reroute(&mut self, id: u32) {
        let p = self.affected[self.stash.len()] as usize;
        self.stash.push(std::mem::replace(&mut self.current[p], id));
    }

    fn view<'a>(&'a self, ends: &'a [(usize, usize)], paths: &'a [DcPath]) -> ScenarioView<'a> {
        ScenarioView {
            ends,
            current: &self.current,
            paths,
            rerouted: &self.affected,
            stash: &self.stash,
        }
    }

    /// Put the baseline ids back.
    fn restore(&mut self) {
        for (&p, &old) in self.affected.iter().zip(&self.stash) {
            self.current[p as usize] = old;
        }
        for p in self.affected.drain(..) {
            self.affected_mark[p as usize] = false;
        }
        self.stash.clear();
    }
}

/// Incremental scenario-path cache over one region + goals: the live
/// sweep, which runs Dijkstra for every re-routed pair.
#[derive(Debug)]
pub struct ScenarioEngine<'r> {
    region: &'r Region,
    goals: &'r DesignGoals,
    /// The span-limit mask every scenario starts from.
    base_mask: Vec<bool>,
    /// Disabled-edge mask: `base_mask` with the current scenario's failed
    /// ducts toggled on during a recompute and put back afterwards.
    mask: Vec<bool>,
    /// Each pair's endpoints, `(a, b)` ascending.
    ends: Vec<(usize, usize)>,
    /// `edge_pairs[e]` — pair indices whose *baseline* path crosses `e`.
    edge_pairs: Vec<Vec<u32>>,
    /// `single_cut[e]` — the path id, in the scenario `{e}` alone, of each
    /// pair of `edge_pairs[e]` (parallel to it); empty until a scenario
    /// first fails `e`.
    single_cut: Vec<Vec<u32>>,
    /// The baseline's feasible paths (ids `0..base_paths`), the
    /// single-cut detours (up to `kept_paths`), then the current
    /// scenario's detours.
    paths: Vec<DcPath>,
    base_paths: usize,
    kept_paths: usize,
    overlay: Overlay,
    dijkstra: DijkstraScratch,
    /// Pairs served from the baseline cache across all scenarios.
    pub cache_hits: u64,
    /// Pairs re-routed because a failed duct crossed their cached path.
    pub cache_invalidations: u64,
    /// Re-routes of multi-cut scenarios served from a single-cut detour,
    /// without Dijkstra.
    pub single_cut_reuses: u64,
}

impl<'r> ScenarioEngine<'r> {
    /// Build the engine: one Dijkstra per DC to establish the baseline
    /// paths and the edge→pairs invalidation index.
    #[must_use]
    pub fn new(region: &'r Region, goals: &'r DesignGoals) -> Self {
        let g = region.map.graph();
        let n = region.dcs.len();
        let base_mask = scenario_mask(region, goals, &[]);
        let mut dijkstra = DijkstraScratch::new();
        let (mut ends, mut baseline) = (Vec::new(), Vec::new());
        let (mut paths, mut edge_pairs) = (Vec::new(), vec![Vec::new(); g.edge_count()]);
        for a in 0..n {
            dijkstra.run(g, region.dcs[a], &base_mask);
            for b in (a + 1)..n {
                let path = route(&dijkstra, region, goals, a, b);
                for &e in path.iter().flat_map(|p| &p.edges) {
                    edge_pairs[e].push(ends.len() as u32);
                }
                ends.push((a, b));
                baseline.push(push_path(&mut paths, path));
            }
        }
        Self {
            region,
            goals,
            mask: base_mask.clone(),
            base_mask,
            ends,
            single_cut: vec![Vec::new(); edge_pairs.len()],
            edge_pairs,
            base_paths: paths.len(),
            kept_paths: paths.len(),
            paths,
            overlay: Overlay::new(baseline),
            dijkstra,
            cache_hits: 0,
            cache_invalidations: 0,
            single_cut_reuses: 0,
        }
    }

    /// Run `f` once per failure scenario of `goals.max_cuts`, in the
    /// deterministic [`FailureScenarios`] order.
    pub fn for_each_scenario(&mut self, f: impl FnMut(&[EdgeId], ScenarioView<'_>)) {
        let m = self.region.map.graph().edge_count();
        self.visit(FailureScenarios::new(m, self.goals.max_cuts), f);
    }

    /// Run `f` for an explicit scenario list (arbitrary cut sets, such as
    /// the controller's cumulative one).
    pub fn for_scenarios(
        &mut self,
        scenarios: &[Vec<EdgeId>],
        f: impl FnMut(&[EdgeId], ScenarioView<'_>),
    ) {
        self.visit(scenarios.iter(), f);
    }

    /// Overlay each scenario, show it to `f`, put the baseline back.
    fn visit<S: AsRef<[EdgeId]>>(
        &mut self,
        scenarios: impl Iterator<Item = S>,
        mut f: impl FnMut(&[EdgeId], ScenarioView<'_>),
    ) {
        for scenario in scenarios {
            self.apply(scenario.as_ref());
            f(
                scenario.as_ref(),
                self.overlay.view(&self.ends, &self.paths),
            );
            self.restore();
        }
        self.flush_telemetry();
    }

    /// Overlay the scenario: re-route every pair whose cached path
    /// crosses a failed duct, stashing the baseline ids for
    /// [`ScenarioEngine::restore`]. A re-route reads its single-cut
    /// detour where one applies and runs Dijkstra from its source only
    /// where none does.
    fn apply(&mut self, failed: &[EdgeId]) {
        self.overlay.invalidate(&self.edge_pairs, failed);
        let affected = self.overlay.affected.len();
        self.cache_hits += (self.ends.len() - affected) as u64;
        self.cache_invalidations += affected as u64;
        if affected == 0 {
            return;
        }
        // Before any detour of this scenario joins `paths`.
        for &e in failed {
            self.route_single_cut(e);
        }
        for &e in failed {
            self.mask[e] = true;
        }
        let mut tree = usize::MAX;
        for k in 0..affected {
            let p = self.overlay.affected[k];
            let id = if let Some(id) = self.single_cut_detour(p, failed) {
                self.single_cut_reuses += u64::from(failed.len() > 1);
                id
            } else {
                self.route_now(p, &mut tree)
            };
            self.overlay.reroute(id);
        }
        for &e in failed {
            self.mask[e] = self.base_mask[e];
        }
    }

    /// Route every pair whose baseline path crosses `e` in the scenario
    /// `{e}` alone, once per engine; the paths stay through
    /// [`ScenarioEngine::restore`].
    fn route_single_cut(&mut self, e: EdgeId) {
        if !self.single_cut[e].is_empty() || self.edge_pairs[e].is_empty() {
            return;
        }
        // A duct some baseline path crosses is not span-masked.
        self.mask[e] = true;
        let mut tree = usize::MAX;
        for k in 0..self.edge_pairs[e].len() {
            let id = self.route_now(self.edge_pairs[e][k], &mut tree);
            self.single_cut[e].push(id);
        }
        self.mask[e] = false;
        self.kept_paths = self.paths.len();
    }

    /// Route pair `p` under the current mask and add its path; `tree` is
    /// the source DC whose Dijkstra the scratch holds, so pairs taken in
    /// ascending order run one Dijkstra per source.
    fn route_now(&mut self, p: u32, tree: &mut usize) -> u32 {
        let (a, b) = self.ends[p as usize];
        if a != *tree {
            let g = self.region.map.graph();
            self.dijkstra.run(g, self.region.dcs[a], &self.mask);
            *tree = a;
        }
        let path = route(&self.dijkstra, self.region, self.goals, a, b);
        push_path(&mut self.paths, path)
    }

    /// Pair `p`'s path in the scenario `failed` (whose ducts `mask` has
    /// on), if a single-cut table holds it: the `{e}` detour of a failed
    /// duct `e` that `p`'s baseline path crosses, when that detour avoids
    /// every failed duct or `{e}` left `p` no path. `None` when every such
    /// detour crosses another failed duct.
    fn single_cut_detour(&self, p: u32, failed: &[EdgeId]) -> Option<u32> {
        failed.iter().find_map(|&e| {
            let at = self.edge_pairs[e].binary_search(&p).ok()?;
            let id = self.single_cut[e][at];
            let edges = self.paths.get(id as usize).map_or(&[][..], |d| &d.edges);
            edges.iter().all(|&d| !self.mask[d]).then_some(id)
        })
    }

    /// Undo [`ScenarioEngine::apply`]: the baseline ids go back, the
    /// scenario's detours are dropped.
    fn restore(&mut self) {
        self.overlay.restore();
        self.paths.truncate(self.kept_paths);
    }

    /// Pair indices whose *baseline* path crosses duct `e` — the
    /// engine's invalidation index: the set of DC pairs whose traffic
    /// a duct carries.
    #[must_use]
    pub fn pairs_crossing(&self, e: EdgeId) -> &[u32] {
        &self.edge_pairs[e]
    }

    /// Publish the cache counters to the global telemetry registry and
    /// reset the local tallies.
    fn flush_telemetry(&mut self) {
        let t = iris_telemetry::global();
        let (hits, invalidations) = (&mut self.cache_hits, &mut self.cache_invalidations);
        t.counter("iris_planner_paircache_hits_total")
            .add(std::mem::take(hits));
        t.counter("iris_planner_paircache_invalidations_total")
            .add(std::mem::take(invalidations));
        t.counter("iris_planner_paircache_single_cut_reuses_total")
            .add(std::mem::take(&mut self.single_cut_reuses));
    }
}

/// Append `path` to `paths` and return its id; [`NO_PATH`] for `None`.
fn push_path(paths: &mut Vec<DcPath>, path: Option<DcPath>) -> u32 {
    path.map_or(NO_PATH, |p| {
        paths.push(p);
        (paths.len() - 1) as u32
    })
}

/// A failure sweep computed once and replayed by every stage of a plan.
///
/// [`FailureSweep::record`] runs the live [`ScenarioEngine`] over the
/// whole [`FailureScenarios`] enumeration and keeps, per re-routed pair,
/// the id of its detour in a table of the sweep's distinct paths. A
/// replay re-derives each scenario's re-routed pairs from the baseline
/// index (as the live engine does) and reads their paths off the
/// recording: no Dijkstra, no path copied. What it holds is 4 bytes per
/// re-route plus the distinct detours; scenarios are regenerated, not
/// stored.
///
/// A replayed view shows the same path in every slot as the live view:
/// a detour is interned by its duct sequence, which fixes its nodes and
/// length. Path ids number the table in order of first appearance; a
/// pass may key a memo by them, but only to cache a pure function of the
/// path, and no id may reach an output.
#[derive(Debug)]
pub(crate) struct FailureSweep {
    edge_count: usize,
    max_cuts: usize,
    ends: Vec<(usize, usize)>,
    edge_pairs: Vec<Vec<u32>>,
    /// Baseline path id per pair.
    baseline: Vec<u32>,
    /// The baseline's paths, then every distinct detour.
    paths: Vec<DcPath>,
    /// The recorded chunks, in scenario order.
    chunks: Vec<RecordedChunk>,
}

/// A contiguous run of scenarios recorded by one worker.
#[derive(Debug)]
struct RecordedChunk {
    /// Index of its first scenario in the enumeration, and how many.
    run: (usize, usize),
    /// One path id per re-route, in scenario then pair order.
    detours: Box<[u32]>,
}

/// The scenarios of `run` (first index, count), in enumeration order.
fn scenario_run(
    edge_count: usize,
    max_cuts: usize,
    (first, len): (usize, usize),
) -> impl Iterator<Item = Vec<EdgeId>> {
    FailureScenarios::new(edge_count, max_cuts)
        .skip(first)
        .take(len)
}

/// One recorded chunk's replay, handed out by [`FailureSweep::par_chunks`].
pub(crate) struct SweepChunk<'s> {
    sweep: &'s FailureSweep,
    chunk: &'s RecordedChunk,
}

impl SweepChunk<'_> {
    /// Number of scenarios in the chunk.
    pub fn len(&self) -> usize {
        self.chunk.run.1
    }

    /// Replay the chunk's scenarios, in enumeration order.
    pub fn visit(self, f: impl FnMut(&[EdgeId], ScenarioView<'_>)) {
        let s = self.sweep;
        let scenarios = scenario_run(s.edge_count, s.max_cuts, self.chunk.run);
        s.replay(scenarios, self.chunk.detours.iter().copied(), f);
    }
}

impl FailureSweep {
    /// Record the sweep of `goals.max_cuts` over `region`: the
    /// enumeration is split into `threads` contiguous chunks, each run by
    /// its own live engine through [`par_map`] and merged in chunk order.
    /// The recording is the same for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the region is invalid or a worker panics.
    #[must_use]
    pub(crate) fn record(region: &Region, goals: &DesignGoals, threads: usize) -> Self {
        region.validate();
        let (edge_count, max_cuts) = (region.map.graph().edge_count(), goals.max_cuts);
        // Never zero: the no-failure scenario always comes first.
        let total = FailureScenarios::count_scenarios(edge_count, max_cuts) as usize;
        let threads = threads.clamp(1, total);
        let size = total.div_ceil(threads);
        let runs: Vec<(usize, usize)> = (0..total)
            .step_by(size)
            .map(|first| (first, size.min(total - first)))
            .collect();
        let mut recorded = par_map(threads, &runs, |_, &run| {
            let mut engine = ScenarioEngine::new(region, goals);
            // The re-route count is the baseline index's, known before any
            // Dijkstra runs: size the id array exactly.
            let reroutes = scenario_run(edge_count, max_cuts, run).map(|s| {
                engine.overlay.invalidate(&engine.edge_pairs, &s);
                let n = engine.overlay.affected.len();
                engine.overlay.restore();
                n
            });
            let mut detours = Vec::with_capacity(reroutes.sum());
            // This chunk's distinct detours, numbered from 0.
            let (mut table, mut index) = (Vec::new(), HashMap::<Box<[EdgeId]>, u32>::new());
            engine.visit(scenario_run(edge_count, max_cuts, run), |_, view| {
                detours.extend(view.rerouted().iter().map(|&i| {
                    view.path(i).map_or(NO_PATH, |p| {
                        if let Some(&id) = index.get(p.edges.as_slice()) {
                            return id;
                        }
                        index.insert(p.edges.as_slice().into(), table.len() as u32);
                        table.push(p.clone());
                        (table.len() - 1) as u32
                    })
                }));
            });
            (engine, table, detours)
        });

        // The baseline, from the first chunk's engine (back at baseline).
        let base = &mut recorded.first_mut().expect("at least one chunk").0;
        let (ends, edge_pairs) = (take(&mut base.ends), take(&mut base.edge_pairs));
        let (baseline, base_paths) = (take(&mut base.overlay.current), base.base_paths);
        let mut paths = take(&mut base.paths);
        paths.truncate(base_paths);
        // Number the distinct detours by first appearance in chunk order,
        // which is first appearance in scenario order whatever the
        // chunking. The intern index borrows the chunks' own tables.
        let mut next = paths.len() as u32;
        let renumber: Vec<Vec<u32>> = {
            let mut index = HashMap::<&[EdgeId], u32>::new();
            let mut intern = |edges| {
                *index.entry(edges).or_insert_with(|| {
                    next += 1;
                    next - 1
                })
            };
            (recorded.iter())
                .map(|(_, table, _)| table.iter().map(|p| intern(&p.edges[..])).collect())
                .collect()
        };
        paths.reserve_exact(next as usize - paths.len());
        let mut reroutes = 0;
        let chunks = (recorded.into_iter().zip(renumber).zip(runs))
            .map(|(((_, table, detours), global), run)| {
                // A path joins the table where its id first appears.
                for (p, &id) in table.into_iter().zip(&global) {
                    if id as usize == paths.len() {
                        paths.push(p);
                    }
                }
                let mut detours = detours.into_boxed_slice();
                for id in detours.iter_mut().filter(|id| **id != NO_PATH) {
                    *id = global[*id as usize];
                }
                reroutes += detours.len() as u64;
                RecordedChunk { run, detours }
            })
            .collect();

        let t = iris_telemetry::global();
        t.counter("iris_planner_sweep_reroutes_total").add(reroutes);
        t.counter("iris_planner_sweep_paths_total")
            .add((paths.len() - base_paths) as u64);
        Self {
            edge_count,
            max_cuts,
            ends,
            edge_pairs,
            baseline,
            paths,
            chunks,
        }
    }

    /// Number of DC pairs.
    pub(crate) fn pair_count(&self) -> usize {
        self.ends.len()
    }

    /// Number of distinct paths: the baseline's, then every detour.
    pub(crate) fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Pair indices whose baseline path crosses duct `e`, ascending.
    pub(crate) fn pairs_crossing(&self, e: EdgeId) -> &[u32] {
        &self.edge_pairs[e]
    }

    /// Replay every scenario, in [`FailureScenarios`] order, through the
    /// same [`ScenarioView`] the live engine shows.
    pub(crate) fn visit(&self, f: impl FnMut(&[EdgeId], ScenarioView<'_>)) {
        let scenarios = FailureScenarios::new(self.edge_count, self.max_cuts);
        let ids = self.chunks.iter().flat_map(|c| c.detours.iter().copied());
        self.replay(scenarios, ids, f);
    }

    /// Map `f` over the recorded chunks through [`par_map`], one worker
    /// per chunk; results in chunk (= scenario) order.
    pub(crate) fn par_chunks<R: Send>(&self, f: impl Fn(SweepChunk<'_>) -> R + Sync) -> Vec<R> {
        par_map(self.chunks.len(), &self.chunks, |_, chunk| {
            f(SweepChunk { sweep: self, chunk })
        })
    }

    fn replay(
        &self,
        scenarios: impl Iterator<Item = Vec<EdgeId>>,
        mut ids: impl Iterator<Item = u32>,
        mut f: impl FnMut(&[EdgeId], ScenarioView<'_>),
    ) {
        let mut overlay = Overlay::new(self.baseline.clone());
        for scenario in scenarios {
            overlay.invalidate(&self.edge_pairs, &scenario);
            for _ in 0..overlay.affected.len() {
                overlay.reroute(ids.next().expect("one recorded path per re-route"));
            }
            f(&scenario, overlay.view(&self.ends, &self.paths));
            overlay.restore();
        }
    }
}

/// Programmatic default thread count (0 = unset): the CLI's `--threads`
/// and the `perf` harness's per-workload thread budget.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread is a worker of an outer fan-out.
    static SWEEP_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with nested planner parallelism disabled on this thread: any
/// [`crate::topology::provision`] or [`par_map`] call inside runs on this
/// thread alone regardless of `IRIS_THREADS`, so the thread budget controls
/// one fan-out, not the product of two. The previous state comes back when
/// `f` returns or unwinds, so guarded calls nest.
pub fn with_nested_parallelism_disabled<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SWEEP_WORKER.with(|g| g.set(self.0));
        }
    }
    let _restore = Restore(SWEEP_WORKER.with(|g| g.replace(true)));
    f()
}

/// Order-preserving parallel map — the workspace's one compute fan-out,
/// and so the one place determinism rule 2 ("thread count never changes
/// output") is implemented: `f(i, &items[i])` for every `i`, results in
/// input order, identical to a sequential map for any `workers`.
///
/// Up to `workers` scoped threads (never more than there are items) pull
/// items off a shared index — no static partitioning, so uneven per-item
/// cost doesn't idle threads — each under
/// [`with_nested_parallelism_disabled`]. With one worker, or when called
/// from inside another fan-out's worker, it is a plain sequential map on
/// the calling thread: nothing is spawned.
///
/// # Panics
///
/// Re-raises the panic of any item, once every worker has stopped.
pub fn par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let nested = SWEEP_WORKER.with(std::cell::Cell::get);
    let workers = if nested { 1 } else { workers.min(items.len()) };
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    with_nested_parallelism_disabled(|| {
                        std::iter::from_fn(|| {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            items.get(i).map(|item| (i, f(i, item)))
                        })
                        .collect::<Vec<_>>()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Set the default sweep thread count used when `IRIS_THREADS` is unset.
/// Pass 0 to fall back to the machine's available parallelism.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// The thread count for parallel scenario sweeps: 1 inside
/// [`with_nested_parallelism_disabled`], else the `IRIS_THREADS`
/// environment variable if set (and a positive integer), else the
/// programmatic default from [`set_default_threads`], else the machine's
/// available parallelism.
#[must_use]
pub fn thread_count() -> usize {
    if SWEEP_WORKER.with(std::cell::Cell::get) {
        return 1;
    }
    if let Ok(v) = std::env::var("IRIS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    let d = DEFAULT_THREADS.load(Ordering::Relaxed);
    if d > 0 {
        return d;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::scenario_paths;
    use iris_fibermap::{synth, MetroParams, PlacementParams};

    fn region(seed: u64, n_dcs: usize) -> Region {
        synth::place_dcs(
            synth::generate_metro(&MetroParams {
                seed,
                ..MetroParams::default()
            }),
            &PlacementParams {
                seed: seed.wrapping_add(17),
                n_dcs,
                ..PlacementParams::default()
            },
        )
    }

    /// The view of `scenario` shows what fresh Dijkstras route.
    fn assert_fresh(r: &Region, goals: &DesignGoals, scenario: &[EdgeId], view: ScenarioView<'_>) {
        let (paths, unreachable) = scenario_paths(r, goals, scenario);
        let got_paths: Vec<DcPath> = view.paths().cloned().collect();
        assert_eq!(got_paths, paths, "scenario {scenario:?}");
        let got_unreachable: Vec<(usize, usize)> = view.unreachable().collect();
        assert_eq!(got_unreachable, unreachable, "scenario {scenario:?}");
    }

    #[test]
    fn engine_matches_scenario_paths_on_every_scenario() {
        for seed in [1u64, 5, 9] {
            let r = region(seed, 5);
            let goals = DesignGoals::with_cuts(2);
            let mut engine = ScenarioEngine::new(&r, &goals);
            engine.for_each_scenario(|scenario, view| assert_fresh(&r, &goals, scenario, view));
        }
    }

    #[test]
    fn single_cut_detours_match_scenario_paths_at_k2_and_k3() {
        for (seed, n_dcs, k) in [(2u64, 9, 2), (4, 10, 2), (6, 8, 3)] {
            let r = region(seed, n_dcs);
            let goals = DesignGoals::with_cuts(k);
            let mut engine = ScenarioEngine::new(&r, &goals);
            // Driven by hand, so the counters are read before a flush.
            let (mut multi_cut, mut reused) = (0, 0);
            for scenario in FailureScenarios::new(r.map.graph().edge_count(), k) {
                let before = (engine.cache_invalidations, engine.single_cut_reuses);
                engine.apply(&scenario);
                let view = engine.overlay.view(&engine.ends, &engine.paths);
                assert_fresh(&r, &goals, &scenario, view);
                engine.restore();
                if scenario.len() > 1 {
                    multi_cut += engine.cache_invalidations - before.0;
                    reused += engine.single_cut_reuses - before.1;
                }
            }
            // Both branches ran: a single-cut detour, and Dijkstra.
            assert!(
                0 < reused && reused < multi_cut,
                "seed {seed}: {reused} of {multi_cut}"
            );
        }
    }

    /// Three ducts some baseline path crosses, spread over the map.
    fn crossed_ducts(engine: &ScenarioEngine<'_>) -> [EdgeId; 3] {
        let crossed: Vec<EdgeId> = (0..engine.edge_pairs.len())
            .filter(|&e| !engine.pairs_crossing(e).is_empty())
            .collect();
        [0, crossed.len() / 2, crossed.len() - 1].map(|i| crossed[i])
    }

    #[test]
    fn a_fresh_engine_routes_an_arbitrary_three_duct_cut() {
        let r = region(6, 8);
        let goals = DesignGoals::with_cuts(1);
        let mut engine = ScenarioEngine::new(&r, &goals);
        let [a, b, c] = crossed_ducts(&engine);
        // The cut comes first, so it fills the single-cut tables itself;
        // the single cuts after it read them.
        let cuts = [vec![c, a, b], vec![b], vec![a, c], vec![c, b, a]];
        engine.for_scenarios(&cuts, |scenario, view| {
            assert_fresh(&r, &goals, scenario, view)
        });
    }

    #[test]
    fn a_cut_with_a_duct_no_baseline_path_crosses() {
        let r = region(4, 8);
        let g = r.map.graph();
        let length = |e: EdgeId| g.edge(e).length_km;
        let longest = (0..g.edge_count()).max_by(|&x, &y| length(x).total_cmp(&length(y)));
        let longest = longest.expect("ducts");
        // The span limit masks the longest duct, and it must stay masked
        // after a scenario that also fails it: on this region a later
        // single cut would otherwise route over it.
        let goals = DesignGoals {
            max_span_km: length(longest) - 1e-6,
            ..DesignGoals::with_cuts(2)
        };
        let mut engine = ScenarioEngine::new(&r, &goals);
        assert!(engine.pairs_crossing(longest).is_empty());
        let [a, b, c] = crossed_ducts(&engine);
        let mut cuts = vec![vec![longest, a], vec![b, longest, c], vec![longest]];
        cuts.extend((0..g.edge_count()).map(|e| vec![e]));
        engine.for_scenarios(&cuts, |scenario, view| {
            assert_fresh(&r, &goals, scenario, view)
        });
    }

    /// Everything a pass can read off a view, owned: the re-routed
    /// pairs, every pair's path and baseline path, the unreachable pairs.
    type Seen = (
        Vec<EdgeId>,
        Vec<u32>,
        Vec<Option<DcPath>>,
        Vec<Option<DcPath>>,
        Vec<(usize, usize)>,
    );

    fn seen(scenario: &[EdgeId], view: ScenarioView<'_>) -> Seen {
        let pairs = 0..view.pair_count() as u32;
        (
            scenario.to_vec(),
            view.rerouted().to_vec(),
            pairs.clone().map(|i| view.path(i).cloned()).collect(),
            pairs.map(|i| view.baseline(i).cloned()).collect(),
            view.unreachable().collect(),
        )
    }

    #[test]
    fn replay_shows_the_live_view_on_every_scenario() {
        // The engine's test regions (seeds 1, 5, 9 at k=2, seed 3 at
        // k=1), and seed 7 at k=3, at every k up to theirs.
        for (seed, n_dcs, max_k) in [(1u64, 5, 2), (5, 5, 2), (9, 5, 2), (3, 5, 1), (7, 4, 3)] {
            let r = region(seed, n_dcs);
            for k in 0..=max_k {
                let goals = DesignGoals::with_cuts(k);
                let mut live = Vec::new();
                ScenarioEngine::new(&r, &goals)
                    .for_each_scenario(|scenario, view| live.push(seen(scenario, view)));
                let mut tables = Vec::new();
                for threads in [1, 3] {
                    let sweep = FailureSweep::record(&r, &goals, threads);
                    let mut replayed = Vec::new();
                    sweep.visit(|scenario, view| replayed.push(seen(scenario, view)));
                    assert_eq!(replayed, live, "seed {seed}, k {k}, {threads} threads");
                    let chunked = sweep.par_chunks(|chunk| {
                        let mut out = Vec::new();
                        chunk.visit(|scenario, view| out.push(seen(scenario, view)));
                        out
                    });
                    assert_eq!(
                        chunked.concat(),
                        live,
                        "seed {seed}, k {k}, {threads} chunks"
                    );
                    tables.push(sweep.paths);
                }
                // Ids number the paths by first appearance in scenario
                // order, whatever the chunking.
                assert_eq!(tables[0], tables[1], "seed {seed}, k {k}");
            }
        }
    }

    #[test]
    fn unaffected_pairs_keep_their_baseline_path() {
        let r = region(3, 5);
        let goals = DesignGoals::with_cuts(1);
        let (baseline, _) = scenario_paths(&r, &goals, &[]);
        let mut engine = ScenarioEngine::new(&r, &goals);
        engine.for_each_scenario(|scenario, view| {
            if scenario.is_empty() {
                return;
            }
            for p in view.paths() {
                let base = baseline.iter().find(|bp| (bp.a, bp.b) == (p.a, p.b));
                if let Some(base) = base {
                    if !base.edges.iter().any(|e| scenario.contains(e)) {
                        // A pair whose baseline path avoids all failed
                        // ducts must serve that exact path from the cache.
                        assert_eq!(p, base, "scenario {scenario:?}");
                    }
                }
            }
        });
    }

    #[test]
    fn invalidation_counters_only_count_crossing_pairs() {
        let r = region(7, 4);
        let goals = DesignGoals::with_cuts(1);
        let (baseline, _) = scenario_paths(&r, &goals, &[]);
        let m = r.map.graph().edge_count();
        // Hits + invalidations must account for every pair (feasible or
        // not) in every scenario.
        let n_pairs = r.dcs.len() * (r.dcs.len() - 1) / 2;

        let mut expected_invalidations = 0u64;
        for scenario in FailureScenarios::new(m, goals.max_cuts) {
            expected_invalidations += baseline
                .iter()
                .filter(|p| p.edges.iter().any(|e| scenario.contains(e)))
                .count() as u64;
        }

        // Drive apply/restore manually so the counters can be read before
        // for_each_scenario's telemetry flush resets them.
        let mut engine = ScenarioEngine::new(&r, &goals);
        let mut scenarios = 0u64;
        for scenario in FailureScenarios::new(m, goals.max_cuts) {
            engine.apply(&scenario);
            engine.restore();
            scenarios += 1;
        }
        assert_eq!(scenarios, FailureScenarios::count_scenarios(m, 1));
        assert_eq!(engine.cache_invalidations, expected_invalidations);
        assert_eq!(
            engine.cache_hits + engine.cache_invalidations,
            scenarios * n_pairs as u64
        );
    }

    #[test]
    fn crossing_index_matches_baseline_paths() {
        let r = region(7, 4);
        let goals = DesignGoals::with_cuts(0);
        let (baseline, _) = scenario_paths(&r, &goals, &[]);
        let engine = ScenarioEngine::new(&r, &goals);
        let m = r.map.graph().edge_count();
        for e in 0..m {
            let expected: Vec<(usize, usize)> = baseline
                .iter()
                .filter(|p| p.edges.contains(&e))
                .map(|p| (p.a, p.b))
                .collect();
            let got: Vec<(usize, usize)> = engine
                .pairs_crossing(e)
                .iter()
                .map(|&idx| engine.ends[idx as usize])
                .collect();
            assert_eq!(got, expected, "duct {e}");
        }
    }

    #[test]
    fn no_failure_scenario_costs_no_recomputes() {
        let r = region(2, 4);
        let goals = DesignGoals::with_cuts(0);
        let mut engine = ScenarioEngine::new(&r, &goals);
        let mut calls = 0;
        engine.for_each_scenario(|scenario, view| {
            assert!(scenario.is_empty());
            assert!(view.pair_count() > 0);
            calls += 1;
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn nested_guard_forces_single_thread() {
        assert_eq!(with_nested_parallelism_disabled(thread_count), 1);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn nested_guard_restores_the_previous_state() {
        with_nested_parallelism_disabled(|| {
            with_nested_parallelism_disabled(|| assert_eq!(thread_count(), 1));
            // Leaving the inner guard must not re-enable nested fan-out
            // for the rest of the outer one.
            assert_eq!(thread_count(), 1);
            assert!(SWEEP_WORKER.with(std::cell::Cell::get));
        });
        assert!(!SWEEP_WORKER.with(std::cell::Cell::get));

        let unwound = std::panic::catch_unwind(|| {
            with_nested_parallelism_disabled(|| panic!("item failed"));
        });
        assert!(unwound.is_err());
        assert!(!SWEEP_WORKER.with(std::cell::Cell::get));
    }

    /// Busy work whose cost grows with `x`, so workers finish out of order.
    fn uneven(x: usize) -> usize {
        let spins = (x * 7919) % 23 * 2_000;
        (0..spins).fold(x, |acc, k| std::hint::black_box(acc ^ k)) % 2 + x * x
    }

    #[test]
    fn par_map_matches_sequential_map_in_order() {
        let items: Vec<usize> = (0..37).collect();
        let seq: Vec<usize> = items.iter().map(|&x| uneven(x)).collect();
        for workers in [1, 2, 3, 8, 64] {
            let par = par_map(workers, &items, |i, &x| {
                assert_eq!(i, x);
                uneven(x)
            });
            assert_eq!(par, seq, "{workers} workers");
        }
    }

    #[test]
    fn par_map_empty_input() {
        let out: Vec<u32> = par_map(4, &[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_propagates_an_item_panic() {
        let items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(3, &items, |_, &x| {
                assert!(x != 11, "item {x} failed");
                x
            })
        });
        let payload = caught.expect_err("the item's panic must reach the caller");
        let message = payload.downcast_ref::<String>().expect("assert message");
        assert!(message.contains("item 11 failed"), "{message}");
    }

    #[test]
    fn par_map_workers_and_nested_calls_stay_on_their_thread() {
        let items: Vec<usize> = (0..8).collect();
        // One worker: the calling thread, nested parallelism untouched.
        let me = std::thread::current().id();
        let ids = par_map(1, &items, |_, _| {
            (std::thread::current().id(), SWEEP_WORKER.with(|g| g.get()))
        });
        assert!(ids.iter().all(|&(id, guarded)| id == me && !guarded));
        // Several workers: each item's nested fan-out runs on the worker
        // that owns the item, and sees a thread budget of one.
        let nested = par_map(4, &items, |_, _| {
            let worker = std::thread::current().id();
            assert_eq!(thread_count(), 1);
            par_map(4, &items, |_, _| std::thread::current().id())
                .into_iter()
                .all(|id| id == worker)
        });
        assert!(nested.into_iter().all(|same_thread| same_thread));
    }

    #[test]
    fn set_default_threads_overrides_when_env_unset() {
        // IRIS_THREADS may be set by an outer test harness; only assert
        // the programmatic path when the env override is absent.
        if std::env::var("IRIS_THREADS").is_err() {
            set_default_threads(3);
            assert_eq!(thread_count(), 3);
            set_default_threads(0);
            assert!(thread_count() >= 1);
        }
    }
}
