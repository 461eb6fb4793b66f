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
//! Thread policy lives here too. [`thread_count`] resolves the budget:
//! `IRIS_THREADS` overrides everything, then a programmatic default
//! ([`set_default_threads`]), then the machine's available parallelism.
//! [`par_map`] is the one fan-out that spends it — Algorithm 1's scenario
//! chunks, the flow simulator's link jobs and the figure binaries' sweep
//! points all map through it, so "thread count never changes output" is
//! implemented once.

use crate::goals::DesignGoals;
use crate::paths::{route, scenario_mask, DcPath};
use iris_fibermap::Region;
use iris_netgraph::{DijkstraScratch, EdgeId, FailureScenarios};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

#[derive(Debug, Clone)]
struct PairSlot {
    a: usize,
    b: usize,
    /// The unique shortest path, `None` if disconnected or over the SLA.
    path: Option<DcPath>,
}

/// A read-only view of all DC-pair routes in the current scenario,
/// handed to [`ScenarioEngine::for_each_scenario`] callbacks. It also
/// says which pairs the scenario re-routed: every other pair still has
/// its baseline path, so a pass that keeps its answers for the baseline
/// (the first, empty scenario) evaluates only those.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioView<'a> {
    slots: &'a [PairSlot],
    rerouted: &'a [u32],
    stash: &'a [(u32, Option<DcPath>)],
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
        self.slots[idx as usize].path.as_ref()
    }

    /// Pair `idx`'s *baseline* path, whether or not this scenario
    /// re-routed it; `None` if the pair is infeasible even without cuts.
    #[must_use]
    pub fn baseline(&self, idx: u32) -> Option<&'a DcPath> {
        match self.rerouted.binary_search(&idx) {
            Ok(k) => self.stash[k].1.as_ref(),
            Err(_) => self.path(idx),
        }
    }

    /// The feasible DC-pair paths, ordered by `(a, b)` ascending —
    /// exactly the order (and contents) of
    /// [`crate::paths::scenario_paths`]'s first return value.
    pub fn paths(&self) -> impl Iterator<Item = &'a DcPath> + 'a {
        self.slots.iter().filter_map(|s| s.path.as_ref())
    }

    /// Feasible paths together with their dense pair index (the engine's
    /// stable identifier for the unordered pair `(a, b)`).
    pub fn indexed_paths(&self) -> impl Iterator<Item = (u32, &'a DcPath)> + 'a {
        (self.slots.iter().enumerate()).filter_map(|(i, s)| Some((i as u32, s.path.as_ref()?)))
    }

    /// DC index pairs that are unreachable or SLA-violating in this
    /// scenario, ordered by `(a, b)` ascending — exactly
    /// [`crate::paths::scenario_paths`]'s second return value.
    pub fn unreachable(&self) -> impl Iterator<Item = (usize, usize)> + 'a {
        (self.slots.iter().filter(|s| s.path.is_none())).map(|s| (s.a, s.b))
    }

    /// Number of DC pairs (feasible + infeasible).
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.slots.len()
    }

    /// The endpoints of pair `idx` (as returned by
    /// [`ScenarioView::indexed_paths`]).
    #[must_use]
    pub fn pair(&self, idx: u32) -> (usize, usize) {
        let s = &self.slots[idx as usize];
        (s.a, s.b)
    }
}

/// Incremental scenario-path cache over one region + goals.
#[derive(Debug)]
pub struct ScenarioEngine<'r> {
    region: &'r Region,
    goals: &'r DesignGoals,
    /// Disabled-edge mask: the span-limit baseline, with the current
    /// scenario's failed ducts toggled on during a recompute and toggled
    /// back off afterwards.
    mask: Vec<bool>,
    /// Current per-pair states, `(a, b)` ascending. Outside of a
    /// scenario callback this always holds the baseline.
    slots: Vec<PairSlot>,
    /// `edge_pairs[e]` — pair indices whose *baseline* path crosses `e`.
    edge_pairs: Vec<Vec<u32>>,
    /// Baseline states of pairs overlaid by the current scenario.
    stash: Vec<(u32, Option<DcPath>)>,
    /// Scratch: pair indices invalidated by the current scenario.
    affected: Vec<u32>,
    affected_mark: Vec<bool>,
    dijkstra: DijkstraScratch,
    /// Pairs served from the baseline cache across all scenarios.
    pub cache_hits: u64,
    /// Pairs re-routed because a failed duct crossed their cached path.
    pub cache_invalidations: u64,
}

impl<'r> ScenarioEngine<'r> {
    /// Build the engine: one Dijkstra per DC to establish the baseline
    /// paths and the edge→pairs invalidation index.
    #[must_use]
    pub fn new(region: &'r Region, goals: &'r DesignGoals) -> Self {
        let g = region.map.graph();
        let m = g.edge_count();
        let n = region.dcs.len();
        let base_mask = scenario_mask(region, goals, &[]);
        let mut dijkstra = DijkstraScratch::new();
        let mut slots = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        let mut edge_pairs: Vec<Vec<u32>> = vec![Vec::new(); m];
        for a in 0..n {
            dijkstra.run(g, region.dcs[a], &base_mask);
            for b in (a + 1)..n {
                let path = route(&dijkstra, region, goals, a, b);
                for &e in path.iter().flat_map(|p| &p.edges) {
                    edge_pairs[e].push(slots.len() as u32);
                }
                slots.push(PairSlot { a, b, path });
            }
        }
        Self {
            region,
            goals,
            mask: base_mask,
            affected_mark: vec![false; slots.len()],
            slots,
            edge_pairs,
            stash: Vec::new(),
            affected: Vec::new(),
            dijkstra,
            cache_hits: 0,
            cache_invalidations: 0,
        }
    }

    /// Run `f` once per failure scenario of `goals.max_cuts`, in the
    /// deterministic [`FailureScenarios`] order.
    pub fn for_each_scenario(&mut self, f: impl FnMut(&[EdgeId], ScenarioView<'_>)) {
        let m = self.region.map.graph().edge_count();
        self.visit(FailureScenarios::new(m, self.goals.max_cuts), f);
    }

    /// Run `f` for an explicit scenario list (a chunk of the full
    /// enumeration) — the parallel sweep's per-thread entry point.
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
            let view = ScenarioView {
                slots: &self.slots,
                rerouted: &self.affected,
                stash: &self.stash,
            };
            f(scenario.as_ref(), view);
            self.restore();
        }
        self.flush_telemetry();
    }

    /// Overlay the scenario: re-route every pair whose cached path
    /// crosses a failed duct, stashing the baseline states for
    /// [`ScenarioEngine::restore`].
    fn apply(&mut self, failed: &[EdgeId]) {
        debug_assert!(self.affected.is_empty() && self.stash.is_empty());
        for &e in failed {
            for &p in &self.edge_pairs[e] {
                if !self.affected_mark[p as usize] {
                    self.affected_mark[p as usize] = true;
                    self.affected.push(p);
                }
            }
        }
        self.cache_hits += (self.slots.len() - self.affected.len()) as u64;
        self.cache_invalidations += self.affected.len() as u64;
        if self.affected.is_empty() {
            return;
        }
        // Pair indices ascend with (a, b), so sorting groups the
        // re-routes by source DC: one Dijkstra per affected source.
        self.affected.sort_unstable();
        for &e in failed {
            self.mask[e] = true;
        }
        let g = self.region.map.graph();
        let mut current_source = usize::MAX;
        for i in 0..self.affected.len() {
            let p = self.affected[i];
            let (a, b) = (self.slots[p as usize].a, self.slots[p as usize].b);
            if a != current_source {
                self.dijkstra.run(g, self.region.dcs[a], &self.mask);
                current_source = a;
            }
            let detour = route(&self.dijkstra, self.region, self.goals, a, b);
            let old = std::mem::replace(&mut self.slots[p as usize].path, detour);
            self.stash.push((p, old));
        }
        for &e in failed {
            self.mask[e] = false;
        }
    }

    /// Undo [`ScenarioEngine::apply`]: swap the stashed baseline states
    /// back in. No clones — the overlay is moved out, the baseline moved
    /// back.
    fn restore(&mut self) {
        for (p, old) in self.stash.drain(..) {
            self.slots[p as usize].path = old;
        }
        for p in self.affected.drain(..) {
            self.affected_mark[p as usize] = false;
        }
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
    }
}

/// A memo keyed by a slice: a set of DC pairs (ascending engine pair
/// indices, so equal keys mean equal sets) or a path's duct sequence
/// (which fixes its nodes and length) — across thousands of scenarios
/// the same sets and detours recur constantly. `&[K]` lookups allocate
/// nothing on a hit. One memo per pass or sweep chunk, dropped with it.
#[derive(Default)]
pub(crate) struct SliceMemo<K, V> {
    /// Clear it when what the values depend on changes.
    pub seen: HashMap<Box<[K]>, V>,
    /// Values asked for.
    pub lookups: u64,
    /// Lookups the memo missed, i.e. evaluations.
    pub evals: u64,
}

impl<K: Copy + Eq + std::hash::Hash, V: Clone> SliceMemo<K, V> {
    pub fn get(&mut self, key: &[K], eval: impl FnOnce() -> V) -> V {
        self.lookups += 1;
        if let Some(known) = self.seen.get(key) {
            return known.clone();
        }
        self.evals += 1;
        let fresh = eval();
        self.seen.insert(key.into(), fresh.clone());
        fresh
    }

    /// Add the evaluations and the hits to the two named counters.
    pub fn flush(&self, evals: &str, hits: &str) {
        let t = iris_telemetry::global();
        t.counter(evals).add(self.evals);
        t.counter(hits).add(self.lookups - self.evals);
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

    #[test]
    fn engine_matches_scenario_paths_on_every_scenario() {
        for seed in [1u64, 5, 9] {
            let r = region(seed, 5);
            let goals = DesignGoals::with_cuts(2);
            let mut engine = ScenarioEngine::new(&r, &goals);
            engine.for_each_scenario(|scenario, view| {
                let (paths, unreachable) = scenario_paths(&r, &goals, scenario);
                let got_paths: Vec<DcPath> = view.paths().cloned().collect();
                let got_unreachable: Vec<(usize, usize)> = view.unreachable().collect();
                assert_eq!(got_paths, paths, "seed {seed}, scenario {scenario:?}");
                assert_eq!(
                    got_unreachable, unreachable,
                    "seed {seed}, scenario {scenario:?}"
                );
            });
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
                .map(|&idx| {
                    let s = &engine.slots[idx as usize];
                    (s.a, s.b)
                })
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
