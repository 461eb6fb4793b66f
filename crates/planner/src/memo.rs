//! Memos for the passes that replay a [`FailureSweep`]: across thousands
//! of scenarios the same paths and the same pair sets recur, and what a
//! pass works out for one depends on it alone.

use crate::engine::FailureSweep;
use std::collections::HashMap;

/// A memo keyed by a [`FailureSweep`] path id: a value that depends on
/// the path alone, worked out once per distinct path of the sweep.
pub(crate) struct PathMemo<V> {
    seen: Vec<Option<V>>,
    /// Values asked for.
    lookups: u64,
    /// Lookups the memo missed, i.e. evaluations.
    evals: u64,
}

impl<V: Clone> PathMemo<V> {
    pub fn new(sweep: &FailureSweep) -> Self {
        Self {
            seen: vec![None; sweep.path_count()],
            lookups: 0,
            evals: 0,
        }
    }

    pub fn get(&mut self, id: u32, eval: impl FnOnce() -> V) -> V {
        self.lookups += 1;
        let slot = &mut self.seen[id as usize];
        if slot.is_none() {
            self.evals += 1;
        }
        slot.get_or_insert_with(eval).clone()
    }

    /// Forget every value: what they depend on changed.
    pub fn clear(&mut self) {
        self.seen.fill(None);
    }

    /// Add the evaluations and the hits to the two named counters.
    pub fn flush(&self, evals: &str, hits: &str) {
        let t = iris_telemetry::global();
        t.counter(evals).add(self.evals);
        t.counter(hits).add(self.lookups - self.evals);
    }
}

/// A memo keyed by a slice: a set of DC pairs (ascending engine pair
/// indices, so equal keys mean equal sets) — across thousands of
/// scenarios the same sets recur constantly. `&[K]` lookups allocate
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
