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

/// A set of DC pairs as a bitset over a sweep's dense pair index: pair
/// `i` is bit `i % 64` of word `i / 64`, in ⌈pairs/64⌉ words.
/// [`PairBits::iter`] yields the ascending list a [`SliceMemo`] key or a
/// load model takes.
#[derive(Debug, Clone)]
pub(crate) struct PairBits(Vec<u64>);

impl PairBits {
    /// The empty set over `pairs` pair indices.
    pub fn new(pairs: usize) -> Self {
        Self(vec![0; pairs.div_ceil(64)])
    }

    /// The set of `members` over `pairs` pair indices.
    pub fn of(pairs: usize, members: &[u32]) -> Self {
        let mut bits = Self::new(pairs);
        members.iter().for_each(|&i| bits.set(i));
        bits
    }

    pub fn set(&mut self, i: u32) {
        self.0[i as usize / 64] |= 1 << (i % 64);
    }

    pub fn clear(&mut self, i: u32) {
        self.0[i as usize / 64] &= !(1 << (i % 64));
    }

    /// Make this set equal to `other`, which has the same width.
    pub fn copy_from(&mut self, other: &Self) {
        self.0.copy_from_slice(&other.0);
    }

    /// Remove every pair of `other`, word by word.
    pub fn and_not(&mut self, other: &Self) {
        (self.0.iter_mut().zip(&other.0)).for_each(|(w, o)| *w &= !o);
    }

    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// The pairs, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().enumerate().flat_map(|(k, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some(64 * k as u32 + bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::PairBits;

    /// Set, clear, AND-NOT and iteration against a sorted list, at and
    /// around word boundaries, up to the 4,950 pairs (78 words) of a
    /// 100-DC region.
    #[test]
    fn pair_bits_match_a_sorted_list_at_word_boundaries() {
        for pairs in [1usize, 63, 64, 65, 4_096, 4_097, 4_950] {
            let n = pairs as u32;
            let mut bits = PairBits::new(pairs);
            assert_eq!(bits.0.len(), pairs.div_ceil(64), "{pairs}");
            assert!(bits.is_empty() && bits.iter().next().is_none(), "{pairs}");
            // Every third pair and both ends; then clear every sixth.
            let mut want: Vec<u32> = (0..n).filter(|i| i % 3 == 0).collect();
            want.extend([0, n - 1]);
            want.sort_unstable();
            want.dedup();
            want.iter().rev().for_each(|&i| bits.set(i));
            for i in (0..n).step_by(6) {
                bits.clear(i);
            }
            want.retain(|i| i % 6 != 0);
            assert_eq!(bits.iter().collect::<Vec<_>>(), want, "{pairs}");
            assert_eq!(bits.is_empty(), want.is_empty(), "{pairs}");

            // AND-NOT the multiples of five, the last pair and the pairs
            // on either side of each word boundary.
            let mut other = PairBits::new(pairs);
            let mut drop: Vec<u32> = (0..n).filter(|i| i % 5 == 0).collect();
            drop.push(n - 1);
            drop.extend((64..n).step_by(64).flat_map(|b| [b - 1, b]));
            drop.iter().for_each(|&i| other.set(i));
            let mut copy = PairBits::new(pairs);
            copy.copy_from(&bits);
            copy.and_not(&other);
            let before = want.clone();
            want.retain(|i| !drop.contains(i));
            assert_eq!(copy.iter().collect::<Vec<_>>(), want, "{pairs}");
            // The source is untouched; a set minus itself is empty.
            assert_eq!(bits.iter().collect::<Vec<_>>(), before, "{pairs}");
            bits.and_not(&bits.clone());
            assert!(bits.is_empty() && bits.iter().next().is_none(), "{pairs}");
        }
    }
}
