//! Heavy-tailed DC-pair traffic matrices with controlled change (§6.3).
//!
//! "Based on experience, we use heavy-tailed traffic between DCs, with a
//! few pairs exchanging most of the traffic; unbounded changes in traffic
//! patterns occur when, e.g., a low-traffic DC-DC pair becomes a
//! high-traffic one. Otherwise, we bound the changes to a maximum %
//! value."

use iris_planner::workload::{pair_count, pair_index};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How much the matrix may change at each reconfiguration interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChangeModel {
    /// Each pair's weight moves by at most this fraction (0.01–1.0).
    Bounded(f64),
    /// Weights are redrawn from scratch: a cold pair may become the
    /// hottest (the paper's "unbounded" extreme).
    Unbounded,
}

/// A normalized traffic matrix over unordered DC pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    n_dcs: usize,
    /// One weight per unordered pair (i < j), summing to 1.
    weights: Vec<f64>,
    rng: StdRngState,
}

/// Serializable RNG wrapper so matrices can evolve deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StdRngState {
    seed: u64,
    steps: u64,
}

impl StdRngState {
    fn rng(&mut self) -> StdRng {
        // Derive a fresh deterministic stream per step.
        let mut r = StdRng::seed_from_u64(self.seed.wrapping_add(self.steps.wrapping_mul(0x9E37)));
        self.steps += 1;
        r.random::<u64>(); // decorrelate adjacent seeds
        r
    }
}

impl TrafficMatrix {
    /// A heavy-tailed matrix over `n_dcs` DCs: pair weights are drawn
    /// from a Pareto-like distribution (`u^{-alpha}` with `alpha = 1.2`)
    /// so a few pairs dominate, then normalized.
    ///
    /// # Panics
    ///
    /// Panics if `n_dcs < 2`.
    #[must_use]
    pub fn heavy_tailed(n_dcs: usize, seed: u64) -> Self {
        assert!(n_dcs >= 2, "a traffic matrix needs at least two DCs");
        let mut state = StdRngState { seed, steps: 0 };
        let mut rng = state.rng();
        let mut weights: Vec<f64> = (0..pair_count(n_dcs))
            .map(|_| {
                let u: f64 = rng.random_range(0.001..1.0);
                u.powf(-1.2)
            })
            .collect();
        normalize(&mut weights);
        Self {
            n_dcs,
            weights,
            rng: state,
        }
    }

    /// A matrix from externally supplied pair weights (triangular
    /// `i < j` order), normalized to sum to 1 — the bridge from the
    /// planner's workload-family shapes ([`iris_planner::workload`])
    /// into the simulator. `seed` drives subsequent
    /// [`TrafficMatrix::change`] evolution exactly as in
    /// [`TrafficMatrix::heavy_tailed`].
    ///
    /// # Panics
    ///
    /// Panics if `n_dcs < 2`, if `weights.len() != pair_count(n_dcs)`,
    /// if any weight is negative or non-finite, or if all weights are
    /// zero.
    #[must_use]
    pub fn from_weights(n_dcs: usize, seed: u64, weights: &[f64]) -> Self {
        assert!(n_dcs >= 2, "a traffic matrix needs at least two DCs");
        assert_eq!(
            weights.len(),
            pair_count(n_dcs),
            "need one weight per unordered DC pair"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let mut weights = weights.to_vec();
        normalize(&mut weights);
        Self {
            n_dcs,
            weights,
            rng: StdRngState { seed, steps: 0 },
        }
    }

    /// Number of DCs.
    #[must_use]
    pub fn n_dcs(&self) -> usize {
        self.n_dcs
    }

    /// Weight of pair `(i, j)` (fraction of total region traffic).
    #[must_use]
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        self.weights[pair_index(self.n_dcs, i.min(j), i.max(j))]
    }

    /// All pair weights in triangular order.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Mutate the matrix per the change model and return the *change
    /// magnitude*: half the L1 distance between old and new weights
    /// (the fraction of total traffic that moved between pairs).
    pub fn change(&mut self, model: ChangeModel) -> f64 {
        let old = self.weights.clone();
        let mut rng = self.rng.rng();
        match model {
            ChangeModel::Bounded(max_frac) => {
                let max_frac = max_frac.clamp(0.0, 1.0);
                for w in &mut self.weights {
                    let delta: f64 = rng.random_range(-max_frac..=max_frac);
                    *w = (*w * (1.0 + delta)).max(1e-12);
                }
            }
            ChangeModel::Unbounded => {
                for w in &mut self.weights {
                    let u: f64 = rng.random_range(0.001..1.0);
                    *w = u.powf(-1.2);
                }
            }
        }
        normalize(&mut self.weights);
        0.5 * self
            .weights
            .iter()
            .zip(&old)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }

    /// Total weight. Starts at 1 and may drop below after
    /// [`TrafficMatrix::rescale`] (capacity clamping).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Rescale each pair weight by `factor(pair_index, weight)` in
    /// `[0, 1]`, *without* renormalizing. Used by the simulator to clamp
    /// offered load to the provisioned capacity after a matrix change
    /// (§6.3 assumes provisioning is always sufficient).
    ///
    /// # Panics
    ///
    /// Panics if a factor is outside `[0, 1]`.
    pub fn rescale<F: Fn(usize, f64) -> f64>(&mut self, factor: F) {
        for (idx, w) in self.weights.iter_mut().enumerate() {
            let f = factor(idx, *w);
            assert!((0.0..=1.0).contains(&f), "rescale factor {f} out of range");
            *w *= f;
        }
    }

    /// Gini-style skew statistic: the fraction of traffic carried by the
    /// top 10% of pairs. Heavy-tailed matrices score well above uniform.
    #[must_use]
    pub fn top_decile_share(&self) -> f64 {
        let mut sorted = self.weights.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let k = (sorted.len() / 10).max(1);
        sorted[..k].iter().sum()
    }
}

fn normalize(weights: &mut [f64]) {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all vanish");
    for w in weights {
        *w /= total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_indexing_is_bijective() {
        let n = 7;
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let idx = pair_index(n, i, j);
                assert!(idx < pair_count(n));
                assert!(seen.insert(idx), "duplicate index for ({i},{j})");
            }
        }
        assert_eq!(seen.len(), pair_count(n));
    }

    #[test]
    fn weights_sum_to_one() {
        let m = TrafficMatrix::heavy_tailed(10, 42);
        let total: f64 = m.weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn matrix_is_heavy_tailed() {
        let m = TrafficMatrix::heavy_tailed(15, 42);
        // Top 10% of pairs should carry far more than 10% of traffic.
        assert!(
            m.top_decile_share() > 0.3,
            "top decile only {}",
            m.top_decile_share()
        );
    }

    #[test]
    fn weight_lookup_is_symmetric() {
        let m = TrafficMatrix::heavy_tailed(6, 7);
        assert_eq!(m.weight(2, 4), m.weight(4, 2));
    }

    #[test]
    fn bounded_change_is_bounded() {
        let mut m = TrafficMatrix::heavy_tailed(10, 1);
        for _ in 0..20 {
            let moved = m.change(ChangeModel::Bounded(0.1));
            // Each weight moves <= 10%, so at most ~10% of traffic moves.
            assert!(moved <= 0.11, "moved {moved}");
            let total: f64 = m.weights().iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn unbounded_change_can_move_a_lot() {
        let mut m = TrafficMatrix::heavy_tailed(10, 1);
        let mut max_moved = 0.0f64;
        for _ in 0..20 {
            max_moved = max_moved.max(m.change(ChangeModel::Unbounded));
        }
        assert!(max_moved > 0.3, "unbounded changes moved only {max_moved}");
    }

    #[test]
    fn evolution_is_deterministic() {
        let mut a = TrafficMatrix::heavy_tailed(8, 5);
        let mut b = TrafficMatrix::heavy_tailed(8, 5);
        for _ in 0..5 {
            a.change(ChangeModel::Bounded(0.5));
            b.change(ChangeModel::Bounded(0.5));
        }
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    #[should_panic(expected = "at least two DCs")]
    fn single_dc_panics() {
        let _ = TrafficMatrix::heavy_tailed(1, 0);
    }

    #[test]
    fn from_weights_normalizes_and_evolves_deterministically() {
        let raw = [3.0, 1.0, 0.0, 4.0, 0.5, 1.5];
        let mut a = TrafficMatrix::from_weights(4, 9, &raw);
        assert!((a.total_weight() - 1.0).abs() < 1e-9);
        assert!((a.weight(0, 1) - 0.3).abs() < 1e-9);
        let mut b = TrafficMatrix::from_weights(4, 9, &raw);
        a.change(ChangeModel::Bounded(0.3));
        b.change(ChangeModel::Bounded(0.3));
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    #[should_panic(expected = "one weight per unordered DC pair")]
    fn from_weights_rejects_wrong_length() {
        let _ = TrafficMatrix::from_weights(4, 0, &[1.0; 5]);
    }
}
