//! Flow-size distributions (§6.3 / Fig. 18).
//!
//! The paper stress-tests Iris with intra-DC-style workloads dominated by
//! short flows: the pFabric web-search distribution (Alizadeh et al.,
//! SIGCOMM'13) and the Facebook web / hadoop / cache distributions (Roy
//! et al., SIGCOMM'15). We encode each as a piecewise-linear empirical
//! CDF over log-spaced anchor points digitized from the published curves,
//! sampled by inverse transform.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// An empirical flow-size distribution: a piecewise-linear CDF over
/// `(size_bytes, cumulative_probability)` anchors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSizeDist {
    /// Human-readable name (figure label).
    pub name: String,
    /// CDF anchors: strictly increasing sizes, non-decreasing probs,
    /// first prob > 0, last prob == 1.
    anchors: Vec<(f64, f64)>,
}

impl FlowSizeDist {
    /// Build a distribution from CDF anchors.
    ///
    /// # Panics
    ///
    /// Panics if the anchors are not a valid CDF.
    #[must_use]
    pub fn from_anchors(name: &str, anchors: &[(f64, f64)]) -> Self {
        assert!(anchors.len() >= 2, "need at least two CDF anchors");
        for w in anchors.windows(2) {
            assert!(w[0].0 < w[1].0, "sizes must be strictly increasing");
            assert!(w[0].1 <= w[1].1, "CDF must be non-decreasing");
        }
        assert!(anchors[0].0 > 0.0, "sizes must be positive");
        assert!(
            (anchors.last().expect("non-empty").1 - 1.0).abs() < 1e-9,
            "CDF must end at 1"
        );
        Self {
            name: name.to_owned(),
            anchors: anchors.to_vec(),
        }
    }

    /// The pFabric web-search workload ("web1" in Fig. 18).
    #[must_use]
    pub fn pfabric_web_search() -> Self {
        Self::from_anchors(
            "web1",
            &[
                (6.0e3, 0.15),
                (13.0e3, 0.30),
                (19.0e3, 0.45),
                (33.0e3, 0.60),
                (53.0e3, 0.70),
                (133.0e3, 0.80),
                (667.0e3, 0.90),
                (1.3e6, 0.95),
                (6.6e6, 0.98),
                (20.0e6, 1.00),
            ],
        )
    }

    /// The Facebook frontend web-server workload ("web2").
    #[must_use]
    pub fn facebook_web() -> Self {
        Self::from_anchors(
            "web2",
            &[
                (0.1e3, 0.10),
                (0.3e3, 0.25),
                (1.0e3, 0.50),
                (2.0e3, 0.62),
                (10.0e3, 0.80),
                (100.0e3, 0.92),
                (1.0e6, 0.99),
                (10.0e6, 1.00),
            ],
        )
    }

    /// The Facebook Hadoop workload.
    #[must_use]
    pub fn facebook_hadoop() -> Self {
        Self::from_anchors(
            "hadoop",
            &[
                (0.1e3, 0.05),
                (1.0e3, 0.30),
                (10.0e3, 0.55),
                (100.0e3, 0.75),
                (1.0e6, 0.90),
                (10.0e6, 0.97),
                (100.0e6, 1.00),
            ],
        )
    }

    /// The Facebook cache-follower workload.
    #[must_use]
    pub fn facebook_cache() -> Self {
        Self::from_anchors(
            "cache",
            &[
                (0.1e3, 0.20),
                (1.0e3, 0.50),
                (10.0e3, 0.70),
                (100.0e3, 0.85),
                (1.0e6, 0.95),
                (10.0e6, 1.00),
            ],
        )
    }

    /// All four Fig. 18 workloads.
    #[must_use]
    pub fn all_paper_workloads() -> Vec<Self> {
        vec![
            Self::pfabric_web_search(),
            Self::facebook_web(),
            Self::facebook_hadoop(),
            Self::facebook_cache(),
        ]
    }

    /// The Fig. 18 workload whose [`name`](Self::name) is `name`
    /// (`web1`, `web2`, `hadoop` or `cache`).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        Self::all_paper_workloads()
            .into_iter()
            .find(|w| w.name == name)
    }

    /// Inverse-transform sample of a flow size in bytes.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random_range(0.0..1.0);
        self.quantile(u)
    }

    /// The size at cumulative probability `u` (log-linear interpolation
    /// between anchors; sizes below the first anchor interpolate from an
    /// implicit tiny minimum).
    #[must_use]
    pub fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let (first_size, first_p) = self.anchors[0];
        if u <= first_p {
            // Interpolate from a 64-byte implicit floor to the first anchor.
            let t = if first_p == 0.0 { 0.0 } else { u / first_p };
            return interp_log(64.0_f64.min(first_size), first_size, t);
        }
        for w in self.anchors.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            if u <= p1 {
                let t = if (p1 - p0).abs() < 1e-12 {
                    1.0
                } else {
                    (u - p0) / (p1 - p0)
                };
                return interp_log(s0, s1, t);
            }
        }
        self.anchors.last().expect("non-empty").0
    }

    /// Mean flow size (bytes) via numeric integration of the quantile.
    #[must_use]
    pub fn mean_bytes(&self) -> f64 {
        const STEPS: usize = 10_000;
        (0..STEPS)
            .map(|i| self.quantile((i as f64 + 0.5) / STEPS as f64))
            .sum::<f64>()
            / STEPS as f64
    }

    /// The paper's short-flow threshold: < 50 KB (§6.3).
    pub const SHORT_FLOW_BYTES: f64 = 50.0e3;
}

/// Geometric (log-domain) interpolation — natural for size scales.
fn interp_log(a: f64, b: f64, t: f64) -> f64 {
    (a.ln() + (b.ln() - a.ln()) * t).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn quantiles_are_monotone() {
        for dist in FlowSizeDist::all_paper_workloads() {
            let mut prev = 0.0;
            for i in 0..=100 {
                let q = dist.quantile(i as f64 / 100.0);
                assert!(q >= prev, "{}: q({}) = {q} < {prev}", dist.name, i);
                prev = q;
            }
        }
    }

    #[test]
    fn by_name_finds_exactly_the_paper_workloads() {
        for dist in FlowSizeDist::all_paper_workloads() {
            assert_eq!(FlowSizeDist::by_name(&dist.name), Some(dist));
        }
        assert_eq!(FlowSizeDist::by_name("nope"), None);
    }

    #[test]
    fn quantile_hits_anchors() {
        let d = FlowSizeDist::pfabric_web_search();
        assert!((d.quantile(0.15) - 6.0e3).abs() / 6.0e3 < 1e-6);
        assert!((d.quantile(1.0) - 20.0e6).abs() / 20.0e6 < 1e-6);
    }

    #[test]
    fn samples_within_support() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for dist in FlowSizeDist::all_paper_workloads() {
            for _ in 0..1000 {
                let s = dist.sample(&mut rng);
                assert!((64.0..=100.0e6 + 1.0).contains(&s), "{}: {s}", dist.name);
            }
        }
    }

    #[test]
    fn web_workloads_are_short_flow_dominated() {
        // The paper picks these as a stress test *because* they are
        // dominated by short flows.
        for dist in [FlowSizeDist::facebook_web(), FlowSizeDist::facebook_cache()] {
            let median = dist.quantile(0.5);
            assert!(
                median <= FlowSizeDist::SHORT_FLOW_BYTES,
                "{}: median {median}",
                dist.name
            );
        }
    }

    #[test]
    fn hadoop_has_heavier_tail_than_web() {
        let hadoop = FlowSizeDist::facebook_hadoop();
        let web = FlowSizeDist::facebook_web();
        assert!(hadoop.quantile(0.99) > web.quantile(0.99));
    }

    #[test]
    fn mean_is_between_median_and_max() {
        for dist in FlowSizeDist::all_paper_workloads() {
            let mean = dist.mean_bytes();
            assert!(
                mean > dist.quantile(0.5),
                "{}: heavy tail pulls mean up",
                dist.name
            );
            assert!(mean < dist.quantile(1.0));
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_anchors_panic() {
        let _ = FlowSizeDist::from_anchors("bad", &[(10.0, 0.5), (5.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "end at 1")]
    fn incomplete_cdf_panics() {
        let _ = FlowSizeDist::from_anchors("bad", &[(10.0, 0.5), (20.0, 0.9)]);
    }
}
