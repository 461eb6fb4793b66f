//! Flow-size distributions (§6.3 / Fig. 18): the workspace's one
//! empirical CDF type, re-exported as `iris_simnet::workloads`.
//!
//! The paper stress-tests Iris with the pFabric web-search distribution
//! (Alizadeh et al., SIGCOMM'13) and the Facebook web / hadoop / cache
//! distributions (Roy et al., SIGCOMM'15), all dominated by short flows.
//! Each is a CDF over anchors digitized from the published curves,
//! sampled by inverse transform; the matrix families of
//! [`crate::workload`] draw from [`FlowSizeDist::dc_interconnect`].

use rand::Rng;
use serde::{Deserialize, Serialize};

/// An empirical flow-size distribution: a CDF over
/// `(size_bytes, cumulative_probability)` anchors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSizeDist {
    /// Human-readable name (figure label).
    pub name: String,
    /// CDF anchors, valid by [`FlowSizeDist::check`].
    anchors: Vec<(f64, f64)>,
}

impl FlowSizeDist {
    /// Build a distribution from CDF anchors.
    ///
    /// # Panics
    ///
    /// Panics with [`FlowSizeDist::check`]'s message if the anchors are
    /// not a valid CDF.
    #[must_use]
    pub fn from_anchors(name: &str, anchors: &[(f64, f64)]) -> Self {
        let dist = Self {
            name: name.to_owned(),
            anchors: anchors.to_vec(),
        };
        dist.check().unwrap_or_else(|e| panic!("{e}"));
        dist
    }

    /// Whether the anchors form a CDF [`FlowSizeDist::quantile`] can
    /// read. A deserialized distribution (in a flowsim `LoadSpec`, say)
    /// has been checked by nothing else.
    ///
    /// # Errors
    ///
    /// A message naming the first violated condition.
    pub fn check(&self) -> Result<(), String> {
        let anchors = &self.anchors;
        let valid = |&(s, p): &(f64, f64)| s.is_finite() && s > 0.0 && (0.0..=1.0).contains(&p);
        let increasing = anchors
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1);
        let why = match anchors.last() {
            None => "no anchors",
            Some(_) if !anchors.iter().all(valid) => {
                "sizes must be finite and positive, probabilities in [0, 1]"
            }
            Some(_) if !increasing => "sizes and probabilities must be strictly increasing",
            Some(&(_, p)) if (p - 1.0).abs() >= 1e-9 => "CDF must end at 1",
            Some(_) => return Ok(()),
        };
        Err(format!("flow-size CDF '{}': {why}", self.name))
    }

    /// The pFabric web-search workload ("web1" in Fig. 18).
    #[must_use]
    pub fn pfabric_web_search() -> Self {
        Self::from_anchors(
            "web1",
            &[
                (64.0, 0.0),
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
                (64.0, 0.0),
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
                (64.0, 0.0),
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
                (64.0, 0.0),
                (0.1e3, 0.20),
                (1.0e3, 0.50),
                (10.0e3, 0.70),
                (100.0e3, 0.85),
                (1.0e6, 0.95),
                (10.0e6, 1.00),
            ],
        )
    }

    /// The planner's DC-interconnect mix: mostly small RPC-sized flows by
    /// count, with replication and bulk-copy elephants carrying most of
    /// the bytes. Not a Fig. 18 workload, so `by_name` does not list it.
    #[must_use]
    pub fn dc_interconnect() -> Self {
        Self::from_anchors(
            "dci",
            &[
                (500.0, 0.15),
                (2_000.0, 0.40),
                (10_000.0, 0.60),
                (100_000.0, 0.78),
                (1_000_000.0, 0.90),
                (10_000_000.0, 0.97),
                (100_000_000.0, 1.0),
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
        self.quantile(rng.random_range(0.0..1.0))
    }

    /// The size at cumulative probability `u` (clamped to `[0, 1]`): the
    /// first size at or below the first anchor's probability, the last
    /// size at 1, and log-linear interpolation between anchors in
    /// between.
    #[inline]
    #[must_use]
    pub fn quantile(&self, u: f64) -> f64 {
        let (first_size, first_p) = self.anchors[0];
        if u <= first_p {
            return first_size;
        }
        let last_size = self.anchors[self.anchors.len() - 1].0;
        if u >= 1.0 {
            return last_size;
        }
        for w in self.anchors.windows(2) {
            let ((s0, p0), (s1, p1)) = (w[0], w[1]);
            if u <= p1 {
                let t = (u - p0) / (p1 - p0);
                return (s0.ln() + t * (s1.ln() - s0.ln())).exp();
            }
        }
        last_size
    }

    /// Mean flow size (bytes) via midpoint integration of the quantile.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn all_five() -> Vec<FlowSizeDist> {
        let mut all = FlowSizeDist::all_paper_workloads();
        all.push(FlowSizeDist::dc_interconnect());
        all
    }

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

    /// FNV-1a over the bits of `quantile(i / 1000)` for `i` in
    /// `1..=999`, then of 10⁵ `sample` draws seeded with 42.
    fn digest(dist: &FlowSizeDist) -> u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let quantiles = (1..=999).map(|i| dist.quantile(f64::from(i) / 1000.0));
        let samples = (0..100_000).map(|_| dist.sample(&mut rng));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in quantiles
            .chain(samples)
            .flat_map(|x| x.to_bits().to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Pinned at commit ad6449e, when the four paper CDFs were the
    /// simulator's type (an implicit 64-byte floor below the first
    /// anchor) and `dc_interconnect` was the planner's own ECDF (flat
    /// below the first anchor, drawn with `random::<f64>()`). The one
    /// type draws the same bits as both.
    #[test]
    fn unified_cdf_reproduces_both_parent_types_bit_for_bit() {
        let pinned = [
            ("web1", 0x6f43_556a_e141_a9df),
            ("web2", 0x5b33_afac_7885_c79d),
            ("hadoop", 0x8a49_a760_3f5a_9cf9),
            ("cache", 0xfb1c_48b3_956f_2a36),
            ("dci", 0x9e99_cc1b_9fe4_6fc3),
        ];
        for (dist, (name, want)) in all_five().iter().zip(pinned) {
            assert_eq!(dist.name, name);
            let got = digest(dist);
            assert_eq!(got, want, "{name}: got {got:#018x}");
        }
    }

    #[test]
    fn quantile_endpoints_are_the_end_anchors() {
        for dist in all_five() {
            assert_eq!(dist.quantile(0.0), dist.anchors[0].0, "{}", dist.name);
            assert_eq!(
                dist.quantile(1.0),
                dist.anchors[dist.anchors.len() - 1].0,
                "{}",
                dist.name
            );
        }
    }

    #[test]
    fn check_rejects_malformed_anchors() {
        let cases: [(&[(f64, f64)], &str); 7] = [
            (&[], "no anchors"),
            (&[(10.0, 0.5), (5.0, 1.0)], "strictly increasing"),
            (
                &[(10.0, 0.5), (20.0, 0.5), (30.0, 1.0)],
                "strictly increasing",
            ),
            (&[(10.0, 0.5), (20.0, 0.9)], "end at 1"),
            (&[(f64::NAN, 0.5), (20.0, 1.0)], "finite and positive"),
            (&[(10.0, 0.5), (f64::INFINITY, 1.0)], "finite and positive"),
            (&[(10.0, f64::NAN), (20.0, 1.0)], "probabilities in [0, 1]"),
        ];
        for (anchors, why) in cases {
            let dist = FlowSizeDist {
                name: "bad".into(),
                anchors: anchors.to_vec(),
            };
            let err = dist.check().expect_err(why);
            assert!(err.contains(why), "{anchors:?}: {err}");
        }
        for dist in all_five() {
            assert_eq!(dist.check(), Ok(()), "{}", dist.name);
        }
    }

    #[test]
    fn by_name_finds_exactly_the_paper_workloads() {
        for dist in FlowSizeDist::all_paper_workloads() {
            assert_eq!(FlowSizeDist::by_name(&dist.name), Some(dist));
        }
        assert_eq!(FlowSizeDist::by_name("nope"), None);
        assert_eq!(FlowSizeDist::by_name("dci"), None);
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
