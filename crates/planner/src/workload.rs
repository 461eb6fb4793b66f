//! Seeded workload engine: families of DC-pair traffic matrices for
//! robust topology engineering.
//!
//! The hose model ([`crate::topology::provision`]) plans for the *worst*
//! matrix consistent with per-DC aggregate capacities. Operators instead
//! often plan one topology robust to a *set* of concrete matrices —
//! forecast snapshots, observed shifts, stress cases (METTEOR, COUDER).
//! This module generates such sets and provisions for them:
//!
//! * a flow-level base demand in the parsimon-eval flowgen idiom: per
//!   DC pair, flow sizes are inverse-transform sampled from
//!   [`FlowSizeDist::dc_interconnect`] and inter-arrival gaps are
//!   lognormal, which yields a heavy-tailed offered-rate matrix;
//! * three seeded *families* of matrices derived from that base
//!   ([`FamilyKind`]): `diurnal` phase-shifts every pair over the family,
//!   `burst` multiplies a seeded subset of pairs far past their steady
//!   rate, and `hotspot` concentrates traffic on one hot DC per matrix;
//!   the service load generator and the flow simulator weight DC pairs
//!   by a family's mean ([`FamilySpec::mean_shape`], drawn with
//!   [`weighted_pick`]), indexed by [`pair_index`];
//! * a calibration step ([`MatrixFamily::build`]) that scales the base
//!   matrix so its maximum link load is a target fraction of the
//!   hose-provisioned capacity, making families comparable across
//!   regions;
//! * [`provision_robust`] — Algorithm 1's sweep with the family maximum
//!   as its load model in place of the hose max-flow: every duct is
//!   provisioned for the worst load any family matrix places on it in
//!   any failure scenario. It is the same function as the hose plan with
//!   a different per-pair-set load, so it shares the scenario engine's
//!   incremental-Dijkstra path cache, the pair-set memo, and the
//!   guarantee of bit-identical output for every thread count.
//!
//! Everything here is a pure function of its seed: the same
//! [`FamilySpec`] always produces the same matrices, so the robust
//! experiment artifacts are byte-reproducible.

use crate::engine::{self, ScenarioView};
use crate::goals::DesignGoals;
use crate::topology::{nominal_load, provision_with_threads, sweep, Provisioning};
use crate::workloads::FlowSizeDist;
use iris_fibermap::Region;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The three seeded matrix-family shapes.
///
/// Each kind has a *structural* layer that depends only on the spec's
/// `seed` (which pairs are burst-prone, each pair's diurnal phase, the
/// hotspot rotation order — properties of the workload that are stable
/// day to day) and a *shock* layer drawn per matrix (which prone pair
/// bursts today, today's amplitude, today's boost). [`FamilySpec::held_out`]
/// re-rolls only the shock layer, modeling "same network, different
/// day" surprise traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FamilyKind {
    /// Time-of-day shift: every pair's rate follows a triangle wave over
    /// the family with a structural per-pair phase, so different
    /// matrices peak on different pairs. Stays inside the hose envelope.
    Diurnal,
    /// Transient bursts: a structural ~25% of pairs are burst-prone;
    /// each matrix multiplies each prone pair, with probability ½, by
    /// 4–8x its steady rate — surprise traffic that can exceed the
    /// per-DC aggregates the hose model plans for.
    Burst,
    /// Skewed hotspot: each matrix concentrates traffic on one hot DC
    /// (boosting every pair that touches it, damping the rest), cycling
    /// through DCs in a structural order.
    Hotspot,
}

impl FamilyKind {
    /// The CLI/JSON name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FamilyKind::Diurnal => "diurnal",
            FamilyKind::Burst => "burst",
            FamilyKind::Hotspot => "hotspot",
        }
    }

    /// All kinds, in the canonical (CLI listing) order.
    #[must_use]
    pub fn all() -> [FamilyKind; 3] {
        [FamilyKind::Diurnal, FamilyKind::Burst, FamilyKind::Hotspot]
    }
}

impl FromStr for FamilyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "diurnal" => Ok(FamilyKind::Diurnal),
            "burst" => Ok(FamilyKind::Burst),
            "hotspot" => Ok(FamilyKind::Hotspot),
            other => Err(format!(
                "unknown matrix family '{other}' (expected diurnal, burst or hotspot)"
            )),
        }
    }
}

/// XOR-folded into a spec's shock salt to derive its held-out
/// (surprise) twin.
const HELD_OUT_SALT: u64 = 0x5EED_0F57_0B57_AC1E;

/// The most matrices a parsed [`FamilySpec`] may name: a family is built
/// whole ([`FamilySpec::shapes`]), so a command-line count must not demand
/// unbounded memory. The largest family the repository runs has 8.
pub const MAX_FAMILY_COUNT: usize = 1024;

/// A matrix-family specification: which shape, how many matrices, which
/// seed, and the calibration target.
///
/// The builder API round-trips through the CLI spec syntax
/// `KIND[:COUNT][@SEED]`:
///
/// ```
/// use iris_planner::workload::{FamilyKind, FamilySpec};
///
/// let spec = FamilySpec::new(FamilyKind::Burst, 6, 42).with_target_load(0.5);
/// assert_eq!(spec.to_string(), "burst:6@42");
/// assert_eq!(spec.target_max_link_load, 0.5);
///
/// let parsed: FamilySpec = "burst:6@42".parse().unwrap();
/// assert_eq!(parsed.kind, FamilyKind::Burst);
/// assert_eq!((parsed.count, parsed.seed), (6, 42));
///
/// // Shapes are a pure function of the spec: 6 matrices over 4 DCs,
/// // one rate per unordered pair.
/// let shapes = parsed.shapes(4);
/// assert_eq!(shapes.len(), 6);
/// assert!(shapes.iter().all(|m| m.len() == 6));
/// assert_eq!(shapes, parsed.shapes(4));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilySpec {
    /// Family shape.
    pub kind: FamilyKind,
    /// Matrices in the family.
    pub count: usize,
    /// Seed for the structural layer (base rates, burst-prone pairs,
    /// diurnal phases, hotspot order). The whole family is a pure
    /// function of `(seed, shock)`.
    pub seed: u64,
    /// Calibration target: the base matrix is scaled so its maximum
    /// nominal-route link load is this fraction of the hose-provisioned
    /// capacity on that link.
    pub target_max_link_load: f64,
    /// Salt mixed into the per-matrix *shock* draws only (which prone
    /// pair bursts, today's amplitude/boost). 0 by default; not part of
    /// the CLI spec syntax. [`FamilySpec::held_out`] flips it to produce
    /// surprise matrices with the same structure but fresh shocks.
    pub shock: u64,
}

impl FamilySpec {
    /// A spec with the default calibration target (0.6).
    #[must_use]
    pub fn new(kind: FamilyKind, count: usize, seed: u64) -> Self {
        Self {
            kind,
            count,
            seed,
            target_max_link_load: 0.6,
            shock: 0,
        }
    }

    /// Replace the calibration target (fraction of hose capacity the
    /// base matrix's hottest link is driven to).
    ///
    /// # Panics
    ///
    /// Panics unless `target` is positive and finite.
    #[must_use]
    pub fn with_target_load(mut self, target: f64) -> Self {
        assert!(
            target > 0.0 && target.is_finite(),
            "target max-link-load must be positive"
        );
        self.target_max_link_load = target;
        self
    }

    /// The held-out twin: same structural layer (same base rates,
    /// burst-prone pairs, phases, hotspot order — the workload's stable
    /// shape), fresh shock draws — the "surprise" matrices the robust
    /// experiment evaluates shed against. An involution: calling it
    /// twice returns the original spec.
    #[must_use]
    pub fn held_out(&self) -> Self {
        Self {
            shock: self.shock ^ HELD_OUT_SALT,
            ..self.clone()
        }
    }

    /// The un-calibrated family shapes over `n_dcs` DCs: one rate per
    /// unordered pair (triangular `(a, b)` ascending order, matching
    /// [`iris_fibermap::Region::dcs`] indices), per matrix. Units are
    /// relative offered Gbps from the flowgen base; [`MatrixFamily`]
    /// scales them, and the service load generator / flow simulator
    /// normalize them into pair-selection weights. Pure function of
    /// `(self, n_dcs)`.
    ///
    /// # Panics
    ///
    /// Panics if `n_dcs < 2` or `self.count == 0`.
    #[must_use]
    pub fn shapes(&self, n_dcs: usize) -> Vec<Vec<f64>> {
        assert!(n_dcs >= 2, "a matrix family needs at least two DCs");
        assert!(self.count > 0, "a matrix family needs at least one matrix");
        let base = self.base_gbps(n_dcs);
        (0..self.count)
            .map(|m| {
                // Shock layer: today's draws. Salted so `held_out()`
                // re-rolls them while the structural layer stands still.
                let mut shock_rng = StdRng::seed_from_u64(
                    self.seed
                        .wrapping_mul(0xA076_1D64_78BD_642F)
                        .wrapping_add((m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        ^ self.shock,
                );
                match self.kind {
                    FamilyKind::Diurnal => {
                        // Triangle wave (piecewise linear — no libm sin,
                        // so artifacts stay byte-stable): structural
                        // per-pair phase, matrix index = time of day,
                        // today's amplitude drawn per matrix.
                        let mut phase_rng = StdRng::seed_from_u64(self.seed ^ 0xD1A1);
                        let amplitude = shock_rng.random_range(0.35..0.45);
                        let t = m as f64 / self.count as f64;
                        base.iter()
                            .map(|&b| {
                                let phase: f64 = phase_rng.random();
                                let x = (t + phase).fract();
                                let wave = if x < 0.5 {
                                    4.0 * x - 1.0
                                } else {
                                    3.0 - 4.0 * x
                                };
                                b * (1.0 + amplitude * wave)
                            })
                            .collect()
                    }
                    FamilyKind::Burst => {
                        // Structural burst-prone set; per-matrix coin
                        // and magnitude per prone pair. The factor is
                        // drawn unconditionally to keep rng consumption
                        // independent of the outcomes.
                        let mut prone_rng = StdRng::seed_from_u64(self.seed ^ 0xB0_B5);
                        base.iter()
                            .map(|&b| {
                                let prone = prone_rng.random::<f64>() < 0.25;
                                let bursting = shock_rng.random_bool(0.5);
                                let factor = shock_rng.random_range(4.0..8.0);
                                if prone && bursting {
                                    b * factor
                                } else {
                                    b
                                }
                            })
                            .collect()
                    }
                    FamilyKind::Hotspot => {
                        // Structural DC order shared by the whole family,
                        // so `count >= n_dcs` covers every DC as a
                        // hotspot; today's boost drawn per matrix.
                        let mut order: Vec<usize> = (0..n_dcs).collect();
                        let mut order_rng = StdRng::seed_from_u64(self.seed ^ 0x07_5B07);
                        for i in (1..n_dcs).rev() {
                            order.swap(i, order_rng.random_range(0..i + 1));
                        }
                        let hot = order[m % n_dcs];
                        let boost = shock_rng.random_range(4.0..6.0);
                        (0..n_dcs)
                            .flat_map(|a| ((a + 1)..n_dcs).map(move |b| (a, b)))
                            .zip(&base)
                            .map(|((a, b), &x)| x * if a == hot || b == hot { boost } else { 0.5 })
                            .collect()
                    }
                }
            })
            .collect()
    }

    /// The family's mean shape over `n_dcs` DCs: per unordered pair, in
    /// [`FamilySpec::shapes`]' triangular order, the sum of the pair's
    /// rate over the matrices (in matrix order) divided by the count.
    /// The service load generator and `iris simd` weight DC pairs by it.
    ///
    /// # Panics
    ///
    /// As [`FamilySpec::shapes`].
    #[must_use]
    pub fn mean_shape(&self, n_dcs: usize) -> Vec<f64> {
        let shapes = self.shapes(n_dcs);
        (0..pair_count(n_dcs))
            .map(|i| shapes.iter().map(|m| m[i]).sum::<f64>() / shapes.len() as f64)
            .collect()
    }

    /// The flowgen base matrix: per pair, an offered rate in Gbps from
    /// sampled flow sizes and lognormal inter-arrivals, with a seeded
    /// per-pair log-rate so a few pairs dominate (heavy tail).
    fn base_gbps(&self, n_dcs: usize) -> Vec<f64> {
        let sizes = FlowSizeDist::dc_interconnect();
        (0..pair_count(n_dcs))
            .map(|p| {
                let mut rng = StdRng::seed_from_u64(
                    self.seed
                        .rotate_left(23)
                        .wrapping_add((p as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)),
                );
                // Per-pair mean log-gap spans ~e^6 in rate: heavy tail.
                let gap_mu = rng.random_range(-9.0..-3.0);
                offered_gbps(&sizes, gap_mu, rng.random::<u64>(), 64)
            })
            .collect()
    }
}

/// Offered Gbps of one DC pair's seeded flow generator: per flow a size,
/// then a lognormal gap `exp(gap_mu + N(0, 1))`; total bits over total
/// time.
fn offered_gbps(sizes: &FlowSizeDist, gap_mu: f64, seed: u64, flows: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes = 0.0f64;
    let mut seconds = 0.0f64;
    for _ in 0..flows.max(1) {
        bytes += sizes.sample(&mut rng);
        seconds += (gap_mu + standard_normal(&mut rng)).exp();
    }
    bytes * 8.0 / seconds.max(1e-12) / 1e9
}

/// One standard-normal draw via Box–Muller (the vendored `rand` stub has
/// no normal distribution).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1 = 1.0 - rng.random::<f64>(); // (0, 1]: ln never sees 0
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draw an index in `0..weights.len()` proportionally to `weights`,
/// which must be non-negative and sum to `total > 0`.
pub fn weighted_pick<R: Rng + ?Sized>(rng: &mut R, weights: &[f64], total: f64) -> usize {
    let mut roll: f64 = rng.random_range(0.0..total);
    for (idx, w) in weights.iter().enumerate() {
        roll -= w;
        if roll < 0.0 {
            return idx;
        }
    }
    weights.len() - 1
}

impl fmt::Display for FamilySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}@{}", self.kind.name(), self.count, self.seed)
    }
}

impl FromStr for FamilySpec {
    type Err = String;

    /// Parse `KIND[:COUNT][@SEED]`, e.g. `burst`, `diurnal:8`,
    /// `hotspot:8@42`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let number = |what: &str, text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("matrix family '{s}': bad {what} '{text}'"))
        };
        let (head, seed) = match s.split_once('@') {
            Some((head, seed)) => (head, number("seed", seed)?),
            None => (s, 42),
        };
        let (kind, count) = match head.split_once(':') {
            Some((kind, count)) => (kind, number("count", count)?),
            None => (head, 8),
        };
        if !(1..=MAX_FAMILY_COUNT as u64).contains(&count) {
            return Err(format!(
                "matrix family '{s}': count {count} is outside 1..={MAX_FAMILY_COUNT}"
            ));
        }
        Ok(FamilySpec::new(kind.parse()?, count as usize, seed))
    }
}

/// A calibrated family of concrete traffic matrices over one region, in
/// wavelengths.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixFamily {
    /// The spec this family was built from.
    pub spec: FamilySpec,
    n_dcs: usize,
    /// `matrices[m][i][j]` — demand of DC pair `(i, j)` in wavelengths;
    /// only `i < j` entries are populated.
    matrices: Vec<Vec<Vec<f64>>>,
}

impl MatrixFamily {
    /// Build the family for a region: generate the seeded shapes, then
    /// scale them so the *base* matrix's maximum nominal-route link load
    /// is `spec.target_max_link_load` of the hose-provisioned (cut
    /// tolerance 0) capacity on that link. Family modulation rides on
    /// top, so burst and hotspot matrices can exceed the hose envelope —
    /// that is the point.
    ///
    /// # Panics
    ///
    /// Panics if the region has fewer than two DCs or no feasible DC
    /// pair routes any traffic.
    #[must_use]
    pub fn build(region: &Region, goals: &DesignGoals, spec: &FamilySpec) -> Self {
        let n = region.dcs.len();
        let shapes = spec.shapes(n);
        let base = spec.base_gbps(n);

        // Calibration reference: nominal routes + hose capacities.
        let goals0 = DesignGoals {
            max_cuts: 0,
            ..goals.clone()
        };
        let prov0 = provision_with_threads(region, &goals0, 1);
        let (_, load) = nominal_load(region, &goals0, |a, b| base[pair_index(n, a, b)]);
        let ratio = load
            .iter()
            .zip(&prov0.edge_capacity_wl)
            .filter(|&(_, &c)| c > 0.0)
            .map(|(&l, &c)| l / c)
            .fold(0.0f64, f64::max);
        assert!(
            ratio > 0.0,
            "matrix family calibration: no feasible DC pair carries traffic"
        );
        let scale = spec.target_max_link_load / ratio;

        let matrices = shapes
            .iter()
            .map(|shape| {
                let mut demands = vec![vec![0.0f64; n]; n];
                let mut p = 0;
                for (i, row) in demands.iter_mut().enumerate() {
                    for cell in row.iter_mut().skip(i + 1) {
                        *cell = shape[p] * scale;
                        p += 1;
                    }
                }
                demands
            })
            .collect();
        Self {
            spec: spec.clone(),
            n_dcs: n,
            matrices,
        }
    }

    /// The matrices, as `demands[i][j]` wavelength grids (`i < j`
    /// populated) — the shape [`crate::topology::supports_matrix`]
    /// takes.
    #[must_use]
    pub fn matrices(&self) -> &[Vec<Vec<f64>>] {
        &self.matrices
    }

    /// Number of matrices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.matrices.len()
    }

    /// Whether the family is empty (it never is, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.matrices.is_empty()
    }

    /// Number of DCs the matrices cover.
    #[must_use]
    pub fn n_dcs(&self) -> usize {
        self.n_dcs
    }

    /// The worst per-DC aggregate demand across the family, as a
    /// fraction of that DC's hose capacity. Values above 1 mean the
    /// family escapes the hose envelope — hose provisioning will shed
    /// such matrices.
    #[must_use]
    pub fn peak_dc_load_ratio(&self, region: &Region) -> f64 {
        let n = self.n_dcs;
        let mut worst = 0.0f64;
        for demands in &self.matrices {
            for dc in 0..n {
                let total: f64 = (0..n)
                    .filter(|&o| o != dc)
                    .map(|o| demands[dc.min(o)][dc.max(o)])
                    .sum();
                let cap = region.capacity_wavelengths(dc) as f64;
                if cap > 0.0 {
                    worst = worst.max(total / cap);
                }
            }
        }
        worst
    }
}

/// Triangular index of DC pair `(i, j)`, `i < j < n`: the pair order of
/// [`FamilySpec::shapes`], the simulator's matrices and routes, and the
/// [`engine::ScenarioEngine`]'s slots. Panics unless `i < j < n`.
#[inline]
#[must_use]
pub fn pair_index(n: usize, i: usize, j: usize) -> usize {
    assert!(i < j && j < n, "need i < j < n");
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Number of unordered pairs among `n` DCs.
#[inline]
#[must_use]
pub fn pair_count(n: usize) -> usize {
    n * (n - 1) / 2
}

/// Robust Algorithm 1 with the default thread count
/// ([`engine::thread_count`]).
///
/// Instead of the hose worst case, every duct is provisioned for the
/// worst load any matrix in `family` places on it across all failure
/// scenarios — min-cost capacity feasible for *every* family matrix.
///
/// # Panics
///
/// Panics if `family` was built for a different DC count than `region`.
#[must_use]
pub fn provision_robust(
    region: &Region,
    goals: &DesignGoals,
    family: &MatrixFamily,
) -> Provisioning {
    provision_robust_with_threads(region, goals, family, engine::thread_count())
}

/// Robust Algorithm 1 with an explicit thread count: the same sweep as
/// [`provision_with_threads`] under the family load model — a duct's load
/// is the *family maximum* of the per-matrix demand sums over the pairs
/// crossing it. **Bit-identical for every thread count.**
///
/// # Panics
///
/// Panics if `family` was built for a different DC count than `region`,
/// or if a worker thread panics.
#[must_use]
pub fn provision_robust_with_threads(
    region: &Region,
    goals: &DesignGoals,
    family: &MatrixFamily,
    threads: usize,
) -> Provisioning {
    let telemetry = iris_telemetry::global();
    let wall = iris_telemetry::Span::enter_ms(telemetry.histogram("iris_planner_robust_wall_ms"));
    let n = region.dcs.len();
    assert_eq!(
        family.n_dcs, n,
        "matrix family covers {} DCs but the region has {n}",
        family.n_dcs
    );

    // Flatten each matrix into engine pair-index order once, shared by
    // every worker.
    let demands_by_pair: Vec<Vec<f64>> = family
        .matrices
        .iter()
        .map(|demands| {
            let mut flat = Vec::with_capacity(n * n.saturating_sub(1) / 2);
            for (i, row) in demands.iter().enumerate() {
                flat.extend_from_slice(&row[i + 1..]);
            }
            flat
        })
        .collect();
    let demands_by_pair = demands_by_pair.as_slice();

    let memo_counters = [
        "iris_planner_robust_maxload_total",
        "iris_planner_robust_memo_hits_total",
    ];
    let (prov, _) = sweep(region, goals, threads, Some(memo_counters), || {
        move |_: ScenarioView<'_>, pairs: &[u32]| {
            // Ascending pair-index sum per matrix: a fixed f64 addition
            // order, so the result (and therefore the whole sweep) is
            // bit-identical however scenarios are chunked.
            demands_by_pair
                .iter()
                .map(|d| pairs.iter().map(|&i| d[i as usize]).sum::<f64>())
                .fold(0.0f64, f64::max)
        }
    });

    telemetry
        .counter("iris_planner_robust_scenarios_total")
        .add(prov.scenarios_examined);
    wall.finish();
    prov
}

/// The fraction of offered traffic a provisioning sheds under a specific
/// matrix, routed over nominal shortest paths.
///
/// Every overloaded duct scales the pairs crossing it down to fit; a
/// pair's delivered share is the worst scale along its path, and demand
/// on unreachable pairs is shed outright. 0 means the matrix fits
/// entirely; the hose-vs-robust experiment reports this for held-out
/// (surprise) matrices.
///
/// `demands[i][j]` is in wavelengths; only `i < j` entries are read.
#[must_use]
pub fn shed_fraction(
    region: &Region,
    goals: &DesignGoals,
    prov: &Provisioning,
    demands: &[Vec<f64>],
) -> f64 {
    let (paths, load) = nominal_load(region, goals, |a, b| demands[a][b]);
    let scale: Vec<f64> = load
        .iter()
        .zip(&prov.edge_capacity_wl)
        .map(|(&l, &c)| if l > c { c / l } else { 1.0 })
        .collect();
    let mut delivered = 0.0f64;
    for p in &paths {
        let worst = p.edges.iter().map(|&e| scale[e]).fold(1.0f64, f64::min);
        delivered += demands[p.a][p.b] * worst;
    }
    let n = region.dcs.len();
    let offered: f64 = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .map(|(i, j)| demands[i][j])
        .sum();
    if offered <= 0.0 {
        0.0
    } else {
        1.0 - delivered / offered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::scenario_paths;
    use crate::topology::{provision, supports_matrix};
    use iris_fibermap::{synth, MetroParams, PlacementParams};

    fn small_region(n_dcs: usize) -> Region {
        synth::place_dcs(
            synth::generate_metro(&MetroParams {
                n_huts: 10,
                ..MetroParams::default()
            }),
            &PlacementParams {
                n_dcs,
                ..PlacementParams::default()
            },
        )
    }

    #[test]
    fn ecdf_quantile_is_monotone_and_bounded() {
        let e = FlowSizeDist::dc_interconnect();
        let mut last = 0.0;
        for i in 0..=100 {
            let q = e.quantile(i as f64 / 100.0);
            assert!(q >= last, "quantile must be monotone");
            last = q;
        }
        assert_eq!(e.quantile(0.0), 500.0);
        assert_eq!(e.quantile(1.0), 100_000_000.0);
        let mean = e.mean_bytes();
        assert!(mean > 500.0 && mean < 100_000_000.0, "mean {mean}");
    }

    #[test]
    fn flowgen_rate_is_seeded_and_scales_with_gap() {
        let sizes = FlowSizeDist::dc_interconnect();
        let fast = |seed| offered_gbps(&sizes, -6.0, seed, 256);
        let slow = |seed| offered_gbps(&sizes, -3.0, seed, 256);
        assert_eq!(fast(7), fast(7));
        assert_ne!(fast(7), fast(8));
        assert!(fast(7) > slow(7));
    }

    #[test]
    fn each_family_is_a_pure_function_of_its_seed() {
        for kind in FamilyKind::all() {
            let spec = FamilySpec::new(kind, 6, 42);
            assert_eq!(
                spec.shapes(5),
                spec.shapes(5),
                "{} shapes must be deterministic",
                kind.name()
            );
            let reseeded = FamilySpec::new(kind, 6, 43);
            assert_ne!(
                spec.shapes(5),
                reseeded.shapes(5),
                "{} shapes must depend on the seed",
                kind.name()
            );
            // And the calibrated matrices inherit both properties.
            let region = small_region(4);
            let goals = DesignGoals::with_cuts(0);
            let a = MatrixFamily::build(&region, &goals, &spec);
            let b = MatrixFamily::build(&region, &goals, &spec);
            assert_eq!(a, b, "{} family must be deterministic", kind.name());
            assert_ne!(
                a,
                MatrixFamily::build(&region, &goals, &reseeded),
                "{} family must depend on the seed",
                kind.name()
            );
        }
    }

    #[test]
    fn held_out_spec_rerolls_shocks_but_keeps_structure() {
        let spec = FamilySpec::new(FamilyKind::Burst, 8, 42);
        let held = spec.held_out();
        assert_eq!(held.kind, spec.kind);
        assert_eq!(held.count, spec.count);
        assert_eq!(held.seed, spec.seed, "structural seed is shared");
        assert_ne!(held.shock, spec.shock);
        assert_eq!(held.held_out(), spec, "held-out is an involution");
        assert_ne!(held.shapes(5), spec.shapes(5), "shocks must re-roll");
        // Diurnal phases are structural: with the amplitude the only
        // shock, held-out diurnal matrices stay close to the training
        // ones (same peaks, different heights).
        let diurnal = FamilySpec::new(FamilyKind::Diurnal, 4, 42);
        let a = diurnal.shapes(5);
        let b = diurnal.held_out().shapes(5);
        for (ma, mb) in a.iter().zip(&b) {
            for (&x, &y) in ma.iter().zip(mb) {
                assert!((x - y).abs() / x < 0.2, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn spec_parsing_round_trips_and_rejects_junk() {
        for s in ["diurnal:8@42", "burst:6@7", "hotspot:1@0"] {
            let spec: FamilySpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
        }
        let defaulted: FamilySpec = "burst".parse().unwrap();
        assert_eq!((defaulted.count, defaulted.seed), (8, 42));
        assert!("ripple:4@1".parse::<FamilySpec>().is_err());
        assert!("burst:zero".parse::<FamilySpec>().is_err());
        assert!("burst:0".parse::<FamilySpec>().is_err());
        assert!("burst:4@soon".parse::<FamilySpec>().is_err());
        let most = format!("hotspot:{MAX_FAMILY_COUNT}@1");
        assert_eq!(most.parse::<FamilySpec>().unwrap().count, MAX_FAMILY_COUNT);
        let err = "burst:1000000000000@42".parse::<FamilySpec>().unwrap_err();
        assert!(
            err.contains(&format!("outside 1..={MAX_FAMILY_COUNT}")),
            "{err}"
        );
    }

    #[test]
    fn calibration_hits_the_target_max_link_load() {
        let region = small_region(5);
        let goals = DesignGoals::with_cuts(0);
        let spec = FamilySpec::new(FamilyKind::Diurnal, 4, 42).with_target_load(0.5);
        let family = MatrixFamily::build(&region, &goals, &spec);

        // Re-derive the base matrix's max link-load ratio: it must be
        // exactly the target (the family shapes then modulate around it).
        let base = spec.base_gbps(5);
        let shapes = spec.shapes(5);
        let scale_probe = family.matrices()[0][0][1] / shapes[0][0];
        let prov0 = provision(&region, &goals);
        let (paths, _) = scenario_paths(&region, &goals, &[]);
        let mut load = vec![0.0f64; region.map.graph().edge_count()];
        for p in &paths {
            let d = base[pair_index(5, p.a, p.b)] * scale_probe;
            for &e in &p.edges {
                load[e] += d;
            }
        }
        let ratio = load
            .iter()
            .zip(&prov0.edge_capacity_wl)
            .filter(|&(_, &c)| c > 0.0)
            .map(|(&l, &c)| l / c)
            .fold(0.0f64, f64::max);
        assert!((ratio - 0.5).abs() < 1e-9, "calibrated ratio {ratio}");
    }

    #[test]
    fn burst_family_escapes_the_hose_envelope() {
        let region = small_region(5);
        let goals = DesignGoals::with_cuts(0);
        let burst =
            MatrixFamily::build(&region, &goals, &FamilySpec::new(FamilyKind::Burst, 8, 42));
        let diurnal = MatrixFamily::build(
            &region,
            &goals,
            &FamilySpec::new(FamilyKind::Diurnal, 8, 42),
        );
        assert!(
            burst.peak_dc_load_ratio(&region) > diurnal.peak_dc_load_ratio(&region),
            "bursts must push DC aggregates harder than diurnal shifts"
        );
    }

    #[test]
    fn robust_provisioning_supports_every_training_matrix() {
        let region = small_region(5);
        for kind in FamilyKind::all() {
            let goals = DesignGoals::with_cuts(1);
            let spec = FamilySpec::new(kind, 5, 42);
            let family = MatrixFamily::build(&region, &goals, &spec);
            let prov = provision_robust(&region, &goals, &family);
            for (m, demands) in family.matrices().iter().enumerate() {
                assert!(
                    supports_matrix(&region, &goals, &prov, demands),
                    "{} matrix {m} not supported by its own robust plan",
                    kind.name()
                );
                assert!(
                    (shed_fraction(&region, &goals, &prov, demands) - 0.0).abs() < 1e-12,
                    "{} matrix {m} sheds under its own robust plan",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn robust_provision_is_bit_identical_across_threads() {
        let region = small_region(4);
        let goals = DesignGoals::with_cuts(1);
        let family =
            MatrixFamily::build(&region, &goals, &FamilySpec::new(FamilyKind::Hotspot, 6, 7));
        let seq = provision_robust_with_threads(&region, &goals, &family, 1);
        for threads in [2, 3, 7] {
            let par = provision_robust_with_threads(&region, &goals, &family, threads);
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
    fn hose_sheds_surprise_bursts_robust_sheds_less() {
        let region = small_region(5);
        let goals = DesignGoals::with_cuts(1);
        // At 0.9 the burst multipliers push DC aggregates past the hose
        // envelope (at the default 0.6 this region absorbs them).
        let spec = FamilySpec::new(FamilyKind::Burst, 8, 42).with_target_load(0.9);
        let family = MatrixFamily::build(&region, &goals, &spec);
        let surprise = MatrixFamily::build(&region, &goals, &spec.held_out());

        let hose = provision(&region, &goals);
        let robust = provision_robust(&region, &goals, &family);
        let mean_shed = |prov: &Provisioning| {
            surprise
                .matrices()
                .iter()
                .map(|m| shed_fraction(&region, &goals, prov, m))
                .sum::<f64>()
                / surprise.len() as f64
        };
        let (hose_shed, robust_shed) = (mean_shed(&hose), mean_shed(&robust));
        assert!(
            hose_shed > 0.0,
            "surprise bursts must escape the hose envelope (shed {hose_shed})"
        );
        assert!(
            robust_shed < hose_shed,
            "robust plan must shed less than hose under surprise bursts \
             ({robust_shed} vs {hose_shed})"
        );
    }

    #[test]
    fn shed_fraction_is_zero_within_capacity_and_positive_beyond() {
        let region = small_region(4);
        let goals = DesignGoals::with_cuts(0);
        let prov = provision(&region, &goals);
        let n = region.dcs.len();
        let mut small = vec![vec![0.0; n]; n];
        small[0][1] = 1.0;
        assert_eq!(shed_fraction(&region, &goals, &prov, &small), 0.0);
        let mut huge = vec![vec![0.0; n]; n];
        huge[0][1] = 1e9;
        assert!(shed_fraction(&region, &goals, &prov, &huge) > 0.9);
        let empty = vec![vec![0.0; n]; n];
        assert_eq!(shed_fraction(&region, &goals, &prov, &empty), 0.0);
    }
}
