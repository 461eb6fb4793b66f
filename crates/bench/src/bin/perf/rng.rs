//! The benchmark's own seeded generator. Every input — capacities,
//! request mix, pair choice, Poisson schedules, traffic matrix, the
//! simulator's seed — descends from `--seed` through [`derive()`], so the
//! program under test only ever sees generated inputs.

/// SplitMix64: tiny, well mixed, and stable across toolchains (the
/// vendored `rand` stand-in makes no such promise).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias at these ranges is far below anything
        // a benchmark input could notice.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// A child seed for one named purpose: mixes the run seed with an FNV-1a
/// hash of `tag` and a stream index, so adding a consumer never shifts
/// the draws of another.
pub fn derive(seed: u64, tag: &str, index: u64) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    Rng::new(seed ^ h.rotate_left(17) ^ index.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Arrival offsets (ns from block start, ascending) of `count` Poisson
/// arrivals at `rate_per_s`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, count: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mean_ns = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            t += rng.exp(mean_ns);
            t as u64
        })
        .collect()
}

/// Order-sensitive 64-bit digest (FNV-1a over little-endian words) for
/// the `output_digest` the checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 50_000.0, 1000);
        assert_eq!(a, poisson_schedule(7, 50_000.0, 1000));
        assert_ne!(a, poisson_schedule(8, 50_000.0, 1000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 1000 arrivals at 50 k/s span about 20 ms.
        let span_ms = *a.last().unwrap() as f64 / 1e6;
        assert!((15.0..25.0).contains(&span_ms), "span {span_ms} ms");
    }

    #[test]
    fn derived_streams_are_independent_of_each_other() {
        assert_eq!(derive(1, "mix", 0), derive(1, "mix", 0));
        assert_ne!(derive(1, "mix", 0), derive(1, "pairs", 0));
        assert_ne!(derive(1, "mix", 0), derive(1, "mix", 1));
        assert_ne!(derive(1, "mix", 0), derive(2, "mix", 0));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(3);
        assert!((0..10_000).all(|_| r.below(7) < 7));
    }
}
