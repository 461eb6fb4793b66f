//! Noise control: percentiles inside a block, medians across blocks.
//!
//! A timed phase is a sequence of blocks of a fixed operation count.
//! Every metric is computed per block; the reported value is the median
//! over blocks, with `(p75 - p25) / median` across blocks beside it.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample of `n` supports: the higher of p90 and
/// p95 that still has at least ten samples beyond it, `None` below 100
/// samples. The ladder stops at p95 however many samples there are: on
/// the reference box the p99 of durable writes moves by 0.4 between the
/// host's quiet and noisy phases (fsync stalls), more than any bound
/// allows, while their p95 moves by 0.1; the p99s are per-layer metrics.
pub fn supported_tail(n: usize) -> Option<(&'static str, f64)> {
    [("p95", 0.95), ("p90", 0.90)]
        .into_iter()
        .find(|&(_, q)| n - ((q * n as f64).ceil() as usize).min(n) >= 10)
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Linear-interpolation quantile (the "inclusive" method), used only for
/// the spread across blocks where counts are small.
fn quantile_interpolated(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A metric reduced over blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over blocks.
    pub value: f64,
    /// `(p75 - p25) / median` over blocks (0 for a single block).
    pub spread: f64,
    /// Blocks reduced.
    pub samples: usize,
}

/// Median over blocks and the relative interquartile spread.
pub fn summarize(per_block: &[f64]) -> Summary {
    let value = median(per_block);
    let mut v = per_block.to_vec();
    v.sort_by(f64::total_cmp);
    let iqr = quantile_interpolated(&v, 0.75) - quantile_interpolated(&v, 0.25);
    Summary {
        value,
        spread: if value == 0.0 { 0.0 } else { iqr / value.abs() },
        samples: per_block.len(),
    }
}

/// p50 and supported tail of one block's latencies (sorts in place).
/// Without a supported tail percentile the tail is the median itself.
pub fn block_latency(lat: &mut [f64]) -> (f64, f64, &'static str) {
    lat.sort_by(f64::total_cmp);
    let p50 = percentile_sorted(lat, 0.5);
    match supported_tail(lat.len()) {
        Some((label, q)) => (p50, percentile_sorted(lat, q), label),
        None => (p50, p50, "p50"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(1), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(("p90", 0.90)));
        assert_eq!(supported_tail(199), Some(("p90", 0.90)));
        assert_eq!(supported_tail(200), Some(("p95", 0.95)));
        // The 240-plan sweep block: 12 samples beyond p95.
        assert_eq!(supported_tail(240), Some(("p95", 0.95)));
        assert_eq!(supported_tail(1_500_000), Some(("p95", 0.95)));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 120.0);
        assert_eq!(percentile_sorted(&v, 0.95), 228.0);
        assert_eq!(percentile_sorted(&v, 1.0), 240.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_blocks_and_spread() {
        let s = summarize(&[10.0, 12.0, 11.0, 30.0, 9.0]);
        assert_eq!(s.value, 11.0);
        assert_eq!(s.samples, 5);
        // Quartiles of {9,10,11,12,30} are 10 and 12.
        assert!((s.spread - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(summarize(&[5.0]).spread, 0.0);
    }

    #[test]
    fn block_latency_falls_back_to_the_median_for_small_blocks() {
        let mut one = [3.0];
        assert_eq!(block_latency(&mut one), (3.0, 3.0, "p50"));
        let mut many: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(block_latency(&mut many), (500.0, 950.0, "p95"));
    }
}
