//! Integration tests for iris-telemetry: histogram quantiles against a
//! sorted-vector oracle, counters under concurrent increments, and
//! snapshot JSON round-tripping.

use iris_telemetry::{labeled, Histogram, Registry, Span};
use std::sync::Arc;
use std::thread;

/// Deterministic pseudo-random stream for oracle inputs (SplitMix64).
struct Stream(u64);

impl Stream {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The oracle: exact quantile of a sorted sample vector (nearest-rank,
/// matching the histogram's ceil(q·n) convention).
fn oracle_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
    sorted[rank - 1]
}

#[test]
fn histogram_quantiles_match_sorted_vector_oracle() {
    // Log-uniform samples over six decades — the histogram's natural
    // worst case for absolute error, exercising many buckets.
    let mut stream = Stream(7);
    let h = Histogram::new();
    let mut samples: Vec<f64> = (0..10_000)
        .map(|_| 10f64.powf(stream.unit() * 6.0 - 3.0))
        .collect();
    for &s in &samples {
        h.record(s);
    }
    samples.sort_by(f64::total_cmp);

    let tolerance = Histogram::relative_error(); // one bucket width
    for q in [0.01, 0.10, 0.25, 0.50, 0.90, 0.99, 0.999] {
        let exact = oracle_quantile(&samples, q);
        let est = h.quantile(q).expect("non-empty");
        let rel = (est - exact).abs() / exact;
        assert!(
            rel <= tolerance,
            "q={q}: est={est} exact={exact} rel={rel} tol={tolerance}"
        );
    }
}

#[test]
fn histogram_count_sum_and_extremes_are_exact() {
    let h = Histogram::new();
    let values = [0.25, 1.0, 2.0, 4.0, 8.5];
    for v in values {
        h.record(v);
    }
    assert_eq!(h.count(), 5);
    assert!((h.sum() - values.iter().sum::<f64>()).abs() < 1e-9);
    assert_eq!(h.min(), Some(0.25));
    assert_eq!(h.max(), Some(8.5));
}

#[test]
fn counters_are_exact_under_concurrent_increments() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;

    let registry = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                // Every thread resolves the same name — exercises the
                // get-or-create race as well as the increment path.
                let c = registry.counter("iris_test_contended_total");
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("no panics");
    }
    assert_eq!(
        registry.snapshot().counters["iris_test_contended_total"],
        THREADS as u64 * PER_THREAD
    );
}

#[test]
fn histograms_lose_no_samples_under_concurrent_recording() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 20_000;

    let h = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                let mut stream = Stream(t as u64);
                for _ in 0..PER_THREAD {
                    h.record(stream.unit() + 0.5);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("no panics");
    }
    assert_eq!(h.count(), (THREADS * PER_THREAD) as u64);
    let mean = h.mean();
    assert!((0.9..1.1).contains(&mean), "mean={mean}");
}

#[test]
fn snapshot_round_trips_through_json() {
    let registry = Registry::new();
    registry.counter("iris_simnet_events_total").add(1234);
    registry.gauge("iris_simnet_active_flows_peak").set(-7);
    let h = registry.histogram(&labeled("iris_control_phase_ms", "phase", "drain"));
    let mut stream = Stream(3);
    for _ in 0..500 {
        h.record(stream.unit() * 30.0 + 1.0);
    }

    let snapshot = registry.snapshot();
    let json = snapshot.to_json();
    let text = serde_json::to_string_pretty(&json).expect("serializable");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("parseable");
    let sections: Vec<&str> = parsed
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(sections, ["counters", "gauges", "histograms"]);
    assert_eq!(
        parsed["counters"]["iris_simnet_events_total"].as_u64(),
        Some(1234)
    );
    assert_eq!(
        parsed["gauges"]["iris_simnet_active_flows_peak"].as_i64(),
        Some(-7)
    );
    let (name, summary) = snapshot.histograms.iter().next().expect("one histogram");
    let entry = &parsed["histograms"][name.as_str()];
    assert_eq!(entry["count"].as_u64(), Some(500));
    let fields = [
        ("sum", summary.sum),
        ("mean", summary.mean),
        ("min", summary.min),
        ("max", summary.max),
        ("p50", summary.p50),
        ("p90", summary.p90),
        ("p99", summary.p99),
    ];
    for (field, value) in fields {
        assert_eq!(entry[field].as_f64(), Some(value), "{field}");
    }
    let buckets = entry["buckets"].as_array().expect("bucket pairs");
    let pairs = buckets.iter().map(|pair| {
        let bound = pair[0].as_f64().expect("an upper bound");
        (bound, pair[1].as_u64().expect("a cumulative count"))
    });
    assert_eq!(pairs.collect::<Vec<_>>(), summary.buckets);
}

#[test]
fn span_timing_lands_in_the_named_histogram() {
    let registry = Registry::new();
    {
        let _span = Span::enter_ms(registry.histogram("iris_test_span_ms"));
        std::hint::black_box(());
    }
    let snapshot = registry.snapshot();
    let summary = &snapshot.histograms["iris_test_span_ms"];
    assert_eq!(summary.count, 1);
    assert!(summary.p99 >= 0.0);
}
