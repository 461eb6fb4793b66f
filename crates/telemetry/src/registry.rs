//! The process-global metric registry and its snapshot exporters.

use crate::{read_lock, write_lock, Counter, Gauge, Histogram};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Most code uses the process-global
/// [`global`] registry; tests can build private ones.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(Metric::Counter(c)) = read_lock(&self.metrics).get(name) {
            return Arc::clone(c);
        }
        let mut metrics = write_lock(&self.metrics);
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric '{name}' is not a counter"),
        }
    }

    /// Get or create the gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(Metric::Gauge(g)) = read_lock(&self.metrics).get(name) {
            return Arc::clone(g);
        }
        let mut metrics = write_lock(&self.metrics);
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric '{name}' is not a gauge"),
        }
    }

    /// Get or create the histogram named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(Metric::Histogram(h)) = read_lock(&self.metrics).get(name) {
            return Arc::clone(h);
        }
        let mut metrics = write_lock(&self.metrics);
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric '{name}' is not a histogram"),
        }
    }

    /// A point-in-time copy of every metric's value.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let metrics = read_lock(&self.metrics);
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    histograms.insert(
                        name.clone(),
                        HistogramSummary {
                            count: h.count(),
                            sum: h.sum(),
                            mean: h.mean(),
                            min: h.min().unwrap_or(0.0),
                            max: h.max().unwrap_or(0.0),
                            p50: h.quantile(0.50).unwrap_or(0.0),
                            p90: h.quantile(0.90).unwrap_or(0.0),
                            p99: h.quantile(0.99).unwrap_or(0.0),
                            buckets: h.cumulative_buckets(),
                        },
                    );
                }
            }
        }
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Summary statistics exported for one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of finite samples.
    pub sum: f64,
    /// Mean of finite samples.
    pub mean: f64,
    /// Smallest finite sample (0 when empty).
    pub min: f64,
    /// Largest finite sample (0 when empty).
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Occupied finite buckets as `(upper_bound, cumulative_count)`,
    /// ascending — the source of the Prometheus `_bucket` series. The
    /// implicit `+Inf` bucket equals [`HistogramSummary::count`].
    pub buckets: Vec<(f64, u64)>,
}

/// A point-in-time copy of a registry's metrics, exportable as JSON or
/// Prometheus text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// The snapshot as a JSON value (the sidecar/file format).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let counters: Vec<(String, Value)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), json!(*v)))
            .collect();
        let gauges: Vec<(String, Value)> = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), json!(*v)))
            .collect();
        let histograms: Vec<(String, Value)> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    json!({
                        "count": h.count,
                        "sum": h.sum,
                        "mean": h.mean,
                        "min": h.min,
                        "max": h.max,
                        "p50": h.p50,
                        "p90": h.p90,
                        "p99": h.p99,
                        "buckets": h.buckets,
                    }),
                )
            })
            .collect();
        Value::Object(vec![
            ("counters".to_owned(), Value::Object(counters)),
            ("gauges".to_owned(), Value::Object(gauges)),
            ("histograms".to_owned(), Value::Object(histograms)),
        ])
    }

    /// The snapshot in Prometheus text exposition format. Histograms
    /// are exported as real cumulative `_bucket`/`_sum`/`_count`
    /// series under one `# TYPE … histogram` header (empty buckets
    /// elided, `le="+Inf"` always present), so PromQL
    /// `histogram_quantile()` works on them. A `# TYPE` line is
    /// emitted once per metric family even when a label fold
    /// (`labeled`) produced several series of the same base name.
    #[must_use]
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_base = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let base = base_name(name);
            if base != last_base {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_base = base.to_owned();
            }
        };
        for (name, v) in &self.counters {
            type_line(&mut out, name, "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            type_line(&mut out, name, "gauge");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            type_line(&mut out, name, "histogram");
            let base = base_name(name);
            let series = |suffix: &str, extra: Option<&str>| {
                merge_suffix_and_label(name, base, suffix, extra)
            };
            for (upper, cumulative) in &h.buckets {
                out.push_str(&format!(
                    "{} {cumulative}\n",
                    series("_bucket", Some(&format!("le=\"{upper}\"")))
                ));
            }
            out.push_str(&format!(
                "{} {}\n",
                series("_bucket", Some("le=\"+Inf\"")),
                h.count
            ));
            out.push_str(&format!("{} {}\n", series("_sum", None), h.sum));
            out.push_str(&format!("{} {}\n", series("_count", None), h.count));
        }
        out
    }

    /// Whether no metrics were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Render the snapshot for a file at `path`: Prometheus text
    /// exposition for `.prom`/`.txt` paths, pretty JSON (with a trailing
    /// newline) otherwise. This is the single dispatch point shared by
    /// `--telemetry` on every CLI subcommand, the bench sidecars, and
    /// the service/loadgen exports.
    ///
    /// # Errors
    ///
    /// Returns a message if the snapshot cannot be serialized.
    pub fn render_for_path(&self, path: &str) -> Result<String, String> {
        if path.ends_with(".prom") || path.ends_with(".txt") {
            Ok(self.to_prometheus_text())
        } else {
            serde_json::to_string_pretty(&self.to_json())
                .map(|mut s| {
                    s.push('\n');
                    s
                })
                .map_err(|e| format!("cannot serialize snapshot: {e}"))
        }
    }

    /// Write the snapshot to `path` via [`Snapshot::render_for_path`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the path on serialization or I/O failure.
    pub fn write_to_file(&self, path: &str) -> Result<(), String> {
        let text = self
            .render_for_path(path)
            .map_err(|e| format!("{path}: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

/// Strip a folded `{label="…"}` suffix, if any.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Build `{base}{suffix}{labels}` where the labels combine an
/// optional extra pair (e.g. `le="0.5"`) with any labels folded into
/// `name` by [`crate::labeled`].
fn merge_suffix_and_label(name: &str, base: &str, suffix: &str, extra: Option<&str>) -> String {
    let folded = name
        .split_once('{')
        .map(|(_, rest)| rest.trim_end_matches('}'));
    match (extra, folded) {
        (Some(extra), Some(folded)) => format!("{base}{suffix}{{{extra},{folded}}}"),
        (Some(extra), None) => format!("{base}{suffix}{{{extra}}}"),
        (None, Some(folded)) => format!("{base}{suffix}{{{folded}}}"),
        (None, None) => format!("{base}{suffix}"),
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry all Iris crates record into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_returns_same_metric_for_same_name() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").add(3);
        assert_eq!(r.snapshot().counters["a"], 5);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("x");
        r.counter("x");
    }

    #[test]
    fn render_for_path_dispatches_on_extension() {
        let r = Registry::new();
        r.counter("iris_test_total").add(3);
        let snap = r.snapshot();
        let prom = snap.render_for_path("metrics.prom").unwrap();
        assert!(prom.contains("# TYPE iris_test_total counter"), "{prom}");
        let txt = snap.render_for_path("metrics.txt").unwrap();
        assert_eq!(prom, txt);
        let json = snap.render_for_path("metrics.json").unwrap();
        assert!(json.contains("\"counters\""), "{json}");
        assert!(json.ends_with('\n'), "JSON export ends with a newline");
    }

    #[test]
    fn prometheus_text_exports_real_histogram_series() {
        let r = Registry::new();
        let h = r.histogram("iris_test_ms{phase=\"drain\"}");
        h.record(4.0);
        h.record(4.0);
        h.record(100.0);
        let text = r.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE iris_test_ms histogram"), "{text}");
        assert!(
            !text.contains("summary") && !text.contains("quantile"),
            "no pseudo-gauge quantiles: {text}"
        );
        // Cumulative buckets: the bucket holding 4.0 has already seen
        // both 4.0 samples; +Inf always equals the total count.
        let bucket_counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("iris_test_ms_bucket{le=") && l.contains("phase=\"drain\""))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(bucket_counts, vec![2, 3, 3], "{text}");
        assert!(text.contains("iris_test_ms_bucket{le=\"+Inf\",phase=\"drain\"} 3"));
        assert!(text.contains("iris_test_ms_sum{phase=\"drain\"} 108"));
        assert!(text.contains("iris_test_ms_count{phase=\"drain\"} 3"));
    }

    #[test]
    fn prometheus_type_line_appears_once_per_family() {
        let r = Registry::new();
        r.histogram("iris_multi_ms{op=\"a\"}").record(1.0);
        r.histogram("iris_multi_ms{op=\"b\"}").record(2.0);
        r.counter("iris_multi_total{op=\"a\"}").inc();
        r.counter("iris_multi_total{op=\"b\"}").inc();
        let text = r.snapshot().to_prometheus_text();
        let type_lines = |kind: &str| {
            text.lines()
                .filter(|l| *l == format!("# TYPE {kind}"))
                .count()
        };
        assert_eq!(type_lines("iris_multi_ms histogram"), 1, "{text}");
        assert_eq!(type_lines("iris_multi_total counter"), 1, "{text}");
    }
}
