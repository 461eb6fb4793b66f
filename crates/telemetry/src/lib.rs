//! Workspace-wide observability: lock-free counters and gauges,
//! log-bucketed histograms with quantile export, RAII span timers, a
//! process-global registry that snapshots to JSON or Prometheus text,
//! and request-scoped tracing backed by a lock-free flight recorder
//! (see the [`trace`] module).
//!
//! Metric names follow Prometheus conventions:
//! `iris_<crate>_<what>_<unit-or-total>`, e.g.
//! `iris_simnet_events_total` or `iris_control_phase_ms{phase="drain"}`.
//! A label pair is folded into the name with [`labeled`]; the registry
//! treats the full string as the key and the Prometheus exporter emits
//! it verbatim, which renders correctly for single-label series.
//!
//! Recording is cheap (one atomic RMW for counters/gauges, two plus a
//! CAS loop for histograms) so instrumentation can stay on in hot
//! simulation loops. Creation/lookup takes a registry read lock — hold
//! the returned `Arc` rather than re-looking up per event.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod histogram;
mod registry;
mod span;
pub mod trace;

pub use histogram::Histogram;
pub use registry::{global, HistogramSummary, Registry, Snapshot};
pub use span::Span;

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Read-lock `lock`, ignoring poisoning: for data every critical section leaves valid.
pub fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock `lock`, ignoring poisoning like [`read_lock`].
pub fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (level, high-water mark, …).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust by a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is below (high-water mark).
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fold one label pair into a metric name:
/// `labeled("iris_control_phase_ms", "phase", "drain")` →
/// `iris_control_phase_ms{phase="drain"}`.
#[must_use]
pub fn labeled(base: &str, key: &str, value: &str) -> String {
    format!("{base}{{{key}=\"{value}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_tracks_level_and_high_water() {
        let g = Gauge::new();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set_max(10);
        g.set_max(7);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn labeled_formats_prometheus_style() {
        assert_eq!(
            labeled("iris_control_phase_ms", "phase", "drain"),
            "iris_control_phase_ms{phase=\"drain\"}"
        );
    }
}
