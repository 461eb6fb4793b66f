//! Paired Iris-vs-EPS experiments (Figs. 17-18).
//!
//! Both fabrics replay one trace — identical Poisson arrivals, flow
//! sizes and traffic matrix evolutions; the only difference is that Iris
//! loses the moving circuits' capacity for ~70 ms at every
//! reconfiguration.
//! The reported metric is the paper's: the ratio of 99th-percentile FCT
//! under Iris to the same percentile under EPS, for all flows and for
//! short flows (< 50 KB).

use crate::engine::{FabricModel, FlowRecord, SimConfig};
use crate::topology::SimTopology;
use crate::trace::{RunManifest, WorkSpec};
use crate::traffic::{ChangeModel, TrafficMatrix};
use crate::workloads::FlowSizeDist;
use serde::{Deserialize, Serialize};

/// Configuration of one comparison point.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Simulated seconds (longer = smoother percentiles).
    pub duration_s: f64,
    /// Target peak link utilization (the paper sweeps 0.1 / 0.4 / 0.7).
    pub utilization: f64,
    /// Seconds between traffic changes / reconfigurations (1-30 s).
    pub change_interval_s: f64,
    /// Magnitude of traffic change per interval.
    pub change_model: ChangeModel,
    /// Flow-size workload.
    pub workload: FlowSizeDist,
    /// Circuit dark time during reconfiguration (70 ms measured).
    pub outage_s: f64,
    /// Seed shared by both runs.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            duration_s: 30.0,
            utilization: 0.4,
            change_interval_s: 5.0,
            change_model: ChangeModel::Bounded(0.5),
            workload: FlowSizeDist::pfabric_web_search(),
            outage_s: 0.07,
            seed: 1,
        }
    }
}

/// Result of one paired comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComparisonResult {
    /// 99th-percentile FCT slowdown, all flows (Iris / EPS).
    pub slowdown_p99_all: f64,
    /// 99th-percentile FCT slowdown, short flows only.
    pub slowdown_p99_short: f64,
    /// Mean FCT slowdown, all flows.
    pub slowdown_mean_all: f64,
    /// Completed flows in the EPS run.
    pub eps_flows: usize,
    /// Completed flows in the Iris run.
    pub iris_flows: usize,
}

/// The `q`-quantile (0-1) of the FCTs in `records` restricted by `filter`.
/// Returns `None` when no flow matches.
#[must_use]
pub fn fct_quantile(records: &[FlowRecord], q: f64, short_only: bool) -> Option<f64> {
    let mut fcts: Vec<f64> = records
        .iter()
        .filter(|r| !short_only || r.is_short())
        .map(|r| r.fct_s)
        .collect();
    if fcts.is_empty() {
        return None;
    }
    fcts.sort_by(|a, b| a.partial_cmp(b).expect("finite FCTs"));
    let idx = ((fcts.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    Some(fcts[idx])
}

/// Run the paired comparison. Returns the result with the Iris run's
/// [`RunManifest`] (seed and every `SimConfig` parameter), so callers can
/// persist results alongside what is needed to reproduce them.
///
/// # Panics
///
/// Panics if either run completes no flows (mis-configured experiment).
#[must_use]
pub fn run_comparison(
    topo: &SimTopology,
    config: &ExperimentConfig,
) -> (ComparisonResult, RunManifest) {
    let work = WorkSpec {
        topo: topo.clone(),
        matrix: TrafficMatrix::heavy_tailed(topo.n_dcs, config.seed),
        config: SimConfig {
            duration_s: config.duration_s,
            utilization: config.utilization,
            flow_sizes: config.workload.clone(),
            change_interval_s: Some(config.change_interval_s),
            change_model: config.change_model,
            fabric: FabricModel::Iris {
                outage_s: config.outage_s,
            },
            capacity_events: Vec::new(),
            seed: config.seed,
        },
    };
    // No draw depends on the fabric, so the EPS run replays the Iris
    // run's trace with the fabric swapped.
    let mut trace = work.trace();
    let iris = trace.replay(topo);
    trace.fabric = FabricModel::Eps;
    let eps = trace.replay(topo);
    assert!(!eps.is_empty() && !iris.is_empty(), "no flows completed");

    let p99 = |r: &[FlowRecord], short| fct_quantile(r, 0.99, short).expect("non-empty");
    let mean = |r: &[FlowRecord]| r.iter().map(|f| f.fct_s).sum::<f64>() / r.len() as f64;

    let short_all = fct_quantile(&eps, 0.99, true)
        .zip(fct_quantile(&iris, 0.99, true))
        .map_or(1.0, |(e, i)| i / e);

    (
        ComparisonResult {
            slowdown_p99_all: p99(&iris, false) / p99(&eps, false),
            slowdown_p99_short: short_all,
            slowdown_mean_all: mean(&iris) / mean(&eps),
            eps_flows: eps.len(),
            iris_flows: iris.len(),
        },
        work.manifest(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(util: f64, interval: f64, change: ChangeModel) -> ComparisonResult {
        let topo = SimTopology::hub_and_spoke(4, 1.0);
        run_comparison(
            &topo,
            &ExperimentConfig {
                duration_s: 10.0,
                utilization: util,
                change_interval_s: interval,
                change_model: change,
                workload: FlowSizeDist::facebook_web(),
                ..ExperimentConfig::default()
            },
        )
        .0
    }

    #[test]
    fn moderate_conditions_give_negligible_slowdown() {
        // The paper's headline (§6.3): at reasonable reconfiguration
        // intervals the 99th-percentile slowdown is within a few percent.
        let r = quick(0.4, 5.0, ChangeModel::Bounded(0.5));
        assert!(
            r.slowdown_p99_all < 1.15,
            "slowdown {} too large",
            r.slowdown_p99_all
        );
        assert!(r.slowdown_p99_all > 0.85, "iris outperforming EPS is a bug");
        assert!(r.eps_flows > 500);
    }

    #[test]
    fn quantile_helper_basics() {
        let rec = |fct: f64, size: f64| FlowRecord {
            pair: (0, 1),
            size_bytes: size,
            start_s: 0.0,
            fct_s: fct,
        };
        let records = vec![rec(1.0, 1e3), rec(2.0, 1e6), rec(3.0, 1e3), rec(4.0, 1e6)];
        assert_eq!(fct_quantile(&records, 0.0, false), Some(1.0));
        assert_eq!(fct_quantile(&records, 1.0, false), Some(4.0));
        // Short flows only: FCTs 1.0 and 3.0.
        assert_eq!(fct_quantile(&records, 1.0, true), Some(3.0));
        assert_eq!(fct_quantile(&[], 0.5, false), None);
    }

    #[test]
    fn frequent_unbounded_changes_hurt_more_than_rare_bounded() {
        let harsh = quick(0.7, 1.0, ChangeModel::Unbounded);
        let gentle = quick(0.4, 10.0, ChangeModel::Bounded(0.1));
        assert!(
            harsh.slowdown_p99_all >= gentle.slowdown_p99_all - 0.05,
            "harsh {} < gentle {}",
            harsh.slowdown_p99_all,
            gentle.slowdown_p99_all
        );
    }

    #[test]
    fn paired_runs_complete_comparable_flow_counts() {
        let r = quick(0.4, 5.0, ChangeModel::Bounded(0.5));
        let ratio = r.iris_flows as f64 / r.eps_flows as f64;
        assert!((0.9..=1.1).contains(&ratio), "flow count ratio {ratio}");
    }
}
