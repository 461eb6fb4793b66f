//! The coordinator: turn a [`WorkSpec`] into FCT records by mapping
//! per-link jobs (simulate link *l* of the spec's decomposition) through
//! `iris_planner::par_map`, the workspace's one order-preserving compute
//! fan-out, with `iris_planner::thread_count()` workers, so
//! `IRIS_THREADS` governs it like every other sweep in the workspace.
//!
//! The result is deterministic: jobs are pure functions of the spec,
//! results are keyed by link id, and the cross-link combination is a
//! commutative `max`, so thread count and scheduling cannot change a
//! byte of the output.

use crate::cluster::{cluster_links, estimate_member, SlowdownTable};
use crate::decompose::{combine, Decomposition};
use crate::proto::WorkSpec;
use iris_errors::IrisResult;
use iris_simnet::trace::FlowTrace;
use iris_simnet::FlowRecord;

/// Estimator configuration.
#[derive(Debug, Clone)]
pub struct EstimateConfig {
    /// Cluster links and simulate one representative per cluster
    /// (`false` = exact-per-link mode, every occupied link simulated).
    pub cluster: bool,
    /// Feature-distance threshold for joining a cluster.
    pub epsilon: f64,
}

impl Default for EstimateConfig {
    fn default() -> Self {
        Self {
            cluster: true,
            epsilon: 0.02,
        }
    }
}

/// The estimator's output.
#[derive(Debug)]
pub struct EstimateReport {
    /// Estimated completed-flow records, in flow arrival order.
    pub records: Vec<FlowRecord>,
    /// Admitted flows in the trace.
    pub flows: usize,
    /// Links carrying at least one flow.
    pub links_occupied: usize,
    /// Links actually simulated (cluster representatives).
    pub links_simulated: usize,
}

/// Estimate FCTs for `spec`: generate the trace, decompose, cluster,
/// simulate, combine.
///
/// # Errors
///
/// Never fails. The `IrisResult` stays only because the benchmark
/// harness calls `.expect` on it.
pub fn estimate(spec: &WorkSpec, cfg: &EstimateConfig) -> IrisResult<EstimateReport> {
    // The trace is dropped once decomposed, before any link runs.
    let dec = Decomposition::build(&spec.topo, &spec.trace());
    Ok(estimate_decomposed(spec, dec, cfg))
}

/// [`estimate`] for callers that already materialized the trace (e.g.
/// to also replay it through the exact engine for validation).
#[must_use]
pub fn estimate_with_trace(
    spec: &WorkSpec,
    trace: &FlowTrace,
    cfg: &EstimateConfig,
) -> EstimateReport {
    estimate_decomposed(spec, Decomposition::build(&spec.topo, trace), cfg)
}

/// Cluster, simulate and combine a decomposed trace.
fn estimate_decomposed(
    spec: &WorkSpec,
    dec: Decomposition,
    cfg: &EstimateConfig,
) -> EstimateReport {
    let telemetry = iris_telemetry::global();
    let occupied = dec.occupied_links();
    let clusters = if cfg.cluster {
        cluster_links(&spec.topo, &dec, &occupied, cfg.epsilon)
    } else {
        occupied
            .iter()
            .map(|&rep| crate::cluster::Cluster {
                rep,
                members: Vec::new(),
            })
            .collect()
    };
    let reps: Vec<usize> = clusters.iter().map(|c| c.rep).collect();
    let rep_finishes = iris_planner::par_map(iris_planner::thread_count(), &reps, |_, &link| {
        dec.simulate(&spec.topo, link)
    });
    telemetry
        .counter("iris_flowsim_links_simulated_total")
        .add(reps.len() as u64);

    let mut results: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut estimated = 0u64;
    for (cluster, finishes) in clusters.iter().zip(rep_finishes) {
        if !cluster.members.is_empty() {
            let table = SlowdownTable::build(&spec.topo, &dec, cluster.rep, &finishes);
            for &m in &cluster.members {
                results.push((m, estimate_member(&spec.topo, &dec, m, &table)));
                estimated += 1;
            }
        }
        results.push((cluster.rep, finishes));
    }
    telemetry
        .counter("iris_flowsim_links_estimated_total")
        .add(estimated);
    let records = combine(&spec.topo, &dec, results);
    EstimateReport {
        records,
        flows: dec.flows.len(),
        links_occupied: occupied.len(),
        links_simulated: reps.len(),
    }
}
