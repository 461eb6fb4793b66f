//! The chaos harness: sweep seeded fault schedules through the live
//! control plane and measure how the self-healing loop holds up.
//!
//! Each chaos scenario generates a deterministic [`FaultSchedule`] from
//! its seed, stands up a fresh controller on a planned region, and
//! replays the schedule: fiber cuts go through
//! [`Controller::handle_fiber_cut_with_faults`] (cut → detect → re-plan
//! → reconfigure → repair), device faults are armed into the injector
//! and exercised by a demand-change reconfiguration. The harness also
//! quantifies FCT impact by replaying the first fiber cut of each
//! scenario as a [`CapacityEvent`] in a paired flow-level simulation.
//!
//! Everything is a pure function of the seed: same seed, byte-identical
//! [`ChaosReport`] — the `artifacts` CI job diffs two runs to prove it.

use iris_control::controller::Allocation;
use iris_control::{Controller, FaultDomain, FaultInjector, FaultKind, FaultSchedule};
use iris_errors::{IrisError, IrisResult};
use iris_fibermap::Region;
use iris_planner::topology::{nominal_paths, provision, Provisioning};
use iris_planner::DesignGoals;
use iris_simnet::engine::{CapacityEvent, FabricModel, SimConfig};
use iris_simnet::experiment::fct_quantile;
use iris_simnet::traffic::ChangeModel;
use iris_simnet::workloads::FlowSizeDist;
use iris_simnet::{SimTopology, TrafficMatrix, WorkSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Chaos sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Master seed; scenario `s` uses `seed + s`.
    pub seed: u64,
    /// Number of fault scenarios to replay.
    pub scenarios: usize,
    /// DCs in the synthetic region.
    pub n_dcs: usize,
    /// Planner cut tolerance `k` (also the largest single cut event).
    pub cuts: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            scenarios: 10,
            n_dcs: 6,
            cuts: 1,
        }
    }
}

/// p50/p90/p99/max of a sample set (empty set = all zeros).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Distribution {
    /// Sample count.
    pub samples: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Distribution {
    /// Summarize `values` (nearest-rank percentiles).
    #[must_use]
    pub fn from_samples(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                samples: 0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        Self {
            samples: values.len(),
            p50: crate::percentile(values, 0.50),
            p90: crate::percentile(values, 0.90),
            p99: crate::percentile(values, 0.99),
            max: values.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// What happened in one chaos scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Scenario index.
    pub scenario: usize,
    /// The scenario's fault-schedule seed.
    pub seed: u64,
    /// Fault events replayed, by kind name.
    pub fault_counts: BTreeMap<String, u32>,
    /// Fiber-cut recoveries attempted.
    pub recoveries: u32,
    /// Recoveries that kept every demand (no shed, no overload,
    /// converged).
    pub fully_recovered: u32,
    /// DC pairs shed across all recoveries (0 for `<= k` cuts on a
    /// feasible plan).
    pub shed_pairs: u32,
    /// Verification retry rounds across all reconfigurations.
    pub retries: u32,
    /// Reconfigurations that ended in rollback.
    pub rollbacks: u32,
    /// Sites quarantined by the end of the scenario.
    pub quarantined: u32,
    /// Recovery times of the fiber-cut recoveries, ms.
    pub recovery_ms: Vec<f64>,
    /// Worst per-pair dark times of every reconfiguration, ms.
    pub dark_ms: Vec<f64>,
    /// p99 FCT with the first fiber cut replayed as a capacity event, s
    /// (absent if the scenario had no fiber cut or no flows finished).
    pub fct_p99_faulted_s: Option<f64>,
    /// p99 FCT of the paired fault-free run, s.
    pub fct_p99_baseline_s: Option<f64>,
    /// `faulted / baseline` p99 FCT ratio (1.0 = no impact).
    pub fct_impact: Option<f64>,
}

/// The sweep's aggregate result (what `results/chaos_sweep.json` holds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// The sweep configuration.
    pub config: ChaosConfig,
    /// Region shape the sweep ran on.
    pub ducts: usize,
    /// Per-scenario outcomes.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Distribution of fiber-cut recovery times, ms.
    pub recovery_ms: Distribution,
    /// Distribution of worst per-pair dark times, ms.
    pub dark_ms: Distribution,
    /// Distribution of p99-FCT impact ratios.
    pub fct_impact: Distribution,
    /// Total verification retries across the sweep.
    pub total_retries: u32,
    /// Total rollbacks across the sweep.
    pub total_rollbacks: u32,
    /// Total shed pairs across the sweep.
    pub total_shed_pairs: u32,
    /// Whether every `<= k` fiber-cut recovery kept all demands.
    pub all_tolerated_cuts_recovered: bool,
}

/// The sweep as `iris chaos` and the `chaos_sweep` bin print it: the
/// per-scenario table, the three distributions, the totals.
impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cfg = &self.config;
        writeln!(
            f,
            "chaos sweep: seed {}, {} scenarios, {} DCs, k={} ({} ducts)",
            cfg.seed, cfg.scenarios, cfg.n_dcs, cfg.cuts, self.ducts
        )?;
        writeln!(
            f,
            "\nscenario  cuts  recovered  shed  retries  rollbacks  quarantined"
        )?;
        for o in &self.outcomes {
            writeln!(
                f,
                "{:>8}  {:>4}  {:>9}  {:>4}  {:>7}  {:>9}  {:>11}",
                o.scenario,
                o.recoveries,
                o.fully_recovered,
                o.shed_pairs,
                o.retries,
                o.rollbacks,
                o.quarantined
            )?;
        }
        let d = &self.recovery_ms;
        writeln!(
            f,
            "\nrecovery time (ms):  p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}  ({} recoveries)",
            d.p50, d.p90, d.p99, d.max, d.samples
        )?;
        let d = &self.dark_ms;
        writeln!(
            f,
            "dark time (ms):      p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}",
            d.p50, d.p90, d.p99, d.max
        )?;
        let d = &self.fct_impact;
        writeln!(
            f,
            "p99-FCT impact (x):  p50 {:.3}  p90 {:.3}  p99 {:.3}  max {:.3}",
            d.p50, d.p90, d.p99, d.max
        )?;
        writeln!(
            f,
            "totals: {} retries, {} rollbacks, {} shed pairs; all <=k cuts recovered: {}",
            self.total_retries,
            self.total_rollbacks,
            self.total_shed_pairs,
            self.all_tolerated_cuts_recovered
        )
    }
}

/// Modeled per-scenario fault-event count.
const EVENTS_PER_SCENARIO: usize = 6;

/// Short paired simulation used for FCT impact.
const FCT_SIM_DURATION_S: f64 = 3.0;
const FCT_SIM_UTILIZATION: f64 = 0.35;

/// Run the chaos sweep. Deterministic: same config, same report.
///
/// # Errors
///
/// Returns [`IrisError::Infeasible`] if the synthetic region cannot be
/// planned at the requested cut tolerance (pick another seed or fewer
/// cuts), and propagates any recovery error.
pub fn run_chaos(cfg: &ChaosConfig) -> IrisResult<ChaosReport> {
    let region = crate::simple_region(cfg.seed, cfg.n_dcs);
    let goals = DesignGoals::with_cuts(cfg.cuts);
    let prov = provision(&region, &goals);
    if !prov.infeasible.is_empty() {
        return Err(IrisError::Infeasible {
            detail: format!(
                "region (seed {}, {} DCs) has {} infeasible (pair, scenario) combos at k={}",
                cfg.seed,
                cfg.n_dcs,
                prov.infeasible.len(),
                cfg.cuts
            ),
        });
    }
    let base = base_allocation(&region, &goals);
    // Scaled the way `iris simulate` scales it (largest link 2 Gbps),
    // so short sims produce contention.
    let scale = SimTopology::scale_for_largest_link(&region, &prov, 2.0);
    let topo = SimTopology::from_provisioning(&region, &goals, &prov, scale);
    let domain = FaultDomain {
        sites: region.map.graph().node_count(),
        ducts: region.map.graph().edge_count(),
        max_cut_size: cfg.cuts.max(1),
        events: EVENTS_PER_SCENARIO,
    };

    let mut outcomes = Vec::with_capacity(cfg.scenarios);
    for s in 0..cfg.scenarios {
        let seed = cfg.seed.wrapping_add(s as u64);
        let schedule = FaultSchedule::generate(seed, &domain);
        outcomes.push(run_scenario(
            s, seed, &schedule, &region, &goals, &prov, &base, &topo, cfg,
        )?);
    }

    let recovery: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.recovery_ms.clone())
        .collect();
    let dark: Vec<f64> = outcomes.iter().flat_map(|o| o.dark_ms.clone()).collect();
    let impact: Vec<f64> = outcomes.iter().filter_map(|o| o.fct_impact).collect();
    let all_recovered = outcomes.iter().all(|o| o.fully_recovered == o.recoveries);
    Ok(ChaosReport {
        config: *cfg,
        ducts: region.map.graph().edge_count(),
        recovery_ms: Distribution::from_samples(&recovery),
        dark_ms: Distribution::from_samples(&dark),
        fct_impact: Distribution::from_samples(&impact),
        total_retries: outcomes.iter().map(|o| o.retries).sum(),
        total_rollbacks: outcomes.iter().map(|o| o.rollbacks).sum(),
        total_shed_pairs: outcomes.iter().map(|o| o.shed_pairs).sum(),
        all_tolerated_cuts_recovered: all_recovered,
        outcomes,
    })
}

/// One circuit on every planned DC pair.
fn base_allocation(region: &Region, goals: &DesignGoals) -> Allocation {
    nominal_paths(region, goals)
        .iter()
        .map(|p| ((p.a, p.b), 1))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn run_scenario(
    scenario: usize,
    seed: u64,
    schedule: &FaultSchedule,
    region: &Region,
    goals: &DesignGoals,
    prov: &Provisioning,
    base: &Allocation,
    topo: &SimTopology,
    cfg: &ChaosConfig,
) -> IrisResult<ScenarioOutcome> {
    let controller = Controller::for_region(region, goals);
    let setup = controller.reconfigure(base);
    debug_assert!(setup.converged());

    let mut inj = FaultInjector::none();
    let mut fault_counts: BTreeMap<String, u32> = BTreeMap::new();
    let mut recoveries = 0u32;
    let mut fully_recovered = 0u32;
    let mut shed_pairs = 0u32;
    let mut retries = 0u32;
    let mut rollbacks = 0u32;
    let mut recovery_ms = Vec::new();
    let mut dark_ms = Vec::new();
    let mut first_cut: Option<(Vec<usize>, f64)> = None;
    let mut toggle = 2u32;

    for event in &schedule.events {
        *fault_counts
            .entry(event.kind.name().to_owned())
            .or_insert(0) += 1;
        match &event.kind {
            FaultKind::FiberCut { ducts } => {
                let rec = controller
                    .handle_fiber_cut_with_faults(region, goals, prov, ducts, &mut inj)?;
                recoveries += 1;
                if rec.fully_recovered() {
                    fully_recovered += 1;
                }
                shed_pairs += rec.shed_pairs.len() as u32;
                retries += rec.reconfig.retries;
                if !rec.reconfig.converged() {
                    rollbacks += 1;
                }
                recovery_ms.push(rec.recovery_ms);
                if rec.reconfig.total_ms > 0.0 {
                    dark_ms.push(rec.reconfig.max_dark_ms());
                }
                // Keep the first cut that hits a duct some nominal route
                // rides: cuts on unused or backup-only ducts carry no
                // live traffic, so they have no FCT story to tell.
                if first_cut.is_none() {
                    let links = links_of_ducts(prov, ducts);
                    if !affected_pairs(topo, &links).is_empty() {
                        first_cut = Some((ducts.clone(), rec.recovery_ms));
                    }
                }
                // The duct is repaired before the next event: restore the
                // full allocation (maintenance, not counted as dark time).
                controller.reconfigure(base);
            }
            other => {
                // Arm the device fault, then exercise it with a routine
                // demand-change reconfiguration.
                inj.arm(other);
                let target: Allocation = base.keys().map(|&pair| (pair, toggle)).collect();
                toggle = if toggle == 2 { 1 } else { 2 };
                let report = controller.reconfigure_with_faults(&target, &mut inj);
                retries += report.retries;
                if !report.converged() {
                    rollbacks += 1;
                }
                if report.total_ms > 0.0 {
                    dark_ms.push(report.max_dark_ms());
                }
            }
        }
    }

    // FCT impact of the first fiber cut, as a paired simulation: same
    // seed and arrivals, with and without the cut's capacity event.
    let (fct_faulted, fct_baseline, fct_impact) = match &first_cut {
        None => (None, None, None),
        Some((ducts, rec_ms)) => {
            let links = links_of_ducts(prov, ducts);
            let event = CapacityEvent {
                start_s: FCT_SIM_DURATION_S / 3.0,
                duration_s: rec_ms / 1000.0,
                capacity_factor: 0.0,
                links: Some(links),
            };
            let window = (event.start_s - 0.1, event.start_s + event.duration_s + 0.5);
            let affected = affected_pairs(topo, event.links.as_deref().unwrap_or(&[]));
            let faulted = fct_p99(topo, vec![event], seed, window, &affected);
            let baseline = fct_p99(topo, Vec::new(), seed, window, &affected);
            let impact = match (faulted, baseline) {
                (Some(f), Some(b)) if b > 0.0 => Some(f / b),
                _ => None,
            };
            (faulted, baseline, impact)
        }
    };
    let _ = cfg;

    Ok(ScenarioOutcome {
        scenario,
        seed,
        fault_counts,
        recoveries,
        fully_recovered,
        shed_pairs,
        retries,
        rollbacks,
        quarantined: controller.quarantined().len() as u32,
        recovery_ms,
        dark_ms,
        fct_p99_faulted_s: fct_faulted,
        fct_p99_baseline_s: fct_baseline,
        fct_impact,
    })
}

/// Map cut duct ids onto the simulation's dense link ids (unused ducts
/// have no link and are dropped).
fn links_of_ducts(prov: &Provisioning, ducts: &[usize]) -> Vec<usize> {
    let used = prov.used_edges();
    ducts
        .iter()
        .filter_map(|d| used.iter().position(|u| u == d))
        .collect()
}

/// The DC pairs whose route crosses any of `links`.
fn affected_pairs(topo: &SimTopology, links: &[usize]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for i in 0..topo.n_dcs {
        for j in (i + 1)..topo.n_dcs {
            if topo.route(i, j).iter().any(|l| links.contains(l)) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// p99 FCT of a short seeded run on `topo` with the given capacity
/// events (EPS fabric, static traffic — isolates the cut's effect),
/// restricted to flows on the `affected` pairs arriving inside
/// `window`, so a tens-of-ms outage is not diluted across unaffected
/// traffic. Paired same-seed runs see identical arrivals, so the
/// restricted flow sets are comparable.
fn fct_p99(
    topo: &SimTopology,
    capacity_events: Vec<CapacityEvent>,
    seed: u64,
    window: (f64, f64),
    affected: &[(usize, usize)],
) -> Option<f64> {
    let records = WorkSpec {
        topo: topo.clone(),
        matrix: TrafficMatrix::heavy_tailed(topo.n_dcs, seed),
        config: SimConfig {
            duration_s: FCT_SIM_DURATION_S,
            utilization: FCT_SIM_UTILIZATION,
            flow_sizes: FlowSizeDist::pfabric_web_search(),
            change_interval_s: None,
            change_model: ChangeModel::Bounded(0.5),
            fabric: FabricModel::Eps,
            capacity_events,
            seed,
        },
    }
    .run();
    let windowed: Vec<_> = records
        .into_iter()
        .filter(|r| r.start_s >= window.0 && r.start_s <= window.1 && affected.contains(&r.pair))
        .collect();
    fct_quantile(&windowed, 0.99, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosConfig {
        ChaosConfig {
            seed: 7,
            scenarios: 2,
            n_dcs: 5,
            cuts: 1,
        }
    }

    #[test]
    fn chaos_sweep_is_deterministic() {
        let a = run_chaos(&tiny()).expect("plannable");
        let b = run_chaos(&tiny()).expect("plannable");
        assert_eq!(a, b);
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb, "byte-identical JSON under one seed");
    }

    #[test]
    fn tolerated_cuts_always_recover() {
        let report = run_chaos(&tiny()).expect("plannable");
        assert!(
            report.all_tolerated_cuts_recovered,
            "a <= k cut must never lose demands: {report:?}"
        );
        assert_eq!(report.total_shed_pairs, 0);
    }

    #[test]
    fn sweep_exercises_recoveries_and_reports_distributions() {
        let report = run_chaos(&ChaosConfig {
            scenarios: 4,
            ..tiny()
        })
        .expect("plannable");
        assert_eq!(report.outcomes.len(), 4);
        let recoveries: u32 = report.outcomes.iter().map(|o| o.recoveries).sum();
        assert!(recoveries > 0, "schedules lean on fiber cuts");
        assert!(report.recovery_ms.samples as u32 == recoveries);
        assert!(report.recovery_ms.p50 > 0.0);
        assert!(report.dark_ms.max >= report.dark_ms.p50);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_chaos(&tiny()).expect("plannable");
        let b = run_chaos(&ChaosConfig { seed: 8, ..tiny() }).expect("plannable");
        assert_ne!(a, b);
    }
}
