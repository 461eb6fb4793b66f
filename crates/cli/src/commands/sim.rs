//! Plan → flows: `simulate`, `simd`, `testbed`.

use super::{comma_list, family_spec, load, write_report};
use crate::args::Options;
use iris_core::prelude::*;
use iris_errors::IrisResult;
use iris_planner::provision;
use iris_simnet::traffic::ChangeModel;
use iris_simnet::workloads::FlowSizeDist;

/// `--workload`: one of the Fig. 18 flow-size distributions, by name.
fn workload(opts: &Options) -> Result<FlowSizeDist, String> {
    let name = opts.required("workload")?;
    FlowSizeDist::by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))
}

/// `iris simulate` — paired FCT comparison.
pub fn simulate(opts: &Options) -> IrisResult<()> {
    let region = load(opts)?;
    let util: f64 = opts.num("util")?;
    let interval: f64 = opts.num("interval")?;
    let duration: f64 = opts.num("duration")?;
    let workload = workload(opts)?;
    let goals = DesignGoals::with_cuts(0);
    let prov = provision(&region, &goals);
    // The fig17 topology: the plan's largest link at 2 Gbps.
    let scale = SimTopology::scale_for_largest_link(&region, &prov, 2.0);
    let topo = SimTopology::from_provisioning(&region, &goals, &prov, scale);
    let (result, manifest) = run_comparison(
        &topo,
        &ExperimentConfig {
            duration_s: duration,
            utilization: util,
            change_interval_s: interval,
            change_model: ChangeModel::Bounded(0.5),
            workload,
            outage_s: 0.07,
            seed: 42,
        },
    );
    // Drive the control plane through the same reconfiguration cadence
    // the simulation modeled, so the dark time backing `outage_s` comes
    // from the orchestrator (and a --telemetry snapshot covers planner,
    // simulator and controller in one run).
    let dark_ms = replay_reconfigurations(&region, &goals, duration, interval);

    println!("paired simulation: {duration} s, util {util}, reconfig every {interval} s");
    println!("  seed:                        {}", manifest.seed);
    println!("  controller dark time:        {dark_ms:.0} ms worst pair");
    println!(
        "  flows completed (EPS/Iris):  {}/{}",
        result.eps_flows, result.iris_flows
    );
    println!(
        "  p99 FCT slowdown, all:       {:.3}",
        result.slowdown_p99_all
    );
    println!(
        "  p99 FCT slowdown, short:     {:.3}",
        result.slowdown_p99_short
    );
    println!(
        "  mean FCT slowdown:           {:.3}",
        result.slowdown_mean_all
    );
    if let Some(out) = opts.get("out") {
        // Results plus everything needed to reproduce them.
        write_report(
            out,
            &serde_json::json!({ "manifest": manifest, "result": result }),
        )?;
        println!("  results written to {out}");
    }
    Ok(())
}

/// `iris simd` — the `simulate` experiment at 10⁶+ flows, via per-link
/// decomposition ([`iris_flowsim`]) instead of the exact global-waterfill
/// engine. The `--out` artifact holds no wall-clock or backend detail:
/// CI diffs it across worker fleets, worker counts and `IRIS_THREADS`.
pub fn simd(opts: &Options) -> IrisResult<()> {
    use iris_flowsim::coord::{estimate_with_trace, Backend, EstimateConfig, FleetConfig};
    use iris_simnet::engine::{FabricModel, FlowRecord, SimConfig};
    use iris_simnet::experiment::fct_quantile;
    use iris_simnet::TrafficMatrix;

    let dcs: usize = opts.num("dcs")?;
    let util: f64 = opts.num("util")?;
    let duration: f64 = opts.num("duration")?;
    let flows_target: f64 = opts.num("flows")?;
    let seed: u64 = opts.num("seed")?;
    let epsilon: f64 = opts.num("epsilon")?;
    let workload = workload(opts)?;
    let matrices = family_spec(opts)?;
    let backend = match opts.get("workers") {
        None => Backend::InProcess,
        Some(list) => {
            let endpoints: Vec<String> = comma_list(list).map(str::to_owned).collect();
            if endpoints.is_empty() {
                return Err("--workers: expected HOST:PORT[,HOST:PORT...]".into());
            }
            Backend::Fleet(FleetConfig::new(endpoints))
        }
    };
    let cfg = EstimateConfig {
        cluster: !opts.flag("no-cluster"),
        epsilon,
        backend,
    };
    let intervals = opts
        .num_opt("interval")?
        .map_or(vec![1.0, 5.0], |s| vec![s]);

    // The fig17 topology: a planned region, largest link ~2 Gbps.
    let region = iris_bench::simple_region(3, dcs);
    let goals = DesignGoals::with_cuts(0);
    let prov = provision(&region, &goals);
    let base_scale = SimTopology::scale_for_largest_link(&region, &prov, 2.0);
    let base = SimTopology::from_provisioning(&region, &goals, &prov, base_scale);

    let spec_for = |topo: &SimTopology, fabric: FabricModel, interval: f64| WorkSpec {
        topo: topo.clone(),
        // A workload family replaces the default heavy-tailed matrix
        // with its mean per-pair rates, so the simulated traffic matches
        // what `iris plan --robust` provisioned for.
        matrix: match &matrices {
            Some(spec) => {
                TrafficMatrix::from_weights(topo.n_dcs, seed, &spec.mean_shape(topo.n_dcs))
            }
            None => TrafficMatrix::heavy_tailed(topo.n_dcs, seed),
        },
        config: SimConfig {
            duration_s: duration,
            utilization: util,
            flow_sizes: workload.clone(),
            change_interval_s: Some(interval),
            change_model: ChangeModel::Bounded(0.5),
            fabric,
            capacity_events: Vec::new(),
            seed,
        },
    };
    let iris = FabricModel::Iris { outage_s: 0.07 };

    // Probe the base-scale admitted flow count; the Poisson rate is
    // linear in capacity, so one division gives the capacity scale that
    // offers `--flows` admitted flows.
    let probe_spec = spec_for(&base, FabricModel::Eps, 5.0);
    let probe_trace = probe_spec.trace();
    let offered = probe_trace.arrivals.len() as f64;
    let admitted = probe_trace.flow_count() as f64;
    if offered == 0.0 || admitted == 0.0 {
        return Err("probe run admitted no flows; raise --util or --duration".into());
    }
    let admitted_rate = probe_spec.arrival_rate() * (admitted / offered);
    let flow_scale = flows_target / (admitted_rate * duration);
    let topo = SimTopology::from_provisioning(&region, &goals, &prov, base_scale * flow_scale);

    // Validation: the hardest small cell (Iris fabric, 1 s interval) at
    // base scale through both the exact engine and the estimator.
    let vspec = spec_for(&base, iris, 1.0);
    let vtrace = vspec.trace();
    let exact = vtrace.replay(&vspec.topo);
    let vest = estimate_with_trace(&vspec, &vtrace, &cfg)?;
    let vq = |records: &[FlowRecord], q: f64| fct_quantile(records, q, false);
    let (val_p50, val_p99) = match (
        vq(&exact, 0.5).zip(vq(&vest.records, 0.5)),
        vq(&exact, 0.99).zip(vq(&vest.records, 0.99)),
    ) {
        (Some((e50, d50)), Some((e99, d99))) => (d50 / e50, d99 / e99),
        _ => return Err("validation cell completed no flows".into()),
    };
    println!("validation (exact vs decomposed, {} flows):", exact.len());
    println!("  p50 ratio: {val_p50:.4}   p99 ratio: {val_p99:.4}");

    // The sweep itself, at the scaled topology.
    let mut sweep_rows = Vec::new();
    let mut total_flows = 0usize;
    let mut scale_stats = None;
    for &interval in &intervals {
        let started = std::time::Instant::now();
        let mut cells = Vec::new();
        for (name, fabric) in [("eps", FabricModel::Eps), ("iris", iris)] {
            let report = iris_flowsim::estimate(&spec_for(&topo, fabric, interval), &cfg)?;
            total_flows = total_flows.max(report.flows);
            scale_stats.get_or_insert((report.links_occupied, report.links_simulated));
            cells.push((name, report));
        }
        let q =
            |r: &[FlowRecord], qv: f64, short: bool| fct_quantile(r, qv, short).unwrap_or(f64::NAN);
        let mean = |r: &[FlowRecord]| {
            if r.is_empty() {
                f64::NAN
            } else {
                r.iter().map(|f| f.fct_s).sum::<f64>() / r.len() as f64
            }
        };
        let eps = &cells[0].1;
        let irs = &cells[1].1;
        let cell = |r: &[FlowRecord]| {
            serde_json::json!({
                "flows": r.len(),
                "p50_s": q(r, 0.5, false),
                "p99_s": q(r, 0.99, false),
                "p99_short_s": q(r, 0.99, true),
            })
        };
        let row = serde_json::json!({
            "interval_s": interval,
            "eps": cell(&eps.records),
            "iris": cell(&irs.records),
            "slowdown_p99_all": q(&irs.records, 0.99, false) / q(&eps.records, 0.99, false),
            "slowdown_p99_short": q(&irs.records, 0.99, true) / q(&eps.records, 0.99, true),
            "slowdown_mean_all": mean(&irs.records) / mean(&eps.records),
        });
        println!(
            "interval {interval:4.1} s: {} flows, p99 slowdown {:.3} (short {:.3}) \
             [{:.1} s wall]",
            irs.flows,
            row["slowdown_p99_all"].as_f64().unwrap_or(f64::NAN),
            row["slowdown_p99_short"].as_f64().unwrap_or(f64::NAN),
            started.elapsed().as_secs_f64()
        );
        sweep_rows.push(row);
    }
    let (links_occupied, links_simulated) = scale_stats.unwrap_or((0, 0));
    println!(
        "scale: {total_flows} flows; {links_simulated} of {links_occupied} occupied links \
         simulated ({})",
        if cfg.cluster {
            "clustered"
        } else {
            "exact per link"
        }
    );

    if let Some(out) = opts.get("out") {
        // Deterministic artifact: no wall-clock, no backend identity.
        let mut payload = serde_json::json!({
            "config": {
                "dcs": dcs,
                "utilization": util,
                "duration_s": duration,
                "flows_target": flows_target,
                "seed": seed,
                "cluster": cfg.cluster,
                "epsilon": epsilon,
            },
            "validation": {
                "flows_exact": exact.len(),
                "flows_estimated": vest.records.len(),
                "p50_ratio": val_p50,
                "p99_ratio": val_p99,
            },
            "scale": {
                "flows": total_flows,
                "links_occupied": links_occupied,
                "links_simulated": links_simulated,
            },
            "sweep": sweep_rows,
        });
        // Only stamp the family when one was requested, so the default
        // artifact (the one CI byte-diffs) keeps its exact shape.
        if let Some(spec) = &matrices {
            payload["config"]["matrices"] = serde_json::json!(spec.to_string());
        }
        write_report(out, &payload)?;
        println!("  results written to {out}");
    }
    Ok(())
}

/// Replay the simulation's reconfiguration schedule through the real
/// orchestrator: one [`iris_control::Controller::reconfigure`] per change
/// interval, alternating circuit counts so every DC pair is affected.
/// Returns the worst per-pair dark time (ms) across the replays.
fn replay_reconfigurations(
    region: &Region,
    goals: &DesignGoals,
    duration: f64,
    interval: f64,
) -> f64 {
    use iris_control::{Controller, SpaceSwitch};

    let paths = iris_planner::topology::nominal_paths(region, goals);
    let hops: std::collections::BTreeMap<(usize, usize), u32> = paths
        .iter()
        .map(|p| ((p.a, p.b), p.edges.len() as u32))
        .collect();
    let switches = (0..region.map.graph().node_count())
        .map(|i| SpaceSwitch::new(&format!("OSS{i}"), 32))
        .collect();
    let controller = Controller::new(switches, hops.clone());

    let reconfigs = ((duration / interval.max(1e-9)) as usize).max(1);
    let mut worst_dark_ms = 0.0f64;
    for r in 0..reconfigs {
        let circuits = 1 + (r as u32 % 2);
        let target: iris_control::controller::Allocation =
            hops.keys().map(|&pair| (pair, circuits)).collect();
        let report = controller.reconfigure(&target);
        worst_dark_ms = worst_dark_ms.max(report.max_dark_ms());
    }
    worst_dark_ms
}

/// `iris testbed` — Fig. 14 replay.
pub fn testbed(_opts: &Options) -> IrisResult<()> {
    use iris_control::testbed::{run_testbed, summarize, TestbedConfig};
    let config = TestbedConfig::default();
    let samples = run_testbed(&config);
    let summary = summarize(&samples, config.sample_period_ms);
    println!(
        "testbed replay ({} s, reconfig every {} s):",
        config.duration_s, config.reconfig_interval_s
    );
    println!(
        "  max pre-FEC BER:    {:.2e} (threshold 2e-2)",
        summary.max_ber
    );
    println!("  recovery gap:       {:.0} ms", summary.max_gap_ms);
    println!(
        "  below threshold:    {:.1}%",
        summary.below_threshold * 100.0
    );
    Ok(())
}
