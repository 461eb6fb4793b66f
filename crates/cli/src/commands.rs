//! The CLI subcommands.
//!
//! Every subcommand returns [`IrisResult`]: `String` errors from option
//! parsing convert into [`IrisError::InvalidInput`] (exit code 2), and
//! typed errors from the crates below keep their own class — `main`
//! exits with [`IrisError::exit_code`], so scripts can tell a corrupt
//! WAL (5) from an unreachable server (8) without parsing stderr.

use crate::args::Options;
use iris_core::prelude::*;
use iris_core::DesignStudy;
use iris_errors::{IrisError, IrisResult};
use iris_fibermap::io::{load_region, save_region};
use iris_fibermap::siting::{centralized_service_area, distributed_service_area, region_grid};
use iris_planner::centralized::{plan_centralized, HubHoming};
use iris_planner::workload::{FamilySpec, MatrixFamily};
use iris_planner::{provision, provision_robust, shed_fraction};
use iris_simnet::traffic::ChangeModel;
use iris_simnet::workloads::FlowSizeDist;
use std::path::Path;

fn load(opts: &Options) -> IrisResult<Region> {
    load_region(Path::new(opts.required("region")?)).map_err(IrisError::from)
}

/// Apply `--threads T` as the planner's default sweep worker count.
/// `IRIS_THREADS` still wins ([`iris_planner::thread_count`]'s
/// resolution order); the planned output is bit-identical either way.
fn apply_threads(opts: &Options) -> IrisResult<()> {
    let threads: usize = opts.num("threads", 0)?;
    iris_planner::set_default_threads(threads);
    Ok(())
}

/// `iris gen` — generate a synthetic region.
pub fn generate(opts: &Options) -> IrisResult<()> {
    let seed: u64 = opts.num("seed", 1)?;
    let n_dcs: usize = opts.num("dcs", 8)?;
    let fibers: u32 = opts.num("fibers", 16)?;
    let lambda: u32 = opts.num("lambda", 40)?;
    let huts: usize = opts.num("huts", 16)?;
    let out = opts.required("out")?;

    let map = synth::generate_metro(&MetroParams {
        seed,
        n_huts: huts,
        ..MetroParams::default()
    });
    let region = synth::place_dcs(
        map,
        &PlacementParams {
            seed: seed.wrapping_add(1),
            n_dcs,
            capacity_fibers: fibers,
            wavelengths_per_fiber: lambda,
            ..PlacementParams::default()
        },
    );
    save_region(&region, Path::new(out))?;
    println!(
        "wrote {out}: {} DCs x {:.0} Tbps, {} huts, {} ducts",
        region.dcs.len(),
        region.capacity_gbps(0) / 1000.0,
        region.map.huts().len(),
        region.map.duct_count()
    );
    Ok(())
}

/// `iris plan` — plan Iris and print the bill of materials.
pub fn plan(opts: &Options) -> IrisResult<()> {
    let region = load(opts)?;
    let cuts: usize = opts.num("cuts", 2)?;
    apply_threads(opts)?;
    let goals = DesignGoals::with_cuts(cuts);
    if opts.flag("robust") {
        return plan_robust(&region, &goals, opts);
    }
    if opts.get("matrices").is_some() {
        return Err(IrisError::InvalidInput {
            detail: "--matrices only applies to robust planning; add --robust".to_owned(),
        });
    }
    let plan = plan_iris(&region, &goals);
    let cost = iris_cost(&plan, &PriceBook::paper_2020());

    println!(
        "Iris plan ({} DCs, {} cut tolerance)",
        region.dcs.len(),
        cuts
    );
    println!(
        "  scenarios examined:   {}",
        plan.provisioning.scenarios_examined
    );
    println!(
        "  ducts used:           {}/{}",
        plan.provisioning.used_edges().len(),
        region.map.duct_count()
    );
    println!(
        "  huts lit:             {}",
        plan.provisioning.used_huts(&region).len()
    );
    println!("  DC transceivers:      {}", plan.dc_transceivers);
    println!("  fiber pair-spans:     {}", plan.total_fiber_pair_spans());
    println!("  OSS ports:            {}", plan.oss_ports());
    println!("  in-line amplifiers:   {}", plan.total_amps());
    println!("  cut-through links:    {}", plan.cuts.cuts.len());
    println!("  annual cost:          ${:.0}", cost.total());
    if plan.is_feasible() {
        println!("  status: FEASIBLE — all OC/TC constraints met");
    } else {
        println!(
            "  status: {} SLA-infeasible (pair, scenario) combos, {} unresolved paths, {} optical violations",
            plan.provisioning.infeasible.len(),
            plan.cuts.unresolved.len(),
            plan.violations.len()
        );
    }
    Ok(())
}

/// `iris plan --robust` — provision min-cost capacity feasible for every
/// matrix in a seeded workload family and print the hose-vs-robust cost
/// and shed-under-surprise comparison. The output is a pure function of
/// the region, goals and family spec (CI byte-diffs it across thread
/// counts).
fn plan_robust(region: &Region, goals: &DesignGoals, opts: &Options) -> IrisResult<()> {
    let raw = opts.get("matrices").unwrap_or("burst:8@42");
    let spec: FamilySpec = raw
        .parse()
        .map_err(|detail| IrisError::InvalidInput { detail })?;
    let family = MatrixFamily::build(region, goals, &spec);
    let surprise = MatrixFamily::build(region, goals, &spec.held_out());
    let robust = provision_robust(region, goals, &family);
    let hose = provision(region, goals);
    let lambda = region.wavelengths_per_fiber;

    let shed = |prov: &iris_planner::Provisioning, fam: &MatrixFamily| {
        let sheds: Vec<f64> = fam
            .matrices()
            .iter()
            .map(|m| shed_fraction(region, goals, prov, m))
            .collect();
        let mean = sheds.iter().sum::<f64>() / sheds.len() as f64;
        let max = sheds.iter().fold(0.0f64, |a, &b| a.max(b));
        (mean, max)
    };
    let (robust_mean, robust_max) = shed(&robust, &surprise);
    let (hose_mean, hose_max) = shed(&hose, &surprise);

    println!(
        "Robust plan ({} DCs, {} cut tolerance, family {})",
        region.dcs.len(),
        goals.max_cuts,
        spec
    );
    println!(
        "  matrices:             {} training + {} held-out surprise",
        family.len(),
        surprise.len()
    );
    println!(
        "  peak DC load:         {:.3}x the hose envelope (surprise family)",
        surprise.peak_dc_load_ratio(region)
    );
    println!("  scenarios examined:   {}", robust.scenarios_examined);
    println!(
        "  ducts used:           {}/{} (hose plan: {})",
        robust.used_edges().len(),
        region.map.duct_count(),
        hose.used_edges().len()
    );
    println!(
        "  fiber pairs:          {} (hose plan: {})",
        robust.total_fiber_pairs(lambda),
        hose.total_fiber_pairs(lambda)
    );
    println!(
        "  surprise shed:        robust mean {robust_mean:.4} max {robust_max:.4} | \
         hose mean {hose_mean:.4} max {hose_max:.4}"
    );
    if robust.infeasible.is_empty() {
        println!("  status: FEASIBLE for every training matrix in every scenario");
    } else {
        println!(
            "  status: {} SLA-infeasible (pair, scenario) combos",
            robust.infeasible.len()
        );
    }
    Ok(())
}

/// `iris compare` — Iris vs EPS vs centralized.
pub fn compare(opts: &Options) -> IrisResult<()> {
    let region = load(opts)?;
    let cuts: usize = opts.num("cuts", 1)?;
    apply_threads(opts)?;
    let goals = DesignGoals::with_cuts(cuts);
    let study = DesignStudy::run(&region, &goals);
    let hubs = pick_hub_pair(&region.map, 4.0, 24.0);
    let central = plan_centralized(&region, &goals, hubs, HubHoming::Split)?;
    let book = PriceBook::paper_2020();
    // Centralized electrical cost: transceivers at both ends of every
    // access fiber, plus switch ports and fiber leases.
    let central_cost = central.total_transceivers() as f64
        * (book.transceiver + book.electrical_port)
        + central.total_fiber_pair_spans() as f64 * book.fiber_pair_span;

    println!(
        "{:<24} {:>14} {:>14} {:>14}",
        "", "centralized", "EPS (distr.)", "Iris (distr.)"
    );
    println!(
        "{:<24} {:>14} {:>14} {:>14}",
        "transceivers",
        central.total_transceivers(),
        study.eps.total_transceivers(),
        study.iris.dc_transceivers
    );
    println!(
        "{:<24} {:>14} {:>14} {:>14}",
        "fiber pair-spans",
        central.total_fiber_pair_spans(),
        study.eps.total_fiber_pair_spans(),
        study.iris.total_fiber_pair_spans()
    );
    println!(
        "{:<24} {:>14.0} {:>14.0} {:>14.0}",
        "annual cost ($)",
        central_cost,
        study.eps_cost.total(),
        study.iris_cost.total()
    );
    // Latency: worst DC-DC distance.
    let goals0 = DesignGoals::with_cuts(0);
    let paths = iris_planner::topology::nominal_paths(&region, &goals0);
    let direct_worst = paths.iter().map(|p| p.length_km).fold(0.0f64, f64::max);
    println!(
        "{:<24} {:>14.1} {:>14.1} {:>14.1}",
        "worst DC-DC fiber (km)",
        central.worst_pair_km(),
        direct_worst,
        direct_worst
    );
    println!(
        "{:<24} {:>14.2} {:>14.2} {:>14.2}",
        "worst DC-DC RTT (ms)",
        iris_geo::rtt_ms(central.worst_pair_km()),
        iris_geo::rtt_ms(direct_worst),
        iris_geo::rtt_ms(direct_worst)
    );
    println!(
        "\nIris / centralized cost: {:.2}x   EPS / Iris: {:.2}x",
        study.iris_cost.total() / central_cost,
        study.eps_iris_cost_ratio()
    );
    Ok(())
}

/// `iris siting` — service-area analysis.
pub fn siting(opts: &Options) -> IrisResult<()> {
    let region = load(opts)?;
    let hubs = pick_hub_pair(&region.map, 4.0, 7.0);
    let grid = region_grid(&region.map, 2.0, 30.0);
    let central = centralized_service_area(&region.map, &[hubs.0, hubs.1], &grid, 60.0);
    let distributed = distributed_service_area(&region.map, &region.dcs, &grid, 120.0);
    println!("service area for one new DC:");
    println!("  centralized (60 km of both hubs):   {central:8.0} km^2");
    println!("  distributed (120 km of every DC):   {distributed:8.0} km^2");
    println!(
        "  flexibility gain:                   {:8.2}x",
        distributed / central.max(1.0)
    );
    Ok(())
}

/// `iris simulate` — paired FCT comparison.
pub fn simulate(opts: &Options) -> IrisResult<()> {
    let region = load(opts)?;
    apply_threads(opts)?;
    let util: f64 = opts.num("util", 0.4)?;
    let interval: f64 = opts.num("interval", 5.0)?;
    let duration: f64 = opts.num("duration", 20.0)?;
    let workload = match opts.get("workload") {
        None | Some("web1") => FlowSizeDist::pfabric_web_search(),
        Some("web2") => FlowSizeDist::facebook_web(),
        Some("hadoop") => FlowSizeDist::facebook_hadoop(),
        Some("cache") => FlowSizeDist::facebook_cache(),
        Some(other) => return Err(format!("unknown workload '{other}'").into()),
    };
    let goals = DesignGoals::with_cuts(0);
    let prov = provision(&region, &goals);
    let raw = SimTopology::from_provisioning(&region, &goals, &prov, 1.0);
    let max_cap = raw
        .links
        .iter()
        .map(|l| l.capacity_gbps)
        .fold(0.0f64, f64::max);
    let topo = SimTopology::from_provisioning(&region, &goals, &prov, 2.0 / max_cap);
    let (result, manifest) = iris_simnet::experiment::run_comparison_recorded(
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
        let payload = serde_json::json!({
            "manifest": serde_json::to_value(&manifest).map_err(|e| e.to_string())?,
            "result": serde_json::to_value(result).map_err(|e| e.to_string())?,
        });
        let text = serde_json::to_string_pretty(&payload).map_err(|e| e.to_string())?;
        std::fs::write(out, text + "\n").map_err(|e| format!("--out: cannot write {out}: {e}"))?;
        println!("  results written to {out}");
    }
    Ok(())
}

/// `iris simd` — the fig17/18 reconfiguration-impact pipeline at 10⁶+
/// flows, via per-link decomposition ([`iris_flowsim`]) instead of the
/// exact global-waterfill engine.
///
/// The topology and experiment grid mirror `iris simulate` (a planned
/// region, Iris vs EPS fabrics, bounded 50% changes), but capacities are
/// scaled so the Poisson process offers `--flows` admitted flows over
/// the duration — two to three orders of magnitude beyond what the
/// exact engine sustains. A small-scale cell is also run through *both*
/// engines and their p50/p99 agreement is reported as validation.
///
/// The artifact written by `--out` contains no wall-clock or backend
/// detail: it is byte-identical across worker fleets, worker counts and
/// `IRIS_THREADS` (CI diffs it across those axes).
pub fn simd(opts: &Options) -> IrisResult<()> {
    use iris_flowsim::coord::{estimate_with_trace, Backend, EstimateConfig, FleetConfig};
    use iris_flowsim::proto::WorkSpec;
    use iris_simnet::engine::{FabricModel, FlowRecord, SimConfig, Simulator};
    use iris_simnet::experiment::fct_quantile;
    use iris_simnet::TrafficMatrix;

    apply_threads(opts)?;
    let dcs: usize = opts.num("dcs", 8)?;
    let util: f64 = opts.num("util", 0.4)?;
    let duration: f64 = opts.num("duration", 20.0)?;
    let flows_target: f64 = opts.num("flows", 1_000_000.0)?;
    let seed: u64 = opts.num("seed", 42)?;
    let epsilon: f64 = opts.num("epsilon", 0.02)?;
    let workload = match opts.get("workload") {
        None | Some("web1") => FlowSizeDist::pfabric_web_search(),
        Some("web2") => FlowSizeDist::facebook_web(),
        Some("hadoop") => FlowSizeDist::facebook_hadoop(),
        Some("cache") => FlowSizeDist::facebook_cache(),
        Some(other) => return Err(format!("unknown workload '{other}'").into()),
    };
    let matrices = match opts.get("matrices") {
        Some(raw) => Some(
            raw.parse::<FamilySpec>()
                .map_err(|detail| IrisError::InvalidInput { detail })?,
        ),
        None => None,
    };
    let backend = match opts.get("workers") {
        None => Backend::InProcess,
        Some(list) => {
            let endpoints: Vec<String> = list
                .split(',')
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty())
                .collect();
            if endpoints.is_empty() {
                return Err("--workers: expected HOST:PORT[,HOST:PORT...]"
                    .to_owned()
                    .into());
            }
            Backend::Fleet(FleetConfig::new(endpoints))
        }
    };
    let cfg = EstimateConfig {
        cluster: !opts.flag("no-cluster"),
        epsilon,
        backend,
    };
    let intervals: Vec<f64> = match opts.get("interval") {
        Some(v) => vec![v
            .parse()
            .map_err(|_| format!("--interval: bad number '{v}'"))?],
        None => vec![1.0, 5.0],
    };

    // The fig17 topology: a planned region, largest link ~2 Gbps.
    let region = iris_bench::simple_region(3, dcs);
    let goals = DesignGoals::with_cuts(0);
    let prov = provision(&region, &goals);
    let raw = SimTopology::from_provisioning(&region, &goals, &prov, 1.0);
    let max_cap = raw
        .links
        .iter()
        .map(|l| l.capacity_gbps)
        .fold(0.0f64, f64::max);
    let base_scale = 2.0 / max_cap;
    let base = SimTopology::from_provisioning(&region, &goals, &prov, base_scale);

    let spec_for = |topo: &SimTopology, fabric: FabricModel, interval: f64| WorkSpec {
        topo: topo.clone(),
        // A workload family replaces the default heavy-tailed matrix
        // with its mean per-pair rates, so the simulated traffic matches
        // what `iris plan --robust` provisioned for.
        matrix: match &matrices {
            Some(spec) => {
                let shapes = spec.shapes(topo.n_dcs);
                let mean: Vec<f64> = (0..shapes[0].len())
                    .map(|i| shapes.iter().map(|m| m[i]).sum::<f64>() / shapes.len() as f64)
                    .collect();
                TrafficMatrix::from_weights(topo.n_dcs, seed, &mean)
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
    let probe_sim = Simulator::new(
        probe_spec.topo.clone(),
        probe_spec.matrix.clone(),
        probe_spec.config.clone(),
    );
    let probe_trace = probe_spec.trace();
    let offered = probe_trace.arrivals.len() as f64;
    let admitted = probe_trace.flow_count() as f64;
    if offered == 0.0 || admitted == 0.0 {
        return Err("probe run admitted no flows; raise --util or --duration"
            .to_owned()
            .into());
    }
    let admitted_rate = probe_sim.arrival_rate() * (admitted / offered);
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
        _ => return Err("validation cell completed no flows".to_owned().into()),
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
            let spec = spec_for(&topo, fabric, interval);
            let trace = spec.trace();
            let report = estimate_with_trace(&spec, &trace, &cfg)?;
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
        let row = serde_json::json!({
            "interval_s": interval,
            "eps": {
                "flows": eps.records.len(),
                "p50_s": q(&eps.records, 0.5, false),
                "p99_s": q(&eps.records, 0.99, false),
                "p99_short_s": q(&eps.records, 0.99, true),
            },
            "iris": {
                "flows": irs.records.len(),
                "p50_s": q(&irs.records, 0.5, false),
                "p99_s": q(&irs.records, 0.99, false),
                "p99_short_s": q(&irs.records, 0.99, true),
            },
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
        let text = serde_json::to_string_pretty(&payload).map_err(|e| e.to_string())?;
        if let Some(dir) = Path::new(out).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("--out: cannot create {}: {e}", dir.display()))?;
            }
        }
        std::fs::write(out, text + "\n").map_err(|e| format!("--out: cannot write {out}: {e}"))?;
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

/// `iris chaos` — seeded fault-schedule sweep through the self-healing
/// control loop; with `--crash`, a crash-recovery sweep through the
/// durability layer instead. Deterministic: same seed, byte-identical
/// output.
pub fn chaos(opts: &Options) -> IrisResult<()> {
    use iris_bench::chaos::{run_chaos, ChaosConfig};
    if opts.flag("crash") {
        return chaos_crash(opts);
    }
    if opts.flag("federation") {
        return chaos_federation(opts);
    }
    apply_threads(opts)?;
    let cfg = ChaosConfig {
        seed: opts.num("seed", 7)?,
        scenarios: opts.num("scenarios", 10)?,
        n_dcs: opts.num("dcs", 6)?,
        cuts: opts.num("cuts", 1)?,
    };
    let report = run_chaos(&cfg)?;

    println!(
        "chaos sweep: seed {}, {} scenarios, {} DCs, k={} ({} ducts)",
        cfg.seed, cfg.scenarios, cfg.n_dcs, cfg.cuts, report.ducts
    );
    println!("\nscenario  cuts  recovered  shed  retries  rollbacks  quarantined");
    for o in &report.outcomes {
        println!(
            "{:>8}  {:>4}  {:>9}  {:>4}  {:>7}  {:>9}  {:>11}",
            o.scenario,
            o.recoveries,
            o.fully_recovered,
            o.shed_pairs,
            o.retries,
            o.rollbacks,
            o.quarantined
        );
    }
    let d = &report.recovery_ms;
    println!(
        "\nrecovery time (ms):  p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}  ({} recoveries)",
        d.p50, d.p90, d.p99, d.max, d.samples
    );
    let d = &report.dark_ms;
    println!(
        "dark time (ms):      p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}",
        d.p50, d.p90, d.p99, d.max
    );
    let d = &report.fct_impact;
    println!(
        "p99-FCT impact (x):  p50 {:.3}  p90 {:.3}  p99 {:.3}  max {:.3}",
        d.p50, d.p90, d.p99, d.max
    );
    println!(
        "totals: {} retries, {} rollbacks, {} shed pairs; all <=k cuts recovered: {}",
        report.total_retries,
        report.total_rollbacks,
        report.total_shed_pairs,
        report.all_tolerated_cuts_recovered
    );

    if let Some(path) = opts.get("out") {
        let mut json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("--out: cannot serialize report: {e}"))?;
        json.push('\n');
        std::fs::write(path, json).map_err(|e| format!("--out: cannot write {path}: {e}"))?;
        eprintln!("report written to {path}");
    }
    Ok(())
}

/// `iris chaos --crash` — controller crash-faults: kill the mutator at a
/// seeded point (clean, torn-tail, or bad-CRC), recover from the WAL,
/// and diff against an uninterrupted same-seed run, byte for byte.
fn chaos_crash(opts: &Options) -> IrisResult<()> {
    use iris_bench::crash::{run_crash, CrashConfig, CrashMode};
    apply_threads(opts)?;
    let cfg = CrashConfig {
        seed: opts.num("seed", 7)?,
        scenarios: opts.num("scenarios", 9)?,
        n_dcs: opts.num("dcs", 5)?,
        cuts: opts.num("cuts", 1)?,
        batches: opts.num("batches", 8)?,
    };
    let report = run_crash(&cfg)?;

    println!(
        "crash-recovery sweep: seed {}, {} scenarios x {} batches, {} DCs, k={} ({} ducts)",
        cfg.seed, cfg.scenarios, cfg.batches, cfg.n_dcs, cfg.cuts, report.ducts
    );
    println!("\nscenario  mode        crash@  lost  salvaged  torn-bytes  epoch  recovered  final");
    for o in &report.outcomes {
        let mode = match o.mode {
            CrashMode::CleanKill => "clean-kill",
            CrashMode::TornTail => "torn-tail",
            CrashMode::BadCrcTail => "bad-crc",
        };
        println!(
            "{:>8}  {:<10}  {:>6}  {:>4}  {:>8}  {:>10}  {:>5}  {:>9}  {:>5}",
            o.scenario,
            mode,
            o.crash_after,
            o.batches_lost,
            o.salvaged_records,
            o.truncated_bytes,
            o.recovered_epoch,
            o.recovered_identical,
            o.final_identical
        );
    }
    let d = &report.replay_reconfig_ms;
    println!(
        "\nmodeled replay cost (ms):  p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}",
        d.p50, d.p90, d.p99, d.max
    );
    println!(
        "all recovered byte-identical: {}   all finals byte-identical: {}",
        report.all_recovered_identical, report.all_final_identical
    );
    if !(report.all_recovered_identical && report.all_final_identical) {
        return Err(IrisError::ReplayFailed {
            detail: "a crash scenario diverged from its uninterrupted reference run".to_owned(),
        });
    }

    if let Some(path) = opts.get("out") {
        let mut json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("--out: cannot serialize report: {e}"))?;
        json.push('\n');
        std::fs::write(path, json).map_err(|e| format!("--out: cannot write {path}: {e}"))?;
        eprintln!("report written to {path}");
    }
    Ok(())
}

/// `iris chaos --federation` — region-level faults against a real
/// 3-region federation: partition, lagging replica, follower restart,
/// and a full primary kill-9 with client re-routing mid-run. Reports
/// replication lag, modeled failover time and the stale-read rate;
/// everything serialized is seed-deterministic, byte-identical across
/// runs and thread counts.
fn chaos_federation(opts: &Options) -> IrisResult<()> {
    use iris_bench::federation::{run_federation, FederationConfig};
    apply_threads(opts)?;
    let default = FederationConfig::default();
    let cfg = FederationConfig {
        seed: opts.num("seed", default.seed)?,
        n_dcs: opts.num("dcs", default.n_dcs)?,
        cuts: opts.num("cuts", default.cuts)?,
        users: opts.num("users", default.users)?,
        writes_per_phase: opts.num("writes", default.writes_per_phase)?,
    };
    let (report, measured) = run_federation(&cfg)?;

    println!(
        "federation chaos: seed {}, 3 regions, {} users, {} writes/phase, {} DCs, k={} ({} ducts)",
        cfg.seed, cfg.users, cfg.writes_per_phase, cfg.n_dcs, cfg.cuts, report.ducts
    );
    print!("population:");
    for r in &report.population {
        print!("  region {}: {} users", r.region, r.home_users);
    }
    println!();
    println!(
        "\n{:<14} {:>6} {:>6} {:>5} {:>9} {:>6} {:>5} {:>10} {:>9} {:>10}",
        "phase",
        "writes",
        "epoch",
        "lag",
        "lag-ms",
        "stale",
        "fail",
        "fail-ms",
        "converged",
        "state-crc"
    );
    for p in &report.phases {
        println!(
            "{:<14} {:>6} {:>6} {:>5} {:>9.1} {:>6} {:>5} {:>10} {:>9} {:>10}",
            p.phase,
            p.writes_acked,
            p.acked_epoch,
            p.lag_epochs,
            p.modeled_lag_ms,
            p.stale_redirects,
            p.failovers,
            p.modeled_failover_ms,
            p.converged,
            p.state_crc
        );
    }
    println!(
        "\ntotals: {} failovers, {} stale-read redirects, {} lost acked writes; all converged: {}",
        report.total_failovers,
        report.total_stale_redirects,
        report.lost_acked_writes,
        report.all_converged
    );
    print!("wall clock (not serialized):");
    for (phase, ms) in &measured.phase_ms {
        print!("  {phase} {ms:.0} ms");
    }
    println!();
    if report.lost_acked_writes > 0 || !report.all_converged {
        return Err(IrisError::ReplayFailed {
            detail: format!(
                "federation diverged: {} lost acked writes, all converged: {}",
                report.lost_acked_writes, report.all_converged
            ),
        });
    }

    if let Some(path) = opts.get("out") {
        let mut json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("--out: cannot serialize report: {e}"))?;
        json.push('\n');
        std::fs::write(path, json).map_err(|e| format!("--out: cannot write {path}: {e}"))?;
        eprintln!("report written to {path}");
    }
    Ok(())
}

/// `iris wal inspect` — dump and validate a write-ahead log directory
/// without touching it (no truncation, no repair).
pub fn wal_inspect(opts: &Options) -> IrisResult<()> {
    use iris_service::wal::{SNAPSHOT_FILE, WAL_FILE};

    let dir = Path::new(opts.required("dir")?);
    if !dir.is_dir() {
        return Err(IrisError::InvalidInput {
            detail: format!("--dir {}: not a directory", dir.display()),
        });
    }
    let snap = iris_service::read_snapshot(&dir.join(SNAPSHOT_FILE))?;
    match &snap {
        Some(s) => println!(
            "snapshot: epoch {}, {} pairs allocated, {} active cuts, {} writes applied",
            s.epoch,
            s.allocation.len(),
            s.active_cuts.len(),
            s.writes_applied
        ),
        None => println!("snapshot: none"),
    }

    let (batches, salvage) = iris_service::read_log(&dir.join(WAL_FILE))?;
    println!(
        "log: {} records, {} bytes good, {} bytes torn",
        salvage.records, salvage.good_bytes, salvage.truncated_bytes
    );
    let base_epoch = snap.as_ref().map_or(0, |s| s.epoch);
    for (i, b) in batches.iter().enumerate() {
        let stale = if b.epoch <= base_epoch && base_epoch > 0 {
            "  [pre-snapshot, skipped on replay]"
        } else {
            ""
        };
        println!(
            "  record {i}: epoch {}, {} updates, {} cuts, {} writes, {} coalesced{stale}",
            b.epoch,
            b.updates.len(),
            b.cuts.len(),
            b.writes_applied,
            b.coalesced
        );
    }
    match &salvage.torn {
        Some(why) => println!("torn tail: {why}"),
        None => println!("torn tail: none"),
    }

    // The chain rule is recovery's own, so what this prints is what a
    // restart will do.
    let epoch = iris_service::recovery::chain_end(base_epoch, batches.iter().map(|b| b.epoch))?;
    println!("replay would recover to epoch {epoch}");
    Ok(())
}

/// `iris serve` — run the long-lived control-plane server until killed.
pub fn serve(opts: &Options) -> IrisResult<()> {
    use std::io::Write;

    let region = load(opts)?;
    apply_threads(opts)?;
    let config = iris_service::ServiceConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:7117").to_owned(),
        cuts: opts.num("cuts", 1)?,
        queue_capacity: opts.num("queue", 64)?,
        coalesce_window_ms: opts.num("window", 2)?,
        wal_dir: opts.get("wal-dir").map(str::to_owned),
        snapshot_every: opts.num("snapshot-every", 64)?,
        trace: parse_switch(opts.get("trace"), "trace", true)?,
        slow_ms: opts.num("slow-ms", 250.0)?,
        shards: opts.num("shards", 0)?,
        region_id: opts.num("region-id", 0)?,
        peers: match opts.get("peers") {
            Some(raw) => raw
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect(),
            None => Vec::new(),
        },
        follower: opts.flag("follower"),
    };
    let handle = iris_service::serve(region, &config)?;
    // The bound address goes out first and flushed: with --addr ...:0 the
    // kernel picks the port, and scripts parse this line to find it.
    println!("iris-service listening on {}", handle.local_addr());
    println!(
        "  {} event-loop shards, write queue {} slots, coalesce window {} ms \
         (Overloaded suggests retry in {} ms)",
        config.effective_shards(),
        config.queue_capacity,
        config.coalesce_window_ms,
        config.retry_after_ms()
    );
    if let Some(stats) = handle.replay_stats() {
        let dir = config.wal_dir.as_deref().unwrap_or("?");
        println!(
            "  durable: WAL in {dir}, compacting every {} batches",
            config.snapshot_every
        );
        println!(
            "  recovered to epoch {} ({} batches replayed{}{}{})",
            stats.recovered_epoch,
            stats.replayed_batches,
            match stats.from_snapshot_epoch {
                Some(e) => format!(", snapshot at epoch {e}"),
                None => String::new(),
            },
            if stats.truncated_bytes > 0 {
                format!(", {} torn bytes salvaged", stats.truncated_bytes)
            } else {
                String::new()
            },
            if stats.skipped_records > 0 {
                format!(", {} pre-snapshot records skipped", stats.skipped_records)
            } else {
                String::new()
            },
        );
    }
    if config.region_id != 0 || !config.peers.is_empty() || config.follower {
        println!(
            "  region {} ({}){}",
            config.region_id,
            if config.follower {
                "follower: writes answered NotPrimary until promoted"
            } else {
                "primary"
            },
            if config.peers.is_empty() {
                String::new()
            } else {
                format!(", replicating to {}", config.peers.join(", "))
            }
        );
    }
    println!("  serving until killed (metrics via the MetricsSnapshot request)");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot flush stdout: {e}"))?;
    loop {
        std::thread::park();
        if handle.is_shutting_down() {
            return Ok(());
        }
    }
}

/// `iris rpc` — one ad-hoc request against a running server, reply
/// printed as JSON.
pub fn rpc(opts: &Options) -> IrisResult<()> {
    use iris_service::Request;

    let addr = opts.get("addr").unwrap_or("127.0.0.1:7117");
    let op = opts.required("op")?;
    let pair = |name: &str| -> Result<usize, String> {
        opts.required(name)?
            .parse()
            .map_err(|_| format!("--{name}: cannot parse as a DC index"))
    };
    let request = match op {
        "get_plan" | "plan" => Request::GetPlan,
        "get_plan_at" | "plan_at" => Request::GetPlanAt {
            min_epoch: opts.num("min-epoch", 0)?,
            wait_ms: opts.num("wait", 1_000)?,
        },
        "get_topology" | "topology" => Request::GetTopology,
        "query_path" | "path" => Request::QueryPath {
            a: pair("a")?,
            b: pair("b")?,
        },
        "update_demand" | "update" => Request::UpdateDemand {
            a: pair("a")?,
            b: pair("b")?,
            circuits: opts.num("circuits", 1)?,
        },
        "report_fiber_cut" | "cut" => Request::ReportFiberCut {
            cuts: parse_cut_list(opts.required("cuts")?)?,
        },
        "health" => Request::Health,
        "promote" => Request::Promote,
        "metrics_snapshot" | "metrics" => Request::MetricsSnapshot,
        "trace_dump" | "trace" => Request::TraceDump {
            max_events: opts.num("max", 0)?,
        },
        other => {
            return Err(format!(
                "unknown op '{other}' (try get_plan, get_plan_at, get_topology, query_path, \
                 update_demand, report_fiber_cut, health, promote, metrics_snapshot, trace_dump)"
            )
            .into())
        }
    };
    let mut client = iris_service::ServiceClient::connect(addr)?;
    let response = client.call(&request)?;
    let json =
        serde_json::to_string_pretty(&response).map_err(|e| format!("cannot render reply: {e}"))?;
    println!("{json}");
    Ok(())
}

/// `iris regions` — federation overview: probe every listed server and
/// print each region's role, epoch, and replication ledger (peer acked
/// epochs, lag in epochs and modeled ms, reconnect counts).
pub fn regions(opts: &Options) -> IrisResult<()> {
    use iris_service::{Request, Response};

    let addrs: Vec<&str> = opts
        .get("addr")
        .unwrap_or("127.0.0.1:7117")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let mut reached = 0usize;
    let mut last_err: Option<IrisError> = None;
    for addr in &addrs {
        let health = iris_service::ServiceClient::connect(addr).and_then(|mut client| {
            client.set_deadline(Some(std::time::Duration::from_millis(2_000)))?;
            match client.call(&Request::Health)?.into_result()? {
                Response::Health(h) => Ok(h),
                other => Err(IrisError::Decode {
                    detail: format!("Health answered {other:?}"),
                }),
            }
        });
        match health {
            Ok(h) => {
                reached += 1;
                println!(
                    "region {} ({}) at {addr} — epoch {}, queue {}, {} writes applied",
                    h.region, h.role, h.epoch, h.queue_depth, h.writes_applied
                );
                for p in &h.peers {
                    println!(
                        "  peer region {} at {}: {}, acked epoch {}, lag {} epochs (~{:.1} ms), \
                         {} reconnects",
                        p.region,
                        p.addr,
                        if p.connected { "connected" } else { "down" },
                        p.acked_epoch,
                        p.lag_epochs,
                        p.lag_ms,
                        p.reconnects
                    );
                }
            }
            Err(e) => {
                println!("region ? at {addr} — unreachable: {e}");
                last_err = Some(e);
            }
        }
    }
    if reached == 0 {
        if let Some(e) = last_err {
            return Err(e);
        }
    }
    Ok(())
}

/// `iris loadgen` — seeded event-loop load against a running server.
pub fn loadgen(opts: &Options) -> IrisResult<()> {
    let codec_name = opts.get("codec").unwrap_or("json");
    let codec =
        iris_service::Codec::from_name(codec_name).ok_or_else(|| IrisError::InvalidInput {
            detail: format!("--codec: unknown codec '{codec_name}' (expected json or binary)"),
        })?;
    let rate = match opts.get("rate") {
        Some(raw) => Some(raw.parse::<f64>().map_err(|_| IrisError::InvalidInput {
            detail: format!("--rate: cannot parse '{raw}' as requests/s"),
        })?),
        None => None,
    };
    let cfg = iris_service::LoadgenConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:7117").to_owned(),
        seed: opts.num("seed", 7)?,
        requests: opts.num("requests", 2000)?,
        connections: opts.num("connections", 4)?,
        cuts: match opts.get("cut") {
            Some(list) => parse_cut_list(list)?,
            None => Vec::new(),
        },
        codec,
        pipeline: opts.num("pipeline", 1)?,
        rate,
        matrices: match opts.get("matrices") {
            Some(raw) => Some(
                raw.parse::<FamilySpec>()
                    .map_err(|detail| IrisError::InvalidInput { detail })?,
            ),
            None => None,
        },
        ..iris_service::LoadgenConfig::default()
    };
    let out = opts.get("out").unwrap_or("results/service_load.json");
    let report = iris_service::run_loadgen(&cfg)?;
    let r = &report.results;
    let m = &report.measured;

    println!(
        "loadgen: seed {}, {} requests over {} connections against {}",
        r.seed, r.requests, r.connections, cfg.addr
    );
    match cfg.rate {
        Some(rate) => println!(
            "  open loop at {rate} req/s (seeded exponential arrivals), {} codec",
            cfg.codec.name()
        ),
        None => println!(
            "  closed loop, pipeline {} per connection, {} codec",
            cfg.pipeline.max(1),
            cfg.codec.name()
        ),
    }
    println!("\ndeterministic results (written to {out}):");
    for oc in &r.op_counts {
        println!("  {:<18} {:>7}", oc.op, oc.count);
    }
    println!(
        "  {} update pairs, {} coalescable updates ({:.1}% of updates)",
        r.update_pairs,
        r.coalescable_updates,
        r.coalescable_ratio * 100.0
    );
    if let Some(cut) = &r.cut {
        println!(
            "  cut {:?} at request {}: recovered={} shed={} recovery {:.1} ms \
             (detect {:.0} + replan {:.0} + reconfig {:.0})",
            cut.cuts,
            cut.at_request,
            cut.recovery.fully_recovered,
            cut.recovery.shed_pairs,
            cut.recovery.recovery_ms,
            cut.recovery.detection_ms,
            cut.recovery.replan_ms,
            cut.recovery.reconfig_ms
        );
    }
    println!("  unexpected errors: {}", r.errors);

    println!("\nmeasured (wall clock, not serialized):");
    println!(
        "  {:.2} s wall, {:.0} req/s across {} connections",
        m.wall_s, m.throughput_rps, r.connections
    );
    for op in &m.per_op {
        println!(
            "  {:<18} {:>7}  p50 {:>8.3} ms  p99 {:>8.3} ms",
            op.op, op.count, op.p50_ms, op.p99_ms
        );
    }
    println!(
        "  idle-baseline read p99:     {:.3} ms",
        m.baseline_read_p99_ms
    );
    if r.cut.is_some() {
        println!(
            "  reads during recovery:      {} (p99 {:.3} ms)",
            m.reads_during_recovery, m.recovery_read_p99_ms
        );
        println!("  recovery wall time:         {:.1} ms", m.recovery_wall_ms);
    }
    println!(
        "  backpressure retries: {}   unreachable reads: {}   server coalesced: {}   \
         server overloaded: {}",
        m.retries, m.unreachable_reads, m.server_coalesced, m.server_overloaded
    );

    iris_service::loadgen::write_results(r, out)?;
    println!("\nresults written to {out}");
    Ok(())
}

/// `iris trace dump` — fetch the server's flight recorder and render
/// each trace as an indented span tree plus the slow-request log.
pub fn trace_dump(opts: &Options) -> IrisResult<()> {
    use iris_service::{Request, Response, TraceEventInfo};

    let addr = opts.get("addr").unwrap_or("127.0.0.1:7117");
    let max_events: u64 = opts.num("max", 0)?;
    let keep: usize = opts.num("traces", 10)?;
    let mut client = iris_service::ServiceClient::connect(addr)?;
    let Response::Trace(dump) = client
        .call(&Request::TraceDump { max_events })?
        .into_result()?
    else {
        return Err(IrisError::Decode {
            detail: "TraceDump answered a non-Trace response".to_owned(),
        });
    };
    println!(
        "flight recorder @ {addr}: enabled={}, {} events, {} overwritten",
        dump.enabled,
        dump.events.len(),
        dump.dropped
    );

    // Traces in order of their newest event, so the tail of the output
    // is the most recent activity.
    let mut order: Vec<u64> = Vec::new();
    for e in &dump.events {
        if let Some(pos) = order.iter().position(|&t| t == e.trace_id) {
            order.remove(pos);
        }
        order.push(e.trace_id);
    }
    let skip = if keep == 0 {
        0
    } else {
        order.len().saturating_sub(keep)
    };
    if skip > 0 {
        println!(
            "(showing the {} newest of {} traces; --traces 0 shows all)",
            order.len() - skip,
            order.len()
        );
    }
    for &tid in &order[skip..] {
        let events: Vec<&TraceEventInfo> =
            dump.events.iter().filter(|e| e.trace_id == tid).collect();
        // Offsets are rendered relative to the trace's earliest
        // measured span, so each tree starts near +0.
        let base_us = events
            .iter()
            .filter(|e| !e.modeled)
            .map(|e| e.start_us)
            .min()
            .unwrap_or(0);
        println!("\ntrace {tid:#018x}");
        let mut roots: Vec<&&TraceEventInfo> = events
            .iter()
            .filter(|e| e.parent_id == 0 || !events.iter().any(|p| p.span_id == e.parent_id))
            .collect();
        roots.sort_by_key(|e| e.start_us);
        for root in roots {
            print_span_tree(&events, root, 0, base_us);
        }
    }

    if dump.slow.is_empty() {
        println!("\nslow-request log: empty");
    } else {
        println!("\nslow-request log (oldest first):");
        for s in &dump.slow {
            println!(
                "  {:<14} {:>10.3} ms  trace {:#018x}  at +{:.3} s",
                s.op,
                s.total_ms,
                s.trace_id,
                s.at_us as f64 / 1e6
            );
        }
    }
    Ok(())
}

/// Print one span and, recursively, its children (indented).
fn print_span_tree(
    events: &[&iris_service::TraceEventInfo],
    node: &iris_service::TraceEventInfo,
    depth: usize,
    base_us: u64,
) {
    let indent = "  ".repeat(depth + 1);
    let width = 26usize.saturating_sub(depth * 2).max(8);
    if node.modeled {
        // Modeled steps carry parent-relative offsets from the
        // controller's deterministic timeline.
        println!(
            "{indent}~{:<width$} +{:>9.3} ms  {:>10.3} ms (modeled)",
            node.stage,
            node.start_us as f64 / 1e3,
            node.dur_us as f64 / 1e3,
        );
    } else {
        println!(
            "{indent}{:<width$}  +{:>9.3} ms  {:>10.3} ms",
            node.stage,
            node.start_us.saturating_sub(base_us) as f64 / 1e3,
            node.dur_us as f64 / 1e3,
        );
    }
    let mut kids: Vec<&&iris_service::TraceEventInfo> = events
        .iter()
        .filter(|e| e.parent_id == node.span_id && e.span_id != node.span_id)
        .collect();
    kids.sort_by_key(|e| (e.modeled, e.start_us));
    for kid in kids {
        print_span_tree(events, kid, depth + 1, base_us);
    }
}

/// `iris top` — one-shot (or `--watch` repeating) health and latency
/// view of a running server.
pub fn top(opts: &Options) -> IrisResult<()> {
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7117");
    let watch: u64 = opts.num("watch", 0)?;
    let mut client = iris_service::ServiceClient::connect(addr)?;
    loop {
        let view = render_top(&mut client, addr)?;
        if watch > 0 {
            // Clear + home so the watch view repaints in place.
            print!("\x1b[2J\x1b[H");
        }
        print!("{view}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        if watch == 0 {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(watch.max(1)));
    }
}

/// Build the `iris top` screen from Health + MetricsSnapshot replies.
fn render_top(client: &mut iris_service::ServiceClient, addr: &str) -> IrisResult<String> {
    use iris_service::{Request, Response};
    use std::fmt::Write as _;

    let Response::Health(h) = client.call(&Request::Health)?.into_result()? else {
        return Err(IrisError::Decode {
            detail: "Health answered a non-Health response".to_owned(),
        });
    };
    let Response::Metrics { prometheus } = client.call(&Request::MetricsSnapshot)?.into_result()?
    else {
        return Err(IrisError::Decode {
            detail: "MetricsSnapshot answered a non-Metrics response".to_owned(),
        });
    };

    let mut out = String::new();
    let _ = writeln!(out, "iris top — {addr}");
    let _ = writeln!(
        out,
        "uptime {:>8.1} s   epoch {}   queue {}   overload events {}",
        h.uptime_ms as f64 / 1e3,
        h.epoch,
        h.queue_depth,
        h.overloaded
    );
    let _ = writeln!(
        out,
        "writes applied {}   coalesced {}   active cuts {:?}   quarantined {}",
        h.writes_applied, h.coalesced, h.active_cuts, h.quarantined
    );
    let _ = writeln!(
        out,
        "wal: {} records, {} bytes, last fsync {:.3} ms",
        h.wal_records, h.wal_bytes, h.last_fsync_ms
    );
    if h.region != 0 || !h.peers.is_empty() || h.role != "primary" {
        let _ = writeln!(out, "region {} — role {}", h.region, h.role);
        for p in &h.peers {
            let _ = writeln!(
                out,
                "  peer region {:<4} {:<21} {:<9}  acked {:>6}  \
                 lag {:>4} epochs (~{:>7.1} ms)  reconnects {}",
                p.region,
                p.addr,
                if p.connected { "connected" } else { "down" },
                p.acked_epoch,
                p.lag_epochs,
                p.lag_ms,
                p.reconnects
            );
        }
    }
    let batches = prom_counter(&prometheus, "iris_service_group_commit_batches");
    let saved = prom_counter(&prometheus, "iris_service_fsyncs_saved");
    if batches.is_some() || saved.is_some() {
        let _ = writeln!(
            out,
            "group commit: {} batches committed, {} fsyncs saved",
            batches.unwrap_or(0),
            saved.unwrap_or(0)
        );
    }
    let shards = shard_rows(&prometheus);
    if !shards.is_empty() {
        let _ = write!(out, "shards:");
        for (shard, requests, connections) in &shards {
            let _ = write!(out, "  [{shard}] {requests} req / {connections} conn");
        }
        let _ = writeln!(out);
    }
    let table = latency_table(&prometheus);
    if !table.is_empty() {
        let _ = writeln!(
            out,
            "\n  {:<18} {:>9}  {:>10}  {:>10}",
            "op", "count", "p50 \u{2264}", "p99 \u{2264}"
        );
        for (op, count, p50, p99) in table {
            let _ = writeln!(
                out,
                "  {:<18} {:>9}  {:>7} ms  {:>7} ms",
                op,
                count,
                fmt_upper(p50),
                fmt_upper(p99)
            );
        }
    }
    Ok(out)
}

/// An unlabeled counter's value from Prometheus text (`name value`).
fn prom_counter(prom: &str, name: &str) -> Option<u64> {
    prom.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse::<u64>().ok()
    })
}

/// Per-shard `(shard, requests, connections)` rows parsed from the
/// `iris_service_shard_*_total{shard="N"}` counters, shard ascending.
fn shard_rows(prom: &str) -> Vec<(String, u64, u64)> {
    use std::collections::BTreeMap;

    let mut rows: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for line in prom.lines() {
        let (field, rest) =
            if let Some(rest) = line.strip_prefix("iris_service_shard_requests_total{shard=\"") {
                (0, rest)
            } else if let Some(rest) =
                line.strip_prefix("iris_service_shard_connections_total{shard=\"")
            {
                (1, rest)
            } else {
                continue;
            };
        let Some((shard, value)) = rest.split_once("\"} ") else {
            continue;
        };
        let (Ok(shard), Ok(value)) = (shard.parse::<u64>(), value.trim().parse::<u64>()) else {
            continue;
        };
        let row = rows.entry(shard).or_insert((0, 0));
        if field == 0 {
            row.0 = value;
        } else {
            row.1 = value;
        }
    }
    rows.into_iter()
        .map(|(shard, (req, conn))| (shard.to_string(), req, conn))
        .collect()
}

/// Render a histogram upper bound: finite as a number, overflow as
/// `>max` (the sample fell past the last finite bucket).
fn fmt_upper(upper: f64) -> String {
    if upper.is_finite() {
        format!("{upper:.3}")
    } else {
        ">max".to_owned()
    }
}

/// Per-op `(op, count, p50_upper, p99_upper)` rows parsed from the
/// server's Prometheus text (`iris_service_latency_ms_bucket` series).
/// Quantiles are bucket upper bounds — conservative, not interpolated.
fn latency_table(prom: &str) -> Vec<(String, u64, f64, f64)> {
    use std::collections::BTreeMap;

    let mut per_op: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
    for line in prom.lines() {
        let Some(rest) = line.strip_prefix("iris_service_latency_ms_bucket{") else {
            continue;
        };
        let Some((labels, value)) = rest.split_once("} ") else {
            continue;
        };
        let mut le = None;
        let mut op = None;
        for part in labels.split(',') {
            let Some((k, v)) = part.split_once('=') else {
                continue;
            };
            let v = v.trim_matches('"');
            match k {
                "le" => le = Some(v.to_owned()),
                "op" => op = Some(v.to_owned()),
                _ => {}
            }
        }
        let (Some(le), Some(op)) = (le, op) else {
            continue;
        };
        let Ok(cum) = value.trim().parse::<u64>() else {
            continue;
        };
        let upper = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().unwrap_or(f64::INFINITY)
        };
        per_op.entry(op).or_default().push((upper, cum));
    }
    per_op
        .into_iter()
        .map(|(op, mut buckets)| {
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let count = buckets.last().map_or(0, |b| b.1);
            let p50 = bucket_quantile(&buckets, count, 0.50);
            let p99 = bucket_quantile(&buckets, count, 0.99);
            (op, count, p50, p99)
        })
        .collect()
}

/// The upper bound of the first cumulative bucket covering quantile `q`.
fn bucket_quantile(buckets: &[(f64, u64)], count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = ((count as f64) * q).ceil().max(1.0) as u64;
    for &(upper, cum) in buckets {
        if cum >= rank {
            return upper;
        }
    }
    f64::INFINITY
}

/// Parse an `on|off` option value, defaulting when absent.
fn parse_switch(value: Option<&str>, name: &str, default: bool) -> Result<bool, String> {
    match value {
        None => Ok(default),
        Some("on" | "true" | "1") => Ok(true),
        Some("off" | "false" | "0") => Ok(false),
        Some(other) => Err(format!("--{name}: expected on or off, got '{other}'")),
    }
}

/// Parse a comma-separated duct-id list (`"4"`, `"4,17"`).
fn parse_cut_list(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| format!("cannot parse duct id '{s}' in cut list"))
        })
        .collect()
}
