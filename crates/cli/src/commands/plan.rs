//! Region file → plan → cost: `gen`, `plan`, `compare`, `siting`.

use super::{family_spec, load};
use crate::args::Options;
use iris_core::prelude::*;
use iris_core::DesignStudy;
use iris_cost::centralized_cost;
use iris_errors::IrisResult;
use iris_fibermap::io::save_region;
use iris_fibermap::siting::{centralized_service_area, distributed_service_area, region_grid};
use iris_planner::centralized::{plan_centralized, HubHoming};
use iris_planner::workload::MatrixFamily;
use iris_planner::{provision, provision_robust, shed_fraction};
use std::path::Path;

/// `iris gen` — generate a synthetic region.
pub fn generate(opts: &Options) -> IrisResult<()> {
    let seed: u64 = opts.num("seed")?;
    let out = opts.required("out")?;
    let map = synth::generate_metro(&MetroParams {
        seed,
        n_huts: opts.num("huts")?,
        ..MetroParams::default()
    });
    let region = synth::place_dcs(
        map,
        &PlacementParams {
            seed: seed.wrapping_add(1),
            n_dcs: opts.num("dcs")?,
            capacity_fibers: opts.num("fibers")?,
            wavelengths_per_fiber: opts.num("lambda")?,
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
    let cuts: usize = opts.num("cuts")?;
    let goals = DesignGoals::with_cuts(cuts);
    if opts.flag("robust") {
        return plan_robust(&region, &goals, opts);
    }
    if opts.flag("matrices") {
        return Err("--matrices only applies to robust planning; add --robust".into());
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
    let spec = family_spec(opts)?.expect("the plan row gives --matrices a default");
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
    let cuts: usize = opts.num("cuts")?;
    let goals = DesignGoals::with_cuts(cuts);
    let study = DesignStudy::run(&region, &goals);
    let hubs = pick_hub_pair(&region.map, 4.0, 24.0);
    let central = plan_centralized(&region, &goals, hubs, HubHoming::Split)?;
    let central_cost = centralized_cost(&central, &PriceBook::paper_2020());

    let row = |label: &str, [central, eps, iris]: [String; 3]| {
        println!("{label:<24} {central:>14} {eps:>14} {iris:>14}");
    };
    row(
        "",
        ["centralized", "EPS (distr.)", "Iris (distr.)"].map(String::from),
    );
    let transceivers = [
        central.total_transceivers(),
        study.eps.total_transceivers(),
        study.iris.dc_transceivers,
    ];
    row("transceivers", transceivers.map(|n| n.to_string()));
    let spans = [
        central.total_fiber_pair_spans(),
        study.eps.total_fiber_pair_spans(),
        study.iris.total_fiber_pair_spans(),
    ];
    row("fiber pair-spans", spans.map(|n| n.to_string()));
    let costs = [
        central_cost,
        study.eps_cost.total(),
        study.iris_cost.total(),
    ];
    row("annual cost ($)", costs.map(|c| format!("{c:.0}")));
    // Latency: worst DC-DC distance.
    let goals0 = DesignGoals::with_cuts(0);
    let paths = iris_planner::topology::nominal_paths(&region, &goals0);
    let direct_worst = paths.iter().map(|p| p.length_km).fold(0.0f64, f64::max);
    let worst_km = [central.worst_pair_km(), direct_worst, direct_worst];
    row(
        "worst DC-DC fiber (km)",
        worst_km.map(|km| format!("{km:.1}")),
    );
    let rtt = |km| format!("{:.2}", iris_geo::rtt_ms(km));
    row("worst DC-DC RTT (ms)", worst_km.map(rtt));
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
