//! §2's design-space summary (Outcomes 1-4) as one table per region:
//! centralized vs distributed-EPS vs distributed-Iris on latency, siting
//! flexibility, reliability, and cost.
//!
//! Paper shape (§2.5): "the distributed approach has clear advantages in
//! latency and siting flexibility, but entails greater complexity and
//! cost" — unless realized with Iris, which keeps the advantages at
//! hub-and-spoke-like cost.

use iris_core::DesignStudy;
use iris_cost::PriceBook;
use iris_fibermap::reliability::hub_tradeoff;
use iris_fibermap::siting::{centralized_service_area, distributed_service_area, region_grid};
use iris_fibermap::synth::pick_hub_pair;
use iris_planner::centralized::{plan_centralized, HubHoming};
use iris_planner::{par_map, thread_count, topology::nominal_paths, DesignGoals};

fn main() {
    let n_regions = 6;
    let book = PriceBook::paper_2020();

    println!(
        "# region | latency: worst DC-DC km (central/direct) | area x | P(both hubs lost, 10 km disaster) | cost: central / EPS / Iris (normalized to central)"
    );
    let seeds: Vec<u64> = (0..n_regions).collect();
    let rows: Vec<serde_json::Value> = par_map(thread_count(), &seeds, |_, &seed| {
        let region = iris_bench::simple_region(seed + 60, 6 + seed as usize % 4);
        let goals = DesignGoals::with_cuts(0);
        let hubs = pick_hub_pair(&region.map, 4.0, 7.0);

        // Outcome 1: latency.
        let central = plan_centralized(&region, &goals, hubs, HubHoming::Split)
            .expect("synthetic regions are connected");
        let direct_worst = nominal_paths(&region, &goals)
            .iter()
            .map(|p| p.length_km)
            .fold(0.0f64, f64::max);

        // Outcome 2: siting flexibility.
        let grid = region_grid(&region.map, 2.0, 30.0);
        let area_central = centralized_service_area(&region.map, &[hubs.0, hubs.1], &grid, 60.0);
        let area_distr = distributed_service_area(&region.map, &region.dcs, &grid, 120.0);

        // Reliability: correlated hub loss under a 10 km disaster.
        let tradeoff = hub_tradeoff(&region.map, hubs, 10.0, &grid, 60.0);

        // Outcome 4: cost.
        let study = DesignStudy::run(&region, &goals);
        let central_cost = iris_cost::centralized_cost(&central, &book);
        let eps_rel = study.eps_cost.total() / central_cost;
        let iris_rel = study.iris_cost.total() / central_cost;

        serde_json::json!({
            "region": seed,
            "worst_km_centralized": central.worst_pair_km(),
            "worst_km_direct": direct_worst,
            "area_ratio": area_distr / area_central.max(1.0),
            "p_both_hubs_lost": tradeoff.p_both_hubs_lost,
            "eps_over_centralized": eps_rel,
            "iris_over_centralized": iris_rel,
        })
    });
    for row in &rows {
        println!(
            "{:6} | {:6.1} / {:6.1} km | {:4.2}x | {:6.4} | 1.00 / {:5.2} / {:5.2}",
            row["region"].as_u64().expect("u64"),
            row["worst_km_centralized"].as_f64().expect("f64"),
            row["worst_km_direct"].as_f64().expect("f64"),
            row["area_ratio"].as_f64().expect("f64"),
            row["p_both_hubs_lost"].as_f64().expect("f64"),
            row["eps_over_centralized"].as_f64().expect("f64"),
            row["iris_over_centralized"].as_f64().expect("f64")
        );
    }

    let iris_rels: Vec<f64> = rows
        .iter()
        .map(|r| r["iris_over_centralized"].as_f64().expect("f64"))
        .collect();
    let worst_iris = iris_rels.iter().copied().fold(0.0f64, f64::max);
    println!(
        "\nworst Iris/centralized cost: {worst_iris:.2}x (paper: within 1.1x; cheaper than \
         centralized in >98% of settings)"
    );

    iris_bench::write_results(
        "tab_design_space",
        &serde_json::json!({
            "rows": rows,
            "worst_iris_over_centralized": worst_iris,
            "paper_claim": "distributed Iris keeps latency/siting wins at ~hub-and-spoke cost",
        }),
    );
}
