//! Figure 6 — per-region increase in permissible siting area for one new
//! DC when moving from the centralized to the distributed design.
//!
//! Paper shape: 2-5x across 33 regions with 5-15 existing DCs; regions
//! with more DCs show smaller (but still >= 2x) gains.

use iris_fibermap::siting::{centralized_service_area, distributed_service_area, region_grid};
use iris_fibermap::synth::pick_hub_pair;

fn main() {
    let n_regions: u64 = 33;
    let step = 1.5;
    println!("# region  n_dcs  central_km2  distrib_km2  ratio");
    let mut ratios = Vec::new();
    let mut rows = Vec::new();
    for seed in 0..n_regions {
        let n_dcs = 5 + (seed as usize * 3) % 11; // 5-15 existing DCs
        let region = iris_bench::simple_region(seed + 40, n_dcs);
        let (h1, h2) = pick_hub_pair(&region.map, 4.0, 7.0);
        let grid = region_grid(&region.map, step, 40.0);
        let central = centralized_service_area(&region.map, &[h1, h2], &grid, 60.0);
        let distributed = distributed_service_area(&region.map, &region.dcs, &grid, 120.0);
        let ratio = if central > 0.0 {
            distributed / central
        } else {
            f64::INFINITY
        };
        println!(
            "{seed:8}  {n_dcs:5}  {central:11.0}  {distrib:11.0}  {ratio:5.2}",
            distrib = distributed
        );
        ratios.push(ratio);
        rows.push(serde_json::json!({
            "region": seed, "n_dcs": n_dcs,
            "centralized_km2": central, "distributed_km2": distributed,
            "ratio": ratio,
        }));
    }
    let finite: Vec<f64> = ratios.iter().copied().filter(|r| r.is_finite()).collect();
    let median = iris_bench::percentile(&finite, 0.5);
    let min = iris_bench::percentile(&finite, 0.0);
    let max = iris_bench::percentile(&finite, 1.0);
    println!("\nmedian area increase: {median:.2}x   range: {min:.2}-{max:.2}x (paper: 2-5x)");

    iris_bench::write_results(
        "fig06_siting_area",
        &serde_json::json!({
            "rows": rows,
            "median_ratio": median,
            "min_ratio": min,
            "max_ratio": max,
            "paper_claim": "service area increases 2-5x with the distributed approach",
        }),
    );
}
