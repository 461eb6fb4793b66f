//! Figure 3 — CDF of latency inflation: best DC-hub-DC path length over
//! direct DC-DC path length, across regions.
//!
//! Paper shape: inflation >= 1 everywhere (a hub detour can't be shorter
//! than the direct route); >2x for more than 20% of DC pairs; a long
//! tail out to ~10-30x for unluckily placed hubs.

use iris_fibermap::siting::{fraction_at_least, latency_inflation};
use iris_fibermap::synth::pick_hub_pair;

fn main() {
    let n_regions = 22;
    let mut inflations = Vec::new();
    for seed in 0..n_regions {
        let region = iris_bench::simple_region(seed + 1, 6 + (seed as usize % 6));
        // Operators place hub pairs close together to maximize the
        // service area (§2.2) — 4-7 km apart, as in Fig. 5's top row.
        let (h1, h2) = pick_hub_pair(&region.map, 4.0, 7.0);
        inflations.extend(latency_inflation(&region.map, &region.dcs, &[h1, h2]));
    }

    iris_bench::print_cdf("latency inflation (DC-hub-DC / DC-DC)", &inflations, 30);
    let over_2x = fraction_at_least(&inflations, 2.0);
    let over_4x = fraction_at_least(&inflations, 4.0);
    let median = iris_bench::percentile(&inflations, 0.5);
    println!("\nregions analyzed:        {n_regions}");
    println!("DC pairs analyzed:       {}", inflations.len());
    println!("median inflation:        {median:.2}x");
    println!(
        "pairs with >=2x:         {:.1}% (paper: >20%)",
        over_2x * 100.0
    );
    println!("pairs with >=4x:         {:.1}%", over_4x * 100.0);

    iris_bench::write_results(
        "fig03_latency_inflation",
        &serde_json::json!({
            "regions": n_regions,
            "pairs": inflations.len(),
            "median_inflation": median,
            "fraction_ge_2x": over_2x,
            "fraction_ge_4x": over_4x,
            "paper_claim": "latency reduction >2x for more than 20% of DC pairs",
        }),
    );
}
