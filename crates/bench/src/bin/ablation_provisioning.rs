//! Ablation — precise hose-model capacity (max-flow) vs the naive
//! per-pair sum of §4.1.
//!
//! The paper motivates the max-flow computation by noting the naive
//! bound "leads to needless over-provisioning" through double-counting a
//! DC's capacity across its pairs. This ablation quantifies the waste on
//! the synthetic regions: total provisioned wavelength-spans and the
//! resulting fiber-lease cost, naive / exact.

use iris_planner::topology::{provision, provision_naive};
use iris_planner::{par_map, thread_count, DesignGoals};

fn main() {
    let points: Vec<_> = iris_bench::sweep_points()
        .into_iter()
        .filter(|p| p.f == 16 && p.lambda == 40)
        .collect();
    let goals = DesignGoals::with_cuts(1);

    println!("# map  n_dcs  exact_wl_spans  naive_wl_spans  overprovision");
    let results = par_map(thread_count(), &points, |_, p| {
        let region = iris_bench::build_region(p);
        let exact = provision(&region, &goals);
        let naive = provision_naive(&region, &goals);
        let exact_total: f64 = exact.edge_capacity_wl.iter().sum();
        let naive_total: f64 = naive.edge_capacity_wl.iter().sum();
        (exact_total, naive_total, naive_total / exact_total)
    });
    let mut ratios = Vec::new();
    let mut rows = Vec::new();
    for (p, &(exact_total, naive_total, ratio)) in points.iter().zip(&results) {
        println!(
            "{:4}  {:5}  {exact_total:14.0}  {naive_total:14.0}  {ratio:12.2}x",
            p.map_seed, p.n_dcs
        );
        ratios.push(ratio);
        rows.push(serde_json::json!({
            "map": p.map_seed, "n_dcs": p.n_dcs,
            "exact_wl": exact_total, "naive_wl": naive_total, "ratio": ratio,
        }));
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let max = iris_bench::percentile(&ratios, 1.0);
    println!("\nmean over-provisioning of the naive rule: {mean:.2}x (max {max:.2}x)");
    println!("larger regions double-count more; the max-flow formulation earns its keep.");

    iris_bench::write_results(
        "ablation_provisioning",
        &serde_json::json!({
            "rows": rows,
            "mean_ratio": mean,
            "max_ratio": max,
            "paper_claim": "naive per-pair summation leads to needless over-provisioning (§4.1)",
        }),
    );
}
