//! Ablation — relaxing OC3 (strict shortest paths) to save fiber.
//!
//! §3.1: "By removing this constraint, simpler designs are easy to
//! build using the same methodology." This ablation quantifies the
//! trade: route the uniform hose matrix over up to k shortest paths
//! with a latency-stretch cap and measure the fiber-pair-spans saved
//! by consolidating partially-filled fibers onto shared ducts.

use iris_planner::relaxed::route_relaxed;
use iris_planner::{par_map, thread_count, DesignGoals};

fn main() {
    let goals = DesignGoals::with_cuts(0);
    let stretches = [1.0, 1.1, 1.25, 1.5, 2.0];

    println!("# map  n_dcs  stretch_cap  shortest_spans  relaxed_spans  saved  worst_stretch");
    let mut cases = Vec::new();
    for seed in [2u64, 5, 8] {
        for n_dcs in [6usize, 10] {
            for &cap in &stretches {
                cases.push((seed, n_dcs, cap));
            }
        }
    }
    let results = par_map(thread_count(), &cases, |_, &(seed, n_dcs, cap)| {
        let region = iris_bench::simple_region(seed, n_dcs);
        route_relaxed(&region, &goals, 5, cap)
    });
    let mut rows = Vec::new();
    for (&(seed, n_dcs, cap), routing) in cases.iter().zip(&results) {
        let saved = routing.savings_fraction();
        println!(
            "{seed:4}  {n_dcs:5}  {cap:11.2}  {:14}  {:13}  {:4.1}%  {:12.2}",
            routing.shortest_total_fiber_pair_spans(),
            routing.total_fiber_pair_spans(),
            saved * 100.0,
            routing.max_stretch()
        );
        rows.push(serde_json::json!({
            "map": seed, "n_dcs": n_dcs, "stretch_cap": cap,
            "shortest_spans": routing.shortest_total_fiber_pair_spans(),
            "relaxed_spans": routing.total_fiber_pair_spans(),
            "savings_fraction": saved,
            "max_stretch": routing.max_stretch(),
        }));
    }
    println!("\nshape: savings grow with the latency budget; OC3 (stretch 1.0) is the");
    println!("latency-optimal endpoint the paper plans for, and it pays a fiber premium.");

    iris_bench::write_results(
        "ablation_relaxed_routing",
        &serde_json::json!({
            "rows": rows,
            "paper_claim": "removing OC3 admits simpler/cheaper designs (§3.1)",
        }),
    );
}
