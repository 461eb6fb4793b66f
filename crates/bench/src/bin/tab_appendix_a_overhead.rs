//! Appendix A — cost overhead of the amplifier and cut-through
//! placement heuristics relative to the total network cost.
//!
//! Paper shape: 3% on average, 8% in the worst case across the test
//! scenarios.

use iris_cost::{iris_cost, PriceBook};
use iris_planner::{par_map, plan_iris, thread_count, DesignGoals};

fn main() {
    let points = iris_bench::sweep_points();
    // Amplifier/cut-through overhead only exists where paths are long,
    // so sweep at the operational 1-cut tolerance for speed.
    let goals = DesignGoals::with_cuts(1);
    let book = PriceBook::paper_2020();

    let overheads = par_map(thread_count(), &points, |_, p| {
        let plan = plan_iris(&iris_bench::build_region(p), &goals);
        let cost = iris_cost(&plan, &book);
        let cut_fiber_cost = plan.cuts.total_fiber_pair_spans() as f64 * book.fiber_pair_span;
        (cost.amplifiers + cut_fiber_cost) / cost.total()
    });

    iris_bench::print_cdf("amplifier + cut-through cost share", &overheads, 20);
    let mean = overheads.iter().sum::<f64>() / overheads.len() as f64;
    let worst = iris_bench::percentile(&overheads, 1.0);
    println!("\nscenarios:        {}", overheads.len());
    println!("mean overhead:    {:.1}% (paper: 3%)", mean * 100.0);
    println!("worst overhead:   {:.1}% (paper: 8%)", worst * 100.0);

    iris_bench::write_results(
        "tab_appendix_a_overhead",
        &serde_json::json!({
            "scenarios": overheads.len(),
            "mean_overhead": mean,
            "worst_overhead": worst,
            "paper_claim": "amplifier + cut-through overhead 3% mean, 8% worst case",
        }),
    );
}
