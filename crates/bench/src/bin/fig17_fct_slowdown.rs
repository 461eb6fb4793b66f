//! Figure 17 — 99th-percentile FCT slowdown of Iris vs EPS as a function
//! of the reconfiguration (traffic-change) interval, across utilizations
//! and change magnitudes.
//!
//! Paper shape: with bounded (<= 50%) changes the slowdown is within ~2%
//! at every interval; only unbounded changes at 1 s intervals and high
//! utilization produce visible slowdowns (up to ~2x at the tail).

use iris_planner::{provision, DesignGoals};
use iris_simnet::traffic::ChangeModel;
use iris_simnet::workloads::FlowSizeDist;
use iris_simnet::{run_comparison, ExperimentConfig, SimTopology};

fn main() {
    // Topology: a planned 8-DC region, capacities scaled so the largest
    // link is ~2 Gbps (FCT ratios are scale-invariant; see DESIGN.md).
    let region = iris_bench::simple_region(3, 8);
    let goals = DesignGoals::with_cuts(0);
    let prov = provision(&region, &goals);
    let scale = SimTopology::scale_for_largest_link(&region, &prov, 2.0);
    let topo = SimTopology::from_provisioning(&region, &goals, &prov, scale);

    let utils = [0.1, 0.4, 0.7];
    let intervals = [1.0f64, 2.0, 5.0, 10.0, 20.0, 30.0];
    let changes = [
        ("50% bounded", ChangeModel::Bounded(0.5)),
        ("unbounded", ChangeModel::Unbounded),
    ];

    println!("# util  change      interval_s  p99_all  p99_short  mean_all");
    let mut rows = Vec::new();
    for util in utils {
        for (change_name, change) in changes {
            for interval in intervals {
                let duration = (6.0 * interval).clamp(20.0, 60.0);
                let (r, _) = run_comparison(
                    &topo,
                    &ExperimentConfig {
                        duration_s: duration,
                        utilization: util,
                        change_interval_s: interval,
                        change_model: change,
                        workload: FlowSizeDist::pfabric_web_search(),
                        outage_s: 0.07,
                        seed: 42,
                    },
                );
                println!(
                    "{util:5.1}  {change_name:<10}  {interval:9.0}  {:7.3}  {:9.3}  {:8.3}",
                    r.slowdown_p99_all, r.slowdown_p99_short, r.slowdown_mean_all
                );
                rows.push(serde_json::json!({
                    "utilization": util,
                    "change": change_name,
                    "interval_s": interval,
                    "slowdown_p99_all": r.slowdown_p99_all,
                    "slowdown_p99_short": r.slowdown_p99_short,
                    "slowdown_mean_all": r.slowdown_mean_all,
                    "flows": r.eps_flows,
                }));
            }
        }
    }

    println!("\npaper shape: <=2% slowdown for bounded changes at intervals >= 10 s;");
    println!("only unbounded changes at 1 s + high utilization show large tails.");

    iris_bench::write_results(
        "fig17_fct_slowdown",
        &serde_json::json!({
            "rows": rows,
            "paper_claim": "99th-pct slowdown <= 2% except unbounded changes at 1 s / 70% util",
        }),
    );
}
