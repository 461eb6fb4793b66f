//! Figure 18 — 99th-percentile FCT slowdown across flow-size workloads
//! at 40% utilization, 50% bounded traffic changes, reconfiguration
//! every 5 s.
//!
//! Paper shape: slowdown < 2% for all four workloads (web1 = pFabric
//! web search; web2 / hadoop / cache = Facebook), for all flows and for
//! small flows.

use iris_planner::{provision, DesignGoals};
use iris_simnet::traffic::ChangeModel;
use iris_simnet::workloads::FlowSizeDist;
use iris_simnet::{run_comparison, ExperimentConfig, SimTopology};

fn main() {
    let region = iris_bench::simple_region(3, 8);
    let goals = DesignGoals::with_cuts(0);
    let prov = provision(&region, &goals);
    let scale = SimTopology::scale_for_largest_link(&region, &prov, 2.0);
    let topo = SimTopology::from_provisioning(&region, &goals, &prov, scale);

    let duration = 40.0;
    println!("# workload  p99_all  p99_short  flows");
    let mut rows = Vec::new();
    for workload in FlowSizeDist::all_paper_workloads() {
        let name = workload.name.clone();
        let (r, _) = run_comparison(
            &topo,
            &ExperimentConfig {
                duration_s: duration,
                utilization: 0.4,
                change_interval_s: 5.0,
                change_model: ChangeModel::Bounded(0.5),
                workload,
                outage_s: 0.07,
                seed: 7,
            },
        );
        println!(
            "{name:<9}  {:7.3}  {:9.3}  {:6}",
            r.slowdown_p99_all, r.slowdown_p99_short, r.eps_flows
        );
        rows.push(serde_json::json!({
            "workload": name,
            "slowdown_p99_all": r.slowdown_p99_all,
            "slowdown_p99_short": r.slowdown_p99_short,
            "flows": r.eps_flows,
        }));
    }
    println!("\npaper shape: <2% slowdown vs EPS for every workload.");

    iris_bench::write_results(
        "fig18_workloads",
        &serde_json::json!({
            "utilization": 0.4,
            "change": "50% bounded",
            "interval_s": 5.0,
            "rows": rows,
            "paper_claim": "Iris slowdown <2% vs EPS across web1/web2/hadoop/cache",
        }),
    );
}
