//! End-to-end integration: synthetic region → Algorithm 1 → amplifier /
//! cut-through placement → physical-layer validation → cost comparison.
//!
//! These tests cross every crate boundary and pin the paper's headline
//! qualitative results on deterministic inputs.

use iris_core::prelude::*;
use iris_core::DesignStudy;
use iris_planner::plan::realize_path;
use iris_planner::topology::nominal_paths;

fn make_region(seed: u64, n_dcs: usize) -> Region {
    let map = synth::generate_metro(&MetroParams {
        seed,
        ..MetroParams::default()
    });
    synth::place_dcs(
        map,
        &PlacementParams {
            seed: seed + 1000,
            n_dcs,
            ..PlacementParams::default()
        },
    )
}

#[test]
fn full_pipeline_produces_feasible_iris_plan() {
    for seed in [1u64, 2, 3] {
        let region = make_region(seed, 6);
        let goals = DesignGoals::with_cuts(1);
        let plan = plan_iris(&region, &goals);
        assert!(
            plan.is_feasible(),
            "seed {seed}: infeasible={:?} unresolved={:?} violations={:?}",
            plan.provisioning.infeasible.len(),
            plan.cuts.unresolved.len(),
            plan.violations.len()
        );
    }
}

#[test]
fn every_realized_path_passes_the_optical_budget() {
    let region = make_region(4, 8);
    let goals = DesignGoals::with_cuts(0);
    let plan = plan_iris(&region, &goals);
    for path in nominal_paths(&region, &goals) {
        let elements = realize_path(&region, &goals, &path, &plan.amps, &plan.cuts);
        let report = iris_optics::evaluate_path(&elements)
            .unwrap_or_else(|e| panic!("pair {:?}: {e}", (path.a, path.b)));
        assert!(report.total_km <= 120.0 + 1e-9);
        assert!(report.amplifier_count <= 3);
        assert!(report.switch_loss_db <= 10.0 + 1e-9);
    }
}

#[test]
fn iris_is_cheaper_and_the_gap_widens_in_network() {
    let region = make_region(5, 10);
    let study = DesignStudy::run(&region, &DesignGoals::with_cuts(1));
    let total = study.eps_iris_cost_ratio();
    let in_net = study.in_network_cost_ratio();
    assert!(total > 2.0, "EPS/Iris total only {total:.2}");
    assert!(in_net > total, "in-network {in_net:.2} <= total {total:.2}");
}

#[test]
fn resilience_costs_iris_less_than_eps_gains_from_dropping_it() {
    // Fig. 12(d): Iris with failure guarantees beats EPS without them.
    let region = make_region(6, 6);
    let iris_resilient = plan_iris(&region, &DesignGoals::with_cuts(1));
    let eps_bare = plan_eps(&region, &DesignGoals::no_resilience());
    let book = PriceBook::paper_2020();
    let ratio = eps_cost(&eps_bare, &book).total() / iris_cost(&iris_resilient, &book).total();
    assert!(ratio > 1.5, "EPS-0 / Iris-1 ratio {ratio:.2}");
}

#[test]
fn planned_region_simulates_without_slowdown_catastrophe() {
    use iris_planner::provision;
    use iris_simnet::traffic::ChangeModel;
    use iris_simnet::workloads::FlowSizeDist;
    let region = make_region(7, 5);
    let goals = DesignGoals::with_cuts(0);
    let prov = provision(&region, &goals);
    let scale = SimTopology::scale_for_largest_link(&region, &prov, 2.0);
    let topo = SimTopology::from_provisioning(&region, &goals, &prov, scale);
    let (result, manifest) = run_comparison(
        &topo,
        &ExperimentConfig {
            duration_s: 10.0,
            utilization: 0.4,
            change_interval_s: 5.0,
            change_model: ChangeModel::Bounded(0.5),
            workload: FlowSizeDist::facebook_web(),
            outage_s: 0.07,
            seed: 5,
        },
    );
    assert!(result.eps_flows > 100);
    assert_eq!((manifest.seed, manifest.n_dcs), (5, topo.n_dcs));
    assert!(
        result.slowdown_p99_all < 1.25,
        "slowdown {:.3}",
        result.slowdown_p99_all
    );
}

#[test]
fn capacity_scales_with_dc_size_not_just_count() {
    let mut small = make_region(8, 5);
    small.capacity_fibers = vec![8; 5];
    let mut big = small.clone();
    big.capacity_fibers = vec![32; 5];
    let goals = DesignGoals::with_cuts(0);
    let p_small = iris_planner::provision(&small, &goals);
    let p_big = iris_planner::provision(&big, &goals);
    let total_small: f64 = p_small.edge_capacity_wl.iter().sum();
    let total_big: f64 = p_big.edge_capacity_wl.iter().sum();
    assert!(
        (total_big / total_small - 4.0).abs() < 0.01,
        "hose capacity should scale linearly with DC capacity: {}",
        total_big / total_small
    );
}

#[test]
fn controller_dark_times_match_simulator_outage_assumption() {
    // The simulator charges 70 ms per reconfiguration; the controller's
    // worst-case (two-hut) dark time must not exceed that by much.
    use iris_control::controller::{Allocation, Controller};
    use iris_control::SpaceSwitch;
    let switches = (0..4)
        .map(|i| SpaceSwitch::new(&format!("S{i}"), 32))
        .collect();
    let hops = [((0usize, 1usize), 2u32)].into_iter().collect();
    let controller = Controller::new(switches, hops);
    let target: Allocation = [((0, 1), 4)].into_iter().collect();
    let report = controller.reconfigure(&target);
    assert!(
        report.max_dark_ms() <= 80.0,
        "dark {} ms exceeds the simulator's assumption",
        report.max_dark_ms()
    );
}
