//! Property-based tests over the core invariants (proptest).

use iris_netgraph::{dijkstra, hose, Dinic, FailureScenarios, Graph};
use proptest::prelude::*;

/// Random small undirected graph: n in 2..8, edges with lengths.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..8).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0.1f64..50.0), 1..16).prop_map(move |edges| {
            let mut g = Graph::new(n);
            for (u, v, len) in edges {
                if u != v {
                    g.add_edge(u, v, len);
                }
            }
            g
        })
    })
}

proptest! {
    #[test]
    fn dijkstra_satisfies_triangle_inequality(g in arb_graph()) {
        let disabled = vec![false; g.edge_count()];
        let n = g.node_count();
        let dist: Vec<Vec<f64>> = (0..n).map(|s| dijkstra(&g, s, &disabled).dist).collect();
        for a in 0..n {
            // Distance to self is zero; symmetry; triangle inequality.
            prop_assert_eq!(dist[a][a], 0.0);
            for b in 0..n {
                prop_assert_eq!(dist[a][b].is_finite(), dist[b][a].is_finite());
                if dist[a][b].is_finite() {
                    prop_assert!((dist[a][b] - dist[b][a]).abs() < 1e-9);
                }
                for c in 0..n {
                    if dist[a][b].is_finite() && dist[b][c].is_finite() {
                        prop_assert!(dist[a][c] <= dist[a][b] + dist[b][c] + 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn dijkstra_paths_have_consistent_length(g in arb_graph()) {
        let disabled = vec![false; g.edge_count()];
        let r = dijkstra(&g, 0, &disabled);
        for t in 0..g.node_count() {
            if let Some(edges) = r.path_edges(&g, t) {
                let len: f64 = edges.iter().map(|&e| g.perturbed_length(e)).sum();
                prop_assert!((len - r.dist[t]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn maxflow_is_monotone_in_capacity(caps in proptest::collection::vec(1u64..20, 4)) {
        // Diamond network: flow grows (weakly) when any capacity grows.
        let flow = |c: &[u64]| {
            let mut d = Dinic::new(4);
            d.add_edge(0, 1, c[0]);
            d.add_edge(0, 2, c[1]);
            d.add_edge(1, 3, c[2]);
            d.add_edge(2, 3, c[3]);
            d.max_flow(0, 3)
        };
        let base = flow(&caps);
        for i in 0..4 {
            let mut bigger = caps.clone();
            bigger[i] += 5;
            prop_assert!(flow(&bigger) >= base);
        }
    }

    #[test]
    fn hose_load_bounds(
        caps in proptest::collection::vec(1u64..50, 3..6),
        pair_selector in proptest::collection::vec(any::<bool>(), 15),
    ) {
        let n = caps.len();
        let mut pairs = Vec::new();
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if *pair_selector.get(k).unwrap_or(&false) {
                    pairs.push((i, j));
                }
                k += 1;
            }
        }
        prop_assume!(!pairs.is_empty());
        let cap_fn = |d: usize| caps[d];
        let load = hose::max_edge_load(&cap_fn, &pairs);
        let naive = hose::naive_edge_load(&cap_fn, &pairs);
        // Exact load never exceeds the naive bound...
        prop_assert!(load <= naive + 1e-9);
        // ...never exceeds half the total capacity of involved DCs...
        let involved: u64 = (0..n)
            .filter(|&d| pairs.iter().any(|&(a, b)| a == d || b == d))
            .map(|d| caps[d])
            .sum();
        prop_assert!(load <= involved as f64 / 2.0 + 1e-9);
        // ...and is at least the largest single pair demand.
        let best_pair = pairs
            .iter()
            .map(|&(a, b)| caps[a].min(caps[b]))
            .max()
            .expect("non-empty") as f64;
        prop_assert!(load >= best_pair - 1e-9);
    }

    #[test]
    fn hose_load_is_monotone_in_capacity(
        caps in proptest::collection::vec(1u64..30, 4),
    ) {
        let pairs = [(0usize, 1usize), (0, 2), (1, 3), (2, 3)];
        let load = |c: &[u64]| hose::max_edge_load(&|d| c[d], &pairs);
        let base = load(&caps);
        for i in 0..4 {
            let mut bigger = caps.clone();
            bigger[i] += 7;
            prop_assert!(load(&bigger) >= base - 1e-9);
        }
    }

    #[test]
    fn failure_scenarios_count_and_cardinality(m in 0usize..10, k in 0usize..4) {
        let all: Vec<_> = FailureScenarios::new(m, k).collect();
        prop_assert_eq!(all.len() as u64, FailureScenarios::count_scenarios(m, k));
        for s in &all {
            prop_assert!(s.len() <= k.min(m));
            // Strictly increasing edge ids (canonical form).
            for w in s.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn parallel_provision_matches_sequential(
        map_seed in 0u64..200,
        n_dcs in 3usize..6,
        threads in 2usize..8,
        cuts in 0usize..2,
    ) {
        use iris_fibermap::{synth, MetroParams, PlacementParams};
        let region = synth::place_dcs(
            synth::generate_metro(&MetroParams {
                seed: map_seed,
                n_huts: 10,
                ..MetroParams::default()
            }),
            &PlacementParams {
                seed: map_seed.wrapping_mul(31).wrapping_add(7),
                n_dcs,
                ..PlacementParams::default()
            },
        );
        let goals = iris_planner::DesignGoals::with_cuts(cuts);
        let hose = (
            iris_planner::provision_with_threads(&region, &goals, 1),
            iris_planner::provision_with_threads(&region, &goals, threads),
        );
        // The naive ablation runs through the same sweep. It takes its
        // worker count from `thread_count()`: one inside the guard, and
        // `threads` (or whatever IRIS_THREADS says) outside it.
        let naive = iris_planner::topology::provision_naive;
        let naive_seq = iris_planner::with_nested_parallelism_disabled(|| naive(&region, &goals));
        iris_planner::set_default_threads(threads);
        let naive_par = naive(&region, &goals);
        iris_planner::set_default_threads(0);

        for (seq, par) in [hose, (naive_seq, naive_par)] {
            // Bit-exact equality of the provisioned capacities...
            let seq_bits: Vec<u64> = seq.edge_capacity_wl.iter().map(|c| c.to_bits()).collect();
            let par_bits: Vec<u64> = par.edge_capacity_wl.iter().map(|c| c.to_bits()).collect();
            prop_assert_eq!(seq_bits, par_bits);
            // ...and identical infeasibility reports and scenario counts.
            prop_assert_eq!(seq.infeasible, par.infeasible);
            prop_assert_eq!(seq.scenarios_examined, par.scenarios_examined);
        }
    }

    #[test]
    fn parallel_plan_iris_matches_sequential(
        map_seed in 0u64..200,
        n_dcs in 3usize..6,
        threads in 2usize..8,
        cuts in 0usize..3,
    ) {
        // The whole plan, not just Algorithm 1: every stage replays one
        // failure sweep recorded in `thread_count()` chunks, so the
        // recording's chunking must not reach any field.
        use iris_fibermap::{synth, MetroParams, PlacementParams};
        let region = synth::place_dcs(
            synth::generate_metro(&MetroParams {
                seed: map_seed,
                n_huts: 10,
                ..MetroParams::default()
            }),
            &PlacementParams {
                seed: map_seed.wrapping_mul(31).wrapping_add(7),
                n_dcs,
                ..PlacementParams::default()
            },
        );
        let goals = iris_planner::DesignGoals::with_cuts(cuts);
        let plan = || iris_planner::plan_iris(&region, &goals);
        let seq = iris_planner::with_nested_parallelism_disabled(plan);
        iris_planner::set_default_threads(threads);
        let par = plan();
        iris_planner::set_default_threads(0);
        // `Debug` prints every f64 in its shortest round-trip form, so
        // equal text is equal bits.
        prop_assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn robust_provision_is_feasible_and_thread_invariant(
        map_seed in 0u64..100,
        n_dcs in 3usize..6,
        threads in 2usize..8,
        family_seed in 0u64..50,
    ) {
        use iris_fibermap::{synth, MetroParams, PlacementParams};
        use iris_planner::workload::{FamilyKind, FamilySpec, MatrixFamily};
        let region = synth::place_dcs(
            synth::generate_metro(&MetroParams {
                seed: map_seed,
                n_huts: 10,
                ..MetroParams::default()
            }),
            &PlacementParams {
                seed: map_seed.wrapping_mul(31).wrapping_add(7),
                n_dcs,
                ..PlacementParams::default()
            },
        );
        let goals = iris_planner::DesignGoals::with_cuts(1);
        let spec = FamilySpec::new(FamilyKind::Burst, 4, family_seed);
        let family = MatrixFamily::build(&region, &goals, &spec);
        let seq = iris_planner::provision_robust_with_threads(&region, &goals, &family, 1);
        // Feasible for every training matrix: the per-edge family-max
        // sums iterate pairs in the same order as the feasibility check,
        // so this holds bitwise, not just within a tolerance.
        if seq.infeasible.is_empty() {
            for demands in family.matrices() {
                prop_assert!(iris_planner::topology::supports_matrix(
                    &region, &goals, &seq, demands,
                ));
            }
        }
        // Bit-identical across thread counts, like the hose planner.
        let par = iris_planner::provision_robust_with_threads(&region, &goals, &family, threads);
        let seq_bits: Vec<u64> = seq.edge_capacity_wl.iter().map(|c| c.to_bits()).collect();
        let par_bits: Vec<u64> = par.edge_capacity_wl.iter().map(|c| c.to_bits()).collect();
        prop_assert_eq!(seq_bits, par_bits);
        prop_assert_eq!(seq.infeasible, par.infeasible);
        prop_assert_eq!(seq.scenarios_examined, par.scenarios_examined);
    }

    #[test]
    fn residual_packing_is_sound(
        residuals in proptest::collection::vec(0u64..=40, 0..12),
    ) {
        let bins = iris_planner::residual::pack_residuals(&residuals, 40);
        let total: u64 = residuals.iter().sum();
        // At least the volume bound, at most one bin per demand.
        prop_assert!(bins as u64 >= total.div_ceil(40).min(residuals.len() as u64));
        prop_assert!(bins <= residuals.iter().filter(|&&r| r > 0).count());
    }

    #[test]
    fn residual_after_base_never_exceeds_demand(
        demands in proptest::collection::vec(0u64..100, 1..10),
    ) {
        let r = iris_planner::residual::residual_after_base(&demands, 40);
        let total: u64 = demands.iter().sum();
        prop_assert!(r <= total);
        // Scaling every demand by a fiber multiple cannot increase the
        // *fractional* residual share.
        if total > 0 {
            prop_assert!(r as f64 <= total as f64);
        }
    }

    #[test]
    fn appendix_b_quadratic_bound(n in 1usize..30, d_frac in 0.0f64..1.0) {
        // (n - D/λ) · D/n <= λ·n/4 for all feasible D — the key step of
        // Observation 2.
        let lambda = 40.0;
        let d = d_frac * lambda * n as f64;
        let residual = (n as f64 - d / lambda) * d / n as f64;
        prop_assert!(residual <= lambda * n as f64 / 4.0 + 1e-9);
    }

    #[test]
    fn ber_is_monotone_in_osnr(a in 0.0f64..40.0, delta in 0.0f64..10.0) {
        let worse = iris_optics::ber::ber_16qam(a);
        let better = iris_optics::ber::ber_16qam(a + delta);
        prop_assert!(better <= worse + 1e-15);
    }

    #[test]
    fn db_round_trips(db in -50.0f64..50.0) {
        let mw = iris_optics::db::dbm_to_mw(db);
        prop_assert!((iris_optics::db::mw_to_dbm(mw) - db).abs() < 1e-9);
    }

    #[test]
    fn budget_report_consistent_when_path_passes(
        spans in proptest::collection::vec(1.0f64..40.0, 1..4),
        switches in 0usize..4,
    ) {
        use iris_optics::{evaluate_path, PathElement, SwitchElement};
        let mut elements = vec![PathElement::default_amp()];
        for (i, &km) in spans.iter().enumerate() {
            elements.push(PathElement::fiber_km(km));
            if i < switches {
                elements.push(PathElement::Switch(SwitchElement::Oss));
            }
        }
        elements.push(PathElement::default_amp());
        if let Ok(report) = evaluate_path(&elements) {
            let total: f64 = spans.iter().sum();
            prop_assert!((report.total_km - total).abs() < 1e-9);
            prop_assert_eq!(report.amplifier_count, 2);
            prop_assert!(report.switch_loss_db <= 10.0 + 1e-9);
            prop_assert!(report.worst_segment_loss_db <= 20.0 + 1e-9);
        }
    }

    #[test]
    fn wavelength_assignment_conserves_demand(
        demands in proptest::collection::vec((0usize..6, 0u32..200), 0..8),
    ) {
        let fibers = iris_control::assign_wavelengths(&demands, 40);
        let assigned: u64 = fibers.iter().map(|f| f.live_count() as u64).sum();
        let requested: u64 = demands.iter().map(|&(_, d)| u64::from(d)).sum();
        prop_assert_eq!(assigned, requested);
        for f in &fibers {
            prop_assert!(f.live_count() <= 40);
        }
    }

    #[test]
    fn traffic_matrix_weights_form_distribution(n in 2usize..12, seed in 0u64..500) {
        let m = iris_simnet::TrafficMatrix::heavy_tailed(n, seed);
        let total: f64 = m.weights().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(m.weights().iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn command_codec_round_trips(
        switch in any::<u32>(), input in any::<u32>(), output in any::<u32>(),
    ) {
        use iris_control::messages::Command;
        use iris_wire::frame::{append_frame_with, parse_frame};
        use iris_wire::Codec;
        let cmd = Command::SetCross { switch, input, output };
        for codec in [Codec::Json, Codec::Binary] {
            let mut wire = Vec::new();
            append_frame_with(&mut wire, None, |buf| codec.encode_into(&cmd, buf)).unwrap();
            let frame = parse_frame(&wire).unwrap().unwrap();
            prop_assert_eq!(frame.consumed, wire.len());
            let decoded: Command = codec.decode(&frame.payload, "command").unwrap();
            prop_assert_eq!(&decoded, &cmd);
        }
    }

    #[test]
    fn the_read_loop_reassembles_frames_from_any_chunking(
        frames in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..40), any::<bool>(), any::<u64>()),
            0..8,
        ),
        chunk in 1usize..64,
    ) {
        use iris_wire::frame::append_frame_with;
        use iris_wire::recv_frame;
        /// A stream that hands out at most `chunk` bytes per `read`.
        struct Trickle<'a>(&'a [u8], usize);
        impl std::io::Read for Trickle<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(self.1).min(out.len());
                let (now, later) = self.0.split_at(n);
                out[..n].copy_from_slice(now);
                self.0 = later;
                Ok(n)
            }
        }
        let mut wire = Vec::new();
        let mut sent = Vec::new();
        for (payload, traced, id) in frames {
            let trace = traced.then_some(id);
            append_frame_with(&mut wire, trace, |buf| {
                buf.extend_from_slice(&payload);
                Ok(())
            })
            .unwrap();
            sent.push((payload, trace));
        }
        let (mut stream, mut unread, mut seen) = (Trickle(&wire, chunk), Vec::new(), Vec::new());
        while let Some(frame) = recv_frame(&mut stream, &mut unread).unwrap() {
            seen.push((frame.payload, frame.trace_id));
        }
        prop_assert_eq!(seen, sent);
        prop_assert!(unread.is_empty(), "clean EOF leaves nothing behind");
    }
}

// Resilience invariant (§4.1 + recovery): the planner provisions every
// duct for the worst hose load over all <= k cut scenarios, so live
// recovery from any such scenario must keep every demand feasible —
// zero shed pairs, zero overloaded ducts, converged devices. On plans
// the planner itself reported infeasible, recovery must degrade
// gracefully: only planner-reported pairs may be shed.
proptest! {
    #[test]
    fn tolerated_cut_sets_stay_feasible_through_live_recovery(
        seed in 0u64..40,
        n_dcs in 5usize..13,
        k in 1usize..3,
        picks in proptest::collection::vec(0usize..10_000, 2),
    ) {
        use iris_control::Controller;
        use iris_fibermap::synth::{generate_metro, place_dcs};
        use iris_fibermap::{MetroParams, PlacementParams};
        use iris_planner::{provision, DesignGoals};
        use std::collections::BTreeSet;

        let map = generate_metro(&MetroParams { seed, ..MetroParams::default() });
        let region = place_dcs(
            map,
            &PlacementParams { seed: seed.wrapping_add(1), n_dcs, ..PlacementParams::default() },
        );
        let goals = DesignGoals::with_cuts(k);
        let prov = provision(&region, &goals);

        let controller = Controller::for_region(&region, &goals);
        let base: iris_control::controller::Allocation =
            iris_planner::topology::nominal_paths(&region, &goals)
                .iter()
                .map(|p| ((p.a, p.b), 1u32))
                .collect();
        prop_assert!(controller.reconfigure(&base).converged());

        let edge_count = region.map.graph().edge_count();
        let cuts: BTreeSet<usize> = picks.iter().take(k).map(|p| p % edge_count).collect();
        let cuts: Vec<usize> = cuts.into_iter().collect();

        let rec = controller
            .handle_fiber_cut(&region, &goals, &prov, &cuts)
            .expect("in-range cuts");
        prop_assert!(rec.within_tolerance);
        prop_assert!(rec.reconfig.converged());
        prop_assert!(
            rec.overloaded_edges.is_empty(),
            "provisioned capacity must absorb any <= k cut: {:?}",
            rec.overloaded_edges
        );
        if prov.infeasible.is_empty() {
            prop_assert!(
                rec.fully_recovered(),
                "feasible plan lost demands under cuts {cuts:?}: shed {:?}",
                rec.shed_pairs
            );
        } else {
            // Degraded plans shed only what the planner already reported.
            let reported: BTreeSet<(usize, usize)> =
                prov.infeasible.iter().map(|i| i.pair).collect();
            for pair in &rec.shed_pairs {
                prop_assert!(
                    reported.contains(pair),
                    "shed pair {pair:?} was never reported infeasible by the planner"
                );
            }
        }
    }
}
