//! Journey 1: region file -> plan -> cost (§6.1, Fig. 12).
//!
//! An op parses one region file and runs the full design study (Iris,
//! EPS and hybrid plans plus their prices). The traced run calls the
//! study's public stages one by one on the same inputs.

use crate::report::Report;
use crate::rng::{derive, Digest, Rng};
use crate::spans::Tracer;
use crate::Block;
use iris_bench::{build_region, SweepPoint};
use iris_core::DesignStudy;
use iris_cost::{eps_cost, hybrid_cost, iris_cost, PriceBook};
use iris_fibermap::io::{region_from_json, region_to_json};
use iris_fibermap::synth::{generate_metro, place_dcs};
use iris_fibermap::{MetroParams, PlacementParams, Region};
use iris_netgraph::{dijkstra, k_shortest_paths, Dinic, FailureScenarios, HoseScratch};
use iris_optics::evaluate_path;
use iris_planner::amplifiers::place_amplifiers;
use iris_planner::cutthrough::place_cutthroughs;
use iris_planner::plan::{realize_path, validate_iris};
use iris_planner::residual::{hybrid_aggregate, residual_pairs_per_edge};
use iris_planner::topology::nominal_paths;
use iris_planner::{
    plan_eps, provision_robust_with_threads, provision_with_threads, DesignGoals, FamilyKind,
    FamilySpec, IrisPlan, MatrixFamily, ScenarioEngine,
};
use std::hint::black_box;
use std::time::Instant;

/// A plan workload: regions of the evaluation grid
/// (`iris_bench::sweep_points`, built by `iris_bench::build_region`), the
/// cut tolerance and the planner's thread count. The fiber maps and DC
/// sites are the benchmark's fixed reference set (the maps Fig. 12
/// sweeps), so a workload's cost does not wander with the seed; the seed
/// draws what a region file may vary at equal planning cost — each DC's
/// capacity around `f` — and the order the files arrive in.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    pub points: Vec<SweepPoint>,
    pub cuts: usize,
    pub threads: usize,
}

/// Draw each DC's capacity within an eighth of the grid value `f`.
fn draw_capacities(region: &mut Region, f: u32, seed: u64) {
    let mut rng = Rng::new(seed);
    let span = u64::from(f / 8);
    for c in &mut region.capacity_fibers {
        *c = f - span as u32 + rng.below(2 * span + 1) as u32;
    }
}

/// The reference topology of `p` with seeded capacities.
pub fn seeded_region(p: &SweepPoint, seed: u64) -> Region {
    let mut region = build_region(p);
    draw_capacities(&mut region, p.f, derive(seed, "capacity", 0));
    region
}

/// Generated inputs of a plan workload: region files, in arrival order.
pub struct PlanCtx {
    spec: PlanSpec,
    pub files: Vec<String>,
    goals: DesignGoals,
    seed: u64,
}

impl PlanCtx {
    pub fn setup(spec: &PlanSpec, seed: u64) -> Self {
        // Points that share a topology differ only in capacity fields, so
        // generate each (map, DC count) once.
        let mut topo: Vec<((u64, usize), Region)> = Vec::new();
        let mut files: Vec<String> = spec
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let key = (p.map_seed, p.n_dcs);
                let at = topo.iter().position(|(k, _)| *k == key).unwrap_or_else(|| {
                    topo.push((key, build_region(p)));
                    topo.len() - 1
                });
                let mut region = topo[at].1.clone();
                draw_capacities(&mut region, p.f, derive(seed, "capacity", i as u64));
                region.wavelengths_per_fiber = p.lambda;
                region_to_json(&region).expect("region serializes")
            })
            .collect();
        // Arrival order is the seed's: Fisher-Yates.
        let mut rng = Rng::new(derive(seed, "order", 0));
        for i in (1..files.len()).rev() {
            files.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Self {
            spec: spec.clone(),
            files,
            goals: DesignGoals::with_cuts(spec.cuts),
            seed,
        }
    }

    /// One block: every file once, with `threads` planner threads.
    pub fn run_block(&self, threads: usize, mut tracer: Option<&mut Tracer>) -> Block {
        iris_planner::set_default_threads(threads);
        let mut block = Block::default();
        let mut digest = Digest::default();
        let mut lat_ms = Vec::with_capacity(self.files.len());
        let start = Instant::now();
        for (i, file) in self.files.iter().enumerate() {
            let t0 = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let span = tracer.as_mut().map(|t| t.enter("bench.op", i as u64));
                let region = region_from_json(file).expect("generated file parses");
                let study = DesignStudy::run(&region, &self.goals);
                if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
                    t.exit(id);
                }
                study_digest(&study)
            }));
            let op_ms = t0.elapsed().as_secs_f64() * 1e3;
            block.attempted += 1;
            match outcome {
                Ok(d) => {
                    digest.u64(d);
                    lat_ms.push(op_ms);
                }
                Err(_) => block.failed += 1,
            }
        }
        block.wall_s = start.elapsed().as_secs_f64();
        block.work = lat_ms.len() as f64;
        block.digest = digest.0;
        block.set_latencies(&mut lat_ms, true);
        block
    }

    /// Output checks beyond per-block digests: the other thread count
    /// must produce the same plans bit for bit.
    pub fn check(&self, mut digests: impl Iterator<Item = u64>, par_threads: usize) -> Vec<String> {
        let mut errors = Vec::new();
        let other = if self.spec.threads == 1 {
            par_threads
        } else {
            1
        };
        let cross = self.run_block(other, None);
        iris_planner::set_default_threads(self.spec.threads);
        if cross.failed > 0 {
            errors.push(format!(
                "{} plans failed with {other} threads",
                cross.failed
            ));
        }
        if digests.any(|d| d != cross.digest) {
            errors.push(format!(
                "plans differ between {} and {other} planner threads",
                self.spec.threads
            ));
        }
        errors
    }

    /// Per-layer metrics of the planning stack on this context's regions.
    /// Stage spans run on every region; the standalone probes on every
    /// `probe_stride`-th, which keeps the sweep's traced run short.
    pub fn layers(&self, tr: &mut Tracer, rep: &mut Report, par_threads: usize) {
        let goals = &self.goals;
        let book = PriceBook::paper_2020();
        let threads = self.spec.threads;
        iris_planner::set_default_threads(threads);
        let probe_stride = (self.files.len() / 30).max(1);
        let telemetry = iris_telemetry::global();
        let counter = |name: &str| telemetry.counter(name).get();

        let mut json_bytes = 0u64;
        let mut scenarios_enumerated = 0u64;
        let mut counts = [0u64; 5];
        let names = [
            "iris_planner_scenarios_total",
            "iris_planner_hose_maxflow_total",
            "iris_planner_hose_memo_hits_total",
            "iris_planner_paircache_hits_total",
            "iris_planner_paircache_invalidations_total",
        ];
        for (i, file) in self.files.iter().enumerate() {
            let op = i as u64;
            json_bytes += file.len() as u64;
            let region = tr.time("fibermap.region_from_json", op, || {
                region_from_json(file).expect("generated file parses")
            });

            // The composite, with the program's own counters read around it.
            let before = names.map(counter);
            let study = tr.time("core.design_study", op, || DesignStudy::run(&region, goals));
            for (c, (b, name)) in counts.iter_mut().zip(before.iter().zip(names)) {
                *c += counter(name) - b;
            }
            black_box(&study);

            // Its public stages, one by one, as `plan_iris`, `plan_eps`,
            // `hybrid_aggregate` and the three price calls run them.
            let provisioning = tr.time("planner.provision_stage", op, || {
                provision_with_threads(&region, goals, threads)
            });
            let amps = tr.time("planner.place_amplifiers", op, || {
                place_amplifiers(&region, goals)
            });
            let cuts = tr.time("planner.place_cutthroughs", op, || {
                place_cutthroughs(&region, goals, &amps)
            });
            let lambda = region.wavelengths_per_fiber;
            let residual = tr.time("planner.residual_pairs", op, || {
                residual_pairs_per_edge(&region, goals)
            });
            let mut iris = IrisPlan {
                base_fiber_pairs: provisioning.edge_fiber_pairs(lambda),
                provisioning,
                amps,
                cuts,
                residual_fiber_pairs: residual,
                lambda,
                dc_transceivers: (0..region.dcs.len())
                    .map(|d| region.capacity_wavelengths(d))
                    .sum(),
                violations: Vec::new(),
            };
            iris.violations = tr.time("planner.validate_iris", op, || {
                validate_iris(&region, goals, &iris)
            });
            let eps = tr.time("planner.plan_eps", op, || plan_eps(&region, goals));
            let hybrid = tr.time("planner.hybrid_aggregate", op, || {
                hybrid_aggregate(&region, goals)
            });
            tr.time("cost.price", op, || {
                black_box((
                    iris_cost(&iris, &book),
                    eps_cost(&eps, &book),
                    hybrid_cost(&iris, &hybrid, &book),
                ))
            });
            assert_eq!(
                iris.total_fiber_pair_spans(),
                study.iris.total_fiber_pair_spans(),
                "stage-by-stage plan differs from the composite"
            );

            let m = region.map.graph().edge_count();
            scenarios_enumerated += FailureScenarios::count_scenarios(m, goals.max_cuts);
            if i % probe_stride == 0 {
                self.probe(tr, op, &region, &iris, par_threads);
            }
        }
        iris_planner::set_default_threads(threads);

        // Map and site generation at the size of up to 8 distinct
        // topologies: the grid's map again, then as many DCs placed on it
        // (the sites are this run's draw, not the grid's).
        let mut seen: Vec<(u64, usize)> = Vec::new();
        for p in &self.spec.points {
            if seen.contains(&(p.map_seed, p.n_dcs)) || seen.len() >= 8 {
                continue;
            }
            seen.push((p.map_seed, p.n_dcs));
            let metro = MetroParams {
                seed: p.map_seed,
                n_huts: build_region(p).map.huts().len(),
                ..MetroParams::default()
            };
            let map = tr.time("fibermap.generate_metro", 0, || generate_metro(&metro));
            let placement = PlacementParams {
                seed: derive(self.seed, "sites", seen.len() as u64),
                n_dcs: p.n_dcs,
                capacity_fibers: p.f,
                wavelengths_per_fiber: p.lambda,
                ..PlacementParams::default()
            };
            tr.time("fibermap.place_dcs", 0, || {
                black_box(place_dcs(map, &placement))
            });
        }

        let ops = self.files.len() as f64;
        let totals = tr.totals();
        let per = |name: &str, scale: f64| {
            let t = totals.get(name).copied().unwrap_or_default();
            t.self_ns as f64 / t.items.max(1) as f64 / scale
        };
        for (metric, span) in [
            ("fibermap.generate_metro_ms", "fibermap.generate_metro"),
            ("fibermap.place_dcs_ms", "fibermap.place_dcs"),
            ("fibermap.region_from_json_ms", "fibermap.region_from_json"),
            ("planner.provision_ms", "planner.provision"),
            ("planner.provision_par_ms", "planner.provision_par"),
            ("planner.engine_sweep_ms", "planner.engine_sweep"),
            ("planner.place_amplifiers_ms", "planner.place_amplifiers"),
            ("planner.place_cutthroughs_ms", "planner.place_cutthroughs"),
            ("planner.residual_pairs_ms", "planner.residual_pairs"),
            ("planner.validate_iris_ms", "planner.validate_iris"),
            ("planner.plan_eps_ms", "planner.plan_eps"),
            ("planner.hybrid_aggregate_ms", "planner.hybrid_aggregate"),
            ("planner.family_build_ms", "planner.family_build"),
            ("planner.provision_robust_ms", "planner.provision_robust"),
            ("core.design_study_ms", "core.design_study"),
        ] {
            rep.set(metric, per(span, 1e6));
        }
        for (metric, span) in [
            ("netgraph.dijkstra_us", "netgraph.dijkstra"),
            (
                "netgraph.hose_max_edge_load_us",
                "netgraph.hose_max_edge_load",
            ),
            ("netgraph.dinic_max_flow_us", "netgraph.dinic_max_flow"),
            ("netgraph.k_shortest_paths_us", "netgraph.k_shortest_paths"),
            ("cost.price_us", "cost.price"),
        ] {
            rep.set(metric, per(span, 1e3));
        }
        rep.set("optics.evaluate_path_ns", per("optics.evaluate_path", 1.0));
        rep.set(
            "optics.paths_evaluated",
            totals["optics.evaluate_path"].items as f64,
        );
        rep.set(
            "netgraph.failure_enum_ns_per_scenario",
            per("netgraph.failure_enum", 1.0),
        );
        rep.set(
            "planner.provision_par_speedup",
            totals["planner.provision"].total_ns as f64
                / totals["planner.provision_par"].total_ns.max(1) as f64,
        );
        rep.set("fibermap.region_json_bytes", json_bytes as f64 / ops);
        rep.set("netgraph.failure_scenarios", scenarios_enumerated as f64);
        rep.set("planner.scenarios", counts[0] as f64);
        rep.set("planner.hose_maxflow_calls", counts[1] as f64);
        rep.set(
            "planner.hose_memo_hit_ratio",
            counts[2] as f64 / (counts[1] + counts[2]).max(1) as f64,
        );
        rep.set(
            "planner.paircache_hit_ratio",
            counts[3] as f64 / (counts[3] + counts[4]).max(1) as f64,
        );
        // Each of these is a step of the composite; their times should
        // add up to it.
        let stage_ns: u64 = [
            "planner.provision_stage",
            "planner.place_amplifiers",
            "planner.place_cutthroughs",
            "planner.residual_pairs",
            "planner.validate_iris",
            "planner.plan_eps",
            "planner.hybrid_aggregate",
            "cost.price",
        ]
        .iter()
        .map(|n| totals[n].self_ns)
        .sum();
        rep.set(
            "planner.stage_sum_ratio",
            stage_ns as f64 / totals["core.design_study"].total_ns.max(1) as f64,
        );
    }
}

impl PlanCtx {
    /// Standalone calls into netgraph, optics and the planner's other
    /// entry points on one region.
    fn probe(
        &self,
        tr: &mut Tracer,
        op: u64,
        region: &Region,
        iris: &IrisPlan,
        par_threads: usize,
    ) {
        let goals = &self.goals;
        let g = region.map.graph();
        let m = g.edge_count();
        let none = vec![false; m];
        let dcs = &region.dcs;

        for &dc in dcs {
            tr.time("netgraph.dijkstra", op, || {
                black_box(dijkstra(g, dc, &none))
            });
        }
        let pairs: Vec<(usize, usize)> = (0..dcs.len())
            .flat_map(|a| (a + 1..dcs.len()).map(move |b| (a, b)))
            .collect();
        let cap = |dc: usize| region.capacity_wavelengths(dc);
        // Sized by a first call, as the planner's long-lived scratch is.
        let mut hose = HoseScratch::new();
        black_box(hose.max_edge_load(&cap, &pairs));
        tr.time("netgraph.hose_max_edge_load", op, || {
            black_box(hose.max_edge_load(&cap, &pairs))
        });
        let (src, dst) = (dcs[0], dcs[dcs.len() - 1]);
        let mut dinic = Dinic::new(g.node_count());
        for e in g.edges() {
            dinic.add_bidirectional_edge(e.u, e.v, 1);
        }
        tr.time("netgraph.dinic_max_flow", op, || {
            black_box(dinic.max_flow(src, dst))
        });
        tr.time("netgraph.k_shortest_paths", op, || {
            black_box(k_shortest_paths(g, src, dst, 4, &none))
        });
        let t0 = tr.now_ns();
        let mut enumerated = 0u32;
        for scenario in FailureScenarios::new(m, goals.max_cuts) {
            black_box(scenario);
            enumerated += 1;
        }
        tr.leaf("netgraph.failure_enum", op, t0, tr.now_ns(), enumerated);

        let realized: Vec<_> = nominal_paths(region, goals)
            .iter()
            .map(|p| realize_path(region, goals, p, &iris.amps, &iris.cuts))
            .collect();
        const PASSES: u32 = 16;
        let t0 = tr.now_ns();
        for _ in 0..PASSES {
            for elements in &realized {
                let _ = black_box(evaluate_path(black_box(elements)));
            }
        }
        tr.leaf(
            "optics.evaluate_path",
            op,
            t0,
            tr.now_ns(),
            PASSES * realized.len() as u32,
        );

        tr.time("planner.provision", op, || {
            black_box(provision_with_threads(region, goals, 1))
        });
        tr.time("planner.provision_par", op, || {
            black_box(provision_with_threads(region, goals, par_threads))
        });
        tr.time("planner.engine_sweep", op, || {
            ScenarioEngine::new(region, goals).for_each_scenario(|_, view| {
                black_box(view.pair_count());
            });
        });
        let spec = FamilySpec::new(FamilyKind::Burst, 8, derive(self.seed, "family", op));
        let family = tr.time("planner.family_build", op, || {
            MatrixFamily::build(region, goals, &spec)
        });
        tr.time("planner.provision_robust", op, || {
            black_box(provision_robust_with_threads(region, goals, &family, 1))
        });
    }
}

/// Hash of what a user reads off a study: fiber-pair spans, amplifiers,
/// cut-throughs, infeasible pairs, and the three totals.
fn study_digest(study: &DesignStudy) -> u64 {
    let mut d = Digest::default();
    d.u64(study.iris.total_fiber_pair_spans());
    d.u64(study.eps.total_fiber_pair_spans());
    d.u64(study.iris.total_amps());
    d.u64(study.iris.cuts.cuts.len() as u64);
    d.u64(study.iris.cuts.total_fiber_pair_spans());
    d.u64(study.iris.provisioning.infeasible.len() as u64);
    d.f64(study.iris_cost.total());
    d.f64(study.eps_cost.total());
    d.f64(study.hybrid_cost.total());
    d.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let spec = PlanSpec {
            points: iris_bench::sweep_points()
                .into_iter()
                .filter(|p| p.map_seed == 1 && p.n_dcs == 5)
                .collect(),
            cuts: 1,
            threads: 1,
        };
        let a = PlanCtx::setup(&spec, 3);
        assert_eq!(a.files, PlanCtx::setup(&spec, 3).files);
        assert_ne!(a.files, PlanCtx::setup(&spec, 4).files);
        // Capacities stay within an eighth of the grid value.
        let region = region_from_json(&a.files[0]).unwrap();
        let f = region.capacity_fibers[0];
        assert!(
            [8u32, 16, 32].iter().any(|g| f.abs_diff(*g) <= g / 8),
            "{f}"
        );
    }
}
