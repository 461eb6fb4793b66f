//! Journey 3: traffic trace -> flow completion times (§6.3, Figs. 17/18).
//!
//! An op generates the seeded flow trace of a planned region and turns
//! it into FCTs, through the exact engine (`iris-simnet`) or the
//! decomposed estimator (`iris-flowsim`). Trace generation is inside the
//! op: users pay it on every run.

use crate::report::Report;
use crate::rng::{derive, Digest, Rng};
use crate::spans::Tracer;
use crate::Block;
use iris_bench::{build_region, SweepPoint};
use iris_fibermap::Region;
use iris_flowsim::cluster::{cluster_links, estimate_member, SlowdownTable};
use iris_flowsim::coord::{estimate, EstimateConfig};
use iris_flowsim::decompose::{combine, Decomposition};
use iris_flowsim::proto::WorkSpec;
use iris_planner::{provision_with_threads, DesignGoals, Provisioning};
use iris_simnet::engine::{max_min_rates, FabricModel, FlowRecord, SimConfig, WaterfillScratch};
use iris_simnet::traffic::ChangeModel;
use iris_simnet::workloads::FlowSizeDist;
use iris_simnet::{SimTopology, TrafficMatrix};
use std::hint::black_box;
use std::time::Instant;

const DURATION_S: f64 = 20.0;
const UTILIZATION: f64 = 0.9;
/// The traffic matrix is part of the workload's stated shape, like the
/// region: how skewed it is decides how many flows are active at once,
/// and with it the exact engine's cost (0.19 to 0.53 s per op across
/// seven matrices). The seed draws the arrivals and the flow sizes.
const MATRIX_SEED: u64 = 42;
/// Size of the set-up's warm-up simulation.
const WARM_UP_FLOWS: f64 = 3e4;
/// Flows held at once by the water-filling probe.
const WATERFILL_POPULATION: usize = 480;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Exact,
    Decomposed,
}

#[derive(Debug, Clone)]
pub struct SimSpec {
    pub engine: Engine,
    /// The region simulated, as it stands on the grid: its capacities
    /// decide which ducts are the bottlenecks, and with them the
    /// engines' cost.
    pub region: SweepPoint,
    /// Admitted flows the capacity is scaled to for a timed op.
    pub flows: f64,
    /// Ops per block, each on its own trace drawn from the seed. How a
    /// trace's large flows fall decides how many flows are active at once,
    /// so at 3e5 flows the exact engine's cost moves by a quarter from one
    /// trace to the next; a block averages over several.
    pub traces: usize,
    /// Sizes of the per-layer runs (exact replay, decomposed estimate).
    pub layer_exact_flows: f64,
    pub layer_decomposed_flows: f64,
    /// Worker threads of the decomposed estimator.
    pub threads: usize,
}

/// A planned region plus the calibration from capacity scale to flows.
pub struct SimCtx {
    spec: SimSpec,
    region: Region,
    goals: DesignGoals,
    prov: Provisioning,
    base_scale: f64,
    base_flows: f64,
    seed: u64,
    works: Vec<WorkSpec>,
}

impl SimCtx {
    pub fn setup(spec: &SimSpec, seed: u64) -> Self {
        let region = build_region(&spec.region);
        let goals = DesignGoals::with_cuts(0);
        let prov = provision_with_threads(&region, &goals, 1);
        let raw = SimTopology::from_provisioning(&region, &goals, &prov, 1.0);
        let max_cap = raw
            .links
            .iter()
            .map(|l| l.capacity_gbps)
            .fold(0.0, f64::max);
        // Capacity scale sets the Poisson rate, so one small trace
        // calibrates scale -> admitted flows.
        let base_scale = 2.0 / max_cap;
        let base = SimTopology::from_provisioning(&region, &goals, &prov, base_scale);
        let base_flows = work_spec(base, seed, 0).trace().flow_count() as f64;
        let mut ctx = Self {
            spec: spec.clone(),
            works: Vec::new(),
            region,
            goals,
            prov,
            base_scale,
            base_flows,
            seed,
        };
        ctx.works = (0..spec.traces as u64)
            .map(|t| ctx.work_at(spec.flows, t))
            .collect();
        // Warm the engine's code and the allocator on a small trace.
        black_box(ctx.simulate(&ctx.work_at(WARM_UP_FLOWS, 0)).1.len());
        ctx
    }

    /// The workload's engine on one recipe: flows in the trace, records.
    fn simulate(&self, work: &WorkSpec) -> (usize, Vec<FlowRecord>) {
        match self.spec.engine {
            Engine::Exact => {
                let trace = work.trace();
                (trace.flow_count(), trace.replay(&work.topo))
            }
            Engine::Decomposed => {
                let est = estimate(work, &EstimateConfig::default())
                    .expect("in-process backend is infallible");
                (est.flows, est.records)
            }
        }
    }

    /// The recipe of trace number `trace` at `flows` admitted flows.
    fn work_at(&self, flows: f64, trace: u64) -> WorkSpec {
        let scale = self.base_scale * flows / self.base_flows;
        let topo = SimTopology::from_provisioning(&self.region, &self.goals, &self.prov, scale);
        work_spec(topo, self.seed, trace)
    }

    /// One block: one simulation of each of the seeded traces.
    pub fn run_block(&self, mut tracer: Option<&mut Tracer>) -> Block {
        iris_planner::set_default_threads(self.spec.threads);
        let mut block = Block::default();
        let mut digest = Digest::default();
        let mut lat_ms = Vec::new();
        for (i, work) in self.works.iter().enumerate() {
            crate::sysinfo::reset_peak_rss();
            let span = tracer.as_mut().map(|t| t.enter("bench.op", i as u64));
            let t0 = Instant::now();
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.simulate(work)));
            let op_s = t0.elapsed().as_secs_f64();
            if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
                t.exit(id);
            }
            block.peak_rss_mb.push(crate::sysinfo::peak_rss_mb());
            block.attempted += 1;
            block.wall_s += op_s;
            match outcome
                .map_err(|_| "simulation panicked".to_owned())
                .and_then(|(flows, records)| {
                    check_records(&work.topo, flows, &records).map(|d| (records.len(), d))
                }) {
                Ok((completed, d)) => {
                    lat_ms.push(op_s * 1e3);
                    block.work += completed as f64;
                    digest.u64(d);
                }
                Err(why) => {
                    block.failed += 1;
                    block.errors.push(why);
                }
            }
        }
        block.digest = digest.0;
        block.set_latencies(&mut lat_ms, true);
        block
    }

    /// Per-layer metrics of both simulators on this context's region.
    pub fn layers(&self, tr: &mut Tracer, rep: &mut Report) {
        let telemetry = iris_telemetry::global();
        let threads = self.spec.threads;

        let scale = self.base_scale * self.spec.layer_exact_flows / self.base_flows;
        let topo = tr.time("simnet.from_provisioning", 0, || {
            SimTopology::from_provisioning(&self.region, &self.goals, &self.prov, scale)
        });
        let exact = work_spec(topo, self.seed, 0);
        let trace = tr.time("simnet.trace_gen", 0, || exact.trace());
        let flows = trace.flow_count() as f64;
        let events0 = telemetry.counter("iris_simnet_events_total").get();
        let rounds0 = telemetry
            .counter("iris_simnet_waterfill_rounds_total")
            .get();
        let records = tr.time("simnet.replay", 0, || trace.replay(&exact.topo));
        rep.set(
            "simnet.events",
            (telemetry.counter("iris_simnet_events_total").get() - events0) as f64,
        );
        rep.set(
            "simnet.waterfill_rounds",
            (telemetry
                .counter("iris_simnet_waterfill_rounds_total")
                .get()
                - rounds0) as f64,
        );
        black_box(records);
        drop(trace);

        // Water-filling over a fixed-size seeded flow population.
        let n = exact.topo.n_dcs;
        let mut rng = Rng::new(derive(self.seed, "waterfill", 0));
        let pairs: Vec<(usize, usize)> = (0..WATERFILL_POPULATION)
            .map(|_| {
                let a = rng.below(n as u64) as usize;
                let b = (a + 1 + rng.below(n as u64 - 1) as usize) % n;
                (a.min(b), a.max(b))
            })
            .collect();
        let link_scale = vec![1.0; exact.topo.links.len()];
        let mut scratch = WaterfillScratch::new();
        for i in 0..200 {
            tr.time("simnet.max_min_rates", i, || {
                black_box(max_min_rates(
                    &exact.topo,
                    &link_scale,
                    &pairs,
                    &mut scratch,
                ))
            });
        }

        // The decomposed estimator: composite at the workload's thread
        // count and at a tenth of the size (for the scaling ratio), then
        // single-threaded next to its stages called one by one.
        let cfg = EstimateConfig::default();
        let full = self.work_at(self.spec.layer_decomposed_flows, 0);
        let tenth = self.work_at(self.spec.layer_decomposed_flows / 10.0, 0);
        iris_planner::set_default_threads(threads);
        let t0 = Instant::now();
        let small = estimate(&tenth, &cfg).expect("in-process backend is infallible");
        let small_ns_per_flow = t0.elapsed().as_nanos() as f64 / small.flows as f64;
        drop(small);
        let t0 = Instant::now();
        let est = estimate(&full, &cfg).expect("in-process backend is infallible");
        let ns_per_flow = t0.elapsed().as_nanos() as f64 / est.flows as f64;
        rep.set("flowsim.ns_per_flow", ns_per_flow);
        rep.set("flowsim.scale_ratio", ns_per_flow / small_ns_per_flow);
        rep.set("flowsim.links_occupied", est.links_occupied as f64);
        rep.set("flowsim.links_simulated", est.links_simulated as f64);
        let composite_records = est.records.len();
        drop(est);

        iris_planner::set_default_threads(1);
        let composite = tr.enter("flowsim.estimate", 0);
        black_box(estimate(&full, &cfg).expect("in-process backend is infallible"));
        tr.exit(composite);
        let stages = tr.enter("flowsim.stages", 0);
        let trace = tr.time("flowsim.trace_gen", 0, || full.trace());
        let dec = tr.time("flowsim.decompose", 0, || {
            Decomposition::build(&full.topo, &trace)
        });
        let clusters = tr.time("flowsim.cluster", 0, || {
            cluster_links(&full.topo, &dec, &dec.occupied_links(), cfg.epsilon)
        });
        let mut results: Vec<(usize, Vec<f64>)> = Vec::new();
        for c in &clusters {
            let finishes = tr.time("flowsim.link_sim", c.rep as u64, || {
                dec.simulate(&full.topo, c.rep)
            });
            if !c.members.is_empty() {
                tr.time("flowsim.member_estimate", c.rep as u64, || {
                    let table = SlowdownTable::build(&full.topo, &dec, c.rep, &finishes);
                    for &m in &c.members {
                        results.push((m, estimate_member(&full.topo, &dec, m, &table)));
                    }
                });
            }
            results.push((c.rep, finishes));
        }
        let records = tr.time("flowsim.combine", 0, || combine(&full.topo, &dec, results));
        tr.exit(stages);
        iris_planner::set_default_threads(threads);
        assert_eq!(
            records.len(),
            composite_records,
            "stage-by-stage estimate differs from the composite"
        );

        let totals = tr.totals();
        let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
        rep.set(
            "simnet.from_provisioning_ms",
            secs("simnet.from_provisioning") * 1e3,
        );
        rep.set("simnet.trace_gen_s", secs("simnet.trace_gen"));
        rep.set("simnet.trace_flows", flows);
        rep.set(
            "simnet.trace_ns_per_flow",
            secs("simnet.trace_gen") * 1e9 / flows,
        );
        rep.set("simnet.replay_s", secs("simnet.replay"));
        rep.set(
            "simnet.replay_ns_per_flow",
            secs("simnet.replay") * 1e9 / flows,
        );
        rep.set(
            "simnet.max_min_rates_us",
            secs("simnet.max_min_rates") * 1e6 / totals["simnet.max_min_rates"].spans as f64,
        );
        rep.set("flowsim.decompose_s", secs("flowsim.decompose"));
        rep.set("flowsim.cluster_s", secs("flowsim.cluster"));
        rep.set("flowsim.link_sim_s", secs("flowsim.link_sim"));
        rep.set("flowsim.member_estimate_s", secs("flowsim.member_estimate"));
        rep.set("flowsim.combine_s", secs("flowsim.combine"));
        let stage_s: f64 = [
            "flowsim.trace_gen",
            "flowsim.decompose",
            "flowsim.cluster",
            "flowsim.link_sim",
            "flowsim.member_estimate",
            "flowsim.combine",
        ]
        .iter()
        .map(|n| secs(n))
        .sum();
        rep.set(
            "flowsim.stage_sum_ratio",
            stage_s / secs("flowsim.estimate"),
        );
    }
}

fn work_spec(topo: SimTopology, seed: u64, trace: u64) -> WorkSpec {
    WorkSpec {
        matrix: TrafficMatrix::heavy_tailed(topo.n_dcs, MATRIX_SEED),
        topo,
        config: SimConfig {
            duration_s: DURATION_S,
            utilization: UTILIZATION,
            flow_sizes: FlowSizeDist::pfabric_web_search(),
            change_interval_s: Some(5.0),
            change_model: ChangeModel::Bounded(0.5),
            fabric: FabricModel::Iris { outage_s: 0.07 },
            capacity_events: Vec::new(),
            seed: derive(seed, "sim", trace),
        },
    }
}

/// Every record must be a flow of the trace with a finite completion
/// time no shorter than its transfer at the route's bottleneck plus the
/// route's propagation delay. Flows still in flight when the simulated
/// time ends are dropped by both engines and are not failures. Returns
/// the digest of the records.
fn check_records(topo: &SimTopology, flows: usize, records: &[FlowRecord]) -> Result<u64, String> {
    if records.is_empty() || records.len() > flows {
        return Err(format!("{} records for {flows} flows", records.len()));
    }
    let mut digest = Digest::default();
    for r in records {
        let (a, b) = r.pair;
        let ideal = r.size_bytes * 8.0 / (topo.bottleneck_gbps(a, b) * 1e9);
        if !r.fct_s.is_finite() || r.fct_s < ideal * (1.0 - 1e-9) {
            return Err(format!(
                "flow {a}-{b} of {} B at {} s: fct {} s, ideal {ideal} s",
                r.size_bytes, r.start_s, r.fct_s
            ));
        }
        digest.f64(r.start_s);
        digest.f64(r.fct_s);
    }
    Ok(digest.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_check_rejects_impossible_completion_times() {
        let topo = SimTopology::hub_and_spoke(3, 10.0);
        let ok = FlowRecord {
            pair: (0, 1),
            size_bytes: 1.25e9,
            start_s: 0.0,
            fct_s: 1.5,
        };
        assert!(check_records(&topo, 1, &[ok]).is_ok());
        // 10 Gb over a 10 Gbps spoke cannot finish in half a second.
        let fast = FlowRecord { fct_s: 0.5, ..ok };
        assert!(check_records(&topo, 1, &[fast]).is_err());
        let nan = FlowRecord {
            fct_s: f64::NAN,
            ..ok
        };
        assert!(check_records(&topo, 1, &[nan]).is_err());
        assert!(
            check_records(&topo, 1, &[ok, ok]).is_err(),
            "more records than flows"
        );
    }
}
