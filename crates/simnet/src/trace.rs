//! The one way a simulation runs: a [`WorkSpec`] recipe draws a
//! [`FlowTrace`], and [`FlowTrace::replay`] feeds it through the exact
//! event loop.
//!
//! A [`FlowTrace`] is everything about a run that does *not* depend on
//! how fast flows drain: when flows arrive, which DC pair and size each
//! one drew (or that the capacity clamp thinned the arrival away), and
//! how much traffic each matrix change moved. [`WorkSpec::trace`] draws
//! one from the recipe's seed in O(flows), without any water-filling;
//! [`WorkSpec::run`] is that trace replayed.
//!
//! The split is what makes decomposed (per-link) flow simulation
//! honest: `iris-flowsim` estimates FCTs from the *same trace* the
//! exact engine replays, so a validation run compares two estimators
//! over one workload rather than two workloads.

use crate::engine::{drive, CapacityEvent, FabricModel, FlowRecord, SimConfig};
use crate::topology::{Link, SimTopology};
use crate::traffic::{ChangeModel, TrafficMatrix};
use iris_errors::{IrisError, IrisResult};
use iris_planner::workload::pair_index;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The most arrivals (calibrated rate × duration), and the most matrix
/// changes, [`WorkSpec::check`] lets a recipe expect: a trace is held
/// whole in memory. The largest run in the repository draws ~3·10⁶.
pub const MAX_EXPECTED_ARRIVALS: f64 = 1e8;

/// The recipe of a simulation run: topology, initial traffic matrix and
/// configuration. Every trace, record and manifest of the run is a pure
/// function of it, which is why a distributed flow-simulation job ships
/// the recipe rather than the run's flows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkSpec {
    /// The simulated topology.
    pub topo: SimTopology,
    /// The initial traffic matrix.
    pub matrix: TrafficMatrix,
    /// Full simulator configuration (workload, changes, fabric, seed).
    pub config: SimConfig,
}

impl WorkSpec {
    /// Calibrated global arrival rate, flows/s: the rate at which the
    /// expected load of the most-utilized link under the initial matrix
    /// equals `config.utilization`.
    ///
    /// # Panics
    ///
    /// Panics with [`WorkSpec::check`]'s message if the recipe is
    /// invalid.
    #[must_use]
    pub fn arrival_rate(&self) -> f64 {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
        self.calibrated_rate()
    }

    /// [`WorkSpec::arrival_rate`] of a recipe whose routes index its
    /// links: infinite when the matrix loads no link.
    fn calibrated_rate(&self) -> f64 {
        // Expected per-link load for unit total offered Gbps.
        let mut unit_load = vec![0.0f64; self.topo.links.len()];
        for (route, &w) in self.topo.routes.iter().zip(self.matrix.weights()) {
            for &l in route {
                unit_load[l] += w;
            }
        }
        let max_rel = unit_load
            .iter()
            .zip(&self.topo.links)
            .map(|(&u, l)| u / l.capacity_gbps)
            .fold(0.0f64, f64::max);
        let offered_gbps = self.config.utilization / max_rel;
        offered_gbps * 1e9 / self.mean_bits()
    }

    /// Check that [`WorkSpec::trace`] and [`FlowTrace::replay`] can run
    /// the recipe without indexing out of bounds, dividing by zero or
    /// looping forever: a recipe from outside the program (a flowsim
    /// `LoadSpec`) passes here before anything draws it.
    ///
    /// # Errors
    ///
    /// [`IrisError::InvalidInput`] naming the first violated condition.
    pub fn check(&self) -> IrisResult<()> {
        let (topo, config) = (&self.topo, &self.config);
        let invalid = |detail: String| IrisError::InvalidInput {
            detail: format!("work spec: {detail}"),
        };
        config.flow_sizes.check().map_err(invalid)?;
        let (n, links) = (topo.n_dcs, topo.links.len());
        let (weights, rtts) = (self.matrix.weights(), &topo.route_rtt_s);
        let events = &config.capacity_events;
        let pairs = n.checked_mul(n.saturating_sub(1)).map(|p| p / 2);
        let sized = [topo.routes.len(), rtts.len(), weights.len()].map(|len| Some(len) == pairs);
        let event_ids = events.iter().filter_map(|e| e.links.as_ref());
        let mut ids = topo.routes.iter().chain(event_ids).flatten();
        let finite = |x: &f64| x.is_finite() && *x >= 0.0;
        let carries = |l: &Link| l.capacity_gbps > 0.0 && finite(&l.capacity_gbps);
        let event_ok = |e: &CapacityEvent| {
            e.start_s.is_finite()
                && finite(&e.duration_s)
                && (0.0..=1.0).contains(&e.capacity_factor)
        };
        let (u, duration) = (config.utilization, config.duration_s);
        let interval_ok = |i: f64| i > 0.0 && duration / i <= MAX_EXPECTED_ARRIVALS;
        let needs = if n < 2 || self.matrix.n_dcs() != n || sized.contains(&false) {
            "two or more DCs, a matrix over as many, and one route, RTT and weight per DC pair"
        } else if ids.any(|&l| l >= links) {
            "route and capacity-event link ids in range"
        } else if !topo.links.iter().all(carries) {
            "positive finite link capacities"
        } else if !weights.iter().chain(rtts).all(finite) {
            "finite non-negative matrix weights and route RTTs"
        } else if !events.iter().all(event_ok) {
            "capacity events with finite times and a capacity factor in [0, 1]"
        } else if !(u > 0.0 && u < 1.0) {
            "a utilization in (0, 1)"
        } else if !(duration > 0.0 && duration.is_finite()) {
            "a positive finite duration"
        } else if !config.change_interval_s.is_none_or(interval_ok) {
            "a positive change interval scheduling at most MAX_EXPECTED_ARRIVALS changes"
        } else if !(self.calibrated_rate() * duration).le(&MAX_EXPECTED_ARRIVALS) {
            // Infinite or NaN when the matrix loads no link.
            "at most MAX_EXPECTED_ARRIVALS expected arrivals, and a matrix that loads a link"
        } else {
            return Ok(());
        };
        Err(invalid(format!("needs {needs}")))
    }

    /// Mean flow size, bits.
    fn mean_bits(&self) -> f64 {
        self.config.flow_sizes.mean_bytes() * 8.0
    }

    /// The effective run parameters (after arrival-rate calibration),
    /// for reproducibility sidecars.
    ///
    /// # Panics
    ///
    /// As [`WorkSpec::arrival_rate`].
    #[must_use]
    pub fn manifest(&self) -> RunManifest {
        let config = &self.config;
        RunManifest {
            seed: config.seed,
            duration_s: config.duration_s,
            utilization: config.utilization,
            flow_size_dist: config.flow_sizes.name.clone(),
            change_interval_s: config.change_interval_s,
            change_model: config.change_model,
            fabric: config.fabric,
            capacity_event_count: config.capacity_events.len(),
            n_dcs: self.topo.n_dcs,
            arrival_rate_flows_per_s: self.arrival_rate(),
        }
    }

    /// Draw the run's workload from the seed: every arrival tick of the
    /// calibrated Poisson process with the pair and size it drew (or
    /// `None` when the capacity clamp thinned it), and the moved-traffic
    /// fraction of every matrix change, the matrix re-clamped after
    /// each. Costs O(flows), no water-filling.
    ///
    /// Nothing drawn here depends on flow progress or on the fabric, so
    /// two fabrics given the same recipe see the same arrivals.
    ///
    /// # Panics
    ///
    /// As [`WorkSpec::arrival_rate`].
    #[must_use]
    pub fn trace(&self) -> FlowTrace {
        let config = &self.config;
        let arrival_rate = self.arrival_rate();
        let mean_bits = self.mean_bits();
        let mut matrix = self.matrix.clone();
        clamp_matrix_to_capacity(&self.topo, &mut matrix, arrival_rate, mean_bits);
        let change_interval = config.change_interval_s.unwrap_or(f64::INFINITY);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut next_arrival = sample_exp(&mut rng, arrival_rate);
        let mut next_change = change_interval;
        let mut arrivals = Vec::new();
        let mut change_fractions = Vec::new();
        while next_arrival.min(next_change) < config.duration_s {
            if next_arrival <= next_change {
                // `sample_pair` thins arrivals when the clamp has reduced
                // the total admitted weight below 1.
                let flow = sample_pair(&mut rng, &matrix).map(|pair| TraceFlow {
                    pair,
                    size_bytes: config.flow_sizes.sample(&mut rng),
                });
                arrivals.push(TraceArrival {
                    start_s: next_arrival,
                    flow,
                });
                next_arrival += sample_exp(&mut rng, arrival_rate);
            } else {
                change_fractions.push(matrix.change(config.change_model));
                clamp_matrix_to_capacity(&self.topo, &mut matrix, arrival_rate, mean_bits);
                next_change += change_interval;
            }
        }
        FlowTrace {
            n_dcs: self.topo.n_dcs,
            duration_s: config.duration_s,
            change_interval_s: config.change_interval_s,
            fabric: config.fabric,
            capacity_events: config.capacity_events.clone(),
            arrivals,
            change_fractions,
        }
    }

    /// Run the exact engine: the recipe's trace, replayed. Returns all
    /// flows that *finished* within the simulated duration.
    ///
    /// # Panics
    ///
    /// As [`WorkSpec::arrival_rate`].
    #[must_use]
    pub fn run(&self) -> Vec<FlowRecord> {
        self.trace().replay(&self.topo)
    }
}

/// The parameters that produced a simulation run, captured alongside
/// its [`FlowRecord`]s so results are reproducible from the artifact
/// alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// RNG seed for arrivals and sizes.
    pub seed: u64,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Target peak link utilization (0-1).
    pub utilization: f64,
    /// Flow-size distribution name.
    pub flow_size_dist: String,
    /// Seconds between traffic-matrix changes (`None` = static).
    pub change_interval_s: Option<f64>,
    /// Matrix change model.
    pub change_model: ChangeModel,
    /// Fabric behaviour.
    pub fabric: FabricModel,
    /// Number of scheduled capacity disturbances.
    pub capacity_event_count: usize,
    /// Data centers in the simulated topology.
    pub n_dcs: usize,
    /// Calibrated global arrival rate, flows/s.
    pub arrival_rate_flows_per_s: f64,
}

/// Clamp the matrix so no link's *expected* offered load exceeds its
/// capacity. §6.3 assumes "provisioning is sufficient to handle the
/// traffic before and after the reconfiguration"; without this, an
/// unbounded matrix change could concentrate more load on one
/// circuit than it could ever carry and flows would back up without
/// bound. The clamp thins the affected pairs' arrivals (traffic that
/// the provisioned circuits genuinely cannot admit).
fn clamp_matrix_to_capacity(
    topo: &SimTopology,
    matrix: &mut TrafficMatrix,
    arrival_rate: f64,
    mean_bits: f64,
) {
    const HEADROOM: f64 = 0.95;
    let offered_per_weight = arrival_rate * mean_bits / 1e9; // Gbps at weight 1
                                                             // Routes and weights share the triangular pair order.
    for _ in 0..32 {
        let mut load = vec![0.0f64; topo.links.len()];
        for (route, &w) in topo.routes.iter().zip(matrix.weights()) {
            for &l in route {
                load[l] += w * offered_per_weight;
            }
        }
        let mut factor = vec![1.0f64; topo.routes.len()];
        let mut any = false;
        for (l, &ld) in load.iter().enumerate() {
            let cap = topo.links[l].capacity_gbps * HEADROOM;
            if ld > cap {
                any = true;
                let f = cap / ld;
                for (idx, route) in topo.routes.iter().enumerate() {
                    if route.contains(&l) {
                        factor[idx] = factor[idx].min(f);
                    }
                }
            }
        }
        if !any {
            break;
        }
        matrix.rescale(|idx, _| factor[idx]);
    }
}

fn sample_exp<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Sample a DC pair proportionally to weight. Weights may sum to less
/// than 1 after capacity clamping; the shortfall thins the arrival
/// process (`None` = this arrival is not admitted).
fn sample_pair<R: Rng + ?Sized>(rng: &mut R, matrix: &TrafficMatrix) -> Option<(usize, usize)> {
    let mut target: f64 = rng.random_range(0.0..1.0);
    let n = matrix.n_dcs();
    for i in 0..n {
        for j in (i + 1)..n {
            let w = matrix.weights()[pair_index(n, i, j)];
            if target < w {
                return Some((i, j));
            }
            target -= w;
        }
    }
    None
}

/// One admitted flow in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceFlow {
    /// Unordered DC pair (i < j).
    pub pair: (usize, usize),
    /// Flow size, bytes.
    pub size_bytes: f64,
}

/// One arrival *tick* of the Poisson process. `flow` is `None` when the
/// capacity clamp thinned the arrival away — the tick still advances
/// simulated time, so replay observes it like any other event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceArrival {
    /// Arrival time, s.
    pub start_s: f64,
    /// The admitted flow, or `None` for a thinned arrival.
    pub flow: Option<TraceFlow>,
}

/// A fully materialized simulation workload: every arrival tick, every
/// matrix-change magnitude, and the scheduling constants needed to
/// replay them. Serializable; a distributed flow-simulation job
/// regenerates it from a [`WorkSpec`] recipe (shipping the recipe, not
/// the trace, keeps jobs under the wire frame cap at 10⁶⁺ flows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowTrace {
    /// Data centers in the topology the trace was generated against.
    pub n_dcs: usize,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Seconds between matrix changes (`None` = static traffic).
    pub change_interval_s: Option<f64>,
    /// Fabric behaviour (reconfiguration outages or EPS).
    pub fabric: FabricModel,
    /// Scheduled capacity disturbances.
    pub capacity_events: Vec<CapacityEvent>,
    /// Every arrival tick, in time order.
    pub arrivals: Vec<TraceArrival>,
    /// Moved-traffic fraction of each matrix change, in time order.
    pub change_fractions: Vec<f64>,
}

impl FlowTrace {
    /// Number of admitted flows (thinned arrivals excluded).
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.arrivals.iter().filter(|a| a.flow.is_some()).count()
    }

    /// Total admitted bytes.
    #[must_use]
    pub fn total_bytes(&self) -> f64 {
        self.arrivals
            .iter()
            .filter_map(|a| a.flow)
            .map(|f| f.size_bytes)
            .sum()
    }

    /// Run the exact fluid simulation over this trace: the engine's
    /// event loop, fed this trace's arrivals and matrix changes.
    ///
    /// # Panics
    ///
    /// Panics if `topo` does not have the DC count the trace was
    /// generated against.
    #[must_use]
    pub fn replay(&self, topo: &SimTopology) -> Vec<FlowRecord> {
        assert_eq!(
            topo.n_dcs, self.n_dcs,
            "trace was generated for a {}-DC topology",
            self.n_dcs
        );
        drive(topo, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::FlowSizeDist;

    fn spec(fabric: FabricModel, seed: u64) -> WorkSpec {
        WorkSpec {
            topo: SimTopology::hub_and_spoke(5, 1.0),
            matrix: TrafficMatrix::heavy_tailed(5, 11),
            config: SimConfig {
                duration_s: 4.0,
                utilization: 0.6,
                flow_sizes: FlowSizeDist::facebook_web(),
                change_interval_s: Some(0.8),
                change_model: ChangeModel::Unbounded,
                fabric,
                capacity_events: Vec::new(),
                seed,
            },
        }
    }

    /// FNV-1a over every record's pair, size, start and FCT bits, in
    /// record order: any float that moves changes it.
    fn digest(records: &[FlowRecord]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in records {
            let words = [
                r.pair.0 as u64,
                r.pair.1 as u64,
                r.size_bytes.to_bits(),
                r.start_s.to_bits(),
                r.fct_s.to_bits(),
            ];
            for b in words.iter().flat_map(|w| w.to_le_bytes()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The exact engine, pinned: record counts and digests captured at
    /// commit 4b6197f, before the recipe became the only way to run.
    #[test]
    fn run_reproduces_the_pinned_engine_digests() {
        let iris = FabricModel::Iris { outage_s: 0.07 };
        let mut cases = vec![
            (spec(FabricModel::Eps, 7), (6849, 0x378b_3b93_4d57_0db7)),
            (spec(FabricModel::Eps, 1234), (6926, 0x4f52_de92_0168_4eba)),
            (spec(iris, 7), (6849, 0xf09d_3dd5_a71b_e1f3)),
            (spec(iris, 1234), (6926, 0x61d4_25a4_0d0a_250b)),
        ];
        let mut disturbed = spec(iris, 7);
        disturbed.config.capacity_events = vec![
            CapacityEvent {
                start_s: 1.0,
                duration_s: 0.5,
                capacity_factor: 0.5,
                links: None,
            },
            CapacityEvent {
                start_s: 2.2,
                duration_s: 1.0,
                capacity_factor: 0.0,
                links: Some(vec![0]),
            },
        ];
        cases.push((disturbed, (6849, 0x746a_b0fc_d48f_2cb8)));
        for (work, (count, pinned)) in cases {
            let records = work.run();
            let got = (records.len(), digest(&records));
            assert_eq!(
                got,
                (count, pinned),
                "{:?} seed {}: got ({}, {:#018x})",
                work.config.fabric,
                work.config.seed,
                got.0,
                got.1
            );
        }
    }

    /// The exact engine on a planned region, pinned: an 8-DC region's
    /// nominal routes run over two to six links, so one round's fixed
    /// flows touch many residuals, and one global and one targeted
    /// disturbance cross the Iris fabric's reconfiguration outages.
    /// Record count and digest captured at commit dea2c8f, before the
    /// engine water-filled DC-pair classes instead of flows.
    #[test]
    fn run_reproduces_the_pinned_planned_region_digest() {
        use iris_fibermap::{synth, MetroParams, PlacementParams};
        use iris_planner::{provision, DesignGoals};
        let region = synth::place_dcs(
            synth::generate_metro(&MetroParams::default()),
            &PlacementParams::default(),
        );
        let goals = DesignGoals::with_cuts(0);
        let prov = provision(&region, &goals);
        let scale = SimTopology::scale_for_largest_link(&region, &prov, 2.0);
        let topo = SimTopology::from_provisioning(&region, &goals, &prov, scale);
        let longest = topo.routes.iter().map(Vec::len).max();
        assert_eq!(longest, Some(6), "the region no longer has 6-link routes");
        let work = WorkSpec {
            matrix: TrafficMatrix::heavy_tailed(topo.n_dcs, 3),
            config: SimConfig {
                duration_s: 6.0,
                utilization: 0.7,
                flow_sizes: FlowSizeDist::pfabric_web_search(),
                change_interval_s: Some(0.5),
                change_model: ChangeModel::Unbounded,
                fabric: FabricModel::Iris { outage_s: 0.07 },
                capacity_events: vec![
                    CapacityEvent {
                        start_s: 0.8,
                        duration_s: 0.3,
                        capacity_factor: 0.6,
                        links: None,
                    },
                    CapacityEvent {
                        start_s: 3.5,
                        duration_s: 1.2,
                        capacity_factor: 0.0,
                        links: Some(topo.routes[0].clone()),
                    },
                ],
                seed: 5,
            },
            topo,
        };
        let records = work.run();
        let got = (records.len(), digest(&records));
        assert_eq!(
            got,
            (3294, 0x3be1_4dbb_de18_2d12),
            "got ({}, {:#018x})",
            got.0,
            got.1
        );
    }

    #[test]
    fn trace_survives_serde_round_trip() {
        let work = spec(FabricModel::Eps, 9);
        let trace = work.trace();
        let json = serde_json::to_string(&trace).expect("serialize");
        let back: FlowTrace = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(trace, back);
        assert_eq!(trace.replay(&work.topo), back.replay(&work.topo));
    }

    #[test]
    fn check_turns_every_bad_recipe_field_into_invalid_input() {
        fn event(links: Option<Vec<usize>>) -> CapacityEvent {
            CapacityEvent {
                start_s: 1.0,
                duration_s: 0.5,
                capacity_factor: 0.5,
                links,
            }
        }
        type Mutation = fn(&mut WorkSpec);
        let cases: [(&str, Mutation); 12] = [
            ("route link id", |w| w.topo.routes[0] = vec![99]),
            ("event link id", |w| {
                w.config.capacity_events = vec![event(Some(vec![99]))];
            }),
            ("event factor", |w| {
                w.config.capacity_events = vec![CapacityEvent {
                    capacity_factor: 2.0,
                    ..event(None)
                }];
            }),
            ("zero capacity", |w| w.topo.links[0].capacity_gbps = 0.0),
            ("NaN capacity", |w| w.topo.links[0].capacity_gbps = f64::NAN),
            ("route count", |w| drop(w.topo.routes.pop())),
            ("RTT count", |w| w.topo.route_rtt_s.push(0.0)),
            ("zero duration", |w| w.config.duration_s = 0.0),
            ("infinite duration", |w| w.config.duration_s = f64::INFINITY),
            ("NaN utilization", |w| w.config.utilization = f64::NAN),
            ("1e9 changes", |w| w.config.change_interval_s = Some(4e-9)),
            ("1e9 arrivals", |w| {
                w.config.change_interval_s = None;
                w.config.duration_s = 1e9;
            }),
        ];
        assert_eq!(spec(FabricModel::Eps, 1).check(), Ok(()));
        for (what, mutate) in cases {
            let mut work = spec(FabricModel::Eps, 1);
            mutate(&mut work);
            let err = work.check().expect_err(what);
            assert!(
                matches!(err, IrisError::InvalidInput { .. }),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn trace_counts_changes_and_flows() {
        let trace = spec(FabricModel::Eps, 9).trace();
        // duration 4.0, interval 0.8 → changes at 0.8,1.6,2.4,3.2.
        assert_eq!(trace.change_fractions.len(), 4);
        assert!(trace.flow_count() > 100);
        assert!(trace.total_bytes() > 0.0);
        for pair in trace.arrivals.windows(2) {
            assert!(pair[0].start_s <= pair[1].start_s, "arrivals out of order");
        }
    }
}
