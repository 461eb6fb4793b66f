//! The exact event-driven fluid engine.
//!
//! Its input is a recorded workload, a [`FlowTrace`]: when flows arrive,
//! which DC pair and size each one drew, and how much traffic each
//! matrix change moved ([`crate::trace::WorkSpec::trace`] draws one from
//! a seeded recipe). Every flow receives its **max-min fair share** of
//! the links on its route — recomputed by progressive water-filling at
//! every event. Between events, rates are constant, so flow progress is
//! exact (no time stepping).
//!
//! Reconfiguration is modeled as the paper measures it: every matrix
//! change, the circuits being re-homed go dark for the OSS switching
//! time (~70 ms), reducing each link's available capacity by the moved
//! traffic fraction. The EPS baseline replays the same arrivals and
//! matrix changes but never loses capacity.
//!
//! The event loop (`drive`) has one caller, [`FlowTrace::replay`], so
//! the exact engine and the decomposed estimator in `iris-flowsim`
//! always consume the *same* arrival sequence.

use crate::topology::SimTopology;
use crate::trace::FlowTrace;
use crate::traffic::ChangeModel;
use iris_planner::workload::pair_index;
use iris_planner::workloads::FlowSizeDist;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One completed flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Unordered DC pair (i < j).
    pub pair: (usize, usize),
    /// Flow size, bytes.
    pub size_bytes: f64,
    /// Arrival time, s.
    pub start_s: f64,
    /// Flow completion time, s.
    pub fct_s: f64,
}

impl FlowRecord {
    /// Whether this is a short flow by the paper's threshold (< 50 KB).
    #[must_use]
    pub fn is_short(&self) -> bool {
        self.size_bytes < FlowSizeDist::SHORT_FLOW_BYTES
    }
}

/// Reconfiguration behaviour of the simulated fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FabricModel {
    /// Electrical packet switching: capacity is always available.
    Eps,
    /// Iris: each traffic-matrix change triggers a reconfiguration that
    /// removes the moved traffic fraction of every link's capacity for
    /// `outage_s` seconds.
    Iris {
        /// Dark time of the moving circuits (the paper measures 70 ms).
        outage_s: f64,
    },
}

/// A scheduled capacity disturbance: a fiber-cut recovery transient, a
/// maintenance brownout, a scheduled dark window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityEvent {
    /// When the disturbance starts, s.
    pub start_s: f64,
    /// How long it lasts, s.
    pub duration_s: f64,
    /// Remaining capacity fraction during the event (0-1).
    pub capacity_factor: f64,
    /// Affected links; `None` = every link.
    pub links: Option<Vec<crate::topology::LinkId>>,
}

/// Full simulation configuration: the `config` of a
/// [`crate::trace::WorkSpec`] run recipe, serialized with it when a
/// distributed flow-simulation job ships the recipe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulated seconds.
    pub duration_s: f64,
    /// Target peak link utilization (0-1) under the *initial* matrix.
    pub utilization: f64,
    /// Flow-size distribution.
    pub flow_sizes: FlowSizeDist,
    /// Seconds between traffic-matrix changes (and, on Iris,
    /// reconfigurations). `None` = static traffic.
    pub change_interval_s: Option<f64>,
    /// How the matrix changes at each interval.
    pub change_model: ChangeModel,
    /// Fabric behaviour.
    pub fabric: FabricModel,
    /// Scheduled capacity disturbances (cuts, maintenance), applied on
    /// top of the fabric's reconfiguration outages.
    pub capacity_events: Vec<CapacityEvent>,
    /// RNG seed for arrivals and sizes. Two runs with the same seed see
    /// identical arrival sequences, enabling paired comparisons.
    pub seed: u64,
}

#[derive(Debug, Clone)]
struct ActiveFlow {
    pair: (usize, usize),
    size_bytes: f64,
    remaining_bits: f64,
    start_s: f64,
    rate_gbps: f64,
}

/// The event loop: max-min rate recompute at every event, exact fluid
/// progress between events, reconfiguration outages under
/// [`FabricModel::Iris`], arrivals and matrix changes read from `trace`.
/// Returns all flows that *finished* within the simulated duration.
pub(crate) fn drive(topo: &SimTopology, trace: &FlowTrace) -> Vec<FlowRecord> {
    let duration = trace.duration_s;
    let capacity_events = &trace.capacity_events;
    // The trace's cursor: the next arrival tick and matrix change.
    let change_interval = trace.change_interval_s.unwrap_or(f64::INFINITY);
    let mut arrival_idx = 0usize;
    let mut change_idx = 0usize;
    let mut next_change = change_interval;

    let telemetry = iris_telemetry::global();
    let outage_hist = telemetry.histogram("iris_simnet_reconfig_outage_s");
    let event_wall = telemetry.histogram("iris_simnet_event_wall_s");
    // The event loop runs ~1 µs per event; shared-atomic updates and
    // clock reads in it are measurable, so counters accumulate in
    // locals flushed once after the loop, and the per-event wall
    // timing is sampled (1 in EVENT_WALL_SAMPLE events).
    const EVENT_WALL_SAMPLE: u64 = 64;
    let mut events: u64 = 0;
    let mut arrivals: u64 = 0;
    let mut completions: u64 = 0;
    let mut waterfill_round_sum: u64 = 0;
    let mut reconfig_outage_count: u64 = 0;
    let mut active_peak_seen: usize = 0;

    let mut records = Vec::new();
    let mut flows: Vec<ActiveFlow> = Vec::new();
    let mut now = 0.0f64;
    let mut outage_until = f64::NEG_INFINITY;
    let mut outage_fraction = 0.0f64;

    // Per-event buffers, allocated once and reused across the run (the
    // recompute used to allocate four vectors per event; at ~1 µs per
    // event the allocator traffic dominated).
    let mut scratch = WaterfillScratch::new();
    let mut link_scale: Vec<f64> = Vec::new();
    let mut pairs_buf: Vec<(usize, usize)> = Vec::new();

    // Boundaries at which scheduled capacity events start or end.
    let mut event_boundaries: Vec<f64> = capacity_events
        .iter()
        .flat_map(|e| [e.start_s, e.start_s + e.duration_s])
        .collect();
    event_boundaries.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    loop {
        let iter_start = if events.is_multiple_of(EVENT_WALL_SAMPLE) {
            Some(Instant::now())
        } else {
            None
        };
        events += 1;
        let keep_running = 'event: {
            let next_arrival = trace
                .arrivals
                .get(arrival_idx)
                .map_or(f64::INFINITY, |a| a.start_s);
            // Per-link capacity scaling: reconfiguration outage (global)
            // times any scheduled events covering the link.
            let outage_scale = if now < outage_until {
                1.0 - outage_fraction
            } else {
                1.0
            };
            link_scale.clear();
            link_scale.resize(topo.links.len(), outage_scale);
            for ev in capacity_events {
                if now + 1e-12 >= ev.start_s && now < ev.start_s + ev.duration_s {
                    match &ev.links {
                        None => {
                            for s in &mut link_scale {
                                *s *= ev.capacity_factor;
                            }
                        }
                        Some(ids) => {
                            for &l in ids {
                                link_scale[l] *= ev.capacity_factor;
                            }
                        }
                    }
                }
            }
            pairs_buf.clear();
            pairs_buf.extend(flows.iter().map(|f| f.pair));
            let rounds = max_min_rates(topo, &link_scale, &pairs_buf, &mut scratch);
            for (f, &r) in flows.iter_mut().zip(scratch.rates()) {
                f.rate_gbps = r;
            }
            waterfill_round_sum += rounds as u64;
            active_peak_seen = active_peak_seen.max(flows.len());

            // Next event time.
            let next_completion = flows
                .iter()
                .filter(|f| f.rate_gbps > 0.0)
                .map(|f| now + f.remaining_bits / (f.rate_gbps * 1e9))
                .fold(f64::INFINITY, f64::min);
            let outage_end = if now < outage_until {
                outage_until
            } else {
                f64::INFINITY
            };
            let next_boundary = event_boundaries
                .iter()
                .copied()
                .find(|&b| b > now + 1e-12)
                .unwrap_or(f64::INFINITY);
            let t = next_arrival
                .min(next_completion)
                .min(next_change)
                .min(outage_end)
                .min(next_boundary)
                .min(duration);

            // Advance flow progress to t.
            let dt = t - now;
            if dt > 0.0 {
                for f in &mut flows {
                    f.remaining_bits = (f.remaining_bits - f.rate_gbps * 1e9 * dt).max(0.0);
                }
            }
            now = t;
            if now >= duration {
                break 'event false;
            }

            if now >= next_completion - 1e-15 && next_completion <= next_arrival.min(next_change) {
                // Harvest completed flows. Sub-bit residues are float
                // noise from the rate * dt advance; without forgiving
                // them, a flow can sit epsilon above zero with a
                // completion time that rounds back to `now`, spinning
                // the event loop forever.
                let records_before = records.len();
                let before = flows.len();
                let rtt =
                    |pair: (usize, usize)| topo.route_rtt_s[pair_index(topo.n_dcs, pair.0, pair.1)];
                flows.retain(|f| {
                    if f.remaining_bits <= 1.0 {
                        records.push(FlowRecord {
                            pair: f.pair,
                            size_bytes: f.size_bytes,
                            start_s: f.start_s,
                            fct_s: now - f.start_s + rtt(f.pair),
                        });
                        false
                    } else {
                        true
                    }
                });
                if flows.len() == before {
                    // Forced progress: finish the flow the scheduler said
                    // was done (its residue is pure rounding error).
                    if let Some(min_idx) = (0..flows.len())
                        .filter(|&i| flows[i].rate_gbps > 0.0)
                        .min_by(|&a, &b| {
                            let ta = flows[a].remaining_bits / flows[a].rate_gbps;
                            let tb = flows[b].remaining_bits / flows[b].rate_gbps;
                            ta.partial_cmp(&tb).expect("finite")
                        })
                    {
                        let f = flows.swap_remove(min_idx);
                        records.push(FlowRecord {
                            pair: f.pair,
                            size_bytes: f.size_bytes,
                            start_s: f.start_s,
                            fct_s: now - f.start_s + rtt(f.pair),
                        });
                    }
                }
                completions += (records.len() - records_before) as u64;
                break 'event true;
            }

            if now >= next_arrival - 1e-15 && next_arrival <= next_change {
                // A thinned tick (no flow) still advances the cursor.
                if let Some(flow) = trace.arrivals[arrival_idx].flow {
                    flows.push(ActiveFlow {
                        pair: flow.pair,
                        size_bytes: flow.size_bytes,
                        remaining_bits: flow.size_bytes * 8.0,
                        start_s: now,
                        rate_gbps: 0.0,
                    });
                    arrivals += 1;
                }
                arrival_idx += 1;
                break 'event true;
            }

            if now >= next_change - 1e-15 {
                let moved = trace
                    .change_fractions
                    .get(change_idx)
                    .copied()
                    .unwrap_or(0.0);
                change_idx += 1;
                next_change = now + change_interval;
                if let FabricModel::Iris { outage_s } = trace.fabric {
                    outage_fraction = moved.clamp(0.0, 0.9);
                    if outage_fraction > 0.0 {
                        outage_until = now + outage_s;
                        reconfig_outage_count += 1;
                        outage_hist.record(outage_s);
                    }
                }
                break 'event true;
            }
            // Otherwise: outage ended; loop back and recompute rates.
            true
        };
        if let Some(start) = iter_start {
            event_wall.record(start.elapsed().as_secs_f64());
        }
        if !keep_running {
            break;
        }
    }

    telemetry.counter("iris_simnet_events_total").add(events);
    telemetry
        .counter("iris_simnet_arrivals_total")
        .add(arrivals);
    telemetry
        .counter("iris_simnet_flows_completed_total")
        .add(completions);
    telemetry
        .counter("iris_simnet_waterfill_rounds_total")
        .add(waterfill_round_sum);
    telemetry
        .counter("iris_simnet_reconfig_outages_total")
        .add(reconfig_outage_count);
    telemetry
        .gauge("iris_simnet_active_flows_peak")
        .set_max(active_peak_seen as i64);
    records
}

/// Reusable buffers for [`max_min_rates`] — the engine's answer to the
/// planner's `DijkstraScratch`. The recompute runs at every simulator
/// event; allocating its five working vectors per call dominated the
/// event loop's wall time, so callers hold one scratch for the whole
/// run and the recompute only ever grows it.
#[derive(Debug, Default)]
pub struct WaterfillScratch {
    residual: Vec<f64>,
    link_flows: Vec<Vec<u32>>,
    active_on_link: Vec<usize>,
    fixed: Vec<bool>,
    rates: Vec<f64>,
}

impl WaterfillScratch {
    /// Empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rates (Gbps) computed by the last [`max_min_rates`] call, one
    /// per input pair.
    #[must_use]
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }
}

/// Progressive water-filling: every entry of `pairs` is one active flow
/// that gets its max-min fair share of the links on its route, with
/// capacities scaled by `link_scale`. Rates land in `scratch.rates()`;
/// flows with no route get rate 0. Returns the number of water-filling
/// rounds (bottleneck links fixed).
///
/// Complexity: `O(L^2 + F * pathlen)` — each round saturates one link
/// and only touches that link's flow list, so the allocator stays fast
/// even when queues build up at the paper's high-utilization extremes.
pub fn max_min_rates(
    topo: &SimTopology,
    link_scale: &[f64],
    pairs: &[(usize, usize)],
    scratch: &mut WaterfillScratch,
) -> usize {
    let l_count = topo.links.len();
    scratch.residual.clear();
    scratch.residual.extend(
        topo.links
            .iter()
            .zip(link_scale)
            .map(|(l, &s)| l.capacity_gbps * s),
    );
    if scratch.link_flows.len() < l_count {
        scratch.link_flows.resize_with(l_count, Vec::new);
    }
    for v in &mut scratch.link_flows[..l_count] {
        v.clear();
    }
    scratch.active_on_link.clear();
    scratch.active_on_link.resize(l_count, 0);
    scratch.fixed.clear();
    scratch.fixed.resize(pairs.len(), false);
    scratch.rates.clear();
    scratch.rates.resize(pairs.len(), 0.0);
    for (fi, &(a, b)) in pairs.iter().enumerate() {
        let route = topo.route(a, b);
        if route.is_empty() {
            scratch.fixed[fi] = true;
        }
        for &l in route {
            scratch.link_flows[l].push(fi as u32);
            scratch.active_on_link[l] += 1;
        }
    }
    let mut rounds = 0usize;
    loop {
        // Bottleneck link: smallest fair share among links with flows.
        let mut best: Option<(usize, f64)> = None;
        for l in 0..l_count {
            if scratch.active_on_link[l] == 0 {
                continue;
            }
            let share = scratch.residual[l].max(0.0) / scratch.active_on_link[l] as f64;
            if best.is_none_or(|(_, s)| share < s) {
                best = Some((l, share));
            }
        }
        let Some((bottleneck, share)) = best else {
            break;
        };
        rounds += 1;
        // Fix every unfixed flow crossing the bottleneck at `share`.
        for m in 0..scratch.link_flows[bottleneck].len() {
            let fi = scratch.link_flows[bottleneck][m] as usize;
            if scratch.fixed[fi] {
                continue;
            }
            scratch.fixed[fi] = true;
            scratch.rates[fi] = share;
            let (a, b) = pairs[fi];
            for &l in topo.route(a, b) {
                scratch.residual[l] -= share;
                scratch.active_on_link[l] -= 1;
            }
        }
        debug_assert_eq!(scratch.active_on_link[bottleneck], 0);
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::WorkSpec;
    use crate::traffic::TrafficMatrix;

    fn base_config(fabric: FabricModel) -> SimConfig {
        SimConfig {
            duration_s: 5.0,
            utilization: 0.4,
            flow_sizes: FlowSizeDist::facebook_web(),
            change_interval_s: Some(1.0),
            change_model: ChangeModel::Bounded(0.5),
            fabric,
            capacity_events: Vec::new(),
            seed: 99,
        }
    }

    /// Waterfill over one flow per pair, fresh scratch (the pre-scratch
    /// call shape, used by the allocator unit tests).
    fn rates_for(topo: &SimTopology, pairs: &[(usize, usize)]) -> Vec<f64> {
        let mut scratch = WaterfillScratch::new();
        max_min_rates(topo, &vec![1.0; topo.links.len()], pairs, &mut scratch);
        scratch.rates().to_vec()
    }

    #[test]
    fn single_flow_gets_bottleneck_rate() {
        let topo = SimTopology::hub_and_spoke(3, 10.0);
        let rates = rates_for(&topo, &[(0, 1)]);
        assert!((rates[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_common_spoke() {
        let topo = SimTopology::hub_and_spoke(3, 10.0);
        // Both flows use spoke 0.
        let rates = rates_for(&topo, &[(0, 1), (0, 2)]);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_is_work_conserving_on_disjoint_flows() {
        let topo = SimTopology::hub_and_spoke(4, 10.0);
        for r in rates_for(&topo, &[(0, 1), (2, 3)]) {
            assert!((r - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rates_never_exceed_link_capacity() {
        let topo = SimTopology::hub_and_spoke(4, 10.0);
        let pairs: Vec<(usize, usize)> = (0..4)
            .flat_map(|i| ((i + 1)..4).map(move |j| (i, j)))
            .collect();
        let rates = rates_for(&topo, &pairs);
        for l in 0..topo.links.len() {
            let load: f64 = pairs
                .iter()
                .zip(&rates)
                .filter(|((a, b), _)| topo.route(*a, *b).contains(&l))
                .map(|(_, &r)| r)
                .sum();
            assert!(load <= 10.0 + 1e-6, "link {l} overloaded: {load}");
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_scratch() {
        let topo = SimTopology::hub_and_spoke(6, 3.0);
        let pairs: Vec<(usize, usize)> = (0..6)
            .flat_map(|i| ((i + 1)..6).map(move |j| (i, j)))
            .cycle()
            .take(200)
            .collect();
        let scale = vec![0.7; topo.links.len()];
        let mut reused = WaterfillScratch::new();
        for population in [&pairs[..3], &pairs[..200], &pairs[..50], &pairs[..0]] {
            let rounds_reused = max_min_rates(&topo, &scale, population, &mut reused);
            let mut fresh = WaterfillScratch::new();
            let rounds_fresh = max_min_rates(&topo, &scale, population, &mut fresh);
            assert_eq!(rounds_reused, rounds_fresh);
            assert_eq!(reused.rates(), fresh.rates());
        }
    }

    /// The recipe every run test starts from: a 1 Gbps hub-and-spoke
    /// region and a heavy-tailed matrix.
    fn spec(n_dcs: usize, matrix_seed: u64, config: SimConfig) -> WorkSpec {
        WorkSpec {
            topo: SimTopology::hub_and_spoke(n_dcs, 1.0),
            matrix: TrafficMatrix::heavy_tailed(n_dcs, matrix_seed),
            config,
        }
    }

    #[test]
    fn simulation_completes_flows() {
        let records = spec(4, 7, base_config(FabricModel::Eps)).run();
        assert!(
            records.len() > 100,
            "only {} flows completed",
            records.len()
        );
        for r in &records {
            assert!(r.fct_s > 0.0);
            assert!(r.start_s >= 0.0 && r.start_s <= 5.0);
        }
    }

    #[test]
    fn identical_seeds_identical_eps_runs() {
        let a = spec(4, 7, base_config(FabricModel::Eps)).run();
        let b = spec(4, 7, base_config(FabricModel::Eps)).run();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pair, y.pair);
            assert!((x.fct_s - y.fct_s).abs() < 1e-12);
        }
    }

    #[test]
    fn iris_outages_slow_some_flows() {
        let mut cfg = base_config(FabricModel::Iris { outage_s: 0.07 });
        cfg.utilization = 0.7;
        cfg.change_model = ChangeModel::Unbounded;
        let iris = spec(4, 7, cfg.clone()).run();
        cfg.fabric = FabricModel::Eps;
        let eps = spec(4, 7, cfg).run();
        let sum_iris: f64 = iris.iter().map(|r| r.fct_s).sum();
        let sum_eps: f64 = eps.iter().map(|r| r.fct_s).sum();
        // Same arrivals; Iris can only be equal or slower in aggregate.
        assert!(sum_iris >= sum_eps * 0.999, "iris {sum_iris} eps {sum_eps}");
    }

    #[test]
    fn scheduled_brownout_slows_flows() {
        // Same arrivals; a 50% brownout for 2 s must increase total FCT.
        let mut cfg = base_config(FabricModel::Eps);
        cfg.utilization = 0.6;
        cfg.change_interval_s = None;
        let clean = spec(4, 7, cfg.clone()).run();
        cfg.capacity_events = vec![CapacityEvent {
            start_s: 1.0,
            duration_s: 2.0,
            capacity_factor: 0.5,
            links: None,
        }];
        let browned = spec(4, 7, cfg).run();
        let sum = |r: &[FlowRecord]| r.iter().map(|f| f.fct_s).sum::<f64>();
        assert!(
            sum(&browned) > sum(&clean),
            "brownout {} <= clean {}",
            sum(&browned),
            sum(&clean)
        );
    }

    #[test]
    fn targeted_event_spares_other_links() {
        // Full outage on spoke 0 for the whole run: flows between DCs
        // 1-3 (spokes 1..3 only) still complete; all completed flows
        // avoid DC 0.
        let mut cfg = base_config(FabricModel::Eps);
        cfg.change_interval_s = None;
        cfg.capacity_events = vec![CapacityEvent {
            start_s: 0.0,
            duration_s: 100.0,
            capacity_factor: 0.0,
            links: Some(vec![0]),
        }];
        let records = spec(4, 7, cfg).run();
        assert!(!records.is_empty());
        for r in &records {
            assert!(r.pair.0 != 0, "flow {:?} crossed the dead spoke", r.pair);
        }
    }

    #[test]
    fn zero_duration_event_is_harmless() {
        let mut cfg = base_config(FabricModel::Eps);
        cfg.capacity_events = vec![CapacityEvent {
            start_s: 2.0,
            duration_s: 0.0,
            capacity_factor: 0.0,
            links: None,
        }];
        let records = spec(3, 2, cfg).run();
        assert!(records.len() > 50);
    }

    #[test]
    fn utilization_calibration_matches_target() {
        let work = spec(4, 7, base_config(FabricModel::Eps));
        // Reconstruct the expected max link load from the arrival rate.
        let mean_bits = FlowSizeDist::facebook_web().mean_bytes() * 8.0;
        let offered_gbps = work.arrival_rate() * mean_bits / 1e9;
        let mut unit = [0.0f64; 4];
        for i in 0..4 {
            for j in (i + 1)..4 {
                for &l in work.topo.route(i, j) {
                    unit[l] += work.matrix.weight(i, j);
                }
            }
        }
        let max_load = unit.iter().fold(0.0f64, |a, &b| a.max(b)) * offered_gbps;
        assert!((max_load - 0.4).abs() < 1e-9, "max load {max_load}");
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn bad_utilization_panics() {
        let mut cfg = base_config(FabricModel::Eps);
        cfg.utilization = 1.5;
        let _ = spec(3, 1, cfg).arrival_rate();
    }
}
