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
//! Every flow of a DC pair takes `topo.route(a, b)` and so gets the same
//! rate: the water-fill runs over DC-pair *classes*, each with a flow
//! count, and over the links that carry flows. The counts, each link's
//! flow count and class list, and the set of live links are carried
//! across events and change by one flow at each arrival or completion;
//! link capacities are rescaled only when an outage or a capacity event
//! starts or ends. The arithmetic is the per-flow water-fill's, bit for
//! bit: the bottleneck is the first link, in ascending order, with the
//! strictly smallest `residual.max(0) / flows`, and a fixed class of n
//! flows subtracts its share n times from each link on its route. Per
//! flow, an event costs one pass for the smallest remainder per class
//! (`now + r / (rate·1e9)` is monotone in `r`), one advance pass with a
//! per-class step, and an order-preserving harvest.
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
    /// The pair's class: `pair_index` of `pair`, its route's index.
    class: usize,
    size_bytes: f64,
    remaining_bits: f64,
    start_s: f64,
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

    // Sized for every flow up front: at 10⁵⁺ flows, doubling the
    // largest buffer mid-run copies it and briefly holds both halves.
    let mut records = Vec::with_capacity(trace.flow_count());
    let mut flows: Vec<ActiveFlow> = Vec::new();
    let mut now = 0.0f64;
    let mut outage_until = f64::NEG_INFINITY;
    let mut outage_fraction = 0.0f64;

    // The population by class, carried across events; per-event
    // buffers allocated once (at ~1 µs per event, allocator traffic
    // and rebuilding per-link state both showed in profiles).
    let mut fill = WaterfillScratch::new();
    fill.reset(topo);
    let mut link_scale: Vec<f64> = Vec::new();
    // What `link_scale` was last built from: the outage scale's bits
    // and which capacity events covered `now`.
    let mut applied_outage: Option<u64> = None;
    let mut events_on = vec![false; capacity_events.len()];
    // Per class: the smallest remainder, and this event's advance.
    let mut min_remaining = vec![f64::INFINITY; topo.routes.len()];
    let mut step = vec![0.0f64; topo.routes.len()];

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
            // times any scheduled events covering the link, rebuilt only
            // when one of its inputs changed.
            let outage_scale = if now < outage_until {
                1.0 - outage_fraction
            } else {
                1.0
            };
            let mut stale = applied_outage != Some(outage_scale.to_bits());
            for (on, ev) in events_on.iter_mut().zip(capacity_events) {
                let covers = now + 1e-12 >= ev.start_s && now < ev.start_s + ev.duration_s;
                stale |= *on != covers;
                *on = covers;
            }
            if stale {
                applied_outage = Some(outage_scale.to_bits());
                link_scale.clear();
                link_scale.resize(topo.links.len(), outage_scale);
                for (ev, _) in capacity_events.iter().zip(&events_on).filter(|(_, &on)| on) {
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
                fill.set_capacity(topo, &link_scale);
            }
            waterfill_round_sum += fill.waterfill(topo) as u64;
            active_peak_seen = active_peak_seen.max(flows.len());

            // Next event time. A class's flows share one rate and
            // `now + r / (rate·1e9)` is monotone in `r`, so each class's
            // smallest remainder decides its earliest completion.
            let classes = &fill.occ.classes;
            for &c in classes {
                min_remaining[c] = f64::INFINITY;
            }
            for f in &flows {
                min_remaining[f.class] = min_remaining[f.class].min(f.remaining_bits);
            }
            let next_completion = classes
                .iter()
                .map(|&c| (fill.class_rate[c], min_remaining[c]))
                .filter(|&(rate, _)| rate > 0.0)
                .map(|(rate, r)| now + r / (rate * 1e9))
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
                for &c in &fill.occ.classes {
                    step[c] = fill.class_rate[c] * 1e9 * dt;
                }
                for f in &mut flows {
                    f.remaining_bits = (f.remaining_bits - step[f.class]).max(0.0);
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
                let record = |f: &ActiveFlow| FlowRecord {
                    pair: f.pair,
                    size_bytes: f.size_bytes,
                    start_s: f.start_s,
                    fct_s: now - f.start_s + topo.route_rtt_s[f.class],
                };
                flows.retain(|f| {
                    let done = f.remaining_bits <= 1.0;
                    if done {
                        fill.occ.remove(topo, f.class);
                        records.push(record(f));
                    }
                    !done
                });
                if flows.len() == before {
                    // Forced progress: finish the flow the scheduler said
                    // was done (its residue is pure rounding error).
                    let rate = |i: usize| fill.class_rate[flows[i].class];
                    let by_time = |&a: &usize, &b: &usize| {
                        let ta = flows[a].remaining_bits / rate(a);
                        let tb = flows[b].remaining_bits / rate(b);
                        ta.partial_cmp(&tb).expect("finite")
                    };
                    let first = (0..flows.len()).filter(|&i| rate(i) > 0.0).min_by(by_time);
                    if let Some(min_idx) = first {
                        let f = flows.swap_remove(min_idx);
                        fill.occ.remove(topo, f.class);
                        records.push(record(&f));
                    }
                }
                completions += (records.len() - records_before) as u64;
                break 'event true;
            }

            if now >= next_arrival - 1e-15 && next_arrival <= next_change {
                // A thinned tick (no flow) still advances the cursor.
                if let Some(flow) = trace.arrivals[arrival_idx].flow {
                    let (a, b) = flow.pair;
                    let class = pair_index(topo.n_dcs, a.min(b), a.max(b));
                    fill.occ.add(topo, class);
                    flows.push(ActiveFlow {
                        pair: flow.pair,
                        class,
                        size_bytes: flow.size_bytes,
                        remaining_bits: flow.size_bytes * 8.0,
                        start_s: now,
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

/// A flow population by DC-pair class. Every flow of a pair takes
/// `topo.route(a, b)`, so the water-fill needs only how many flows each
/// class holds; an arrival or a completion changes each count here by
/// one.
#[derive(Debug, Default)]
struct Occupancy {
    /// Flows per class. A class is a `pair_index`, its route's index.
    count: Vec<u32>,
    /// Classes holding flows, in no order.
    classes: Vec<usize>,
    /// Flows per link.
    link_count: Vec<u32>,
    /// Per link: the classes holding flows whose route crosses it.
    link_classes: Vec<Vec<usize>>,
    /// Links with flows, one bit each.
    live: Vec<u64>,
}

impl Occupancy {
    fn add(&mut self, topo: &SimTopology, class: usize) {
        let route = &topo.routes[class];
        if self.count[class] == 0 {
            self.classes.push(class);
            for &l in route {
                self.link_classes[l].push(class);
            }
        }
        self.count[class] += 1;
        for &l in route {
            self.link_count[l] += 1;
            self.live[l / 64] |= 1 << (l % 64);
        }
    }

    fn remove(&mut self, topo: &SimTopology, class: usize) {
        let unlist = |list: &mut Vec<usize>| {
            let at = list.iter().position(|&c| c == class);
            list.swap_remove(at.expect("a class with flows is listed"));
        };
        let route = &topo.routes[class];
        self.count[class] -= 1;
        if self.count[class] == 0 {
            unlist(&mut self.classes);
            for &l in route {
                unlist(&mut self.link_classes[l]);
            }
        }
        for &l in route {
            self.link_count[l] -= 1;
            if self.link_count[l] == 0 {
                self.live[l / 64] &= !(1 << (l % 64));
            }
        }
    }
}

/// The indices of the set bits of a bitset, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(at, &word)| {
        let next = |w: &u64| Some(w & (w - 1)).filter(|&w| w != 0);
        std::iter::successors(Some(word).filter(|&w| w != 0), next)
            .map(move |w| at * 64 + w.trailing_zeros() as usize)
    })
}

/// Reusable state for [`max_min_rates`] — the engine's answer to the
/// planner's `DijkstraScratch`. The event loop keeps its flow population
/// here by class across events and water-fills it at every event; the
/// buffers are sized once per topology, so no call allocates.
#[derive(Debug, Default)]
pub struct WaterfillScratch {
    occ: Occupancy,
    /// Per link: capacity × scale, Gbps.
    capacity: Vec<f64>,
    /// Per link, during a water-fill: capacity left, flows not yet
    /// fixed, and their fair share of what is left.
    residual: Vec<f64>,
    unfixed: Vec<u32>,
    fair_share: Vec<f64>,
    /// Links with unfixed flows, one bit each.
    open: Vec<u64>,
    /// Per class: fixed yet, and its per-flow rate, Gbps.
    fixed: Vec<bool>,
    class_rate: Vec<f64>,
    /// Per input pair of the last [`max_min_rates`] call.
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

    /// Empty the population and size every buffer for `topo`.
    fn reset(&mut self, topo: &SimTopology) {
        let (classes, links) = (topo.routes.len(), topo.links.len());
        let occ = &mut self.occ;
        for c in occ.classes.drain(..) {
            occ.count[c] = 0;
        }
        occ.count.resize(classes, 0);
        occ.link_count.clear();
        occ.link_count.resize(links, 0);
        occ.link_classes.resize_with(links, Vec::new);
        occ.live.clear();
        occ.live.resize(links.div_ceil(64), 0);
        // Room for every class up front, so that no list grows (and
        // allocates) inside the event loop.
        occ.classes.reserve(classes);
        for &l in topo.routes.iter().flatten() {
            occ.link_count[l] += 1;
        }
        for (on_link, n) in occ.link_classes.iter_mut().zip(&mut occ.link_count) {
            on_link.clear();
            on_link.reserve(*n as usize);
            *n = 0;
        }
        self.residual.resize(links, 0.0);
        self.unfixed.resize(links, 0);
        self.fair_share.resize(links, 0.0);
        self.open.resize(links.div_ceil(64), 0);
        self.fixed.resize(classes, false);
        self.class_rate.resize(classes, 0.0);
    }

    /// Link capacities for the next water-fills, scaled by `link_scale`.
    fn set_capacity(&mut self, topo: &SimTopology, link_scale: &[f64]) {
        self.capacity.clear();
        let scaled = topo.links.iter().zip(link_scale);
        self.capacity
            .extend(scaled.map(|(l, &s)| l.capacity_gbps * s));
    }

    /// Progressive water-filling of the population over its live links:
    /// each round fixes every class crossing the bottleneck link at its
    /// fair share. Class rates land in `class_rate` (0 for a class with
    /// no route). Returns the number of rounds.
    fn waterfill(&mut self, topo: &SimTopology) -> usize {
        let Self {
            occ,
            capacity,
            residual,
            unfixed,
            fair_share,
            open,
            fixed,
            class_rate,
            ..
        } = self;
        for &c in &occ.classes {
            fixed[c] = false;
            class_rate[c] = 0.0;
        }
        open.copy_from_slice(&occ.live);
        for l in ones(&occ.live) {
            residual[l] = capacity[l];
            unfixed[l] = occ.link_count[l];
            fair_share[l] = residual[l].max(0.0) / f64::from(unfixed[l]);
        }
        let mut rounds = 0usize;
        loop {
            // Bottleneck link: the first smallest fair share among links
            // with unfixed flows.
            let mut best: Option<(usize, f64)> = None;
            for l in ones(open) {
                if best.is_none_or(|(_, s)| fair_share[l] < s) {
                    best = Some((l, fair_share[l]));
                }
            }
            let Some((bottleneck, share)) = best else {
                break;
            };
            rounds += 1;
            // Fix every unfixed class crossing the bottleneck at `share`.
            // Each of a class's n flows takes it from every link on the
            // route once: n subtractions, as flow by flow. Only links a
            // round touches change their fair share.
            for &c in &occ.link_classes[bottleneck] {
                if fixed[c] {
                    continue;
                }
                fixed[c] = true;
                class_rate[c] = share;
                let n = occ.count[c];
                for &l in &topo.routes[c] {
                    for _ in 0..n {
                        residual[l] -= share;
                    }
                    unfixed[l] -= n;
                    if unfixed[l] == 0 {
                        open[l / 64] &= !(1 << (l % 64));
                    } else {
                        fair_share[l] = residual[l].max(0.0) / f64::from(unfixed[l]);
                    }
                }
            }
            debug_assert_eq!(unfixed[bottleneck], 0);
        }
        rounds
    }
}

/// Progressive water-filling: every entry of `pairs` is one active flow
/// that gets its max-min fair share of the links on its route, with
/// capacities scaled by `link_scale`. Rates land in `scratch.rates()`;
/// flows with no route get rate 0. Returns the number of water-filling
/// rounds (bottleneck links fixed).
///
/// The flows are counted into DC-pair classes and water-filled as the
/// event loop does, so the cost is `O(F)` to count and to read back
/// rates plus, per round, the links with unfixed flows and the routes
/// of the classes it fixes.
pub fn max_min_rates(
    topo: &SimTopology,
    link_scale: &[f64],
    pairs: &[(usize, usize)],
    scratch: &mut WaterfillScratch,
) -> usize {
    let class = |&(a, b): &(usize, usize)| pair_index(topo.n_dcs, a.min(b), a.max(b));
    scratch.reset(topo);
    for pair in pairs {
        scratch.occ.add(topo, class(pair));
    }
    scratch.set_capacity(topo, link_scale);
    let rounds = scratch.waterfill(topo);
    scratch.rates.clear();
    scratch
        .rates
        .extend(pairs.iter().map(|pair| scratch.class_rate[class(pair)]));
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

    /// The per-flow progressive water-fill the class water-fill
    /// replaced, kept as its oracle: every flow is its own entry on its
    /// route's link lists. Returns the rates and the round count.
    fn per_flow_max_min_rates(
        topo: &SimTopology,
        link_scale: &[f64],
        pairs: &[(usize, usize)],
    ) -> (Vec<f64>, usize) {
        let l_count = topo.links.len();
        let mut residual: Vec<f64> = topo
            .links
            .iter()
            .zip(link_scale)
            .map(|(l, &s)| l.capacity_gbps * s)
            .collect();
        let mut link_flows = vec![Vec::new(); l_count];
        let mut active_on_link = vec![0usize; l_count];
        let mut fixed = vec![false; pairs.len()];
        let mut rates = vec![0.0; pairs.len()];
        for (fi, &(a, b)) in pairs.iter().enumerate() {
            let route = topo.route(a, b);
            fixed[fi] = route.is_empty();
            for &l in route {
                link_flows[l].push(fi);
                active_on_link[l] += 1;
            }
        }
        let mut rounds = 0;
        loop {
            let mut best: Option<(usize, f64)> = None;
            for l in 0..l_count {
                if active_on_link[l] == 0 {
                    continue;
                }
                let share = residual[l].max(0.0) / active_on_link[l] as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((l, share));
                }
            }
            let Some((bottleneck, share)) = best else {
                break;
            };
            rounds += 1;
            for &fi in &link_flows[bottleneck] {
                if fixed[fi] {
                    continue;
                }
                fixed[fi] = true;
                rates[fi] = share;
                let (a, b) = pairs[fi];
                for &l in topo.route(a, b) {
                    residual[l] -= share;
                    active_on_link[l] -= 1;
                }
            }
        }
        (rates, rounds)
    }

    /// Two hub-and-spoke regions (2-link routes) and two planned ones
    /// (routes of up to four and six links), built once.
    fn oracle_topologies() -> &'static [SimTopology] {
        use iris_fibermap::{synth, MetroParams, PlacementParams};
        use iris_planner::{provision, DesignGoals};
        static TOPOLOGIES: std::sync::OnceLock<Vec<SimTopology>> = std::sync::OnceLock::new();
        TOPOLOGIES.get_or_init(|| {
            let planned = |n_dcs: usize| {
                let region = synth::place_dcs(
                    synth::generate_metro(&MetroParams::default()),
                    &PlacementParams {
                        n_dcs,
                        ..PlacementParams::default()
                    },
                );
                let goals = DesignGoals::with_cuts(0);
                let prov = provision(&region, &goals);
                let scale = SimTopology::scale_for_largest_link(&region, &prov, 2.0);
                SimTopology::from_provisioning(&region, &goals, &prov, scale)
            };
            vec![
                SimTopology::hub_and_spoke(5, 1.0),
                SimTopology::hub_and_spoke(3, 2.5),
                planned(6),
                planned(8),
            ]
        })
    }

    proptest::proptest! {
        /// The class water-fill returns the per-flow oracle's rate bits
        /// and round count: random populations with repeated pairs and
        /// pairs given as `(b, a)`, link scales that include 0, both
        /// kinds of topology, and one scratch reused across the calls.
        #[test]
        fn class_waterfill_matches_the_per_flow_oracle(
            calls in proptest::collection::vec(
                (0usize..4, proptest::prelude::any::<u64>(), 0usize..160),
                1..6,
            ),
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut scratch = WaterfillScratch::new();
            for (topo_idx, seed, flows) in calls {
                let topo = &oracle_topologies()[topo_idx];
                let mut rng = StdRng::seed_from_u64(seed);
                let n = topo.n_dcs;
                // A few hot pairs make repeats common.
                let hot: Vec<(usize, usize)> = (0..3)
                    .map(|_| {
                        let a = rng.random_range(0..n);
                        (a, (a + rng.random_range(1..n)) % n)
                    })
                    .collect();
                let pairs: Vec<(usize, usize)> = (0..flows)
                    .map(|_| {
                        let (a, b) = if rng.random_bool(0.5) {
                            hot[rng.random_range(0..hot.len())]
                        } else {
                            let a = rng.random_range(0..n);
                            (a, (a + rng.random_range(1..n)) % n)
                        };
                        if rng.random_bool(0.5) { (b, a) } else { (a, b) }
                    })
                    .collect();
                let link_scale: Vec<f64> = (0..topo.links.len())
                    .map(|_| match rng.random_range(0..4) {
                        0 => 0.0,
                        1 => 1.0,
                        2 => 0.5,
                        _ => rng.random_range(0.0..1.0),
                    })
                    .collect();
                let rounds = max_min_rates(topo, &link_scale, &pairs, &mut scratch);
                let (want, want_rounds) = per_flow_max_min_rates(topo, &link_scale, &pairs);
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(rounds, want_rounds);
                proptest::prop_assert_eq!(bits(scratch.rates()), bits(&want));
            }
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
