//! Per-link decomposition of a recorded flow trace.
//!
//! The Parsimon observation: a flow's completion time under max-min
//! sharing is governed by its *bottleneck*, so simulating every link
//! independently (each under exact processor sharing) and charging each
//! flow the **worst** of its links' transfer estimates — plus its
//! route's propagation RTT, charged analytically — approximates the
//! coupled network simulation at a tiny fraction of the cost, and the
//! per-link problems are embarrassingly parallel.
//!
//! [`Decomposition::build`] assigns every admitted flow of a
//! [`FlowTrace`] to the links on its route, and converts the trace's
//! reconfiguration outages + scheduled capacity events into each link's
//! piecewise-constant capacity timeline. Each link's flows are also
//! put in size order once ([`Decomposition::size_order`]), the order
//! link clustering and member estimation read.

use crate::link::{simulate_link, LinkFlow, ScaleSegment, INCOMPLETE};
use iris_planner::workload::pair_index;
use iris_simnet::engine::FabricModel;
use iris_simnet::trace::FlowTrace;
use iris_simnet::{FlowRecord, SimTopology};
use std::sync::OnceLock;

/// One admitted flow of the trace, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecFlow {
    /// Unordered DC pair (i < j).
    pub pair: (usize, usize),
    /// Arrival time, s.
    pub start_s: f64,
    /// Flow size, bytes.
    pub size_bytes: f64,
}

/// A trace decomposed into independent per-link workloads. Built
/// deterministically from `(topo, trace)` — the coordinator and every
/// worker derive the *same* decomposition from the same spec, so a job
/// can name a link by id alone and results align by construction.
#[derive(Debug)]
pub struct Decomposition {
    /// Admitted flows, trace order (flow id = index).
    pub flows: Vec<DecFlow>,
    /// `link_flows[link]` — flow ids crossing the link, ascending.
    pub link_flows: Vec<Vec<u32>>,
    /// `segments[link]` — the link's capacity-scale timeline.
    pub segments: Vec<Vec<ScaleSegment>>,
    /// Simulated duration, s.
    pub duration_s: f64,
    /// `size_order[link]` — see [`Decomposition::size_order`]; every
    /// link's order is built on the first call.
    size_order: OnceLock<Vec<Vec<u32>>>,
}

impl Decomposition {
    /// Decompose `trace` over `topo`.
    ///
    /// # Panics
    ///
    /// Panics if the trace's DC count does not match the topology.
    #[must_use]
    pub fn build(topo: &SimTopology, trace: &FlowTrace) -> Self {
        assert_eq!(topo.n_dcs, trace.n_dcs, "trace/topology DC mismatch");
        let flows: Vec<DecFlow> = trace
            .arrivals
            .iter()
            .filter_map(|a| {
                a.flow.map(|f| DecFlow {
                    pair: f.pair,
                    start_s: a.start_s,
                    size_bytes: f.size_bytes,
                })
            })
            .collect();
        // Walk flows in id order and append each id to the links on its
        // route, so every per-link list comes out ascending.
        let mut link_flows: Vec<Vec<u32>> = vec![Vec::new(); topo.links.len()];
        for (id, f) in flows.iter().enumerate() {
            for &l in topo.route(f.pair.0, f.pair.1) {
                link_flows[l].push(id as u32);
            }
        }
        let segments = (0..topo.links.len())
            .map(|l| link_segments(trace, l))
            .collect();
        Self {
            flows,
            link_flows,
            segments,
            duration_s: trace.duration_s,
            size_order: OnceLock::new(),
        }
    }

    /// Positions in `link_flows[link]` in ascending flow size, ties by
    /// position: the one size order that link features, slowdown
    /// tables and member estimates all read. The first call sorts
    /// every link's flows, links in parallel, so a run that never asks
    /// (a fleet worker, an unclustered estimate) never pays for it.
    #[must_use]
    pub fn size_order(&self, link: usize) -> &[u32] {
        let orders = self.size_order.get_or_init(|| {
            iris_planner::par_map(iris_planner::thread_count(), &self.link_flows, |_, ids| {
                // Sizes are positive and finite, like the CDF's anchors,
                // so their bits sort as the numbers do; ties by position.
                let mut keys: Vec<(u64, u32)> = ids
                    .iter()
                    .enumerate()
                    .map(|(pos, &id)| (self.flows[id as usize].size_bytes.to_bits(), pos as u32))
                    .collect();
                keys.sort_unstable();
                keys.into_iter().map(|(_, pos)| pos).collect()
            })
        });
        &orders[link]
    }

    /// Links carrying at least one flow, ascending — the job list.
    #[must_use]
    pub fn occupied_links(&self) -> Vec<usize> {
        (0..self.link_flows.len())
            .filter(|&l| !self.link_flows[l].is_empty())
            .collect()
    }

    /// Run the exact single-link simulation for `link`, returning one
    /// finish time (or [`INCOMPLETE`]) per entry of
    /// `link_flows[link]`.
    #[must_use]
    pub fn simulate(&self, topo: &SimTopology, link: usize) -> Vec<f64> {
        let flows: Vec<LinkFlow> = self.link_flows[link]
            .iter()
            .map(|&id| {
                let f = &self.flows[id as usize];
                LinkFlow {
                    start_s: f.start_s,
                    size_bytes: f.size_bytes,
                }
            })
            .collect();
        simulate_link(
            topo.links[link].capacity_gbps,
            &self.segments[link],
            &flows,
            self.duration_s,
        )
    }
}

/// Build link `l`'s capacity-scale timeline from the trace's
/// reconfiguration outages (global: every link loses the moved
/// fraction) and scheduled capacity events (possibly targeted).
/// Segments are emitted sorted, deduplicated, and merged.
fn link_segments(trace: &FlowTrace, link: usize) -> Vec<ScaleSegment> {
    let mut breaks: Vec<f64> = vec![0.0];
    let mut outages: Vec<(f64, f64)> = Vec::new(); // (change time, fraction)
    if let (FabricModel::Iris { outage_s }, Some(interval)) =
        (trace.fabric, trace.change_interval_s)
    {
        for (k, &moved) in trace.change_fractions.iter().enumerate() {
            let t = (k + 1) as f64 * interval;
            outages.push((t, moved.clamp(0.0, 0.9)));
            breaks.push(t);
            breaks.push(t + outage_s);
        }
    }
    for ev in &trace.capacity_events {
        let applies = ev.links.as_ref().is_none_or(|ids| ids.contains(&link));
        if applies {
            breaks.push(ev.start_s);
            breaks.push(ev.start_s + ev.duration_s);
        }
    }
    breaks.retain(|&b| b < trace.duration_s);
    breaks.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    breaks.dedup();
    let outage_s = match trace.fabric {
        FabricModel::Iris { outage_s } => outage_s,
        FabricModel::Eps => 0.0,
    };
    let mut segments: Vec<ScaleSegment> = Vec::new();
    for &t in &breaks {
        // Outage component: the engine keeps only the *latest* change's
        // fraction (a newer change overwrites an active outage).
        let outage_scale = match outages.iter().rev().find(|&&(ct, _)| ct <= t) {
            Some(&(ct, f)) if f > 0.0 && t < ct + outage_s => 1.0 - f,
            _ => 1.0,
        };
        let mut scale = outage_scale;
        for ev in &trace.capacity_events {
            let applies = ev.links.as_ref().is_none_or(|ids| ids.contains(&link));
            if applies && t >= ev.start_s && t < ev.start_s + ev.duration_s {
                scale *= ev.capacity_factor;
            }
        }
        if segments.last().map(|s| s.scale) != Some(scale) {
            segments.push(ScaleSegment { start_s: t, scale });
        }
    }
    segments
}

/// Fold independent per-link results into flow records.
///
/// `results` yields `(link, finishes)` pairs where `finishes` aligns
/// with `dec.link_flows[link]`; order is irrelevant — the per-flow
/// transfer estimate is a commutative `f64::max` across links, which is
/// what makes the distributed artifact byte-identical regardless of
/// worker count or completion order. A flow completes iff *every* link
/// on its route finished it within the duration; its FCT is the worst
/// link's transfer time plus the route's propagation RTT (charged
/// analytically, as the exact engine does). Records come back in flow
/// arrival order.
#[must_use]
pub fn combine(
    topo: &SimTopology,
    dec: &Decomposition,
    results: impl IntoIterator<Item = (usize, Vec<f64>)>,
) -> Vec<FlowRecord> {
    let mut max_transfer = vec![0.0f64; dec.flows.len()];
    let mut links_left: Vec<u32> = dec
        .flows
        .iter()
        .map(|f| topo.route(f.pair.0, f.pair.1).len() as u32)
        .collect();
    let mut dead = vec![false; dec.flows.len()];
    for (link, finishes) in results {
        let ids = &dec.link_flows[link];
        assert_eq!(ids.len(), finishes.len(), "link {link} result misaligned");
        for (&id, &fin) in ids.iter().zip(&finishes) {
            let id = id as usize;
            if fin == INCOMPLETE || fin < 0.0 {
                dead[id] = true;
            } else {
                let transfer = fin - dec.flows[id].start_s;
                max_transfer[id] = max_transfer[id].max(transfer);
                links_left[id] -= 1;
            }
        }
    }
    let mut records = Vec::with_capacity(dec.flows.len());
    for (id, f) in dec.flows.iter().enumerate() {
        let route_len = topo.route(f.pair.0, f.pair.1).len();
        if route_len == 0 || dead[id] || links_left[id] != 0 {
            continue;
        }
        let rtt = topo.route_rtt_s[pair_index(topo.n_dcs, f.pair.0, f.pair.1)];
        records.push(FlowRecord {
            pair: f.pair,
            size_bytes: f.size_bytes,
            start_s: f.start_s,
            fct_s: max_transfer[id] + rtt,
        });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_simnet::engine::SimConfig;
    use iris_simnet::traffic::ChangeModel;
    use iris_simnet::workloads::FlowSizeDist;
    use iris_simnet::{TrafficMatrix, WorkSpec};

    fn spec_trace(
        topo: &SimTopology,
        fabric: FabricModel,
        seed: u64,
        duration_s: f64,
    ) -> FlowTrace {
        WorkSpec {
            topo: topo.clone(),
            matrix: TrafficMatrix::heavy_tailed(topo.n_dcs, seed),
            config: SimConfig {
                duration_s,
                utilization: 0.5,
                flow_sizes: FlowSizeDist::facebook_web(),
                change_interval_s: Some(1.0),
                change_model: ChangeModel::Unbounded,
                fabric,
                capacity_events: Vec::new(),
                seed,
            },
        }
        .trace()
    }

    #[test]
    fn decomposition_covers_every_admitted_flow() {
        let topo = SimTopology::hub_and_spoke(5, 1.0);
        let trace = spec_trace(&topo, FabricModel::Eps, 3, 4.0);
        let dec = Decomposition::build(&topo, &trace);
        assert_eq!(dec.flows.len(), trace.flow_count());
        // Every flow appears on exactly the links of its route.
        let mut seen = vec![0usize; dec.flows.len()];
        for ids in &dec.link_flows {
            for &id in ids {
                seen[id as usize] += 1;
            }
        }
        for (id, f) in dec.flows.iter().enumerate() {
            assert_eq!(seen[id], topo.route(f.pair.0, f.pair.1).len());
        }
        for ids in &dec.link_flows {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not ascending");
        }
    }

    #[test]
    fn size_order_sorts_each_link_by_size_then_position() {
        let topo = SimTopology::hub_and_spoke(5, 1.0);
        let trace = spec_trace(&topo, FabricModel::Eps, 3, 4.0);
        let mut dec = Decomposition::build(&topo, &trace);
        // A coarse size grid, so ties are common.
        for f in &mut dec.flows {
            f.size_bytes = (f.size_bytes / 1e4).ceil() * 1e4;
        }
        for (link, ids) in dec.link_flows.iter().enumerate() {
            let order = dec.size_order(link);
            let mut seen = order.to_vec();
            seen.sort_unstable();
            assert!(
                seen.iter().copied().eq(0..ids.len() as u32),
                "not a permutation"
            );
            let key = |pos: u32| (dec.flows[ids[pos as usize] as usize].size_bytes, pos);
            assert!(order.windows(2).all(|w| key(w[0]) < key(w[1])));
        }
    }

    #[test]
    fn eps_trace_yields_single_full_segment() {
        let topo = SimTopology::hub_and_spoke(4, 1.0);
        let trace = spec_trace(&topo, FabricModel::Eps, 3, 4.0);
        let dec = Decomposition::build(&topo, &trace);
        for segs in &dec.segments {
            assert_eq!(
                segs,
                &vec![ScaleSegment {
                    start_s: 0.0,
                    scale: 1.0
                }]
            );
        }
    }

    #[test]
    fn iris_trace_carves_outage_windows() {
        let topo = SimTopology::hub_and_spoke(4, 1.0);
        let trace = spec_trace(&topo, FabricModel::Iris { outage_s: 0.07 }, 3, 4.0);
        let dec = Decomposition::build(&topo, &trace);
        let segs = &dec.segments[0];
        // Unbounded changes essentially always move traffic: expect at
        // least one reduced-capacity window per change.
        let reduced = segs.iter().filter(|s| s.scale < 1.0).count();
        assert!(
            reduced >= trace.change_fractions.iter().filter(|&&f| f > 0.0).count(),
            "{segs:?}"
        );
        for w in segs.windows(2) {
            assert!(w[0].start_s < w[1].start_s);
            assert!(w[0].scale != w[1].scale, "unmerged segments: {segs:?}");
        }
    }

    #[test]
    fn combine_requires_all_links_to_finish() {
        // Two links; flow 0 crosses both, finishes on one only.
        let topo = SimTopology::hub_and_spoke(2, 1.0);
        let trace = FlowTrace {
            n_dcs: 2,
            duration_s: 10.0,
            change_interval_s: None,
            fabric: FabricModel::Eps,
            capacity_events: Vec::new(),
            arrivals: vec![iris_simnet::TraceArrival {
                start_s: 1.0,
                flow: Some(iris_simnet::TraceFlow {
                    pair: (0, 1),
                    size_bytes: 1e6,
                }),
            }],
            change_fractions: Vec::new(),
        };
        let dec = Decomposition::build(&topo, &trace);
        let done = combine(&topo, &dec, vec![(0, vec![2.0]), (1, vec![3.0])]);
        assert_eq!(done.len(), 1);
        assert!((done[0].fct_s - 2.0).abs() < 1e-12); // max(1.0, 2.0) transfer
        let partial = combine(&topo, &dec, vec![(0, vec![2.0]), (1, vec![INCOMPLETE])]);
        assert!(partial.is_empty());
        let missing = combine(&topo, &dec, vec![(0, vec![2.0])]);
        assert!(missing.is_empty());
    }
}
