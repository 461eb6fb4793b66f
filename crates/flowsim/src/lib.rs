//! Distributed flow simulation: per-link decomposition, link
//! clustering, and a coordinator/worker fleet for 10⁶–10⁷-flow FCT
//! evaluation.
//!
//! The exact engine in `iris-simnet` recomputes global max-min rates on
//! every flow event. On the benchmark's 12-DC recipe at 3×10⁶ flows, on
//! a 2-core box, it runs at about 441 k flows/s on one thread; this
//! crate runs the same recipe at about 1.6 M flows/s on two. It
//! trades the global waterfill for the Parsimon observation that a
//! flow's completion time is dominated by its *bottleneck* duct: each
//! occupied link becomes an **independent single-link
//! processor-sharing simulation** ([`decompose`], [`link`]),
//! similar links are **clustered** so only one representative per
//! cluster is simulated ([`cluster`]), and the per-link jobs — now
//! embarrassingly parallel — are **sharded across a worker fleet** over
//! the workspace's frame codec ([`proto`], [`worker`], [`coord`]).
//!
//! The input is the exact engine's: a [`WorkSpec`] recipe
//! (`iris_simnet`'s one run recipe, re-exported here) and the
//! [`iris_simnet::FlowTrace`] it draws. The exact engine replays that
//! trace; this crate decomposes it.
//!
//! Determinism contract: every artifact is byte-identical regardless of
//! backend, worker count, or `IRIS_THREADS`. This falls out of the
//! architecture rather than discipline — jobs are pure functions of the
//! [`WorkSpec`], results are keyed by link id, and the cross-link
//! combination ([`decompose::combine`]) is a commutative `max`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cluster;
pub mod coord;
pub mod decompose;
pub mod link;
pub mod proto;
pub mod worker;

pub use cluster::{cluster_links, Cluster, LinkFeatures, SlowdownTable};
pub use coord::{
    estimate, estimate_with_trace, Backend, EstimateConfig, EstimateReport, FleetConfig,
};
pub use decompose::{combine, Decomposition};
pub use link::{simulate_link, LinkFlow, ScaleSegment, INCOMPLETE};
pub use proto::WorkSpec;
pub use worker::{serve, spawn_ephemeral, WorkerConfig};
