//! Region-scale flow-level simulation of circuit transience (§6.3).
//!
//! Iris reconfigures optical circuits in response to failures and slow
//! traffic changes; during a reconfiguration the moving fibers carry no
//! traffic for ~70 ms. The paper studies the application-layer impact
//! with flow-level simulations comparing flow completion times (FCTs) on
//! Iris against an always-on EPS fabric, across utilizations, traffic
//! change magnitudes, reconfiguration intervals, and flow-size
//! distributions (Figs. 17-18).
//!
//! This crate reproduces that study:
//!
//! * [`workloads`] — the planner's flow-size distributions (pFabric
//!   web-search; Facebook web / hadoop / cache), re-exported;
//! * [`traffic`] — heavy-tailed DC-pair traffic matrices with bounded or
//!   unbounded change;
//! * [`topology`] — the simulated link/route model, derivable from a
//!   planned region or built synthetically;
//! * [`trace`] — the one run path: a [`WorkSpec`] recipe (topology,
//!   matrix, config) draws a seeded [`FlowTrace`], and
//!   [`FlowTrace::replay`] runs it;
//! * [`engine`] — the deterministic event-driven fluid engine with
//!   max-min fair rate allocation that replay drives;
//! * [`experiment`] — paired Iris-vs-EPS replays of one trace,
//!   reporting percentile FCT slowdowns.
//!
//! The simulator is *fluid*: flows receive their max-min fair share
//! instantaneously (no packets, no transport dynamics). The paper drains
//! circuits before switching, so loss is out of scope; what matters is
//! the transient capacity reduction, which the fluid model captures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod experiment;
pub mod topology;
pub mod trace;
pub mod traffic;

pub use engine::{FlowRecord, SimConfig};
pub use experiment::{run_comparison, ComparisonResult, ExperimentConfig};
pub use iris_planner::workloads;
pub use topology::SimTopology;
pub use trace::{FlowTrace, RunManifest, TraceArrival, TraceFlow, WorkSpec};
pub use traffic::TrafficMatrix;
pub use workloads::FlowSizeDist;
