//! # Iris — networking multi-data-center regions
//!
//! A Rust implementation of the regional data-center-interconnect (DCI)
//! design system from *"Beyond the mega-data center: networking
//! multi-data center regions"* (SIGCOMM 2020): design-space analysis,
//! the Iris all-optical fiber-switched architecture, its planning
//! algorithms and control plane, cost models, and a flow-level simulator
//! for reconfiguration transience.
//!
//! ## Quickstart
//!
//! ```
//! use iris_core::prelude::*;
//!
//! // Generate a synthetic metro region with 6 DCs.
//! let map = synth::generate_metro(&MetroParams::default());
//! let region = synth::place_dcs(map, &PlacementParams {
//!     n_dcs: 6,
//!     ..PlacementParams::default()
//! });
//!
//! // Plan Iris and EPS realizations and compare their cost.
//! let goals = DesignGoals::with_cuts(0);
//! let study = DesignStudy::run(&region, &goals);
//! assert!(study.eps_iris_cost_ratio() > 1.0, "Iris should be cheaper");
//! ```
//!
//! The workspace crates are re-exported under their domain names:
//! [`geo`], [`netgraph`], [`optics`], [`fibermap`], [`planner`],
//! [`cost`], [`simnet`], [`control`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use iris_control as control;
pub use iris_cost as cost;
pub use iris_fibermap as fibermap;
pub use iris_geo as geo;
pub use iris_netgraph as netgraph;
pub use iris_optics as optics;
pub use iris_planner as planner;
pub use iris_simnet as simnet;

pub mod study;

pub use study::DesignStudy;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::study::DesignStudy;
    pub use iris_control::{build_fabric, FabricLayout};
    pub use iris_cost::{eps_cost, hybrid_cost, iris_cost, PriceBook};
    pub use iris_fibermap::io::{load_region, save_region};
    pub use iris_fibermap::synth::{self, pick_hub_pair};
    pub use iris_fibermap::{FiberMap, MetroParams, PlacementParams, Region, SiteKind};
    pub use iris_planner::expansion::expand_with_dc;
    pub use iris_planner::{
        plan_centralized, plan_eps, plan_iris, CentralizedPlan, DesignGoals, EpsPlan, HubHoming,
        IrisPlan,
    };
    pub use iris_simnet::{run_comparison, ExperimentConfig, SimTopology, WorkSpec};
}
