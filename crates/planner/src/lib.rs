//! Iris network planning (§4 and Appendices A–B of the paper).
//!
//! Planning a regional DCI takes the region's fiber map, DC sites and
//! capacities, and produces the *topology* (which ducts are used), the
//! *capacity* (fibers leased per duct) and the *switching realization*
//! (amplifiers, cut-through links, residual fibers). The pipeline is:
//!
//! 1. [`topology`] — **Algorithm 1**: for every failure scenario up to the
//!    cut tolerance, route every DC pair over its (unique) shortest path
//!    and provision each duct for the worst-case hose-model load;
//! 2. [`amplifiers`] — **Algorithm 2** (Appendix A): greedily place
//!    in-line amplifiers so that no unamplified segment overruns the
//!    power budget, preferring locations that fix many paths at once;
//! 3. [`cutthrough`] — greedily add uninterrupted "cut-through" fibers
//!    that bypass switching points on paths exceeding the optical
//!    switching budget (TC4);
//! 4. [`residual`] — account for the `n·(n-1)` residual fibers that
//!    fiber-granularity switching requires (§4.3), and the hybrid
//!    wavelength-switched aggregation of Appendix B that roughly halves
//!    that overhead;
//! 5. [`plan`] — assemble everything into an [`IrisPlan`] or [`EpsPlan`]
//!    and validate each end-to-end light path against the physical-layer
//!    budget of [`iris_optics`].
//!
//! Every scenario-enumerating stage drives the shared [`engine`] — an
//! incremental path cache that computes baseline all-pairs DC paths once
//! and re-routes, per failure scenario, only the pairs whose cached path
//! crosses a failed duct, reusing single-cut detours that avoid the cut.
//! Algorithm 1 maps contiguous scenario chunks through
//! [`engine::par_map`], the workspace's one order-preserving fan-out; its
//! output is bit-identical for every thread count.
//!
//! Beyond the hose envelope, [`workload`] generates seeded families of
//! concrete DC-pair traffic matrices (diurnal, burst, hotspot) and
//! [`workload::provision_robust`] provisions min-cost capacity feasible
//! for *every* matrix in a family — the robust topology-engineering mode
//! described in `docs/PLANNING.md`. Hose, naive and robust provisioning
//! are one sweep in [`topology`] under three load models; [`workloads`]
//! holds the one flow-size CDF type the families and the simulator share.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod amplifiers;
pub mod centralized;
pub mod cutthrough;
pub mod engine;
pub mod expansion;
pub mod goals;
mod memo;
pub mod oxc;
pub mod paths;
pub mod plan;
pub mod relaxed;
pub mod residual;
pub mod topology;
pub mod workload;
pub mod workloads;

pub use centralized::{plan_centralized, CentralizedPlan, HubHoming};
pub use engine::{
    par_map, set_default_threads, thread_count, with_nested_parallelism_disabled, ScenarioEngine,
    ScenarioView,
};
pub use goals::DesignGoals;
pub use oxc::{plan_oxc, OxcPlan};
pub use plan::{plan_eps, plan_iris, EpsPlan, IrisPlan};
pub use relaxed::{route_relaxed, RelaxedRouting};
pub use topology::{provision, provision_with_threads, Provisioning};
pub use workload::{
    provision_robust, provision_robust_with_threads, shed_fraction, FamilyKind, FamilySpec,
    MatrixFamily,
};
