//! Cost accounting for regional DCI designs (§2.4, §3.3–3.4, §6.1).
//!
//! The paper's cost analysis is entirely *relative*: what matters is the
//! published price structure — a DCI transceiver costs ~10× an electrical
//! switch port, a fiber-pair lease ~3× a transceiver per span-year, an OSS
//! port ~an order of magnitude below a transceiver — not absolute dollars.
//! [`PriceBook`] encodes those ratios with the paper's ballpark figures
//! (amortized $/year); [`accounting`] prices complete [`iris_planner`]
//! plans, and [`ports`] implements the §2.4 analytic group model behind
//! Fig. 7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod ports;
pub mod prices;

pub use accounting::{centralized_cost, eps_cost, hybrid_cost, iris_cost, oxc_cost, CostBreakdown};
pub use ports::{fig7_costs, group_model_ports, Fig7Costs};
pub use prices::PriceBook;
