//! The Iris control plane (§5).
//!
//! A centralized controller gathers DC-DC traffic demands and configures
//! the network's optical components: space switches (OSS), tunable
//! transceivers, amplifiers, and the ASE channel emulators that keep
//! every fiber's spectrum full so amplifier gains never need online
//! management (TC3). The paper's testbed controller is ~9 K lines of
//! Python driving real hardware over serial/HTTPS/NetConf; this crate is
//! its Rust equivalent driving *simulated* devices with the measured
//! actuation latencies, so the orchestration logic — drain, switch,
//! retune, verify, undrain — is exercised end-to-end.
//!
//! * [`devices`] — device models with realistic actuation times and
//!   health checks;
//! * [`wavelength`] — packing a DC's tunable transceivers into outgoing
//!   fibers (the per-DC "basic wavelength management" of §5.2);
//! * [`messages`] — controller-to-site commands and their wire layout;
//! * [`controller`] — the reconfiguration state machine (plan → drain →
//!   actuate → verify → undrain, with retry, rollback and quarantine)
//!   plus the fiber-cut recovery path;
//! * [`faults`] — seeded, deterministic fault schedules and the injector
//!   that perturbs device actuations;
//! * [`testbed`] — the Fig. 13/14 experiment: periodic path swaps at a
//!   hut, BER sampled every 10 ms, 50 ms recovery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod devices;
pub mod fabric;
pub mod faults;
pub mod messages;
pub mod testbed;
pub mod wavelength;

pub use controller::{
    Controller, ReconfigOutcome, ReconfigPlan, ReconfigReport, RecoveryReport, RetryPolicy,
};
pub use devices::{ChannelEmulator, DeviceHealth, Edfa, SpaceSwitch, TunableTransceiver};
pub use fabric::{build_fabric, Circuit, FabricLayout};
pub use faults::{FaultDomain, FaultEvent, FaultInjector, FaultKind, FaultSchedule};
pub use testbed::{run_testbed, BerSample, TestbedConfig};
pub use wavelength::{assign_wavelengths, FiberAssignment};
