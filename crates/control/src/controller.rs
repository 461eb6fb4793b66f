//! The centralized Iris controller (§5.2), as an explicit state machine.
//!
//! The controller keeps the intended fiber allocation (circuits per DC
//! pair), and on a demand change runs the reconfiguration pipeline:
//! **plan → drain → actuate → verify → undrain**, where verify checks
//! every device against the controller's intent ([`SpaceSwitch::check`])
//! and failed checks trigger bounded retries with exponential backoff.
//! When retries exhaust, the controller rolls back to the last verified
//! allocation and quarantines the offending devices. All timings use the
//! measured component latencies, so the report's dark-time numbers line
//! up with the testbed's 50–70 ms.
//!
//! The same pipeline runs faulted and unfaulted: device actuations go
//! through a [`FaultInjector`], which in production ([`FaultInjector::none`])
//! is a transparent pass-through.

use crate::devices::{DeviceHealth, SpaceSwitch};
use crate::faults::FaultInjector;
use crate::messages::Command;
use iris_errors::{IrisError, IrisResult};
use iris_fibermap::Region;
use iris_netgraph::{EdgeId, HoseScratch};
use iris_planner::goals::DesignGoals;
use iris_planner::paths::scenario_paths;
use iris_planner::topology::Provisioning;
use iris_telemetry::{labeled, read_lock, write_lock, Span};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::RwLock;

/// A fiber allocation: circuits (fiber counts) per unordered DC pair.
pub type Allocation = BTreeMap<(usize, usize), u32>;

/// The computed difference between two allocations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigPlan {
    /// Pairs whose circuit count changes (must be drained).
    pub affected_pairs: Vec<(usize, usize)>,
    /// Total circuits torn down.
    pub circuits_down: u32,
    /// Total circuits brought up.
    pub circuits_up: u32,
}

impl ReconfigPlan {
    /// Whether anything needs to change at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.affected_pairs.is_empty()
    }
}

/// Compute the plan taking `current` to `target`.
#[must_use]
pub fn diff_allocations(current: &Allocation, target: &Allocation) -> ReconfigPlan {
    let mut affected = Vec::new();
    let mut down = 0u32;
    let mut up = 0u32;
    let keys: BTreeSet<(usize, usize)> = current.keys().chain(target.keys()).copied().collect();
    for pair in keys {
        let c = current.get(&pair).copied().unwrap_or(0);
        let t = target.get(&pair).copied().unwrap_or(0);
        if c != t {
            affected.push(pair);
            if t > c {
                up += t - c;
            } else {
                down += c - t;
            }
        }
    }
    ReconfigPlan {
        affected_pairs: affected,
        circuits_down: down,
        circuits_up: up,
    }
}

/// One phase of the reconfiguration pipeline, with its time window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineStep {
    /// Phase name. The happy path is `drain`, `actuate`, `retune`,
    /// `settle`, `relock`, `verify`, `undrain`; faulted runs may insert
    /// `resend` (lost control messages), `backoff`/`actuate`/`settle`/
    /// `relock`/`verify` retry rounds, and a terminal `rollback`.
    pub phase: String,
    /// Start, ms from the reconfiguration's beginning.
    pub start_ms: f64,
    /// End, ms.
    pub end_ms: f64,
}

/// How a reconfiguration ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigOutcome {
    /// The target allocation was applied and every device verified.
    Converged,
    /// Verification kept failing after all retries; the allocation was
    /// rolled back to the last verified state and the offending devices
    /// quarantined.
    RolledBack {
        /// Sites quarantined by this reconfiguration.
        failed_sites: Vec<usize>,
    },
}

/// Timeline record of one reconfiguration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigReport {
    /// Every command issued, in order.
    pub commands: Vec<Command>,
    /// Wall-clock duration of the whole operation, ms (sites actuate in
    /// parallel; steps within the pipeline are sequential).
    pub total_ms: f64,
    /// Dark time per affected pair, ms: from drain to signal recovery.
    pub dark_ms_per_pair: BTreeMap<(usize, usize), f64>,
    /// Health-check outcomes after the *final* verification round.
    pub health: Vec<DeviceHealth>,
    /// Phase-by-phase timeline (telemetry for operators).
    pub timeline: Vec<TimelineStep>,
    /// How the state machine ended.
    pub outcome: ReconfigOutcome,
    /// Verification retry rounds performed.
    pub retries: u32,
    /// Sites quarantined at the end of this reconfiguration (cumulative
    /// view of the controller's quarantine set).
    pub quarantined: Vec<usize>,
}

impl ReconfigReport {
    /// Worst dark time across pairs, ms.
    #[must_use]
    pub fn max_dark_ms(&self) -> f64 {
        self.dark_ms_per_pair.values().copied().fold(0.0, f64::max)
    }

    /// Whether the target was applied and verified.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.outcome == ReconfigOutcome::Converged
    }
}

/// Retry/backoff/timeout policy for the reconfiguration state machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Verification attempts before giving up (>= 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, ms.
    pub base_backoff_ms: f64,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_factor: f64,
    /// Modeled cost of one lost-and-resent control message, ms.
    pub step_timeout_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_ms: 5.0,
            backoff_factor: 2.0,
            step_timeout_ms: 50.0,
        }
    }
}

/// Receiver DSP re-lock time after light returns (part of the measured
/// 50 ms single-hut recovery: 20 ms OSS actuation + ~30 ms relock).
pub const DSP_RELOCK_MS: f64 = 30.0;

/// Loss-of-signal detection delay: the testbed samples BER every 10 ms
/// (§5.3), so a fiber cut is noticed within one sampling interval.
pub const LOS_DETECTION_MS: f64 = 10.0;

/// Modeled re-plan cost after a fiber cut: re-running the scenario
/// shortest paths for the surviving topology (the testbed controller does
/// this well under a BER sampling interval).
pub const REPLAN_MS: f64 = 5.0;

/// Settle-time multiplier while an EDFA rides out a power excursion.
const EXCURSION_SETTLE_FACTOR: f64 = 10.0;

/// Outcome of recovering from a fiber cut.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// The failed ducts.
    pub cuts: Vec<EdgeId>,
    /// Whether the cut set is within the planner's tolerance (`<= k`).
    pub within_tolerance: bool,
    /// DC pairs that could not be rerouted (disconnected or SLA-violating
    /// post-cut). Empty whenever `within_tolerance` holds on a feasible
    /// plan — that is Algorithm 1's survivability guarantee.
    pub shed_pairs: Vec<(usize, usize)>,
    /// Circuits dropped with the shed pairs.
    pub shed_circuits: u32,
    /// Ducts whose post-cut hose load exceeds surviving provisioned
    /// capacity. Empty for any `<= k` cut set, by construction.
    pub overloaded_edges: Vec<EdgeId>,
    /// Modeled loss-of-signal detection delay, ms.
    pub detection_ms: f64,
    /// Modeled re-plan time, ms.
    pub replan_ms: f64,
    /// End-to-end recovery time: detection + re-plan + reconfiguration, ms.
    pub recovery_ms: f64,
    /// The reconfiguration that moved traffic onto surviving paths.
    pub reconfig: ReconfigReport,
}

impl RecoveryReport {
    /// Whether every demand survived: nothing shed, nothing overloaded,
    /// and the reconfiguration converged.
    #[must_use]
    pub fn fully_recovered(&self) -> bool {
        self.shed_pairs.is_empty() && self.overloaded_edges.is_empty() && self.reconfig.converged()
    }
}

/// The centralized controller.
///
/// Device state lives behind a [`RwLock`] so a health monitor can read
/// concurrently with the reconfiguration path.
#[derive(Debug)]
pub struct Controller {
    /// One OSS per site (DCs and huts alike), by site index.
    switches: RwLock<Vec<SpaceSwitch>>,
    /// Current (last verified) allocation.
    allocation: RwLock<Allocation>,
    /// How many OSS hops each pair's circuit traverses (for dark-time
    /// accounting), by pair. Updated when recovery reroutes pairs.
    hops_per_pair: RwLock<BTreeMap<(usize, usize), u32>>,
    /// The duct sequence each pair's circuit currently rides, by pair.
    /// Recovery compares these against the post-cut shortest paths to
    /// decide which pairs must be physically rerouted even though their
    /// circuit *count* is unchanged. Empty for hand-built controllers.
    paths_per_pair: RwLock<BTreeMap<(usize, usize), Vec<EdgeId>>>,
    /// Sites removed from service after exhausting retries.
    quarantine: RwLock<BTreeSet<usize>>,
    policy: RetryPolicy,
}

impl Controller {
    /// A controller over `site_switches`, starting from an empty
    /// allocation. `hops_per_pair` gives the OSS hop count of each DC
    /// pair's circuit (at least 1).
    #[must_use]
    pub fn new(
        site_switches: Vec<SpaceSwitch>,
        hops_per_pair: BTreeMap<(usize, usize), u32>,
    ) -> Self {
        Self {
            switches: RwLock::new(site_switches),
            allocation: RwLock::new(Allocation::new()),
            hops_per_pair: RwLock::new(hops_per_pair),
            paths_per_pair: RwLock::new(BTreeMap::new()),
            quarantine: RwLock::new(BTreeSet::new()),
            policy: RetryPolicy::default(),
        }
    }

    /// A controller for a planned region: one OSS per fiber-map site,
    /// with per-pair hop counts taken from the nominal shortest paths.
    #[must_use]
    pub fn for_region(region: &Region, goals: &DesignGoals) -> Self {
        let switches = (0..region.map.graph().node_count())
            .map(|s| SpaceSwitch::new(&format!("OSS@SITE{s}"), 64))
            .collect();
        let nominal = iris_planner::topology::nominal_paths(region, goals);
        let hops = nominal
            .iter()
            .map(|p| ((p.a, p.b), p.oss_traversals().max(1) as u32))
            .collect();
        let controller = Self::new(switches, hops);
        *write_lock(&controller.paths_per_pair) = nominal
            .iter()
            .map(|p| ((p.a, p.b), p.edges.clone()))
            .collect();
        controller
    }

    /// Replace the retry policy (builder-style).
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The current allocation.
    #[must_use]
    pub fn allocation(&self) -> Allocation {
        read_lock(&self.allocation).clone()
    }

    /// Number of managed switches.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        read_lock(&self.switches).len()
    }

    /// Sites currently quarantined.
    #[must_use]
    pub fn quarantined(&self) -> Vec<usize> {
        read_lock(&self.quarantine).iter().copied().collect()
    }

    /// The duct sequence each pair's circuit currently rides (updated by
    /// fiber-cut recovery as circuits move to surviving paths). Empty
    /// for hand-built controllers that never populated path state.
    #[must_use]
    pub fn current_paths(&self) -> BTreeMap<(usize, usize), Vec<EdgeId>> {
        read_lock(&self.paths_per_pair).clone()
    }

    /// Return a repaired site to service.
    pub fn clear_quarantine(&self, site: usize) {
        write_lock(&self.quarantine).remove(&site);
    }

    /// Reconfigure to `target`, producing the command stream and timing
    /// report. The pipeline is: drain affected pairs → actuate OSSes
    /// (parallel across sites) → retune transceivers / channel emulation
    /// (DC-local, overlapped with actuation) → amplifier settle → DSP
    /// relock → verify → undrain, with bounded retries on verification
    /// failure and rollback + quarantine when retries exhaust.
    pub fn reconfigure(&self, target: &Allocation) -> ReconfigReport {
        self.reconfigure_with_faults(target, &mut FaultInjector::none())
    }

    /// [`Self::reconfigure`] with faults injected into every device
    /// actuation. The unfaulted call is exactly this with
    /// [`FaultInjector::none`].
    pub fn reconfigure_with_faults(
        &self,
        target: &Allocation,
        inj: &mut FaultInjector,
    ) -> ReconfigReport {
        self.reconfigure_impl(target, inj, &[])
    }

    /// The reconfiguration state machine. `reroute` lists pairs that
    /// must be physically re-actuated even though their circuit count is
    /// unchanged (fiber-cut recovery moves circuits onto new paths);
    /// each counts as a full tear-down + bring-up.
    #[allow(clippy::too_many_lines)]
    fn reconfigure_impl(
        &self,
        target: &Allocation,
        inj: &mut FaultInjector,
        reroute: &[(usize, usize)],
    ) -> ReconfigReport {
        let telemetry = iris_telemetry::global();
        let wall = Span::enter_ms(telemetry.histogram("iris_control_reconfigure_wall_ms"));
        let current = read_lock(&self.allocation).clone();
        let mut plan = diff_allocations(&current, target);
        for &pair in reroute {
            if plan.affected_pairs.contains(&pair) {
                continue;
            }
            let circuits = current.get(&pair).copied().unwrap_or(0);
            if circuits > 0 && target.get(&pair).copied() == Some(circuits) {
                plan.affected_pairs.push(pair);
                plan.circuits_down += circuits;
                plan.circuits_up += circuits;
            }
        }
        plan.affected_pairs.sort_unstable();
        let mut commands = Vec::new();
        let mut dark = BTreeMap::new();

        if plan.is_empty() {
            telemetry.counter("iris_control_reconfigs_noop_total").inc();
            wall.cancel();
            return ReconfigReport {
                commands,
                total_ms: 0.0,
                dark_ms_per_pair: dark,
                health: Vec::new(),
                timeline: Vec::new(),
                outcome: ReconfigOutcome::Converged,
                retries: 0,
                quarantined: self.quarantined(),
            };
        }
        telemetry.counter("iris_control_reconfigs_total").inc();
        // When the caller holds an open trace (the mutator's batch
        // span), the whole reconfiguration becomes a child span and
        // each timeline phase a modeled grandchild; with no active
        // trace (replay, benches, the crash harness) this is inert.
        let _trace_span = iris_telemetry::trace::span("reconfigure");
        telemetry
            .counter("iris_control_circuits_up_total")
            .add(u64::from(plan.circuits_up));
        telemetry
            .counter("iris_control_circuits_down_total")
            .add(u64::from(plan.circuits_down));

        let mut timeline: Vec<TimelineStep> = Vec::new();
        let push = |timeline: &mut Vec<TimelineStep>, phase: &str, start: f64, end: f64| {
            timeline.push(TimelineStep {
                phase: phase.to_owned(),
                start_ms: start,
                end_ms: end,
            });
        };

        // 1. Drain.
        for &(a, b) in &plan.affected_pairs {
            commands.push(Command::Drain {
                a: a as u32,
                b: b as u32,
            });
        }
        push(&mut timeline, "drain", 0.0, 0.0);

        // Lost control messages cost one step timeout each before the
        // command batch lands.
        let lost = inj.take_lost_messages();
        let resend_ms = f64::from(lost) * self.policy.step_timeout_ms;
        if lost > 0 {
            telemetry
                .counter("iris_control_msg_loss_total")
                .add(u64::from(lost));
            push(&mut timeline, "resend", 0.0, resend_ms);
        }

        // 2. Actuate: every in-service site reconfigures its OSS in one
        // batched actuation; sites run in parallel. The intended mapping
        // is recorded so verification can compare against reality.
        let active: Vec<usize> = {
            let quarantine = read_lock(&self.quarantine);
            (0..read_lock(&self.switches).len())
                .filter(|s| !quarantine.contains(s))
                .collect()
        };
        let mut intended: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        {
            let mut switches = write_lock(&self.switches);
            for &site in &active {
                let sw = &mut switches[site];
                // Abstract port mapping: circuit slots cycle through
                // ports; the physical detail that matters is the single
                // 20 ms actuation per site.
                let input = (plan.circuits_up as usize) % sw.ports().max(1);
                let output = (plan.circuits_down as usize) % sw.ports().max(1);
                intended.insert(site, (input, output));
                // An actuation error is left for verification to catch;
                // the counter records it for the operator.
                if inj.connect(site, sw, input, output).is_err() {
                    telemetry
                        .counter("iris_control_actuation_error_total")
                        .inc();
                }
                commands.push(Command::SetCross {
                    switch: site as u32,
                    input: input as u32,
                    output: output as u32,
                });
            }
        }
        let actuation_ms = iris_optics::OSS_SWITCH_TIME_MS;
        push(
            &mut timeline,
            "actuate",
            resend_ms,
            resend_ms + actuation_ms,
        );

        // 3. DC-local retune + emulation (overlapped, <= 1 ms).
        for (i, &(a, b)) in plan.affected_pairs.iter().enumerate() {
            commands.push(Command::Tune {
                transceiver: i as u32,
                channel: 0,
            });
            commands.push(Command::SetEmulation {
                emulator: a as u32,
                channel: 0,
                live: true,
            });
            commands.push(Command::SetEmulation {
                emulator: b as u32,
                channel: 0,
                live: true,
            });
        }
        let retune_ms = iris_optics::TRANSCEIVER_TUNE_TIME_MS;
        push(&mut timeline, "retune", resend_ms, resend_ms + retune_ms);

        // 4. Settle + relock, stretched by any armed amplifier excursion
        // or relock failure.
        let mut settle_ms = iris_optics::AMPLIFIER_SETTLE_TIME_MS;
        if inj.excursion_active(&active) {
            telemetry.counter("iris_control_edfa_excursion_total").inc();
            settle_ms *= EXCURSION_SETTLE_FACTOR;
        }
        let extra_relocks = inj.relock_penalty(&active);
        if extra_relocks > 0 {
            telemetry
                .counter("iris_control_relock_retry_total")
                .add(u64::from(extra_relocks));
        }
        let relock_ms = DSP_RELOCK_MS * (1.0 + f64::from(extra_relocks));
        let settle_start = resend_ms + actuation_ms.max(retune_ms);
        push(
            &mut timeline,
            "settle",
            settle_start,
            settle_start + settle_ms,
        );
        push(
            &mut timeline,
            "relock",
            settle_start + settle_ms,
            settle_start + settle_ms + relock_ms,
        );

        // 5. Verify, with bounded retries. Each retry backs off, then
        // re-actuates the degraded sites and waits out settle + relock
        // again before re-checking.
        let mut elapsed = settle_start + settle_ms + relock_ms;
        let mut retries = 0u32;
        let mut attempt = 1u32;
        let (health, outcome) = loop {
            let mut round: Vec<DeviceHealth> = Vec::with_capacity(active.len());
            let mut degraded: Vec<usize> = Vec::new();
            {
                let switches = read_lock(&self.switches);
                for &site in &active {
                    commands.push(Command::HealthCheck { site: site as u32 });
                    let want = intended[&site];
                    let h = switches[site].check(&[want]);
                    if matches!(h, DeviceHealth::Degraded(_)) {
                        degraded.push(site);
                    }
                    round.push(h);
                }
            }
            push(&mut timeline, "verify", elapsed, elapsed);
            if degraded.is_empty() {
                break (round, ReconfigOutcome::Converged);
            }
            if attempt >= self.policy.max_attempts {
                break (
                    round,
                    ReconfigOutcome::RolledBack {
                        failed_sites: degraded,
                    },
                );
            }
            // Retry round.
            retries += 1;
            telemetry.counter("iris_control_retry_total").inc();
            let backoff =
                self.policy.base_backoff_ms * self.policy.backoff_factor.powi(retries as i32 - 1);
            push(&mut timeline, "backoff", elapsed, elapsed + backoff);
            elapsed += backoff;
            {
                let mut switches = write_lock(&self.switches);
                for &site in &degraded {
                    let (input, output) = intended[&site];
                    if inj
                        .connect(site, &mut switches[site], input, output)
                        .is_err()
                    {
                        telemetry
                            .counter("iris_control_actuation_error_total")
                            .inc();
                    }
                    commands.push(Command::SetCross {
                        switch: site as u32,
                        input: input as u32,
                        output: output as u32,
                    });
                }
            }
            push(&mut timeline, "actuate", elapsed, elapsed + actuation_ms);
            elapsed += actuation_ms;
            let settle = iris_optics::AMPLIFIER_SETTLE_TIME_MS;
            push(&mut timeline, "settle", elapsed, elapsed + settle);
            elapsed += settle;
            push(&mut timeline, "relock", elapsed, elapsed + DSP_RELOCK_MS);
            elapsed += DSP_RELOCK_MS;
            attempt += 1;
        };

        // 6. Commit or roll back, then undrain.
        match &outcome {
            ReconfigOutcome::Converged => {
                *write_lock(&self.allocation) = target.clone();
            }
            ReconfigOutcome::RolledBack { failed_sites } => {
                telemetry.counter("iris_control_rollback_total").inc();
                {
                    let mut quarantine = write_lock(&self.quarantine);
                    for &site in failed_sites {
                        if quarantine.insert(site) {
                            telemetry.counter("iris_control_quarantine_total").inc();
                        }
                    }
                }
                // The allocation stays at the last verified state; the
                // rollback itself costs one more parallel actuation to
                // restore the previous cross-connects.
                push(&mut timeline, "rollback", elapsed, elapsed + actuation_ms);
                elapsed += actuation_ms;
            }
        }
        for &(a, b) in &plan.affected_pairs {
            commands.push(Command::Undrain {
                a: a as u32,
                b: b as u32,
            });
        }
        let total_ms = elapsed;
        push(&mut timeline, "undrain", total_ms, total_ms);

        // Dark time per pair: each OSS hop on the pair's circuit actuates
        // in parallel but the signal only returns once all have finished,
        // then amplifiers settle and the receiver DSP relocks. Retry
        // rounds and resends extend every affected pair's outage.
        let penalty_ms = total_ms - (actuation_ms.max(retune_ms) + settle_ms + relock_ms);
        {
            let hops_map = read_lock(&self.hops_per_pair);
            for &(a, b) in &plan.affected_pairs {
                let hops = hops_map.get(&(a, b)).copied().unwrap_or(1);
                let staggered = actuation_ms * f64::from(hops.clamp(1, 2));
                let pair_dark_ms = staggered + settle_ms + relock_ms + penalty_ms;
                telemetry
                    .histogram("iris_control_dark_ms")
                    .record(pair_dark_ms);
                dark.insert((a, b), pair_dark_ms);
            }
        }

        // Telemetry: modeled per-phase latency and device-health tally.
        // The same timeline feeds the flight recorder as modeled spans
        // (start offsets relative to the reconfiguration).
        for step in &timeline {
            telemetry
                .histogram(&labeled("iris_control_phase_ms", "phase", &step.phase))
                .record(step.end_ms - step.start_ms);
            iris_telemetry::trace::emit_modeled(
                &step.phase,
                step.start_ms,
                step.end_ms - step.start_ms,
            );
        }
        for h in &health {
            let state = match h {
                DeviceHealth::Ok => "ok",
                DeviceHealth::Degraded(_) => "degraded",
            };
            telemetry
                .counter(&labeled("iris_control_device_health_total", "state", state))
                .inc();
        }
        wall.finish();

        ReconfigReport {
            commands,
            total_ms,
            dark_ms_per_pair: dark,
            health,
            timeline,
            outcome,
            retries,
            quarantined: self.quarantined(),
        }
    }

    /// Recover from the fiber cuts `cuts`: re-route every demand onto
    /// surviving planned capacity, shed (with explicit reporting) any
    /// pair that cannot be carried, and reconfigure the devices.
    ///
    /// For any cut set within the planner's tolerance (`cuts.len() <=
    /// goals.max_cuts`) on a feasible plan, the recovery keeps **all**
    /// hose demands feasible: the provisioned duct capacities are maxima
    /// over exactly these scenarios' hose loads. Larger cut sets degrade
    /// gracefully — shed pairs and overloaded ducts are reported, never
    /// panicked over.
    ///
    /// # Errors
    ///
    /// Returns [`IrisError::InvalidInput`] if a cut id is out of range
    /// for the region's fiber map.
    pub fn handle_fiber_cut(
        &self,
        region: &Region,
        goals: &DesignGoals,
        prov: &Provisioning,
        cuts: &[EdgeId],
    ) -> IrisResult<RecoveryReport> {
        self.handle_fiber_cut_with_faults(region, goals, prov, cuts, &mut FaultInjector::none())
    }

    /// [`Self::handle_fiber_cut`] with device faults injected into the
    /// recovery reconfiguration.
    ///
    /// # Errors
    ///
    /// Returns [`IrisError::InvalidInput`] if a cut id is out of range.
    pub fn handle_fiber_cut_with_faults(
        &self,
        region: &Region,
        goals: &DesignGoals,
        prov: &Provisioning,
        cuts: &[EdgeId],
        inj: &mut FaultInjector,
    ) -> IrisResult<RecoveryReport> {
        let telemetry = iris_telemetry::global();
        let edge_count = region.map.graph().edge_count();
        if let Some(&bad) = cuts.iter().find(|&&e| e >= edge_count) {
            return Err(IrisError::InvalidInput {
                detail: format!("cut duct {bad} out of range (region has {edge_count} ducts)"),
            });
        }
        telemetry.counter("iris_control_recovery_total").inc();
        // Under an open trace, the recovery pipeline emits its span
        // tree: modeled detection + replanning here, the per-phase
        // reconfiguration timeline inside `reconfigure_impl`.
        let _trace_span = iris_telemetry::trace::span("handle_fiber_cut");
        iris_telemetry::trace::emit_modeled("detect", 0.0, LOS_DETECTION_MS);
        iris_telemetry::trace::emit_modeled("replan", LOS_DETECTION_MS, REPLAN_MS);

        // Re-plan: shortest paths avoiding the cut ducts.
        let (paths, unreachable) = scenario_paths(region, goals, cuts);
        let within_tolerance = cuts.len() <= goals.max_cuts;

        // Feasibility of the surviving plan: for every duct the rerouted
        // paths use, the worst-case hose load of the pairs crossing it
        // must fit in the provisioned (surviving) capacity.
        let caps: Vec<u64> = (0..region.dcs.len())
            .map(|i| region.capacity_wavelengths(i))
            .collect();
        let mut pairs_on_edge: BTreeMap<EdgeId, Vec<(usize, usize)>> = BTreeMap::new();
        for p in &paths {
            for &e in &p.edges {
                pairs_on_edge.entry(e).or_default().push((p.a, p.b));
            }
        }
        let mut hose = HoseScratch::new();
        let mut overloaded: Vec<EdgeId> = Vec::new();
        for (&e, pairs) in &pairs_on_edge {
            let load = hose.max_edge_load(&|dc| caps[dc], pairs);
            if load > prov.edge_capacity_wl[e] + 1e-6 {
                overloaded.push(e);
            }
        }

        // Shed: every currently-allocated circuit on an unreachable pair.
        let shed: BTreeSet<(usize, usize)> = unreachable.iter().copied().collect();
        let current = self.allocation();
        let mut target = Allocation::new();
        let mut shed_circuits = 0u32;
        for (&pair, &circuits) in &current {
            if shed.contains(&pair) {
                shed_circuits += circuits;
            } else {
                target.insert(pair, circuits);
            }
        }
        if !shed.is_empty() {
            telemetry
                .counter("iris_control_shed_pairs_total")
                .add(shed.len() as u64);
        }

        // A cut changes *paths*, not circuit counts: every allocated pair
        // whose circuit no longer rides its recorded duct sequence must
        // be physically rerouted (torn down and re-actuated on the
        // surviving path), and the dark-time hop accounting refreshed.
        let reroute: Vec<(usize, usize)> = {
            let mut hops = write_lock(&self.hops_per_pair);
            let mut stored = write_lock(&self.paths_per_pair);
            let mut moved = Vec::new();
            for p in &paths {
                let pair = (p.a, p.b);
                hops.insert(pair, p.oss_traversals().max(1) as u32);
                let changed = stored.get(&pair) != Some(&p.edges);
                stored.insert(pair, p.edges.clone());
                if changed && target.contains_key(&pair) {
                    moved.push(pair);
                }
            }
            moved
        };

        let reconfig = self.reconfigure_impl(&target, inj, &reroute);
        let recovery_ms = LOS_DETECTION_MS + REPLAN_MS + reconfig.total_ms;
        telemetry
            .histogram("iris_control_recovery_ms")
            .record(recovery_ms);
        if within_tolerance && (!shed.is_empty() || !overloaded.is_empty()) {
            // Must be unreachable on an infeasible plan (the planner
            // already reported these pairs); count it for operators.
            telemetry
                .counter("iris_control_recovery_degraded_total")
                .inc();
        }

        Ok(RecoveryReport {
            cuts: cuts.to_vec(),
            within_tolerance,
            shed_pairs: shed.into_iter().collect(),
            shed_circuits,
            overloaded_edges: overloaded,
            detection_ms: LOS_DETECTION_MS,
            replan_ms: REPLAN_MS,
            recovery_ms,
            reconfig,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use iris_fibermap::{synth, MetroParams, PlacementParams};

    fn alloc(entries: &[((usize, usize), u32)]) -> Allocation {
        entries.iter().copied().collect()
    }

    fn controller() -> Controller {
        let switches = (0..3)
            .map(|i| SpaceSwitch::new(&format!("OSS{i}"), 16))
            .collect();
        let hops = [((0, 1), 1u32), ((0, 2), 2), ((1, 2), 1)]
            .into_iter()
            .collect();
        Controller::new(switches, hops)
    }

    #[test]
    fn diff_finds_changed_pairs() {
        let cur = alloc(&[((0, 1), 2), ((0, 2), 1)]);
        let tgt = alloc(&[((0, 1), 3), ((1, 2), 1)]);
        let plan = diff_allocations(&cur, &tgt);
        assert_eq!(plan.affected_pairs, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(plan.circuits_up, 2); // +1 on (0,1), +1 on (1,2)
        assert_eq!(plan.circuits_down, 1); // -1 on (0,2)
    }

    #[test]
    fn identical_allocations_are_a_noop() {
        let c = controller();
        let tgt = alloc(&[((0, 1), 2)]);
        c.reconfigure(&tgt);
        let report = c.reconfigure(&tgt);
        assert!(report.commands.is_empty());
        assert_eq!(report.total_ms, 0.0);
        assert_eq!(report.max_dark_ms(), 0.0);
        assert!(report.converged());
    }

    #[test]
    fn reconfiguration_issues_drain_before_cross_and_undrain_last() {
        let c = controller();
        let report = c.reconfigure(&alloc(&[((0, 1), 2)]));
        let first_drain = report
            .commands
            .iter()
            .position(|c| matches!(c, Command::Drain { .. }))
            .expect("drain issued");
        let first_cross = report
            .commands
            .iter()
            .position(|c| matches!(c, Command::SetCross { .. }))
            .expect("cross issued");
        let last_undrain = report
            .commands
            .iter()
            .rposition(|c| matches!(c, Command::Undrain { .. }))
            .expect("undrain issued");
        assert!(first_drain < first_cross);
        assert_eq!(last_undrain, report.commands.len() - 1);
    }

    #[test]
    fn dark_time_matches_testbed_measurements() {
        let c = controller();
        let report = c.reconfigure(&alloc(&[((0, 1), 1), ((0, 2), 1)]));
        // Single-hut circuit: 20 + 2 + 30 ≈ 52 ms (paper measures ~50).
        let single = report.dark_ms_per_pair[&(0, 1)];
        assert!((45.0..=60.0).contains(&single), "single-hut {single} ms");
        // Two-hut circuit: 40 + 2 + 30 ≈ 72 ms (paper measures ~70).
        let double = report.dark_ms_per_pair[&(0, 2)];
        assert!((65.0..=80.0).contains(&double), "two-hut {double} ms");
    }

    #[test]
    fn timeline_phases_are_ordered_and_cover_total() {
        let c = controller();
        let report = c.reconfigure(&alloc(&[((0, 1), 2)]));
        let phases: Vec<&str> = report.timeline.iter().map(|s| s.phase.as_str()).collect();
        assert_eq!(
            phases,
            ["drain", "actuate", "retune", "settle", "relock", "verify", "undrain"]
        );
        for step in &report.timeline {
            assert!(step.end_ms >= step.start_ms, "{step:?}");
            assert!(step.end_ms <= report.total_ms + 1e-9);
        }
        // The last phase ends exactly at the total.
        assert_eq!(report.timeline.last().unwrap().end_ms, report.total_ms);
        // Retune overlaps actuation (both start at 0).
        let retune = report
            .timeline
            .iter()
            .find(|s| s.phase == "retune")
            .unwrap();
        assert_eq!(retune.start_ms, 0.0);
    }

    #[test]
    fn noop_reconfigure_has_empty_timeline() {
        let c = controller();
        let tgt = alloc(&[((0, 1), 2)]);
        c.reconfigure(&tgt);
        assert!(c.reconfigure(&tgt).timeline.is_empty());
    }

    #[test]
    fn allocation_is_updated_after_reconfigure() {
        let c = controller();
        let tgt = alloc(&[((1, 2), 4)]);
        c.reconfigure(&tgt);
        assert_eq!(c.allocation(), tgt);
    }

    #[test]
    fn health_checks_cover_every_switch() {
        let c = controller();
        let report = c.reconfigure(&alloc(&[((0, 1), 1)]));
        assert_eq!(report.health.len(), c.switch_count());
        assert!(report.health.iter().all(|h| *h == DeviceHealth::Ok));
        assert!(report.converged());
        assert_eq!(report.retries, 0);
    }

    #[test]
    fn misrouted_port_is_caught_by_verify_and_retried() {
        // Regression: a silently-misrouted OSS port must be detected by
        // the post-actuation health check, not trusted blindly.
        let c = controller();
        let mut inj = FaultInjector::none();
        inj.arm(&FaultKind::OssMisroute {
            site: 1,
            failures: 1,
        });
        let happy_total = controller().reconfigure(&alloc(&[((0, 1), 2)])).total_ms;
        let report = c.reconfigure_with_faults(&alloc(&[((0, 1), 2)]), &mut inj);
        assert!(report.converged(), "transient misroute must self-heal");
        assert_eq!(report.retries, 1);
        assert!(report.health.iter().all(|h| *h == DeviceHealth::Ok));
        assert!(
            report.total_ms > happy_total,
            "a retry round must cost time: {} <= {happy_total}",
            report.total_ms
        );
        assert!(report.quarantined.is_empty());
        assert_eq!(c.allocation(), alloc(&[((0, 1), 2)]));
    }

    #[test]
    fn exhausted_retries_roll_back_and_quarantine() {
        let c = controller().with_policy(RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        });
        let before = c.allocation();
        let mut inj = FaultInjector::none();
        inj.arm(&FaultKind::OssPortStuck {
            site: 2,
            failures: u32::MAX,
        });
        let report = c.reconfigure_with_faults(&alloc(&[((0, 1), 3)]), &mut inj);
        assert_eq!(
            report.outcome,
            ReconfigOutcome::RolledBack {
                failed_sites: vec![2]
            }
        );
        assert_eq!(report.retries, 1, "one retry before giving up");
        assert_eq!(c.allocation(), before, "allocation must roll back");
        assert_eq!(c.quarantined(), vec![2]);
        assert!(report.timeline.iter().any(|s| s.phase == "rollback"));
        // The quarantined site sits out the next reconfiguration, which
        // then converges on the surviving devices.
        let next = c.reconfigure(&alloc(&[((0, 1), 3)]));
        assert!(next.converged());
        assert_eq!(next.health.len(), 2, "quarantined site not checked");
        c.clear_quarantine(2);
        assert!(c.quarantined().is_empty());
    }

    #[test]
    fn lost_control_messages_cost_step_timeouts() {
        let c = controller();
        let mut inj = FaultInjector::none();
        inj.arm(&FaultKind::ControlMessageLoss { messages: 2 });
        let happy = controller().reconfigure(&alloc(&[((0, 1), 1)]));
        let report = c.reconfigure_with_faults(&alloc(&[((0, 1), 1)]), &mut inj);
        assert!(report.converged());
        let expected = happy.total_ms + 2.0 * RetryPolicy::default().step_timeout_ms;
        assert!(
            (report.total_ms - expected).abs() < 1e-9,
            "{} != {expected}",
            report.total_ms
        );
        assert!(report.timeline.iter().any(|s| s.phase == "resend"));
    }

    #[test]
    fn faulted_reconfigure_is_deterministic() {
        let run = || {
            let c = controller();
            let mut inj = FaultInjector::none();
            inj.arm(&FaultKind::OssMisroute {
                site: 0,
                failures: 1,
            });
            inj.arm(&FaultKind::TransceiverNoRelock {
                site: 1,
                extra_attempts: 2,
            });
            c.reconfigure_with_faults(&alloc(&[((0, 2), 2)]), &mut inj)
        };
        assert_eq!(run(), run(), "same faults, same report");
    }

    fn small_region() -> Region {
        synth::place_dcs(
            synth::generate_metro(&MetroParams {
                n_huts: 10,
                ..MetroParams::default()
            }),
            &PlacementParams {
                n_dcs: 4,
                ..PlacementParams::default()
            },
        )
    }

    #[test]
    fn fiber_cut_within_tolerance_recovers_all_demands() {
        let region = small_region();
        let goals = DesignGoals::with_cuts(1);
        let prov = iris_planner::topology::provision(&region, &goals);
        assert!(prov.infeasible.is_empty(), "plan must be feasible");
        let c = Controller::for_region(&region, &goals);
        // Stand up circuits on every planned pair, then cut a used duct.
        let mut target = Allocation::new();
        for p in iris_planner::topology::nominal_paths(&region, &goals) {
            target.insert((p.a, p.b), 1);
        }
        assert!(c.reconfigure(&target).converged());
        let victim = prov.used_edges()[0];
        let rec = c
            .handle_fiber_cut(&region, &goals, &prov, &[victim])
            .expect("valid cut");
        assert!(rec.within_tolerance);
        assert!(rec.fully_recovered(), "{rec:?}");
        assert!(rec.shed_pairs.is_empty());
        assert!(rec.overloaded_edges.is_empty());
        assert!(rec.recovery_ms >= rec.reconfig.total_ms);
        assert!(
            rec.recovery_ms < 1000.0,
            "recovery should be sub-second: {} ms",
            rec.recovery_ms
        );
    }

    #[test]
    fn fiber_cut_beyond_tolerance_degrades_gracefully() {
        let region = small_region();
        let goals = DesignGoals::with_cuts(0);
        let prov = iris_planner::topology::provision(&region, &goals);
        let c = Controller::for_region(&region, &goals);
        let mut target = Allocation::new();
        for p in iris_planner::topology::nominal_paths(&region, &goals) {
            target.insert((p.a, p.b), 1);
        }
        c.reconfigure(&target);
        // Cut more ducts than the plan tolerates: no panic, explicit
        // reporting of whatever is shed or overloaded.
        let used = prov.used_edges();
        let cuts: Vec<EdgeId> = used.iter().copied().take(3).collect();
        let rec = c
            .handle_fiber_cut(&region, &goals, &prov, &cuts)
            .expect("valid cuts");
        assert!(!rec.within_tolerance);
        // The report is self-consistent even when degraded.
        assert_eq!(
            rec.shed_circuits as usize,
            rec.shed_pairs
                .iter()
                .filter(|p| target.contains_key(p))
                .count()
        );
    }

    #[test]
    fn fiber_cut_rejects_out_of_range_duct() {
        let region = small_region();
        let goals = DesignGoals::with_cuts(0);
        let prov = iris_planner::topology::provision(&region, &goals);
        let c = Controller::for_region(&region, &goals);
        let err = c
            .handle_fiber_cut(&region, &goals, &prov, &[usize::MAX])
            .unwrap_err();
        assert_eq!(err.code(), "invalid-input");
    }
}
