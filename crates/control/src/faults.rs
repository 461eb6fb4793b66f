//! Deterministic fault injection for the control plane.
//!
//! The paper's promise (§4.1) is that planned capacity survives any `k`
//! simultaneous fiber cuts, and §5's controller is supposed to detect
//! device failures and re-actuate. This module supplies the adversary:
//! a seeded [`FaultSchedule`] of fiber cuts and device misbehaviors, and
//! a [`FaultInjector`] that perturbs device actuations as the controller
//! performs them. Everything is deterministic under the seed — no wall
//! clock, no global RNG — so CI can assert *exact* recovery behavior
//! (see the `chaos` harness in `iris-bench` and the `iris chaos`
//! subcommand).

use iris_netgraph::EdgeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::devices::SpaceSwitch;
use iris_errors::IrisError;

/// One kind of injected fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A backhoe takes out whole ducts (all fibers in them at once).
    FiberCut {
        /// Failed duct ids.
        ducts: Vec<EdgeId>,
    },
    /// An OSS port refuses to move: `connect` silently leaves the old
    /// cross-connect in place for the next `failures` actuations.
    OssPortStuck {
        /// Site whose switch is faulty.
        site: usize,
        /// How many actuations fail before the port frees up
        /// (`u32::MAX` = permanently stuck).
        failures: u32,
    },
    /// An OSS port lands on the wrong output: `connect` misroutes to a
    /// neighboring port for the next `failures` actuations. Detectable
    /// only by the post-actuation health check.
    OssMisroute {
        /// Site whose switch is faulty.
        site: usize,
        /// How many actuations misroute before behavior returns to
        /// normal (`u32::MAX` = permanent).
        failures: u32,
    },
    /// A receiver DSP fails to relock when light returns; each failed
    /// attempt costs another relock interval.
    TransceiverNoRelock {
        /// Affected site.
        site: usize,
        /// Extra relock attempts needed before lock is achieved.
        extra_attempts: u32,
    },
    /// An EDFA suffers a power excursion and needs an extended settle.
    EdfaExcursion {
        /// Affected site.
        site: usize,
        /// Excursion magnitude, dB (reported, not modeled further —
        /// TC3's limiters bound the damage).
        delta_db: f64,
        /// Reconfigurations affected before the excursion clears.
        failures: u32,
    },
    /// Controller-to-site messages vanish in flight; each loss costs the
    /// sender one step timeout before it retries.
    ControlMessageLoss {
        /// Number of consecutive lost messages.
        messages: u32,
    },
}

impl FaultKind {
    /// Short stable name for telemetry labels and reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::FiberCut { .. } => "fiber-cut",
            FaultKind::OssPortStuck { .. } => "oss-port-stuck",
            FaultKind::OssMisroute { .. } => "oss-misroute",
            FaultKind::TransceiverNoRelock { .. } => "transceiver-no-relock",
            FaultKind::EdfaExcursion { .. } => "edfa-excursion",
            FaultKind::ControlMessageLoss { .. } => "control-message-loss",
        }
    }
}

/// A fault and when it strikes (order index within a chaos scenario).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Position of this fault in the scenario's replay order.
    pub step: u32,
    /// What breaks.
    pub kind: FaultKind,
}

/// The shape of the system a schedule is generated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultDomain {
    /// Number of sites (OSS devices) that can misbehave.
    pub sites: usize,
    /// Number of ducts that can be cut.
    pub ducts: usize,
    /// Maximum ducts destroyed by one fiber-cut event.
    pub max_cut_size: usize,
    /// Number of fault events to schedule.
    pub events: usize,
}

/// A deterministic, seed-reproducible sequence of faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// The generating seed (recorded for reproducibility manifests).
    pub seed: u64,
    /// The faults, in replay order.
    pub events: Vec<FaultEvent>,
}

/// Uniform draw in `0..n` (n > 0) from the schedule's own generator.
fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

impl FaultSchedule {
    /// Generate `domain.events` faults deterministically from `seed`.
    ///
    /// The mix leans on fiber cuts (the paper's headline threat) but
    /// covers every device fault class; roughly one in four device
    /// faults is permanent (`failures == u32::MAX`), exercising the
    /// quarantine + rollback path.
    #[must_use]
    pub fn generate(seed: u64, domain: &FaultDomain) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1915_C0DE);
        let mut events = Vec::with_capacity(domain.events);
        for step in 0..domain.events {
            let kind = match below(&mut rng, 8) {
                // 3/8 fiber cuts.
                0..=2 if domain.ducts > 0 => {
                    let size = 1 + below(&mut rng, domain.max_cut_size.max(1));
                    let mut ducts: Vec<EdgeId> = Vec::new();
                    for _ in 0..size {
                        let d = below(&mut rng, domain.ducts);
                        if !ducts.contains(&d) {
                            ducts.push(d);
                        }
                    }
                    ducts.sort_unstable();
                    FaultKind::FiberCut { ducts }
                }
                3 => FaultKind::OssPortStuck {
                    site: below(&mut rng, domain.sites),
                    failures: transient_or_permanent(&mut rng),
                },
                4 => FaultKind::OssMisroute {
                    site: below(&mut rng, domain.sites),
                    failures: transient_or_permanent(&mut rng),
                },
                5 => FaultKind::TransceiverNoRelock {
                    site: below(&mut rng, domain.sites),
                    extra_attempts: 1 + below(&mut rng, 3) as u32,
                },
                6 => FaultKind::EdfaExcursion {
                    site: below(&mut rng, domain.sites),
                    delta_db: 1.0 + below(&mut rng, 5) as f64,
                    failures: 1 + below(&mut rng, 2) as u32,
                },
                _ => FaultKind::ControlMessageLoss {
                    messages: 1 + below(&mut rng, 3) as u32,
                },
            };
            events.push(FaultEvent {
                step: step as u32,
                kind,
            });
        }
        Self { seed, events }
    }

    /// The fiber-cut events, in order (the recovery-path workload).
    #[must_use]
    pub fn fiber_cuts(&self) -> Vec<&FaultEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::FiberCut { .. }))
            .collect()
    }
}

/// An armed device fault inside the injector.
#[derive(Debug, Clone)]
enum Armed {
    Stuck { site: usize, remaining: u32 },
    Misroute { site: usize, remaining: u32 },
    NoRelock { site: usize, remaining: u32 },
    Excursion { site: usize, remaining: u32 },
    MsgLoss { remaining: u32 },
}

fn transient_or_permanent(rng: &mut StdRng) -> u32 {
    if below(rng, 4) == 0 {
        u32::MAX // permanent: survives every retry, forces quarantine
    } else {
        1 + below(rng, 2) as u32 // cleared by the first or second retry
    }
}

/// Mediates every device actuation the controller performs, perturbing
/// it according to the armed faults. The controller never talks to a
/// [`SpaceSwitch`] directly during reconfiguration — it goes through
/// here, so the same code path runs faulted and unfaulted.
#[derive(Debug, Default)]
pub struct FaultInjector {
    armed: Vec<Armed>,
    /// Actuations perturbed so far (telemetry / assertions).
    pub perturbations: u64,
}

impl FaultInjector {
    /// An injector with no armed faults (production behavior).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Arm one fault. Fiber cuts are not armable here — they are
    /// topology events handled by `Controller::handle_fiber_cut`.
    pub fn arm(&mut self, kind: &FaultKind) {
        match *kind {
            FaultKind::OssPortStuck { site, failures } => self.armed.push(Armed::Stuck {
                site,
                remaining: failures,
            }),
            FaultKind::OssMisroute { site, failures } => self.armed.push(Armed::Misroute {
                site,
                remaining: failures,
            }),
            FaultKind::TransceiverNoRelock {
                site,
                extra_attempts,
            } => self.armed.push(Armed::NoRelock {
                site,
                remaining: extra_attempts,
            }),
            FaultKind::EdfaExcursion { site, failures, .. } => self.armed.push(Armed::Excursion {
                site,
                remaining: failures,
            }),
            FaultKind::ControlMessageLoss { messages } => self.armed.push(Armed::MsgLoss {
                remaining: messages,
            }),
            FaultKind::FiberCut { .. } => {}
        }
    }

    /// Whether any armed fault still has failures left to deliver.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.armed.iter().any(|a| match a {
            Armed::Stuck { remaining, .. }
            | Armed::Misroute { remaining, .. }
            | Armed::NoRelock { remaining, .. }
            | Armed::Excursion { remaining, .. }
            | Armed::MsgLoss { remaining } => *remaining > 0,
        })
    }

    /// Perform `input -> output` on `sw` at `site`, applying any armed
    /// OSS fault: a stuck port leaves the switch untouched, a misroute
    /// lands on the neighboring output port. Both *succeed* from the
    /// controller's point of view — only the verify step can tell.
    ///
    /// # Errors
    ///
    /// Propagates [`IrisError::PortOutOfRange`] from the device.
    pub fn connect(
        &mut self,
        site: usize,
        sw: &mut SpaceSwitch,
        input: usize,
        output: usize,
    ) -> Result<(), IrisError> {
        for a in &mut self.armed {
            match a {
                Armed::Stuck { site: s, remaining } if *s == site && *remaining > 0 => {
                    *remaining = remaining.saturating_sub(1);
                    self.perturbations += 1;
                    return Ok(()); // port never moved
                }
                Armed::Misroute { site: s, remaining } if *s == site && *remaining > 0 => {
                    *remaining = remaining.saturating_sub(1);
                    self.perturbations += 1;
                    let wrong = (output + 1) % sw.ports().max(1);
                    sw.connect(input, wrong)?;
                    return Ok(());
                }
                _ => {}
            }
        }
        sw.connect(input, output)?;
        Ok(())
    }

    /// Extra DSP relock attempts needed at `site` this reconfiguration
    /// (consumes the armed fault).
    pub fn relock_penalty(&mut self, sites: &[usize]) -> u32 {
        let mut extra = 0;
        for a in &mut self.armed {
            if let Armed::NoRelock { site, remaining } = a {
                if sites.contains(site) && *remaining > 0 {
                    extra += *remaining;
                    *remaining = 0;
                    self.perturbations += 1;
                }
            }
        }
        extra
    }

    /// Whether an EDFA excursion extends this reconfiguration's settle
    /// window (consumes one failure charge).
    pub fn excursion_active(&mut self, sites: &[usize]) -> bool {
        for a in &mut self.armed {
            if let Armed::Excursion { site, remaining } = a {
                if sites.contains(site) && *remaining > 0 {
                    *remaining = remaining.saturating_sub(1);
                    self.perturbations += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Number of control messages lost before this batch goes through
    /// (each costs the caller one step timeout). Consumes the charges.
    pub fn take_lost_messages(&mut self) -> u32 {
        let mut lost = 0;
        for a in &mut self.armed {
            if let Armed::MsgLoss { remaining } = a {
                lost += *remaining;
                if *remaining > 0 {
                    self.perturbations += 1;
                }
                *remaining = 0;
            }
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> FaultDomain {
        FaultDomain {
            sites: 12,
            ducts: 20,
            max_cut_size: 2,
            events: 16,
        }
    }

    #[test]
    fn schedule_is_deterministic_under_seed() {
        let a = FaultSchedule::generate(7, &domain());
        let b = FaultSchedule::generate(7, &domain());
        assert_eq!(a, b);
        let c = FaultSchedule::generate(8, &domain());
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn schedule_covers_multiple_fault_classes() {
        let s = FaultSchedule::generate(3, &domain());
        let names: std::collections::BTreeSet<&str> =
            s.events.iter().map(|e| e.kind.name()).collect();
        assert!(names.len() >= 3, "only {names:?}");
        assert!(!s.fiber_cuts().is_empty());
    }

    #[test]
    fn fiber_cut_ducts_are_sorted_unique_and_in_range() {
        let d = domain();
        let s = FaultSchedule::generate(11, &d);
        for e in s.fiber_cuts() {
            if let FaultKind::FiberCut { ducts } = &e.kind {
                assert!(!ducts.is_empty() && ducts.len() <= d.max_cut_size);
                assert!(ducts.windows(2).all(|w| w[0] < w[1]), "{ducts:?}");
                assert!(ducts.iter().all(|&x| x < d.ducts));
            }
        }
    }

    #[test]
    fn stuck_port_leaves_switch_untouched() {
        let mut sw = SpaceSwitch::new("OSS", 8);
        sw.connect(0, 3).unwrap();
        let mut inj = FaultInjector::none();
        inj.arm(&FaultKind::OssPortStuck {
            site: 4,
            failures: 1,
        });
        inj.connect(4, &mut sw, 0, 5).unwrap();
        assert_eq!(sw.output_of(0), Some(3), "stuck port must not move");
        // Second actuation succeeds: the fault was transient.
        inj.connect(4, &mut sw, 0, 5).unwrap();
        assert_eq!(sw.output_of(0), Some(5));
        assert_eq!(inj.perturbations, 1);
    }

    #[test]
    fn misroute_lands_on_neighboring_port() {
        let mut sw = SpaceSwitch::new("OSS", 8);
        let mut inj = FaultInjector::none();
        inj.arm(&FaultKind::OssMisroute {
            site: 0,
            failures: 1,
        });
        inj.connect(0, &mut sw, 2, 6).unwrap();
        assert_eq!(sw.output_of(2), Some(7), "misroute goes one port over");
    }

    #[test]
    fn faults_only_fire_at_their_site() {
        let mut sw = SpaceSwitch::new("OSS", 8);
        let mut inj = FaultInjector::none();
        inj.arm(&FaultKind::OssPortStuck {
            site: 9,
            failures: u32::MAX,
        });
        inj.connect(1, &mut sw, 0, 4).unwrap();
        assert_eq!(sw.output_of(0), Some(4), "other sites are unaffected");
    }

    #[test]
    fn message_loss_charges_are_consumed_once() {
        let mut inj = FaultInjector::none();
        inj.arm(&FaultKind::ControlMessageLoss { messages: 3 });
        assert_eq!(inj.take_lost_messages(), 3);
        assert_eq!(inj.take_lost_messages(), 0);
    }

    #[test]
    fn relock_and_excursion_penalties_target_sites() {
        let mut inj = FaultInjector::none();
        inj.arm(&FaultKind::TransceiverNoRelock {
            site: 2,
            extra_attempts: 2,
        });
        inj.arm(&FaultKind::EdfaExcursion {
            site: 5,
            delta_db: 3.0,
            failures: 1,
        });
        assert_eq!(inj.relock_penalty(&[0, 1]), 0);
        assert_eq!(inj.relock_penalty(&[2]), 2);
        assert_eq!(inj.relock_penalty(&[2]), 0, "consumed");
        assert!(!inj.excursion_active(&[2]));
        assert!(inj.excursion_active(&[5]));
        assert!(!inj.excursion_active(&[5]), "consumed");
    }
}
