//! The crash-recovery chaos sweep behind `iris chaos --crash`.
//!
//! Each scenario drives the service's real durability machinery — a
//! [`ControlMachine`] over a real [`Wal`] on disk — through a seeded
//! batch workload, kills it at a seeded crash point (optionally tearing
//! or corrupting the log tail the way a real crash would), recovers with
//! [`iris_service::recover`], and diffs the recovered state against an
//! uninterrupted same-seed reference run using the canonical JSON
//! rendering of [`StateSnapshot`]. The sweep then replays the remaining
//! batches on the recovered machine and checks the *final* states match
//! byte-for-byte too: a crash must be invisible once replay catches up.
//!
//! Everything serialized into [`CrashReport`] is a pure function of the
//! seed — recovery *cost* is reported as the modeled
//! `replay_reconfig_ms`, never wall-clock — so the `crash` CI job can
//! diff two runs byte-for-byte.

use iris_control::Controller;
use iris_errors::{IrisError, IrisResult};
use iris_fibermap::Region;
use iris_planner::topology::{provision, Provisioning};
use iris_planner::DesignGoals;
use iris_service::wal::{DurableState, Wal, WAL_FILE};
use iris_service::{recover, ControlMachine, StateSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::chaos::Distribution;

/// Crash sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashConfig {
    /// Master seed; scenario `s` derives its workload from `seed + s`.
    pub seed: u64,
    /// Number of crash scenarios.
    pub scenarios: usize,
    /// DCs in the synthetic region.
    pub n_dcs: usize,
    /// Planner cut tolerance `k`.
    pub cuts: usize,
    /// Write batches per scenario workload.
    pub batches: usize,
}

impl Default for CrashConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            scenarios: 9,
            n_dcs: 5,
            cuts: 1,
            batches: 8,
        }
    }
}

/// How the process dies at the crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashMode {
    /// The process is killed between batches: the log ends on a clean
    /// record boundary and recovery loses nothing.
    CleanKill,
    /// Killed mid-append: a partial record (header promising bytes that
    /// never hit the disk) is left on the tail. Salvage drops it.
    TornTail,
    /// The final record's payload is damaged on disk, so its CRC no
    /// longer matches. Salvage drops the whole record: recovery lands on
    /// the last *consistent* batch, one before the crash point.
    BadCrcTail,
}

impl CrashMode {
    fn for_scenario(s: usize) -> Self {
        match s % 3 {
            0 => CrashMode::CleanKill,
            1 => CrashMode::TornTail,
            _ => CrashMode::BadCrcTail,
        }
    }

    /// How many applied batches the mode destroys.
    fn batches_lost(self) -> usize {
        match self {
            CrashMode::CleanKill | CrashMode::TornTail => 0,
            CrashMode::BadCrcTail => 1,
        }
    }
}

/// What happened in one crash scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashOutcome {
    /// Scenario index.
    pub scenario: usize,
    /// The scenario's workload seed.
    pub seed: u64,
    /// How the process died.
    pub mode: CrashMode,
    /// Batches applied before the crash.
    pub crash_after: usize,
    /// Batches the crash destroyed (0 except `BadCrcTail`).
    pub batches_lost: usize,
    /// WAL records salvage kept at recovery.
    pub salvaged_records: u64,
    /// Bytes salvage dropped from the log tail.
    pub truncated_bytes: u64,
    /// Epoch the recovered snapshot republished at.
    pub recovered_epoch: u64,
    /// Modeled reconfiguration cost of replay, ms (deterministic).
    pub replay_reconfig_ms: f64,
    /// Recovered state == reference state at the surviving batch count.
    pub recovered_identical: bool,
    /// After replaying the remaining batches, final state == the
    /// uninterrupted run's final state.
    pub final_identical: bool,
}

/// The sweep's aggregate result (what `results/crash_recovery.json`
/// holds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashReport {
    /// The sweep configuration.
    pub config: CrashConfig,
    /// Ducts in the region the sweep ran on.
    pub ducts: usize,
    /// Per-scenario outcomes.
    pub outcomes: Vec<CrashOutcome>,
    /// Distribution of modeled replay costs, ms.
    pub replay_reconfig_ms: Distribution,
    /// Every scenario recovered byte-identically to its reference.
    pub all_recovered_identical: bool,
    /// Every scenario converged to the reference final state.
    pub all_final_identical: bool,
}

/// One scripted write batch: demand updates plus at most one fiber cut.
/// The cut duct is resolved at application time (the first duct of the
/// first allocated pair's *current* path), so it is a deterministic
/// function of the state — identical in reference, crashed, and
/// recovered runs.
#[derive(Debug, Clone)]
struct ScriptedBatch {
    /// `(pair_index, circuits)` — resolved against the boot allocation.
    updates: Vec<(usize, u32)>,
    cut: bool,
}

/// Seeded workload: every batch carries at least one update (so every
/// batch publishes and consumes an epoch), and exactly one mid-sequence
/// batch also cuts a fiber.
fn script(seed: u64, batches: usize, n_pairs: usize) -> Vec<ScriptedBatch> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        // xorshift64*: small, seedable, good enough to scatter a script.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let cut_at = batches / 2;
    (0..batches)
        .map(|b| {
            let n_updates = 1 + (next() % 2) as usize;
            let updates = (0..n_updates)
                .map(|_| {
                    let pair = (next() % n_pairs as u64) as usize;
                    let circuits = 1 + (next() % 4) as u32;
                    (pair, circuits)
                })
                .collect();
            ScriptedBatch {
                updates,
                cut: b == cut_at,
            }
        })
        .collect()
}

/// A unique, throwaway WAL directory. Never serialized into the report.
/// The counter keeps concurrent sweeps in one process (parallel tests)
/// out of each other's directories.
fn scratch_dir(label: &str, scenario: usize) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join("iris-crash-sweep").join(format!(
        "{}-{unique}-{label}-s{scenario}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boot a fresh controller + machine pair over `dir` (or memory-only
/// when `dir` is `None`) and return the boot snapshot too.
fn boot<'r>(
    region: &'r Region,
    goals: &'r DesignGoals,
    prov: &'r Provisioning,
    controller: &'r Controller,
    dir: Option<&Path>,
) -> IrisResult<(ControlMachine<'r>, StateSnapshot)> {
    let (wal, durable) = match dir {
        Some(d) => {
            let (wal, durable) = Wal::open(d)?;
            (Some(wal), durable)
        }
        None => (None, DurableState::empty()),
    };
    let (snap, active_cuts, _) = recover(region, goals, prov, controller, &durable)?;
    Ok((
        ControlMachine::new(region, goals, prov, controller, active_cuts, wal, 0),
        snap,
    ))
}

/// Apply one scripted batch; the workload guarantees it publishes.
fn apply(
    machine: &mut ControlMachine<'_>,
    prev: &StateSnapshot,
    batch: &ScriptedBatch,
    pairs: &[(usize, usize)],
) -> IrisResult<StateSnapshot> {
    let mut updates: BTreeMap<(usize, usize), u32> = BTreeMap::new();
    for &(pair, circuits) in &batch.updates {
        updates.insert(pairs[pair], circuits);
    }
    let cuts: Vec<Vec<usize>> = if batch.cut {
        let duct = prev
            .paths
            .values()
            .next()
            .and_then(|p| p.edges.first())
            .copied()
            .ok_or_else(|| IrisError::Unreachable {
                what: "no path to cut in scripted batch".to_owned(),
            })?;
        vec![vec![duct]]
    } else {
        Vec::new()
    };
    let result = machine.apply_batch(prev, &updates, 0, &cuts)?;
    result.snapshot.ok_or_else(|| IrisError::ReplayFailed {
        detail: "scripted batch unexpectedly applied nothing".to_owned(),
    })
}

/// Damage the log tail the way the scenario's crash mode would.
fn inflict(mode: CrashMode, log: &Path) -> IrisResult<()> {
    let io_err = |e: std::io::Error| IrisError::Io {
        detail: format!("crash harness cannot damage {}: {e}", log.display()),
    };
    match mode {
        CrashMode::CleanKill => Ok(()),
        CrashMode::TornTail => {
            let mut bytes = std::fs::read(log).map_err(io_err)?;
            bytes.extend_from_slice(&96u32.to_be_bytes());
            bytes.extend_from_slice(&0u32.to_be_bytes());
            bytes.extend_from_slice(b"torn");
            std::fs::write(log, &bytes).map_err(io_err)
        }
        CrashMode::BadCrcTail => {
            let mut bytes = std::fs::read(log).map_err(io_err)?;
            let n = bytes.len();
            if n < 16 {
                return Err(IrisError::Io {
                    detail: format!("log too short to corrupt ({n} bytes)"),
                });
            }
            // Flip one byte inside the final record's payload.
            bytes[n - 1] ^= 0xFF;
            std::fs::write(log, &bytes).map_err(io_err)
        }
    }
}

/// Run the crash sweep. Deterministic: same config, same report.
///
/// # Errors
///
/// [`IrisError::Infeasible`] if the synthetic region cannot be planned
/// at the requested tolerance; propagates any WAL, replay or controller
/// error (none are expected — an error here is a durability bug).
pub fn run_crash(cfg: &CrashConfig) -> IrisResult<CrashReport> {
    let region = crate::simple_region(cfg.seed, cfg.n_dcs);
    let goals = DesignGoals::with_cuts(cfg.cuts);
    let prov = provision(&region, &goals);
    if !prov.infeasible.is_empty() {
        return Err(IrisError::Infeasible {
            detail: format!(
                "region (seed {}, {} DCs) has {} infeasible (pair, scenario) combos at k={}",
                cfg.seed,
                cfg.n_dcs,
                prov.infeasible.len(),
                cfg.cuts
            ),
        });
    }
    let batches = cfg.batches.max(2);

    let mut outcomes = Vec::with_capacity(cfg.scenarios);
    for s in 0..cfg.scenarios {
        outcomes.push(run_scenario(s, cfg, batches, &region, &goals, &prov)?);
    }

    let replay: Vec<f64> = outcomes.iter().map(|o| o.replay_reconfig_ms).collect();
    Ok(CrashReport {
        config: *cfg,
        ducts: region.map.graph().edge_count(),
        replay_reconfig_ms: Distribution::from_samples(&replay),
        all_recovered_identical: outcomes.iter().all(|o| o.recovered_identical),
        all_final_identical: outcomes.iter().all(|o| o.final_identical),
        outcomes,
    })
}

fn run_scenario(
    s: usize,
    cfg: &CrashConfig,
    batches: usize,
    region: &Region,
    goals: &DesignGoals,
    prov: &Provisioning,
) -> IrisResult<CrashOutcome> {
    let seed = cfg.seed.wrapping_add(s as u64);
    let mode = CrashMode::for_scenario(s);

    // Reference: an uninterrupted run of the whole workload, memory-only
    // (the WAL cannot change what a batch computes). Keep the canonical
    // state after every prefix — the crash run is diffed against these.
    let ref_controller = Controller::for_region(region, goals);
    let (mut ref_machine, boot_snap) = boot(region, goals, prov, &ref_controller, None)?;
    let pairs: Vec<(usize, usize)> = boot_snap.allocation.keys().copied().collect();
    let workload = script(seed, batches, pairs.len());
    let mut canon = Vec::with_capacity(batches + 1);
    canon.push(boot_snap.canonical_json());
    let mut state = boot_snap;
    for batch in &workload {
        state = apply(&mut ref_machine, &state, batch, &pairs)?;
        canon.push(state.canonical_json());
    }

    // Crash run: same workload over a real WAL, died after `crash_after`
    // batches, tail damaged per the mode.
    let dir = scratch_dir("crash", s);
    let crash_after = 1 + (seed % (batches as u64 - 1)) as usize;
    {
        let controller = Controller::for_region(region, goals);
        let (mut machine, boot_snap) = boot(region, goals, prov, &controller, Some(&dir))?;
        let mut state = boot_snap;
        for batch in &workload[..crash_after] {
            state = apply(&mut machine, &state, batch, &pairs)?;
        }
        // `machine` (and the open Wal) drop here: the process is dead.
    }
    inflict(mode, &dir.join(WAL_FILE))?;

    // Recover, diff against the reference prefix, then replay the rest
    // of the workload and diff the finals.
    let survived = crash_after - mode.batches_lost();
    let controller = Controller::for_region(region, goals);
    let (wal, durable) = Wal::open(&dir)?;
    let salvaged_records = durable.salvage.records;
    let truncated_bytes = durable.salvage.truncated_bytes;
    let (recovered, active_cuts, stats) = recover(region, goals, prov, &controller, &durable)?;
    let recovered_identical = recovered.canonical_json() == canon[survived];

    let mut machine =
        ControlMachine::new(region, goals, prov, &controller, active_cuts, Some(wal), 0);
    let mut state = recovered;
    for batch in &workload[survived..] {
        state = apply(&mut machine, &state, batch, &pairs)?;
    }
    let final_identical = state.canonical_json() == canon[batches];
    drop(machine);
    let _ = std::fs::remove_dir_all(&dir);

    Ok(CrashOutcome {
        scenario: s,
        seed,
        mode,
        crash_after,
        batches_lost: mode.batches_lost(),
        salvaged_records,
        truncated_bytes,
        recovered_epoch: stats.recovered_epoch,
        replay_reconfig_ms: stats.replay_reconfig_ms,
        recovered_identical,
        final_identical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CrashConfig {
        CrashConfig {
            seed: 7,
            scenarios: 3,
            n_dcs: 5,
            cuts: 1,
            batches: 5,
        }
    }

    #[test]
    fn crash_sweep_is_deterministic() {
        let a = run_crash(&tiny()).expect("plannable");
        let b = run_crash(&tiny()).expect("plannable");
        assert_eq!(a, b);
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb, "byte-identical JSON under one seed");
    }

    #[test]
    fn every_mode_recovers_byte_identically() {
        // 3 scenarios = one of each crash mode.
        let report = run_crash(&tiny()).expect("plannable");
        assert_eq!(report.outcomes.len(), 3);
        let modes: Vec<CrashMode> = report.outcomes.iter().map(|o| o.mode).collect();
        assert_eq!(
            modes,
            vec![
                CrashMode::CleanKill,
                CrashMode::TornTail,
                CrashMode::BadCrcTail
            ]
        );
        assert!(report.all_recovered_identical, "{report:?}");
        assert!(report.all_final_identical, "{report:?}");
        for o in &report.outcomes {
            assert!(o.replay_reconfig_ms > 0.0, "{o:?}");
            match o.mode {
                CrashMode::CleanKill => {
                    assert_eq!(o.truncated_bytes, 0);
                    assert_eq!(o.salvaged_records as usize, o.crash_after);
                }
                CrashMode::TornTail => {
                    assert_eq!(o.truncated_bytes, 12, "the scripted torn tail");
                    assert_eq!(o.salvaged_records as usize, o.crash_after);
                }
                CrashMode::BadCrcTail => {
                    assert!(o.truncated_bytes > 12, "a whole record was dropped");
                    assert_eq!(o.salvaged_records as usize, o.crash_after - 1);
                    assert_eq!(o.batches_lost, 1);
                }
            }
            assert_eq!(o.recovered_epoch as usize, o.crash_after - o.batches_lost);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_crash(&tiny()).expect("plannable");
        let b = run_crash(&CrashConfig { seed: 8, ..tiny() }).expect("plannable");
        assert_ne!(a, b);
    }

    #[test]
    fn log_salvage_state_is_consistent_after_the_sweep() {
        // The sweep removes its scratch dirs; this mostly guards against
        // the harness accidentally serializing paths or wall-clock.
        let report = run_crash(&tiny()).expect("plannable");
        let text = serde_json::to_string(&report).unwrap();
        assert!(!text.contains("tmp"), "no scratch paths in the report");
    }
}
