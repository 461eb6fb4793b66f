//! The control-plane state machine, and crash recovery as one use of it.
//!
//! [`ControlMachine`] is the only implementation of a control-plane
//! transition. Three private steps compose into every way state changes:
//!
//! * `restore` — the boot seed or a [`PersistedSnapshot`] becomes the
//!   controller's allocation, the cut set and the snapshot to publish;
//! * `replay` — one durable [`WalBatch`] on top of a snapshot: validate,
//!   fold the updates into the allocation, re-run recovery against each
//!   stored *cumulative* cut set adopting its stored
//!   [`RecoverySummary`] verbatim, then seal;
//! * `seal` — the tail every committed record shares: append it to the
//!   WAL and fsync it, build the per-pair paths and the
//!   [`StateSnapshot`], compact when due.
//!
//! The live [`ControlMachine::apply_batch`] executes its operations into
//! a record and seals it; a follower's
//! [`ControlMachine::apply_replicated`] *is* `replay` with the WAL
//! attached; [`ControlMachine::adopt_state`] *is* `restore` behind an
//! epoch guard, plus a compaction; [`recover`] is `restore` then `replay`
//! per WAL record on a machine with no WAL. Paths are a function of the
//! cut set alone, so primary, follower and recovered server publish
//! byte-identical snapshots at every epoch: they ran the same function
//! on the same records.
//!
//! **Validation.** `replay` and `restore` take records from a peer's
//! socket and from disk, so both check them before the controller, the
//! cut set or the WAL is touched: every DC pair is `a < b < n_dcs`,
//! every duct id `< ducts`, a record's epoch extends the chain
//! ([`chain_end`]). From either source, input that parses but cannot be
//! replayed on this region is [`IrisError::ReplayFailed`], and a refused
//! record leaves the machine exactly as it was.

use crate::api::{AllocEntry, RecoverySummary};
use crate::state::{PairPath, StateSnapshot};
use crate::wal::{CutRecord, DurableState, PersistedSnapshot, Wal, WalBatch};
use iris_control::controller::{Allocation, RecoveryReport};
use iris_control::Controller;
use iris_errors::{IrisError, IrisResult};
use iris_fibermap::Region;
use iris_netgraph::EdgeId;
use iris_planner::{DesignGoals, Provisioning, ScenarioEngine};
use std::collections::BTreeMap;
use std::time::Instant;

/// What one recovery replayed, all deterministic except the wall clock
/// (which goes to telemetry only, never into serialized artifacts).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayStats {
    /// Epoch of the compacted snapshot recovery started from, if any.
    pub from_snapshot_epoch: Option<u64>,
    /// Good WAL records found by salvage.
    pub salvaged_records: u64,
    /// Bytes of torn tail dropped by salvage.
    pub truncated_bytes: u64,
    /// Records actually replayed (salvaged minus those at or below the
    /// snapshot's epoch).
    pub replayed_batches: u64,
    /// Records skipped because the snapshot was newer (a crash between
    /// snapshot rename and log truncate leaves these behind).
    pub skipped_records: u64,
    /// Sum of the *modeled* reconfiguration/recovery times of every
    /// replayed operation, ms — the deterministic recovery-cost proxy
    /// reported by the crash sweep.
    pub replay_reconfig_ms: f64,
    /// The epoch the recovered snapshot republishes at.
    pub recovered_epoch: u64,
}

/// The epoch-chain rule of replay, applied to `epochs` in log order on
/// top of a state at `base`: an epoch at or below the chain's end is
/// already covered (a crash between compaction's rename and truncate
/// leaves such records behind) and is skipped; any other must be
/// exactly the next one. Returns the epoch replay would reach.
///
/// # Errors
///
/// [`IrisError::ReplayFailed`] on a gap.
pub fn chain_end(base: u64, epochs: impl IntoIterator<Item = u64>) -> IrisResult<u64> {
    let mut end = base;
    for epoch in epochs {
        if epoch <= end {
            continue;
        }
        if epoch != end + 1 {
            let detail = format!("epoch {epoch} does not follow epoch {end}: a record is missing");
            return Err(IrisError::ReplayFailed { detail });
        }
        end = epoch;
    }
    Ok(end)
}

/// Rebuild controller state and the publishable snapshot from durable
/// state: `restore` the compacted snapshot (or the boot seed), then
/// `replay` every WAL record after it. The `controller` must be freshly
/// constructed for the region (no writes applied yet). Returns the
/// snapshot to republish, the active cut set, and what was replayed.
///
/// # Errors
///
/// [`IrisError::ReplayFailed`] if the record epochs are discontinuous,
/// or a record or the snapshot names a DC pair or duct the region does
/// not have.
pub fn recover(
    region: &Region,
    goals: &DesignGoals,
    provisioning: &Provisioning,
    controller: &Controller,
    durable: &DurableState,
) -> IrisResult<(StateSnapshot, Vec<EdgeId>, ReplayStats)> {
    let start = Instant::now();
    let mut machine =
        ControlMachine::new(region, goals, provisioning, controller, Vec::new(), None, 0);
    let (mut snapshot, mut replay_ms) = machine.restore(durable.snapshot.as_ref())?;
    let mut replayed = 0u64;
    for batch in &durable.batches {
        if let Some((next, modeled_ms)) = machine.replay(&snapshot, batch)? {
            snapshot = next;
            replay_ms += modeled_ms;
            replayed += 1;
        }
    }
    iris_telemetry::global()
        .histogram("iris_service_replay_ms")
        .record(start.elapsed().as_secs_f64() * 1e3);
    let stats = ReplayStats {
        from_snapshot_epoch: durable.snapshot.as_ref().map(|s| s.epoch),
        salvaged_records: durable.salvage.records,
        truncated_bytes: durable.salvage.truncated_bytes,
        replayed_batches: replayed,
        skipped_records: durable.batches.len() as u64 - replayed,
        replay_reconfig_ms: replay_ms,
        recovered_epoch: snapshot.epoch,
    };
    Ok((snapshot, machine.active_cuts, stats))
}

/// Outcome of one fiber-cut operation inside a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum CutReply {
    /// The cut changed the active set; recovery completed.
    Applied(RecoverySummary),
    /// Every listed duct was already severed: an idempotent no-op.
    AlreadySevered {
        /// The unchanged cumulative active cut set.
        active_cuts: Vec<usize>,
    },
    /// Recovery failed; the active set is unchanged.
    Failed(IrisError),
}

/// What [`ControlMachine::apply_batch`] did.
#[derive(Debug)]
pub struct BatchResult {
    /// The next snapshot to publish, or `None` if the batch changed
    /// nothing (every operation was an idempotent no-op) — no epoch is
    /// consumed and nothing is logged.
    pub snapshot: Option<StateSnapshot>,
    /// Per-cut-operation outcomes, in submission order.
    pub cut_replies: Vec<CutReply>,
    /// The durable record this batch produced (`Some` iff a snapshot
    /// was), whether or not a WAL is attached — the unit the federation
    /// layer ships to follower regions.
    pub batch: Option<WalBatch>,
}

/// The single writer's state: region, controller, scenario engine, the
/// active cut set, and (optionally) the write-ahead log. One instance is
/// owned by whoever plays the mutator — the server's mutator thread, the
/// crash harness, or [`recover`] for the length of one replay.
pub struct ControlMachine<'r> {
    region: &'r Region,
    goals: &'r DesignGoals,
    provisioning: &'r Provisioning,
    controller: &'r Controller,
    engine: ScenarioEngine<'r>,
    active_cuts: Vec<EdgeId>,
    wal: Option<Wal>,
    snapshot_every: u64,
}

impl<'r> ControlMachine<'r> {
    /// A machine over an already-recovered (or freshly booted)
    /// controller. `active_cuts` is the recovered cumulative cut set;
    /// `wal` is `None` for a memory-only server. `snapshot_every` is the
    /// compaction cadence in batches (0 = never compact).
    pub fn new(
        region: &'r Region,
        goals: &'r DesignGoals,
        provisioning: &'r Provisioning,
        controller: &'r Controller,
        active_cuts: Vec<EdgeId>,
        wal: Option<Wal>,
        snapshot_every: u64,
    ) -> Self {
        Self {
            engine: ScenarioEngine::new(region, goals),
            region,
            goals,
            provisioning,
            controller,
            active_cuts,
            wal,
            snapshot_every,
        }
    }

    /// The WAL's cumulative statistics; `None` when memory-only.
    #[must_use]
    pub fn wal_stats(&self) -> Option<crate::wal::WalStats> {
        self.wal.as_ref().map(Wal::stats)
    }

    /// Apply one coalesced batch of live writes: demand updates first
    /// (one reconfiguration to the merged target), then each cut
    /// operation in order, written down as a [`WalBatch`] and sealed —
    /// the record is appended and fsync'd *before*
    /// the snapshot is handed back for publication. A batch that applied
    /// nothing returns no snapshot and writes no record. The operations
    /// are the caller's own, already checked (the shards refuse an
    /// out-of-range pair or duct before queueing it).
    ///
    /// # Errors
    ///
    /// [`IrisError::Io`] / [`IrisError::Decode`] if the WAL append or
    /// compaction fails — the controller state is already advanced, so
    /// callers should treat this as fatal for durability.
    pub fn apply_batch(
        &mut self,
        prev: &StateSnapshot,
        updates: &BTreeMap<(usize, usize), u32>,
        coalesced_now: u64,
        cuts_ops: &[Vec<EdgeId>],
    ) -> IrisResult<BatchResult> {
        let mut writes_applied_now = 0u64;
        let mut cut_records: Vec<CutRecord> = Vec::new();
        let mut cut_replies = Vec::with_capacity(cuts_ops.len());

        // Child spans (controller reconfigurations, per-phase modeled
        // steps) nest under "apply" when the mutator opened a batch
        // trace; replay and the crash harness run with no trace and
        // record nothing.
        let apply_span = iris_telemetry::trace::span("apply");

        if !updates.is_empty() {
            let target = updates.iter().map(|(&pair, &circuits)| (pair, circuits));
            let modeled_ms = self.reconfigure(self.controller.allocation(), target);
            iris_telemetry::global()
                .histogram("iris_service_reconfig_ms")
                .record(modeled_ms);
            writes_applied_now += updates.len() as u64;
        }

        for cuts in cuts_ops {
            let mut merged = self.active_cuts.clone();
            merged.extend(cuts.iter().copied());
            merged.sort_unstable();
            merged.dedup();
            if merged == self.active_cuts {
                // Every listed duct is already severed. Re-running
                // recovery would take a different (cheaper) path and
                // re-actuate healthy circuits; answer the typed no-op
                // instead and leave epoch, counters and WAL untouched.
                cut_replies.push(CutReply::AlreadySevered {
                    active_cuts: merged,
                });
                continue;
            }
            match self.cut(merged) {
                Ok(report) => {
                    writes_applied_now += 1;
                    let summary = RecoverySummary {
                        cuts: report.cuts.clone(),
                        within_tolerance: report.within_tolerance,
                        fully_recovered: report.fully_recovered(),
                        shed_pairs: report.shed_pairs.len(),
                        detection_ms: report.detection_ms,
                        replan_ms: report.replan_ms,
                        reconfig_ms: report.reconfig.total_ms,
                        recovery_ms: report.recovery_ms,
                    };
                    cut_records.push(CutRecord {
                        cuts: self.active_cuts.clone(),
                        recovery: summary.clone(),
                    });
                    cut_replies.push(CutReply::Applied(summary));
                }
                Err(e) => cut_replies.push(CutReply::Failed(e)),
            }
        }
        drop(apply_span);

        if writes_applied_now == 0 && coalesced_now == 0 {
            // Nothing applied (all no-ops or failures): no epoch, no
            // record, no publish — a restarted server replays the same
            // epoch sequence as one that never saw the no-op.
            return Ok(BatchResult {
                snapshot: None,
                cut_replies,
                batch: None,
            });
        }

        let record = WalBatch {
            epoch: prev.epoch + 1,
            updates: updates
                .iter()
                .map(|(&(a, b), &circuits)| AllocEntry { a, b, circuits })
                .collect(),
            cuts: cut_records,
            writes_applied: writes_applied_now,
            coalesced: coalesced_now,
        };
        let next = self.seal(prev, &record)?;
        Ok(BatchResult {
            snapshot: Some(next),
            cut_replies,
            batch: Some(record),
        })
    }

    /// Apply one batch shipped from a primary region — the follower half
    /// of WAL-shipping replication, and exactly the `replay` step
    /// [`recover`] runs per WAL record, with this machine's own WAL
    /// attached: the follower's next snapshot is byte-identical to the
    /// primary's at the same epoch, and its log to the primary's log.
    ///
    /// # Errors
    ///
    /// [`IrisError::ReplayFailed`] if `batch.epoch` is not
    /// `prev.epoch + 1`, or the batch names a pair or duct this region
    /// does not have — the machine is untouched; [`IrisError::Io`] /
    /// [`IrisError::Decode`] on WAL failure.
    pub fn apply_replicated(
        &mut self,
        prev: &StateSnapshot,
        batch: &WalBatch,
    ) -> IrisResult<StateSnapshot> {
        match self.replay(prev, batch)? {
            Some((next, _)) => Ok(next),
            None => Err(IrisError::ReplayFailed {
                detail: format!(
                    "replicated batch epoch {} does not advance local epoch {}",
                    batch.epoch, prev.epoch
                ),
            }),
        }
    }

    /// Adopt a full persisted snapshot shipped by a primary — the resync
    /// path for a follower that fell behind the primary's in-memory
    /// replication window. This is the `restore` step [`recover`] boots
    /// from, guarded so adoption never rewinds the chain, followed by a
    /// compaction of the follower's own WAL to the adopted state.
    ///
    /// # Errors
    ///
    /// [`IrisError::ReplayFailed`] if the snapshot does not advance the
    /// local epoch, or names a pair or duct this region does not have —
    /// the machine is untouched; [`IrisError::Io`] /
    /// [`IrisError::Decode`] on WAL failure.
    pub fn adopt_state(
        &mut self,
        prev: &StateSnapshot,
        snap: &PersistedSnapshot,
    ) -> IrisResult<StateSnapshot> {
        if snap.epoch <= prev.epoch && prev.epoch != 0 {
            return Err(IrisError::ReplayFailed {
                detail: format!(
                    "sync-state epoch {} does not advance local epoch {}",
                    snap.epoch, prev.epoch
                ),
            });
        }
        let (next, _) = self.restore(Some(snap))?;
        if let Some(wal) = &mut self.wal {
            wal.compact(snap)?;
        }
        Ok(next)
    }

    /// Put the controller, the cut set and the published view in the
    /// state `base` describes, or — with no base — in the boot seed
    /// every fresh server starts from: one circuit per reachable pair at
    /// epoch 0, which WAL updates are deltas against. Counters,
    /// `last_recovery` and the quarantine set are carried verbatim (the
    /// fault-free service path never quarantines, so the controller
    /// could not reconstruct one). Also returns the modeled cost, ms;
    /// booting the seed is not replayed work and counts 0.
    fn restore(&mut self, base: Option<&PersistedSnapshot>) -> IrisResult<(StateSnapshot, f64)> {
        let Some(snap) = base else {
            let seed = self.controller.current_paths().into_keys();
            self.reconfigure(Allocation::new(), seed.map(|pair| (pair, 1)));
            self.active_cuts.clear();
            let boot = self.snapshot(0, self.controller.quarantined(), 0, 0, None);
            return Ok((boot, 0.0));
        };
        self.validate("snapshot", snap.epoch, &snap.allocation, &snap.active_cuts)?;
        // Cuts first: the stored allocation is what was published *after*
        // them, and recovery run on top of it would shed again any
        // unreachable pair that has been re-provisioned since.
        self.active_cuts.clear();
        let mut modeled_ms = 0.0;
        if !snap.active_cuts.is_empty() {
            let cuts = snap.active_cuts.clone();
            modeled_ms += self.cut(cuts).map_err(stored_cut_failed)?.recovery_ms;
        }
        let target = snap.allocation.iter().map(|e| ((e.a, e.b), e.circuits));
        modeled_ms += self.reconfigure(Allocation::new(), target);
        let next = self.snapshot(
            snap.epoch,
            snap.quarantined.clone(),
            snap.writes_applied,
            snap.coalesced,
            snap.last_recovery.clone(),
        );
        Ok((next, modeled_ms))
    }

    /// Replay one durable record on top of `prev`: updates reconfigure
    /// to the merged absolute target, each cut re-runs recovery against
    /// its stored *cumulative* set, and the stored summary is adopted
    /// rather than recomputed. `None` means the record is at or below
    /// `prev.epoch` — already covered, nothing done; otherwise the next
    /// snapshot and the modeled cost of the replayed operations, ms.
    fn replay(
        &mut self,
        prev: &StateSnapshot,
        batch: &WalBatch,
    ) -> IrisResult<Option<(StateSnapshot, f64)>> {
        if chain_end(prev.epoch, [batch.epoch])? == prev.epoch {
            return Ok(None);
        }
        let ducts = batch.cuts.iter().flat_map(|cut| &cut.cuts);
        self.validate("record", batch.epoch, &batch.updates, ducts)?;
        let mut modeled_ms = 0.0;
        if !batch.updates.is_empty() {
            let updates = batch.updates.iter().map(|e| ((e.a, e.b), e.circuits));
            modeled_ms += self.reconfigure(self.controller.allocation(), updates);
        }
        for cut in &batch.cuts {
            let cuts = cut.cuts.clone();
            modeled_ms += self.cut(cuts).map_err(stored_cut_failed)?.recovery_ms;
        }
        Ok(Some((self.seal(prev, batch)?, modeled_ms)))
    }

    /// Commit `record` as the successor of `prev`, the controller and
    /// cut set having already been moved to the state it describes:
    /// append it to the WAL and fsync it, build the snapshot it
    /// publishes, compact when due.
    fn seal(&mut self, prev: &StateSnapshot, record: &WalBatch) -> IrisResult<StateSnapshot> {
        if let Some(wal) = &mut self.wal {
            wal.append(record)?;
        }
        let build_span = iris_telemetry::trace::span("snapshot_build");
        let last_recovery = match record.cuts.last() {
            Some(cut) => Some(cut.recovery.clone()),
            None => prev.last_recovery.clone(),
        };
        let next = self.snapshot(
            record.epoch,
            self.controller.quarantined(),
            prev.writes_applied + record.writes_applied,
            prev.coalesced + record.coalesced,
            last_recovery,
        );
        drop(build_span);
        if let Some(wal) = &mut self.wal {
            if self.snapshot_every > 0 && wal.batches_since_compaction() >= self.snapshot_every {
                wal.compact(&PersistedSnapshot::from_state(&next))?;
            }
        }
        Ok(next)
    }

    /// Refuse input that names a DC pair or duct this region does not
    /// have. Called before anything is mutated.
    fn validate<'a>(
        &self,
        what: &str,
        epoch: u64,
        pairs: &[AllocEntry],
        ducts: impl IntoIterator<Item = &'a EdgeId>,
    ) -> IrisResult<()> {
        let (n_dcs, n_ducts) = (self.region.dcs.len(), self.region.map.duct_count());
        let detail = if let Some(e) = pairs.iter().find(|e| e.a >= e.b || e.b >= n_dcs) {
            format!(
                "{what} at epoch {epoch} names DC pair ({}, {}); pairs are a < b < {n_dcs}",
                e.a, e.b
            )
        } else if let Some(duct) = ducts.into_iter().find(|&&duct| duct >= n_ducts) {
            format!("{what} at epoch {epoch} names duct {duct}; the region has {n_ducts}")
        } else {
            return Ok(());
        };
        Err(IrisError::ReplayFailed { detail })
    }

    /// Reconfigure the controller to `target` overlaid with `updates`
    /// (absolute per-pair circuit counts; 0 removes the pair). Returns
    /// the modeled reconfiguration time, ms.
    fn reconfigure(
        &self,
        mut target: Allocation,
        updates: impl Iterator<Item = ((usize, usize), u32)>,
    ) -> f64 {
        for (pair, circuits) in updates {
            if circuits == 0 {
                target.remove(&pair);
            } else {
                target.insert(pair, circuits);
            }
        }
        self.controller.reconfigure(&target).total_ms
    }

    /// Run fiber-cut recovery against the cumulative set `cuts`, which
    /// becomes the active set if it succeeds.
    fn cut(&mut self, cuts: Vec<EdgeId>) -> IrisResult<RecoveryReport> {
        let report =
            self.controller
                .handle_fiber_cut(self.region, self.goals, self.provisioning, &cuts)?;
        self.active_cuts = cuts;
        Ok(report)
    }

    /// The snapshot the current controller and cut state publish at
    /// `epoch`: per-pair paths are whatever the scenario engine routes
    /// around the active cut set.
    fn snapshot(
        &mut self,
        epoch: u64,
        quarantined: Vec<usize>,
        writes_applied: u64,
        coalesced: u64,
        last_recovery: Option<RecoverySummary>,
    ) -> StateSnapshot {
        let mut paths = BTreeMap::new();
        self.engine
            .for_scenarios(std::slice::from_ref(&self.active_cuts), |_, view| {
                for p in view.paths() {
                    paths.insert(
                        (p.a, p.b),
                        PairPath {
                            nodes: p.nodes.clone(),
                            edges: p.edges.clone(),
                            length_km: p.length_km,
                        },
                    );
                }
            });
        StateSnapshot {
            epoch,
            allocation: self.controller.allocation(),
            paths,
            active_cuts: self.active_cuts.clone(),
            quarantined,
            writes_applied,
            coalesced,
            last_recovery,
        }
    }
}

/// A cut set stored in a record or snapshot could not be re-applied.
fn stored_cut_failed(e: IrisError) -> IrisError {
    IrisError::ReplayFailed {
        detail: format!("cannot re-apply a stored cut set: {e}"),
    }
}
