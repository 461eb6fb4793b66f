//! The write path behind the shards: the single mutator thread and the
//! group-commit syncer.
//!
//! Shards enqueue [`WriteOp`]s on the bounded queue. The mutator pops a
//! write, gathers the coalesce window, applies the batch through the
//! [`ControlMachine`] (which appends it to the WAL *without* fsyncing)
//! and hands the result to the syncer, at most [`HANDOFF_DEPTH`] batch
//! ahead of its fsync (later writes wait in the queue for the next
//! drain). The syncer drains every batch produced while the previous
//! fsync was in flight, makes them all durable with *one* fsync,
//! publishes the newest snapshot, and only then sends each write's
//! [`DeferredReply`] back to the shard holding its [`Ticket`]:
//! acknowledge-after-durable, fsyncs amortized.

use crate::recovery::{ControlMachine, CutReply};
use crate::replicate::{ReplEntry, REPL_LOG_CAP};
use crate::server::Shared;
use crate::state::StateSnapshot;
use crate::wal::{PersistedSnapshot, WalBatch, WalStats, WalSyncHandle};
use iris_errors::IrisError;
use iris_netgraph::EdgeId;
use iris_telemetry::write_lock;
use iris_wire::{Mailbox, Ticket};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

/// Applied batches the mutator may queue behind the group fsync in flight.
pub(crate) const HANDOFF_DEPTH: usize = 1;

/// One queued write.
pub(crate) struct WriteOp {
    pub(crate) kind: WriteKind,
    /// The parked reply the acknowledgement goes to once durable.
    pub(crate) dest: Ticket,
    /// When the op entered the queue (feeds the batch trace's
    /// queue-wait span).
    pub(crate) enqueued: Instant,
}

/// What a [`WriteOp`] asks for.
pub(crate) enum WriteKind {
    Update {
        a: usize,
        b: usize,
        circuits: u32,
    },
    Cut(Vec<EdgeId>),
    /// Shipped from a primary region; applied standalone, never
    /// coalesced with local writes.
    Repl(ReplOp),
}

/// One replication op, still serialized as it came off the socket.
pub(crate) enum ReplOp {
    /// One WAL batch ([`WalBatch`] JSON), applied via
    /// [`ControlMachine::apply_replicated`].
    Batch(String),
    /// A full persisted snapshot ([`PersistedSnapshot`] JSON), adopted
    /// via [`ControlMachine::adopt_state`].
    State(String),
}

/// One acknowledgement held back until its batch's group commit: the
/// syncer routes these to their shards only after the fsync, so every
/// ack a client sees describes durable state.
pub(crate) enum DeferredReply {
    /// A fiber-cut outcome.
    Cut(CutReply),
    /// A demand update became durable and visible at `epoch` — the
    /// read-your-writes fence a client hands to `GetPlanAt`.
    Demand { epoch: u64 },
    /// A replicated batch (or adopted snapshot) committed at `epoch`
    /// with the follower snapshot fingerprinting to `state_crc`.
    Replicated { epoch: u64, state_crc: u32 },
    /// The operation failed (WAL error, epoch-chain gap, ...).
    Failed(IrisError),
}

/// One applied batch handed from the mutator to the syncer for group
/// commit: fsync (if a record was appended), publish, route the acks.
pub(crate) struct SyncMsg {
    snapshot: Option<Arc<StateSnapshot>>,
    replies: Vec<(Ticket, DeferredReply)>,
    /// The batch rendered for the replication window (primary-originated
    /// and replicated batches both land here, so a freshly promoted
    /// follower can ship incrementally).
    repl_entry: Option<ReplEntry>,
    /// Whether this batch appended a WAL record the group fsync must
    /// cover.
    appended: bool,
    /// Writes this batch applied (`writes_applied` delta).
    applied: u64,
    /// Updates this batch absorbed by coalescing.
    coalesced: u64,
    /// Queue ops this batch consumed (drives the pending-write gauge).
    batch_len: usize,
    wal_stats: Option<WalStats>,
    batch_trace: u64,
    /// The WAL append failed: route the replies, then stop the server.
    fatal: bool,
}

impl SyncMsg {
    /// Any committed transition, local or replicated. `next` is the
    /// snapshot it built (`None`: every op was a no-op) and `prev`
    /// advances to it; `shipped` is the record's JSON for the
    /// replication window, present exactly when a record was appended
    /// (an adopted snapshot compacts synchronously instead). `acks` gets
    /// the epoch the ops are readable at and that state's CRC (0: none).
    fn committed(
        machine: &ControlMachine<'_>,
        prev: &mut Arc<StateSnapshot>,
        next: Option<StateSnapshot>,
        shipped: Option<String>,
        acks: impl FnOnce(u64, u32) -> Vec<(Ticket, DeferredReply)>,
        batch_trace: u64,
    ) -> Self {
        let wal_stats = machine.wal_stats();
        let snapshot = next.map(Arc::new);
        let state_crc = snapshot.as_ref().map_or(0, |next| next.state_crc());
        let before = match &snapshot {
            Some(next) => std::mem::replace(prev, Arc::clone(next)),
            None => Arc::clone(prev),
        };
        let replies = acks(prev.epoch, state_crc);
        Self {
            snapshot,
            appended: wal_stats.is_some() && shipped.is_some(),
            repl_entry: shipped.map(|json| ReplEntry {
                epoch: prev.epoch,
                state_crc,
                batch_json: Arc::new(json),
            }),
            applied: prev.writes_applied.saturating_sub(before.writes_applied),
            coalesced: prev.coalesced.saturating_sub(before.coalesced),
            batch_len: replies.len(),
            replies,
            wal_stats,
            batch_trace,
            fatal: false,
        }
    }

    /// Any failed transition: every op waiting on it is answered with
    /// `err`. Fatal iff the WAL could not be written — accepting more
    /// writes would let acknowledged state evaporate on the next crash,
    /// so the server stops. Anything else (an undecodable frame, a record
    /// the machine refused before touching its state) fails only these.
    fn failed(dests: Vec<Ticket>, err: &IrisError, batch_trace: u64) -> Self {
        let fatal = matches!(err, IrisError::Io { .. });
        if fatal {
            wal_error();
        }
        let failure = |dest| (dest, DeferredReply::Failed(err.clone()));
        Self {
            snapshot: None,
            repl_entry: None,
            appended: false,
            applied: 0,
            coalesced: 0,
            batch_len: dests.len(),
            replies: dests.into_iter().map(failure).collect(),
            wal_stats: None,
            batch_trace,
            fatal,
        }
    }
}

/// The single writer: pop a write, gather the coalesce window, apply the
/// batch through the [`ControlMachine`], hand the outcome to the syncer.
pub(crate) fn mutator_loop(
    mut machine: ControlMachine<'_>,
    rx: &Receiver<WriteOp>,
    shutdown: &AtomicBool,
    window: Duration,
    sync_tx: &SyncSender<SyncMsg>,
    boot_snap: Arc<StateSnapshot>,
) {
    machine.set_deferred_sync(true);
    // The last snapshot this thread built. `shared.cell` lags behind it
    // (publication happens in the syncer, after the group fsync), so
    // the mutator must chain batches off its own copy.
    let mut prev = boot_snap;
    // Hand one transition's outcome to the syncer; false once the
    // mutator must stop (fatal failure, or the syncer is gone).
    let send = |msg: SyncMsg| {
        let fatal = msg.fatal;
        let sent = sync_tx.send(msg).is_ok();
        if fatal {
            shutdown.store(true, Ordering::SeqCst);
        }
        sent && !fatal
    };

    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let first = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(op) => op,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        // Trace bookkeeping: queue wait is measured from the first
        // op's enqueue to its pop (FIFO queue, so it waited longest);
        // coalescing covers the gather window plus the drain.
        let first_enqueued = first.enqueued;
        let popped = Instant::now();
        let mut batch = vec![first];
        if !window.is_zero() {
            std::thread::sleep(window);
        }
        while let Ok(op) = rx.try_recv() {
            batch.push(op);
        }
        let drained = Instant::now();

        // Partition the drain: local ops coalesce into one batch, while
        // replication ops apply standalone in arrival order. A server
        // only ever sees one kind per drain in practice — shards reject
        // local writes on a follower and `Replicate` frames on a
        // primary — so the partition does not reorder anything a client
        // can observe.
        let mut updates: BTreeMap<(usize, usize), u32> = BTreeMap::new();
        let mut update_dests: Vec<Ticket> = Vec::new();
        let mut cut_sets: Vec<Vec<EdgeId>> = Vec::new();
        let mut cut_dests: Vec<Ticket> = Vec::new();
        let mut repl_ops: Vec<(Ticket, ReplOp)> = Vec::new();
        let mut coalesced_now = 0u64;
        for op in batch {
            match op.kind {
                WriteKind::Update { a, b, circuits } => {
                    if updates.insert((a, b), circuits).is_some() {
                        coalesced_now += 1;
                    }
                    update_dests.push(op.dest);
                }
                WriteKind::Cut(cuts) => {
                    cut_sets.push(cuts);
                    cut_dests.push(op.dest);
                }
                WriteKind::Repl(repl) => repl_ops.push((op.dest, repl)),
            }
        }
        if !update_dests.is_empty() || !cut_dests.is_empty() {
            // Every batch gets its own trace: the root span covers the
            // apply path, with queue-wait and coalesce windows before it
            // and commit-wait (the handoff to a busy syncer) after. The
            // group fsync + publish land under a `group_commit` root in
            // the same trace, emitted by the syncer.
            let batch_trace = iris_telemetry::trace::mint_trace_id();
            let batch_span = iris_telemetry::trace::root_span(batch_trace, "write_batch");
            iris_telemetry::trace::emit_window("queue_wait", first_enqueued, popped);
            iris_telemetry::trace::emit_window("coalesce", popped, drained);

            let msg = match machine.apply_batch(&prev, &updates, coalesced_now, &cut_sets) {
                Ok(result) => {
                    let shipped = result.batch.and_then(|r| serde_json::to_string(&r).ok());
                    // Demand acks carry the epoch their write is
                    // readable at: the batch's commit epoch, or the
                    // current one when the whole batch was a no-op.
                    let acks = |epoch, _| {
                        let demands = update_dests
                            .into_iter()
                            .map(|dest| (dest, DeferredReply::Demand { epoch }));
                        let cuts = result.cut_replies.into_iter().map(DeferredReply::Cut);
                        demands.chain(cut_dests.into_iter().zip(cuts)).collect()
                    };
                    let next = result.snapshot;
                    SyncMsg::committed(&machine, &mut prev, next, shipped, acks, batch_trace)
                }
                Err(e) => {
                    update_dests.append(&mut cut_dests);
                    SyncMsg::failed(update_dests, &e, batch_trace)
                }
            };
            let applied = Instant::now();
            if !send(msg) {
                return;
            }
            iris_telemetry::trace::emit_window("commit_wait", applied, Instant::now());
            drop(batch_span);
            iris_telemetry::trace::note_if_slow(
                "write_batch",
                popped.elapsed().as_secs_f64() * 1e3,
                batch_trace,
            );
        }

        for (dest, op) in repl_ops {
            if !send(apply_repl_op(&mut machine, &mut prev, dest, op)) {
                return;
            }
        }
    }
}

fn wal_error() {
    iris_telemetry::global()
        .counter("iris_service_wal_errors_total")
        .inc();
}

/// Apply one replication op: decode the shipped WAL batch or snapshot
/// and put it through the [`ControlMachine`]. The syncer sends the
/// `ReplicateAck` once durable; an epoch-chain gap or an undecodable
/// frame fails only this request (the primary falls back to `SyncState`).
fn apply_repl_op(
    machine: &mut ControlMachine<'_>,
    prev: &mut Arc<StateSnapshot>,
    dest: Ticket,
    op: ReplOp,
) -> SyncMsg {
    let batch_trace = iris_telemetry::trace::mint_trace_id();
    let undecodable = |what: &str, e| IrisError::Decode {
        detail: format!("{what} does not parse: {e}"),
    };
    let outcome = match op {
        ReplOp::Batch(json) => serde_json::from_str::<WalBatch>(&json)
            .map_err(|e| undecodable("replicated batch", e))
            .and_then(|record| machine.apply_replicated(prev, &record))
            .map(|next| (next, Some(json))),
        ReplOp::State(json) => serde_json::from_str::<PersistedSnapshot>(&json)
            .map_err(|e| undecodable("sync-state snapshot", e))
            .and_then(|snap| machine.adopt_state(prev, &snap))
            .map(|next| (next, None)),
    };
    match outcome {
        Ok((next, shipped)) => {
            let ack =
                |epoch, state_crc| vec![(dest, DeferredReply::Replicated { epoch, state_crc })];
            SyncMsg::committed(machine, prev, Some(next), shipped, ack, batch_trace)
        }
        Err(err) => SyncMsg::failed(vec![dest], &err, batch_trace),
    }
}

/// The group-commit thread: drain every batch the mutator produced
/// while the previous fsync was in flight, make them all durable with
/// one fsync, publish the newest snapshot (rebuilding the
/// pre-serialized read buffers), and only then send the
/// acknowledgements back to their shards.
pub(crate) fn syncer_loop(
    rx: &Receiver<SyncMsg>,
    shared: &Shared,
    handle: Option<WalSyncHandle>,
    mailbox: &Mailbox<DeferredReply>,
) {
    let telemetry = iris_telemetry::global();
    let batches_c = telemetry.counter("iris_service_group_commit_batches");
    let saved_c = telemetry.counter("iris_service_fsyncs_saved");
    let size_h = telemetry.histogram("iris_service_group_commit_size");
    let epoch_g = telemetry.gauge("iris_service_epoch");
    let writes_c = telemetry.counter("iris_service_writes_applied_total");
    let coalesced_c = telemetry.counter("iris_service_coalesced_total");
    let queue_g = telemetry.gauge("iris_service_queue_depth");

    loop {
        let first = match rx.recv() {
            Ok(msg) => msg,
            Err(_) => return, // mutator exited; nothing left to commit
        };
        let mut group = vec![first];
        while let Ok(msg) = rx.try_recv() {
            group.push(msg);
        }
        let mut fatal = group.iter().any(|m| m.fatal);
        let appended = group.iter().filter(|m| m.appended).count() as u64;
        let trace = group
            .iter()
            .rev()
            .find(|m| m.appended)
            .or_else(|| group.last())
            .map_or(0, |m| m.batch_trace);

        // The commit gets its own root span in the trace of the last
        // batch it covers: the fsync and publish happen on this thread,
        // outside the mutator's `write_batch` span stack.
        let commit_span = iris_telemetry::trace::root_span(trace, "group_commit");
        if appended > 0 {
            if let Some(h) = handle.as_ref() {
                match h.sync() {
                    Ok(ms) => shared
                        .last_fsync_us
                        .store((ms * 1e3) as u64, Ordering::Relaxed),
                    Err(_) => {
                        // Nothing in this group is durable: fail every
                        // pending ack in it and stop the server rather
                        // than acknowledge state that can evaporate.
                        wal_error();
                        fatal = true;
                        for msg in &mut group {
                            msg.snapshot = None;
                            msg.repl_entry = None;
                            for (_, reply) in &mut msg.replies {
                                *reply = DeferredReply::Failed(IrisError::Io {
                                    detail: "WAL group fsync failed".to_owned(),
                                });
                            }
                        }
                    }
                }
            }
            batches_c.add(appended);
            saved_c.add(appended - 1);
            size_h.record(appended as f64);
        }

        // Publish once per group: the newest snapshot covers them all.
        let mut published_now = false;
        if let Some(next) = group.iter().rev().find_map(|m| m.snapshot.clone()) {
            epoch_g.set(next.epoch as i64);
            let _publish = iris_telemetry::trace::span("publish");
            match shared.facts.publish(Arc::clone(&next)) {
                Ok(p) => {
                    *write_lock(&shared.published) = Arc::new(p);
                    shared.cell.store(next);
                    published_now = true;
                }
                Err(_) => fatal = true,
            }
        }
        drop(commit_span);

        // Feed the replication window only after the group fsync:
        // replicator threads must never ship a batch that could still
        // evaporate in a crash.
        if !fatal {
            let log = shared.repl_log.lock();
            let mut log = log.unwrap_or_else(PoisonError::into_inner);
            for msg in &mut group {
                if let Some(entry) = msg.repl_entry.take() {
                    log.push_back(entry);
                    while log.len() > REPL_LOG_CAP {
                        log.pop_front();
                    }
                }
            }
        }

        writes_c.add(group.iter().map(|m| m.applied).sum());
        coalesced_c.add(group.iter().map(|m| m.coalesced).sum());
        if let Some(stats) = group.iter().rev().find_map(|m| m.wal_stats) {
            shared.wal_records.store(stats.records, Ordering::Relaxed);
            shared.wal_bytes.store(stats.bytes, Ordering::Relaxed);
        }
        let consumed: usize = group.iter().map(|m| m.batch_len).sum();
        let depth = shared
            .queue_depth
            .fetch_sub(consumed, Ordering::SeqCst)
            .saturating_sub(consumed);
        queue_g.set(depth as i64);

        // Acknowledge-after-durable: deferred replies leave only now.
        // Every shard is woken after a publish so parked epoch-waits
        // (`GetPlanAt`) notice the new epoch promptly.
        mailbox.deliver(group.into_iter().flat_map(|m| m.replies), published_now);
        if fatal {
            shared.shutdown.store(true, Ordering::SeqCst);
            mailbox.deliver(None, true);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::recover;
    use crate::wal::DurableState;
    use iris_control::Controller;
    use iris_fibermap::{synth, MetroParams, PlacementParams};
    use iris_planner::{plan_iris, DesignGoals};
    use std::sync::mpsc::TrySendError;

    /// A stalled group fsync — a handoff receiver nobody drains — stops
    /// the mutator once the handoff is full, so writes back up into the
    /// bounded queue until `try_send` is `Full`, which the shard answers
    /// with `IrisError::Overloaded`. An unbounded handoff would let the
    /// mutator keep popping and the queue never fill.
    #[test]
    fn a_stalled_fsync_stops_the_mutator_and_fills_the_queue() {
        let region = synth::place_dcs(
            synth::generate_metro(&MetroParams {
                seed: 7,
                ..MetroParams::default()
            }),
            &PlacementParams {
                seed: 24,
                n_dcs: 4,
                ..PlacementParams::default()
            },
        );
        let goals = DesignGoals::with_cuts(1);
        let plan = plan_iris(&region, &goals);
        let controller = Controller::for_region(&region, &goals);
        let provisioning = &plan.provisioning;
        let (boot, cuts, _) = recover(
            &region,
            &goals,
            provisioning,
            &controller,
            &DurableState::empty(),
        )
        .unwrap();
        let boot = Arc::new(boot);
        let shutdown = AtomicBool::new(false);
        let &(a, b) = boot.allocation.keys().next().expect("a seeded pair");
        let machine =
            ControlMachine::new(&region, &goals, provisioning, &controller, cuts, None, 0);

        const QUEUE: usize = 4;
        std::thread::scope(|s| {
            // Both channel ends the test holds live in this closure, so a
            // failed assertion drops them and releases the mutator.
            let (tx, rx) = mpsc::sync_channel(QUEUE);
            let (sync_tx, sync_rx) = mpsc::sync_channel(HANDOFF_DEPTH);
            let shutdown = &shutdown;
            let mutator = s.spawn(move || {
                mutator_loop(machine, &rx, shutdown, Duration::ZERO, &sync_tx, boot);
            });
            // One write per pause, so a mutator that is free pops each on
            // its own. Each batch it can take before stalling holds at
            // most a full queue, so a bounded handoff fills the queue
            // within 3 × QUEUE writes.
            let mut accepted = 0;
            let full = loop {
                if accepted > 3 * QUEUE {
                    break false;
                }
                let op = WriteOp {
                    kind: WriteKind::Update {
                        a,
                        b,
                        circuits: accepted as u32 + 2,
                    },
                    dest: Ticket {
                        shard: 0,
                        token: 0,
                        gen: 0,
                        seq: accepted as u64,
                    },
                    enqueued: Instant::now(),
                };
                match tx.try_send(op) {
                    Ok(()) => accepted += 1,
                    Err(TrySendError::Full(_)) => break true,
                    Err(TrySendError::Disconnected(_)) => panic!("the mutator exited"),
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            assert!(full, "{accepted} writes in and the queue never filled");

            // Release the mutator: it hands over what it holds and stops.
            shutdown.store(true, Ordering::SeqCst);
            let handed: Vec<SyncMsg> = sync_rx.iter().collect();
            mutator.join().expect("mutator thread");
            assert!(
                handed.len() <= HANDOFF_DEPTH + 1,
                "{} batches handed to a stalled syncer",
                handed.len()
            );
            let popped: usize = handed.iter().map(|m| m.batch_len).sum();
            assert_eq!(popped + QUEUE, accepted, "the mutator stopped popping");
        });
    }
}
