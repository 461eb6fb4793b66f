//! The write path behind the shards: one mutator thread that applies,
//! fsyncs, publishes and acknowledges every batch.
//!
//! Shards enqueue [`WriteOp`]s on the bounded queue. Each pass of the
//! mutator pops a write, gathers the coalesce window, drains whatever
//! else has queued, and applies the batch through the [`ControlMachine`],
//! whose seal appends the record and fsyncs it
//! ([`crate::wal::Wal::append`]). The pass ends with the commit step
//! ([`publish_and_deliver`]): publish the snapshot, feed the replication
//! window, and only then send each write's [`DeferredReply`] back to the
//! shard holding its [`Ticket`] — acknowledge-after-durable. Writes that
//! arrive during the fsync wait in the queue and become the next batch,
//! so the disk paces batching and a slow disk backs writes up into the
//! bounded queue, where shards answer `Overloaded`.

use crate::recovery::{ControlMachine, CutReply};
use crate::replicate::{ReplEntry, REPL_LOG_CAP};
use crate::server::Shared;
use crate::state::StateSnapshot;
use crate::wal::{PersistedSnapshot, WalBatch, WalStats};
use iris_errors::IrisError;
use iris_netgraph::EdgeId;
use iris_telemetry::{trace, write_lock};
use iris_wire::{Mailbox, Ticket};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

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

/// One acknowledgement held back until its batch is durable: the
/// commit step routes these to their shards only after the fsync, so
/// every ack a client sees describes durable state.
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

/// One transition's outcome, handed to the commit step once its record
/// is durable: publish (if a snapshot was built), feed the replication
/// window, route the acks.
pub(crate) struct Commit {
    snapshot: Option<Arc<StateSnapshot>>,
    replies: Vec<(Ticket, DeferredReply)>,
    /// The batch rendered for the replication window (primary-originated
    /// and replicated batches both land here, so a freshly promoted
    /// follower can ship incrementally). Present exactly when a record
    /// was appended.
    repl_entry: Option<ReplEntry>,
    /// Writes this batch applied (`writes_applied` delta).
    applied: u64,
    /// Updates this batch absorbed by coalescing.
    coalesced: u64,
    /// The WAL's statistics after this batch; `None` when memory-only.
    wal_stats: Option<WalStats>,
    /// The WAL append failed: route the replies, then stop the server.
    fatal: bool,
}

impl Commit {
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
    ) -> Self {
        let wal_stats = machine.wal_stats();
        let snapshot = next.map(Arc::new);
        let state_crc = snapshot.as_ref().map_or(0, |next| next.state_crc());
        let before = match &snapshot {
            Some(next) => std::mem::replace(prev, Arc::clone(next)),
            None => Arc::clone(prev),
        };
        Self {
            snapshot,
            replies: acks(prev.epoch, state_crc),
            repl_entry: shipped.map(|json| ReplEntry {
                epoch: prev.epoch,
                state_crc,
                batch_json: Arc::new(json),
            }),
            applied: prev.writes_applied.saturating_sub(before.writes_applied),
            coalesced: prev.coalesced.saturating_sub(before.coalesced),
            wal_stats,
            fatal: false,
        }
    }

    /// Any failed transition: every op waiting on it is answered with
    /// `err`. Fatal iff the WAL could not be written or synced —
    /// accepting more writes would let acknowledged state evaporate on
    /// the next crash, so the server stops. Anything else (an
    /// undecodable frame, a record the machine refused before touching
    /// its state) fails only these.
    fn failed(dests: Vec<Ticket>, err: &IrisError) -> Self {
        let fatal = matches!(err, IrisError::Io { .. });
        if fatal {
            iris_telemetry::global()
                .counter("iris_service_wal_errors_total")
                .inc();
        }
        let failure = |dest| (dest, DeferredReply::Failed(err.clone()));
        Self {
            snapshot: None,
            replies: dests.into_iter().map(failure).collect(),
            repl_entry: None,
            applied: 0,
            coalesced: 0,
            wal_stats: None,
            fatal,
        }
    }
}

/// The single writer: pop a write, gather the coalesce window, apply the
/// batch through the [`ControlMachine`] (which appends and fsyncs its
/// record), and hand the outcome to `commit`. Returns once shutdown is
/// raised, the queue closes, or `commit` answers false.
pub(crate) fn mutator_loop(
    mut machine: ControlMachine<'_>,
    rx: &Receiver<WriteOp>,
    shutdown: &AtomicBool,
    window: Duration,
    mut commit: impl FnMut(Commit) -> bool,
    boot_snap: Arc<StateSnapshot>,
) {
    // The last snapshot this thread built; the next batch chains off it.
    let mut prev = boot_snap;

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
            // Every batch is one trace rooted at `write_batch`: the
            // queue-wait and coalesce windows, then apply, the WAL append
            // and fsync, the snapshot build and the publish, all on this
            // thread.
            let batch_trace = trace::mint_trace_id();
            let batch_span = trace::root_span(batch_trace, "write_batch");
            trace::emit_window("queue_wait", first_enqueued, popped);
            trace::emit_window("coalesce", popped, drained);

            let outcome = match machine.apply_batch(&prev, &updates, coalesced_now, &cut_sets) {
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
                    Commit::committed(&machine, &mut prev, next, shipped, acks)
                }
                Err(e) => {
                    update_dests.append(&mut cut_dests);
                    Commit::failed(update_dests, &e)
                }
            };
            let carry_on = commit(outcome);
            drop(batch_span);
            let batch_ms = popped.elapsed().as_secs_f64() * 1e3;
            trace::note_if_slow("write_batch", batch_ms, batch_trace);
            if !carry_on {
                return;
            }
        }

        for (dest, op) in repl_ops {
            // Each replicated op is a trace of its own, so a follower's
            // WAL append, fsync and publish are recorded too.
            let _span = trace::root_span(trace::mint_trace_id(), "apply_replicated");
            if !commit(apply_repl_op(&mut machine, &mut prev, dest, op)) {
                return;
            }
        }
    }
}

/// Apply one replication op: decode the shipped WAL batch or snapshot
/// and put it through the [`ControlMachine`]. The commit step sends the
/// `ReplicateAck`; an epoch-chain gap or an undecodable frame fails only
/// this request (the primary falls back to `SyncState`).
fn apply_repl_op(
    machine: &mut ControlMachine<'_>,
    prev: &mut Arc<StateSnapshot>,
    dest: Ticket,
    op: ReplOp,
) -> Commit {
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
            Commit::committed(machine, prev, Some(next), shipped, ack)
        }
        Err(err) => Commit::failed(vec![dest], &err),
    }
}

/// The commit step `serve` hands the mutator: publish the snapshot
/// (rebuilding the pre-serialized read buffers), feed the replication
/// window, and only then send the acknowledgements back to their
/// shards. Answers false once the server must stop.
pub(crate) fn publish_and_deliver<'a>(
    shared: &'a Shared,
    mailbox: &'a Mailbox<DeferredReply>,
) -> impl FnMut(Commit) -> bool + 'a {
    let telemetry = iris_telemetry::global();
    let batches_c = telemetry.counter("iris_service_group_commit_batches");
    let epoch_g = telemetry.gauge("iris_service_epoch");
    let writes_c = telemetry.counter("iris_service_writes_applied_total");
    let coalesced_c = telemetry.counter("iris_service_coalesced_total");
    let queue_g = telemetry.gauge("iris_service_queue_depth");

    move |commit: Commit| {
        let mut fatal = commit.fatal;
        // A WAL record was appended and fsync'd.
        if commit.wal_stats.is_some() && commit.repl_entry.is_some() {
            batches_c.inc();
        }
        let mut published = false;
        if let Some(next) = commit.snapshot {
            epoch_g.set(next.epoch as i64);
            let _publish = trace::span("publish");
            match shared.facts.publish(next) {
                Ok(p) => {
                    *write_lock(&shared.published) = Arc::new(p);
                    published = true;
                }
                Err(_) => fatal = true,
            }
        }

        // The record is durable by now, so replicator threads may ship
        // it: they must never ship a batch that could still evaporate in
        // a crash.
        if let (Some(entry), false) = (commit.repl_entry, fatal) {
            let log = shared.repl_log.lock();
            let mut log = log.unwrap_or_else(PoisonError::into_inner);
            log.push_back(entry);
            while log.len() > REPL_LOG_CAP {
                log.pop_front();
            }
        }

        writes_c.add(commit.applied);
        coalesced_c.add(commit.coalesced);
        if let Some(stats) = commit.wal_stats {
            shared.wal_records.store(stats.records, Ordering::Relaxed);
            shared.wal_bytes.store(stats.bytes, Ordering::Relaxed);
            let fsync_us = (stats.last_fsync_ms * 1e3) as u64;
            shared.last_fsync_us.store(fsync_us, Ordering::Relaxed);
        }
        let consumed = commit.replies.len();
        let depth = shared
            .queue_depth
            .fetch_sub(consumed, Ordering::SeqCst)
            .saturating_sub(consumed);
        queue_g.set(depth as i64);

        // Acknowledge-after-durable: deferred replies leave only now.
        // Every shard is woken after a publish so parked epoch-waits
        // (`GetPlanAt`) notice the new epoch promptly.
        mailbox.deliver(commit.replies, published);
        if fatal {
            shared.shutdown.store(true, Ordering::SeqCst);
            mailbox.deliver(None, true);
        }
        !fatal
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
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::TrySendError;

    /// A stalled fsync stops the mutator, so writes back up into the
    /// bounded queue until `try_send` is `Full`, which the shard answers
    /// with `IrisError::Overloaded`. The commit step runs on the mutator
    /// right after its batch's fsync, so one that blocks stands in for a
    /// disk that does not return.
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
        let popped = AtomicUsize::new(0);
        let &(a, b) = boot.allocation.keys().next().expect("a seeded pair");
        let machine =
            ControlMachine::new(&region, &goals, provisioning, &controller, cuts, None, 0);

        const QUEUE: usize = 4;
        std::thread::scope(|s| {
            // The queue's sender and the release switch live in this
            // closure, so a failed assertion drops them and frees the
            // mutator.
            let (tx, rx) = mpsc::sync_channel(QUEUE);
            let (release, stalled) = mpsc::channel::<()>();
            let (shutdown, popped) = (&shutdown, &popped);
            let mutator = s.spawn(move || {
                // Count the batch, then block until the test lets go;
                // released, the step answers false and the mutator stops.
                let commit = |c: Commit| {
                    popped.fetch_add(c.replies.len(), Ordering::SeqCst);
                    stalled.recv().is_ok()
                };
                mutator_loop(machine, &rx, shutdown, Duration::ZERO, commit, boot);
            });
            // One write per pause, so a mutator that is free pops each on
            // its own. It stalls in its first commit, holding at most what
            // had queued by then, so the queue fills within 3 × QUEUE
            // writes.
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

            drop(release);
            mutator.join().expect("mutator thread");
            let popped = popped.load(Ordering::SeqCst);
            assert_eq!(popped + QUEUE, accepted, "the mutator stopped popping");
        });
    }
}
