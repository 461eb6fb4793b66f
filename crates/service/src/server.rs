//! The control-plane server: wiring, shared state, and the shard
//! handler.
//!
//! Sockets, frames and reply order belong to the frame server in
//! [`iris_wire::server`]: one acceptor deals connections round-robin to
//! `N` shard event loops (see [`ServiceConfig::shards`]), and each shard
//! hands every request frame to this module's handler, one per shard.
//! The handler is the protocol: request dispatch, parked epoch waits
//! and deferred write acknowledgements.
//!
//! Reads stay epoch-published: `GetPlan` and `GetTopology` replies are
//! **pre-serialized once per epoch** (in both wire codecs, with the
//! length prefix already attached), so serving one is a memcpy from the
//! current `Published` buffer. `QueryPath` / `Health` are answered
//! from the same immutable snapshot `Arc`.
//!
//! Writes park their reply and go through the bounded queue to the
//! single mutator thread (batching + last-update-per-pair coalescing),
//! which fsyncs each batch, publishes it and only then sends each
//! acknowledgement back to its shard (`commit.rs`). While this instance
//! is the primary, one replicator thread per peer ships the published
//! batches (`replicate.rs`).
//!
//! A connection speaks JSON until it negotiates the compact binary
//! codec with [`crate::api::Request::Hello`]; the acknowledgement is
//! sent in the old codec and everything after it in the new one.

use crate::api::{
    AllocEntry, HealthInfo, PathInfo, PeerInfo, PlanSummary, Request, Response, SlowRequestInfo,
    TopologySummary, TraceDumpInfo, TraceEventInfo,
};
use crate::codec::{self, Codec};
use crate::commit::{mutator_loop, publish_and_deliver, DeferredReply, ReplOp, WriteKind, WriteOp};
use crate::frame::append_frame_with;
use crate::recovery::{self, ControlMachine, CutReply, ReplayStats};
use crate::replicate::{replicator_loop, PeerState, ReplEntry};
use crate::state::StateSnapshot;
use crate::wal::{DurableState, Wal};
use iris_control::Controller;
use iris_errors::{IrisError, IrisResult};
use iris_fibermap::Region;
use iris_planner::{plan_iris, DesignGoals};
use iris_telemetry::{labeled, read_lock, Counter, Gauge, Histogram};
use iris_wire::{Conns, FrameServer, Handler, Outbox, Ticket};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address. Port 0 picks an ephemeral port (see
    /// [`ServiceHandle::local_addr`]).
    pub addr: String,
    /// Planner cut tolerance `k` the region is provisioned for.
    pub cuts: usize,
    /// Bounded mutator-queue capacity; a full queue answers writes with
    /// [`IrisError::Overloaded`].
    pub queue_capacity: usize,
    /// Extra hold time after a batch's first write to gather (and
    /// coalesce) more, ms; default 0. With the default a batch is
    /// whatever queued while the previous batch's fsync was in flight.
    pub coalesce_window_ms: u64,
    /// Durability directory. When set, every applied write batch is
    /// appended to a write-ahead log here and fsync'd (one fsync covers
    /// every write that queued while the previous one was in flight)
    /// before its snapshot is published, and a restarted
    /// server recovers the pre-crash state from it. `None` keeps the
    /// server memory-only.
    pub wal_dir: Option<String>,
    /// Compact the log into a snapshot every this many batches
    /// (0 = never compact). Ignored without `wal_dir`.
    pub snapshot_every: u64,
    /// Whether the flight recorder traces requests and write batches
    /// (process-wide switch; `iris serve` maps `IRIS_TRACE=0` here).
    pub trace: bool,
    /// Slow-request threshold, ms: requests and batches at or above it
    /// land in the slow-request log (0 logs everything).
    pub slow_ms: f64,
    /// Event-loop shards (worker threads multiplexing connections).
    /// 0 picks one per available core, clamped to 1..=8.
    pub shards: usize,
    /// This instance's region id in a federation (0 for a standalone
    /// server).
    pub region_id: u64,
    /// Peer region addresses this instance replicates to while it is
    /// the primary. Empty for a standalone server.
    pub peers: Vec<String>,
    /// Start as a follower: local writes are rejected with
    /// [`IrisError::NotPrimary`] and state arrives via replication until
    /// a [`Request::Promote`] flips the role.
    pub follower: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7117".to_owned(),
            cuts: 1,
            queue_capacity: 64,
            coalesce_window_ms: 0,
            wal_dir: None,
            snapshot_every: 64,
            trace: true,
            slow_ms: 250.0,
            shards: 0,
            region_id: 0,
            peers: Vec::new(),
            follower: false,
        }
    }
}

impl ServiceConfig {
    /// The backoff suggested to clients hitting a full queue: long
    /// enough for at least one batch to drain.
    #[must_use]
    pub fn retry_after_ms(&self) -> u64 {
        10 + 2 * self.coalesce_window_ms
    }

    /// The effective shard count (resolves the `0 = auto` default).
    #[must_use]
    pub fn effective_shards(&self) -> usize {
        if self.shards == 0 {
            iris_planner::thread_count().clamp(1, 8)
        } else {
            self.shards.clamp(1, 32)
        }
    }
}

/// Codec-indexed slot (`[Json, Binary]`) for pre-serialized buffers.
fn cidx(codec: Codec) -> usize {
    codec as usize
}

/// The per-epoch read-path publication: the snapshot itself plus the
/// `GetPlan` / `GetTopology` replies pre-serialized in both codecs with
/// their length prefixes attached, so serving one is a single memcpy.
pub(crate) struct Published {
    snap: Arc<StateSnapshot>,
    plan_framed: [Vec<u8>; 2],
    topo_framed: [Vec<u8>; 2],
}

/// Frame `resp` (length prefix + payload) in `codec`, appending to
/// `out`. `out` is untouched on error.
fn frame_response(codec: Codec, resp: &Response, out: &mut Vec<u8>) -> IrisResult<()> {
    append_frame_with(out, None, |buf| codec.encode_into(resp, buf))
}

/// What every publication repeats: the static plan summary (`epoch` is
/// patched per publication; it also carries the DC and duct counts) and
/// the hut count.
pub(crate) struct RegionFacts {
    plan: PlanSummary,
    huts: usize,
}

impl RegionFacts {
    /// Build the [`Published`] buffers for `snap`.
    pub(crate) fn publish(&self, snap: Arc<StateSnapshot>) -> IrisResult<Published> {
        let mut plan = self.plan.clone();
        plan.epoch = snap.epoch;
        let plan_resp = Response::Plan(plan);
        let topo_resp = Response::Topology(TopologySummary {
            epoch: snap.epoch,
            dcs: self.plan.dcs,
            huts: self.huts,
            ducts: self.plan.ducts,
            active_cuts: snap.active_cuts.clone(),
            allocation: snap
                .allocation
                .iter()
                .map(|(&(a, b), &circuits)| AllocEntry { a, b, circuits })
                .collect(),
            quarantined: snap.quarantined.clone(),
        });
        let mut plan_framed = [Vec::new(), Vec::new()];
        let mut topo_framed = [Vec::new(), Vec::new()];
        for codec in [Codec::Json, Codec::Binary] {
            frame_response(codec, &plan_resp, &mut plan_framed[cidx(codec)])?;
            frame_response(codec, &topo_resp, &mut topo_framed[cidx(codec)])?;
        }
        Ok(Published {
            snap,
            plan_framed,
            topo_framed,
        })
    }
}

/// State shared by the shard handlers, the mutator and the replicators.
pub(crate) struct Shared {
    /// The one publication cell: the current snapshot and its
    /// pre-serialized replies, swapped once per epoch by the commit step.
    pub(crate) published: RwLock<Arc<Published>>,
    pub(crate) facts: RegionFacts,
    retry_after_ms: u64,
    /// Stops every thread of the server, the frame server's included.
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Writes accepted but not yet visible in a published snapshot
    /// (queued, or in the batch being applied and fsync'd). Reaching
    /// zero therefore means every acknowledged write is readable.
    pub(crate) queue_depth: AtomicUsize,
    overloaded: AtomicU64,
    /// When the server started serving (for `HealthInfo::uptime_ms`).
    start: Instant,
    /// WAL statistics mirrored out of the mutator-owned [`crate::wal::Wal`]
    /// after each commit so read threads can answer `Health`
    /// without touching the write path. Fsync latency is stored in µs
    /// to keep it atomic.
    pub(crate) wal_records: AtomicU64,
    pub(crate) wal_bytes: AtomicU64,
    pub(crate) last_fsync_us: AtomicU64,
    /// This instance's region id.
    pub(crate) region: u64,
    /// Role switch: `true` accepts local writes and replicates out,
    /// `false` rejects them with `NotPrimary` and applies `Replicate`
    /// frames instead. Flipped by [`Request::Promote`].
    pub(crate) is_primary: AtomicBool,
    /// Replication peers (config order).
    peers: Vec<Arc<PeerState>>,
    /// The bounded in-memory window of published batches the replicator
    /// threads ship from, newest at the back.
    pub(crate) repl_log: Mutex<VecDeque<ReplEntry>>,
    /// The coalesce window, used to convert replication lag from epochs
    /// into a deterministic modeled milliseconds figure.
    coalesce_window_ms: u64,
}
impl Shared {
    /// The currently published snapshot (an `Arc` clone under the lock).
    pub(crate) fn snapshot(&self) -> Arc<StateSnapshot> {
        Arc::clone(&read_lock(&self.published).snap)
    }

    /// Per-peer replication status rows for `Health` and `iris top`.
    /// Lag is measured in epochs (exact and deterministic); the modeled
    /// ms figure assumes one batch per coalesce window plus 1 ms of
    /// shipping.
    fn peer_infos(&self) -> Vec<PeerInfo> {
        let epoch = self.snapshot().epoch;
        self.peers
            .iter()
            .map(|p| {
                let acked = p.acked_epoch.load(Ordering::SeqCst);
                let lag = epoch.saturating_sub(acked);
                PeerInfo {
                    region: p.region.load(Ordering::SeqCst),
                    addr: p.addr.clone(),
                    connected: p.connected.load(Ordering::SeqCst),
                    acked_epoch: acked,
                    lag_epochs: lag,
                    lag_ms: lag as f64 * (self.coalesce_window_ms + 1) as f64,
                    reconnects: p.reconnects.load(Ordering::SeqCst),
                }
            })
            .collect()
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServiceHandle {
    shared: Arc<Shared>,
    replay: Option<ReplayStats>,
    transport: FrameServer,
    /// The mutator, then one replicator per peer.
    workers: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The bound listen address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// The currently published state snapshot (what readers see).
    #[must_use]
    pub fn current_snapshot(&self) -> Arc<StateSnapshot> {
        self.shared.snapshot()
    }

    /// What WAL recovery replayed at startup. `None` when the server
    /// runs without a `wal_dir`.
    #[must_use]
    pub fn replay_stats(&self) -> Option<&ReplayStats> {
        self.replay.as_ref()
    }

    /// Stop accepting, wake every shard, and join all server threads.
    /// The mutator acknowledges a write only after its fsync, so every
    /// acknowledged write is durable by the time this returns.
    pub fn shutdown(&mut self) {
        self.transport.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// This instance's region id.
    #[must_use]
    pub fn region_id(&self) -> u64 {
        self.shared.region
    }

    /// Whether this instance currently accepts local writes (primary)
    /// or only replicated state (follower).
    #[must_use]
    pub fn is_primary(&self) -> bool {
        self.shared.is_primary.load(Ordering::SeqCst)
    }

    /// Promote this instance to primary in-process (the wire-level
    /// equivalent is [`Request::Promote`]). Idempotent.
    pub fn promote(&self) {
        self.shared.is_primary.store(true, Ordering::SeqCst);
    }

    /// Per-peer replication status (same rows `Health` reports).
    #[must_use]
    pub fn peer_infos(&self) -> Vec<PeerInfo> {
        self.shared.peer_infos()
    }

    /// Simulate (or heal) a network partition towards `addr`: while
    /// paused, the peer's replicator drops its connection and ships
    /// nothing. Returns whether a peer with that address exists.
    pub fn set_peer_paused(&self, addr: &str, paused: bool) -> bool {
        let Some(peer) = self.shared.peers.iter().find(|p| p.addr == addr) else {
            return false;
        };
        peer.paused.store(paused, Ordering::SeqCst);
        true
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Plan the region, boot the controller — from the `wal_dir`'s durable
/// state when there is one (replaying WAL-after-snapshot), else seeded
/// with one circuit per reachable DC pair — bind the listener and start
/// serving.
///
/// # Errors
///
/// [`IrisError::Io`] if the address cannot be bound, the WAL cannot be
/// opened, or the event-loop plumbing (poller/waker) cannot be created;
/// [`IrisError::Corrupt`] / [`IrisError::ReplayFailed`] if the durable
/// state cannot be recovered (see [`crate::recovery`]).
pub fn serve(region: Region, config: &ServiceConfig) -> IrisResult<ServiceHandle> {
    iris_telemetry::trace::set_enabled(config.trace);
    iris_telemetry::trace::set_slow_threshold_ms(config.slow_ms);
    let goals = DesignGoals::with_cuts(config.cuts);
    let plan = plan_iris(&region, &goals);
    let controller = Controller::for_region(&region, &goals);

    // Boot via the recovery path in both cases: with an empty durable
    // state it reproduces the fresh-boot seed (one circuit per reachable
    // pair at epoch 0), so a recovered server and a new one share one
    // code path by construction.
    let (wal, durable) = match &config.wal_dir {
        Some(dir) => {
            let (wal, durable) = Wal::open(Path::new(dir))?;
            (Some(wal), durable)
        }
        None => (None, DurableState::empty()),
    };
    let (boot, active_cuts, stats) =
        recovery::recover(&region, &goals, &plan.provisioning, &controller, &durable)?;
    let replay = config.wal_dir.as_ref().map(|_| stats);

    let plan_summary = PlanSummary {
        epoch: 0,
        dcs: region.dcs.len(),
        ducts: region.map.duct_count(),
        used_ducts: plan.provisioning.used_edges().len(),
        cut_tolerance: goals.max_cuts,
        scenarios_examined: plan.provisioning.scenarios_examined,
        dc_transceivers: plan.dc_transceivers,
        fiber_pair_spans: plan.total_fiber_pair_spans(),
        oss_ports: plan.oss_ports(),
        feasible: plan.is_feasible(),
    };

    let listener = TcpListener::bind(&config.addr).map_err(|e| IrisError::Io {
        detail: format!("cannot bind {}: {e}", config.addr),
    })?;

    let boot_wal_stats = wal.as_ref().map(Wal::stats).unwrap_or_default();
    let boot_snap = Arc::new(boot);
    let facts = RegionFacts {
        plan: plan_summary,
        huts: region.map.huts().len(),
    };
    let published = facts.publish(Arc::clone(&boot_snap))?;
    let shared = Arc::new(Shared {
        published: RwLock::new(Arc::new(published)),
        facts,
        retry_after_ms: config.retry_after_ms(),
        shutdown: Arc::new(AtomicBool::new(false)),
        queue_depth: AtomicUsize::new(0),
        overloaded: AtomicU64::new(0),
        start: Instant::now(),
        wal_records: AtomicU64::new(boot_wal_stats.records),
        wal_bytes: AtomicU64::new(boot_wal_stats.bytes),
        last_fsync_us: AtomicU64::new(0),
        region: config.region_id,
        is_primary: AtomicBool::new(!config.follower),
        peers: config
            .peers
            .iter()
            .map(|addr| Arc::new(PeerState::new(addr)))
            .collect(),
        repl_log: Mutex::new(VecDeque::new()),
        coalesce_window_ms: config.coalesce_window_ms,
    });

    let (tx, rx) = mpsc::sync_channel::<WriteOp>(config.queue_capacity.max(1));
    let handlers = (0..config.effective_shards())
        .map(|shard| ShardHandler {
            shared: Arc::clone(&shared),
            tx: tx.clone(),
            metrics: ShardMetrics::new(shard),
            waits: Vec::new(),
        })
        .collect();
    let accept_errors = iris_telemetry::global().counter("iris_service_accept_errors");
    let (transport, mailbox) = iris_wire::server::spawn(
        listener,
        Arc::clone(&shared.shutdown),
        handlers,
        move || accept_errors.inc(),
    )?;

    let mutator = {
        let shared = Arc::clone(&shared);
        let provisioning = plan.provisioning.clone();
        let window = Duration::from_millis(config.coalesce_window_ms);
        let snapshot_every = config.snapshot_every;
        std::thread::spawn(move || {
            let machine = ControlMachine::new(
                &region,
                &goals,
                &provisioning,
                &controller,
                active_cuts,
                wal,
                snapshot_every,
            );
            let commit = publish_and_deliver(&shared, &mailbox);
            mutator_loop(machine, &rx, &shared.shutdown, window, commit, boot_snap);
        })
    };
    let replicators = shared.peers.iter().enumerate().map(|(idx, peer)| {
        let shared = Arc::clone(&shared);
        let peer = Arc::clone(peer);
        std::thread::spawn(move || replicator_loop(&shared, &peer, idx))
    });
    let workers = std::iter::once(mutator).chain(replicators).collect();

    Ok(ServiceHandle {
        shared,
        replay,
        transport,
        workers,
    })
}

/// Per-shard cached telemetry handles: registry lookups hash the metric
/// name, so the hot path resolves them once per shard instead of once
/// per request.
struct ShardMetrics {
    /// `(requests_total, latency_ms)` per op, [`Request::OPS`] order.
    ops: Vec<(Arc<Counter>, Arc<Histogram>)>,
    shard_requests: Arc<Counter>,
    connections: Arc<Counter>,
    queue_gauge: Arc<Gauge>,
    overloaded: Arc<Counter>,
}

impl ShardMetrics {
    fn new(shard: usize) -> Self {
        let t = iris_telemetry::global();
        let shard_label = shard.to_string();
        Self {
            ops: Request::OPS
                .iter()
                .map(|op| {
                    (
                        t.counter(&labeled("iris_service_requests_total", "op", op)),
                        t.histogram(&labeled("iris_service_latency_ms", "op", op)),
                    )
                })
                .collect(),
            shard_requests: t.counter(&labeled(
                "iris_service_shard_requests_total",
                "shard",
                &shard_label,
            )),
            connections: t.counter(&labeled(
                "iris_service_shard_connections_total",
                "shard",
                &shard_label,
            )),
            queue_gauge: t.gauge("iris_service_queue_depth"),
            overloaded: t.counter("iris_service_overloaded_total"),
        }
    }
}

/// What a parked reply remembers until it is filled: the codec its
/// request arrived in and what the latency record needs.
struct Parked {
    codec: Codec,
    /// The request's [`Request::op_index`].
    op: usize,
    start: Instant,
    trace_id: u64,
}

/// One parked `GetPlanAt`: filled once the published epoch reaches
/// `min_epoch`, or with a typed `Timeout` once the deadline passes.
struct EpochWait {
    ticket: Ticket,
    min_epoch: u64,
    deadline: Instant,
    wait_ms: u64,
}

/// The control-plane protocol on one shard of the frame server. The
/// per-connection state is the connection's negotiated codec.
struct ShardHandler {
    shared: Arc<Shared>,
    tx: SyncSender<WriteOp>,
    metrics: ShardMetrics,
    /// Parked `GetPlanAt` requests, serviced on every tick.
    waits: Vec<EpochWait>,
}

impl Handler for ShardHandler {
    type Conn = Codec;
    type Parked = Parked;
    type Completion = DeferredReply;

    fn open(&mut self) -> Codec {
        self.metrics.connections.inc();
        Codec::Json
    }

    fn on_frame(
        &mut self,
        codec: &mut Codec,
        out: &mut Outbox<Parked>,
        payload: &[u8],
        frame_trace: Option<u64>,
    ) {
        let start = Instant::now();
        // A client-supplied trace id (frame header) wins so the caller
        // can correlate; otherwise mint one server-side.
        let trace_id = frame_trace.unwrap_or_else(iris_telemetry::trace::mint_trace_id);
        let req = match codec::decode_request(*codec, payload) {
            Ok(req) => req,
            Err(e) => {
                // Decode errors keep the connection: the frame was
                // well-formed, so the stream stays in sync.
                deliver(out, &Response::Error(e), *codec);
                let invalid = Request::OPS.len() - 1;
                self.record(invalid, start, trace_id);
                return;
            }
        };
        let op = req.op_index();
        let span = iris_telemetry::trace::root_span(trace_id, Request::OPS[op]);
        let parked = Parked {
            codec: *codec,
            op,
            start,
            trace_id,
        };
        let answered = self.dispatch(req, codec, out, parked);
        drop(span);
        if answered {
            self.record(op, start, trace_id);
        }
    }

    /// The stream state is unknown after a framing error: answer
    /// best-effort; the frame server flushes, then closes.
    fn on_bad_frame(&mut self, codec: &mut Codec, out: &mut Outbox<Parked>, err: IrisError) {
        deliver(out, &Response::Error(err), *codec);
    }

    /// One durable acknowledgement came back from the mutator.
    fn on_completion(&mut self, conns: &mut Conns<Self>, ticket: Ticket, reply: DeferredReply) {
        let resp = match reply {
            DeferredReply::Cut(CutReply::Applied(summary)) => Response::Recovery(summary),
            DeferredReply::Cut(CutReply::AlreadySevered { active_cuts }) => {
                Response::CutAlreadyActive { active_cuts }
            }
            DeferredReply::Cut(CutReply::Failed(e)) => Response::Error(e),
            DeferredReply::Demand { epoch } => Response::DemandAccepted {
                queue_depth: self.shared.queue_depth.load(Ordering::SeqCst),
                epoch,
            },
            DeferredReply::Replicated { epoch, state_crc } => {
                Response::ReplicateAck { epoch, state_crc }
            }
            DeferredReply::Failed(err) => Response::Error(err),
        };
        self.complete(conns, ticket, |codec| framed(codec, &resp));
    }

    /// The mutator is gone with acknowledgements still pending: answer
    /// them (cuts, demand acks, replication acks, parked epoch waits
    /// alike) with a typed error instead of leaving clients hanging.
    fn on_mailbox_closed(&mut self, conns: &mut Conns<Self>) {
        let resp = Response::Error(IrisError::Io {
            detail: "mutator exited before the write committed".to_owned(),
        });
        conns.fill_outstanding(|parked| framed(parked.codec, &resp));
    }

    /// Resolve parked `GetPlanAt` requests: fill with the published
    /// plan once the epoch catches up, or with a typed `Timeout` at the
    /// deadline. The nearest deadline left bounds the shard's sleep.
    fn on_tick(&mut self, conns: &mut Conns<Self>, now: Instant) -> Option<Instant> {
        if self.waits.is_empty() {
            return None;
        }
        let published = self.published();
        let mut i = 0;
        while i < self.waits.len() {
            let ready = published.snap.epoch >= self.waits[i].min_epoch;
            if !ready && now < self.waits[i].deadline {
                i += 1;
                continue;
            }
            let wait = self.waits.swap_remove(i);
            self.complete(conns, wait.ticket, |codec| {
                if ready {
                    return published.plan_framed[cidx(codec)].clone();
                }
                let timeout = IrisError::Timeout {
                    what: format!("epoch wait for epoch {}", wait.min_epoch),
                    after_ms: wait.wait_ms,
                };
                framed(codec, &Response::Error(timeout))
            });
        }
        self.waits.iter().map(|wait| wait.deadline).min()
    }
}

impl ShardHandler {
    fn published(&self) -> Arc<Published> {
        Arc::clone(&read_lock(&self.shared.published))
    }

    /// Answer `req`, or park its reply. Returns whether it was answered
    /// (a parked request's latency is recorded when its reply is
    /// filled).
    fn dispatch(
        &mut self,
        req: Request,
        codec: &mut Codec,
        out: &mut Outbox<Parked>,
        parked: Parked,
    ) -> bool {
        let resp = match req {
            Request::GetPlan => {
                out.reply_framed(&self.published().plan_framed[cidx(*codec)]);
                return true;
            }
            Request::GetPlanAt { min_epoch, wait_ms } => {
                let published = self.published();
                if published.snap.epoch >= min_epoch {
                    out.reply_framed(&published.plan_framed[cidx(*codec)]);
                    return true;
                }
                // Park: the ticket fills from a later publication, or
                // with a typed Timeout at the deadline, and keeps the
                // replies behind it ordered, exactly like a pending
                // write ack.
                let deadline = parked.start + Duration::from_millis(wait_ms);
                self.waits.push(EpochWait {
                    ticket: out.defer(parked),
                    min_epoch,
                    deadline,
                    wait_ms,
                });
                return false;
            }
            Request::GetTopology => {
                out.reply_framed(&self.published().topo_framed[cidx(*codec)]);
                return true;
            }
            Request::QueryPath { a, b } => self.query_path_response(a, b),
            // Acknowledge-after-durable: the DemandAccepted leaves only
            // after the batch's fsync, carrying the commit epoch as the
            // client's read-your-writes fence.
            Request::UpdateDemand { a, b, circuits } => {
                let checked = self
                    .primary_only()
                    .and_then(|()| normalize_pair(a, b, self.shared.facts.plan.dcs))
                    .map(|(a, b)| WriteKind::Update { a, b, circuits });
                return self.submit(out, parked, checked);
            }
            Request::ReportFiberCut { cuts } => {
                let checked = self
                    .primary_only()
                    .and_then(|()| self.validate_cuts(&cuts))
                    .map(|()| WriteKind::Cut(cuts));
                return self.submit(out, parked, checked);
            }
            // Two primaries shipping at each other is a config error
            // (or a split brain); refuse rather than fork the epoch
            // chain.
            Request::Replicate { batch, .. } => {
                let checked = self.follower_only("replicated batches");
                let op = checked.map(|()| WriteKind::Repl(ReplOp::Batch(batch)));
                return self.submit(out, parked, op);
            }
            Request::SyncState { state, .. } => {
                let checked = self.follower_only("state syncs");
                let op = checked.map(|()| WriteKind::Repl(ReplOp::State(state)));
                return self.submit(out, parked, op);
            }
            Request::Promote => {
                // Idempotent: promoting a primary changes nothing. The
                // reply is the enriched health row so the caller sees
                // the new role immediately.
                self.shared.is_primary.store(true, Ordering::SeqCst);
                self.health_response()
            }
            Request::Health => self.health_response(),
            Request::MetricsSnapshot => {
                iris_telemetry::global()
                    .gauge("iris_service_uptime_ms")
                    .set(self.shared.start.elapsed().as_millis() as i64);
                Response::Metrics {
                    prometheus: iris_telemetry::global().snapshot().to_prometheus_text(),
                }
            }
            Request::TraceDump { max_events } => trace_dump_response(max_events),
            Request::Hello { codec: name } => match Codec::from_name(&name) {
                Some(next) => {
                    // Ack in the *old* codec, then switch: the client
                    // decodes the ack before changing its own framing.
                    let ack = Response::HelloAck {
                        codec: next.name().to_owned(),
                    };
                    deliver(out, &ack, *codec);
                    *codec = next;
                    return true;
                }
                None => Response::Error(IrisError::InvalidInput {
                    detail: format!("unknown codec {name:?} (expected \"json\" or \"binary\")"),
                }),
            },
        };
        deliver(out, &resp, *codec);
        true
    }

    /// Park the reply and queue the write `checked` allows: its
    /// acknowledgement comes back through the mailbox once durable. A
    /// write refused — by the check or by a full queue — has its ticket
    /// filled with the typed error on the spot. Returns whether the
    /// request was answered.
    fn submit(
        &mut self,
        out: &mut Outbox<Parked>,
        parked: Parked,
        checked: IrisResult<WriteKind>,
    ) -> bool {
        let dest = out.defer(parked);
        let enqueued = Instant::now();
        let queued = checked.and_then(|kind| {
            self.enqueue(WriteOp {
                kind,
                dest,
                enqueued,
            })
        });
        match queued {
            Ok(()) => false,
            Err(e) => out.fill(dest, |parked| framed(parked.codec, &Response::Error(e))),
        }
    }

    /// Fill a parked reply and record its request — the one place a
    /// deferred request finishes. Nothing is framed or recorded when
    /// the connection is gone.
    fn complete(
        &self,
        conns: &mut Conns<Self>,
        ticket: Ticket,
        frame: impl FnOnce(Codec) -> Vec<u8>,
    ) {
        conns.fill(ticket, |parked| {
            let framed = frame(parked.codec);
            self.record(parked.op, parked.start, parked.trace_id);
            framed
        });
    }

    /// Count one answered request; `op` indexes [`Request::OPS`].
    fn record(&self, op: usize, start: Instant, trace_id: u64) {
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        iris_telemetry::trace::note_if_slow(Request::OPS[op], elapsed_ms, trace_id);
        let (count, latency) = &self.metrics.ops[op];
        count.inc();
        latency.record(elapsed_ms);
        self.metrics.shard_requests.inc();
    }

    fn primary_only(&self) -> IrisResult<()> {
        if self.shared.is_primary.load(Ordering::SeqCst) {
            return Ok(());
        }
        Err(IrisError::NotPrimary {
            region: self.shared.region,
        })
    }

    fn follower_only(&self, what: &str) -> IrisResult<()> {
        if !self.shared.is_primary.load(Ordering::SeqCst) {
            return Ok(());
        }
        Err(IrisError::InvalidInput {
            detail: format!(
                "region {} is a primary and does not accept {what}",
                self.shared.region
            ),
        })
    }

    fn query_path_response(&self, a: usize, b: usize) -> Response {
        match normalize_pair(a, b, self.shared.facts.plan.dcs) {
            Err(e) => Response::Error(e),
            Ok((a, b)) => {
                let snap = Arc::clone(&self.published().snap);
                match snap.paths.get(&(a, b)) {
                    Some(p) => Response::Path(PathInfo {
                        a,
                        b,
                        nodes: p.nodes.clone(),
                        edges: p.edges.clone(),
                        length_km: p.length_km,
                        rtt_ms: iris_geo::rtt_ms(p.length_km),
                        circuits: snap.allocation.get(&(a, b)).copied().unwrap_or(0),
                        epoch: snap.epoch,
                    }),
                    None => Response::Error(IrisError::Unreachable {
                        what: format!("DC {a} -> DC {b} with cuts {:?}", snap.active_cuts),
                    }),
                }
            }
        }
    }

    fn validate_cuts(&self, cuts: &[usize]) -> IrisResult<()> {
        let ducts = self.shared.facts.plan.ducts;
        let detail = if cuts.is_empty() {
            "ReportFiberCut needs at least one duct id".to_owned()
        } else if let Some(bad) = cuts.iter().find(|&&c| c >= ducts) {
            format!("cut duct {bad} out of range (region has {ducts} ducts)")
        } else {
            return Ok(());
        };
        Err(IrisError::InvalidInput { detail })
    }

    fn health_response(&self) -> Response {
        let snap = Arc::clone(&self.published().snap);
        let primary = self.shared.is_primary.load(Ordering::SeqCst);
        Response::Health(HealthInfo {
            region: self.shared.region,
            role: if primary { "primary" } else { "follower" }.to_owned(),
            peers: self.shared.peer_infos(),
            epoch: snap.epoch,
            queue_depth: self.shared.queue_depth.load(Ordering::SeqCst),
            writes_applied: snap.writes_applied,
            coalesced: snap.coalesced,
            overloaded: self.shared.overloaded.load(Ordering::SeqCst),
            active_cuts: snap.active_cuts.clone(),
            quarantined: snap.quarantined.len(),
            last_recovery: snap.last_recovery.clone(),
            uptime_ms: self.shared.start.elapsed().as_millis() as u64,
            wal_records: self.shared.wal_records.load(Ordering::Relaxed),
            wal_bytes: self.shared.wal_bytes.load(Ordering::Relaxed),
            last_fsync_ms: self.shared.last_fsync_us.load(Ordering::Relaxed) as f64 / 1e3,
        })
    }

    /// Try to enqueue a write; a full queue is typed backpressure.
    ///
    /// The depth counter is bumped *before* the send: once the op is in
    /// the channel the mutator may commit the batch and decrement at
    /// any moment, so counting afterwards would race the decrement and
    /// underflow.
    fn enqueue(&self, op: WriteOp) -> IrisResult<()> {
        let depth = self.shared.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        match self.tx.try_send(op) {
            Ok(()) => {
                self.metrics.queue_gauge.set(depth as i64);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
                self.shared.overloaded.fetch_add(1, Ordering::SeqCst);
                self.metrics.overloaded.inc();
                Err(IrisError::Overloaded {
                    retry_after_ms: self.shared.retry_after_ms,
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
                Err(IrisError::Io {
                    detail: "mutator queue is closed".to_owned(),
                })
            }
        }
    }
}

/// Queue `resp` on the connection in `codec`; a response that cannot be
/// encoded becomes a generic error, and a connection that cannot even
/// carry that is closed.
fn deliver(out: &mut Outbox<Parked>, resp: &Response, codec: Codec) {
    if out.reply(|buf| codec.encode_into(resp, buf)).is_err()
        && out
            .reply(|buf| codec.encode_into(&encode_failure(), buf))
            .is_err()
    {
        out.close();
    }
}

/// `resp` as one frame in `codec`, for filling a parked reply.
fn framed(codec: Codec, resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    if frame_response(codec, resp, &mut buf).is_err() {
        let _ = frame_response(codec, &encode_failure(), &mut buf);
    }
    buf
}

fn encode_failure() -> Response {
    Response::Error(IrisError::Decode {
        detail: "response could not be encoded".to_owned(),
    })
}

fn trace_dump_response(max_events: u64) -> Response {
    // Cap the dump so the encoded response stays well inside
    // MAX_FRAME_LEN (~140 bytes per event as JSON).
    let max = if max_events == 0 {
        2000
    } else {
        max_events.min(4000) as usize
    };
    let dump = iris_telemetry::trace::dump(max);
    Response::Trace(TraceDumpInfo {
        enabled: dump.enabled,
        dropped: dump.dropped,
        events: dump
            .events
            .into_iter()
            .map(|e| TraceEventInfo {
                trace_id: e.trace_id,
                span_id: e.span_id,
                parent_id: e.parent_id,
                stage: e.stage,
                start_us: e.start_us,
                dur_us: e.dur_us,
                modeled: e.modeled,
            })
            .collect(),
        slow: dump
            .slow
            .into_iter()
            .map(|s| SlowRequestInfo {
                trace_id: s.trace_id,
                op: s.op,
                total_ms: s.total_ms,
                at_us: s.at_us,
            })
            .collect(),
    })
}

/// Validate and order a DC pair as `(min, max)`.
fn normalize_pair(a: usize, b: usize, dc_count: usize) -> IrisResult<(usize, usize)> {
    if a == b {
        return Err(IrisError::InvalidInput {
            detail: format!("pair endpoints must differ (got {a}, {b})"),
        });
    }
    let hi = a.max(b);
    if hi >= dc_count {
        return Err(IrisError::InvalidInput {
            detail: format!("DC {hi} out of range (region has {dc_count} DCs)"),
        });
    }
    Ok((a.min(b), a.max(b)))
}
