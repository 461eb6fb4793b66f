//! The sharded non-blocking event-loop server.
//!
//! One acceptor thread takes connections off the listener and deals
//! them round-robin to `N` shard threads (see [`ServiceConfig::shards`]).
//! Each shard runs a level-triggered readiness loop ([`iris_poll`]) over
//! the connections pinned to it: sockets are non-blocking, partial
//! frames accumulate in per-connection read buffers, and responses drain
//! through per-connection write buffers — no thread ever parks on a
//! single peer, so one shard multiplexes thousands of connections.
//!
//! Reads stay epoch-published: `GetPlan` and `GetTopology` replies are
//! **pre-serialized once per epoch** (in both wire codecs, with the
//! length prefix already attached), so serving one is a memcpy from the
//! current `Published` buffer. `QueryPath` / `Health` are answered
//! from the same immutable snapshot `Arc`.
//!
//! Writes flow through the bounded queue to the single mutator thread
//! exactly as before (batching + last-update-per-pair coalescing), but
//! durability is **group-committed**: the mutator appends each batch's
//! WAL record without fsyncing and hands the batch to a syncer thread,
//! which drains every batch the mutator produced while the previous
//! fsync was in flight, makes them all durable with *one* fsync, and
//! only then publishes the newest snapshot and routes `ReportFiberCut`
//! acknowledgements back to their shards. Acknowledge-after-durable is
//! preserved; the fsyncs are amortized.
//!
//! A connection speaks JSON until it negotiates the compact binary
//! codec with [`crate::api::Request::Hello`]; the acknowledgement is
//! sent in the old codec and everything after it in the new one.

use crate::api::{
    AllocEntry, HealthInfo, PathInfo, PeerInfo, PlanSummary, Request, Response, SlowRequestInfo,
    TopologySummary, TraceDumpInfo, TraceEventInfo,
};
use crate::client::{Backoff, ServiceClient};
use crate::codec::{self, Codec};
use crate::frame::{append_frame_with, parse_frame};
use crate::recovery::{self, ControlMachine, CutReply, ReplayStats};
use crate::state::{SnapshotCell, StateSnapshot};
use crate::wal::{DurableState, PersistedSnapshot, Wal, WalBatch, WalStats, WalSyncHandle};
use iris_control::Controller;
use iris_errors::{IrisError, IrisResult};
use iris_fibermap::Region;
use iris_netgraph::EdgeId;
use iris_planner::{plan_iris, DesignGoals};
use iris_poll::{Interest, Poller, Waker};
use iris_telemetry::{labeled, Counter, Gauge, Histogram};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token reserved for each shard's cross-thread waker.
const WAKER_TOKEN: usize = usize::MAX;
/// Read-buffer growth increment.
const READ_CHUNK: usize = 64 * 1024;
/// Per-readiness-event read budget; a firehose connection yields to its
/// shard siblings after this many bytes (level-triggered readiness
/// re-reports the rest immediately).
const READ_BUDGET: usize = 256 * 1024;
/// Published batches the primary keeps in memory for incremental
/// WAL-shipping; followers further behind resync via a full
/// [`Request::SyncState`] snapshot instead.
const REPL_LOG_CAP: usize = 1024;
/// Ceiling of the acceptor's transient-error backoff, ms.
const ACCEPT_BACKOFF_CAP_MS: u64 = 100;

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
    /// How long the mutator waits after the first write of a batch to
    /// gather (and coalesce) more, ms.
    pub coalesce_window_ms: u64,
    /// Shard poll tick, ms: the event-loop wait timeout, which bounds
    /// how long a shard can go without noticing a shutdown request.
    pub read_timeout_ms: u64,
    /// Durability directory. When set, every applied write batch is
    /// appended to a write-ahead log here and group-committed (one
    /// fsync covers every batch produced while the previous fsync was
    /// in flight) before its snapshot is published, and a restarted
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
            coalesce_window_ms: 2,
            read_timeout_ms: 50,
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

/// Where a deferred acknowledgement (`ReportFiberCut`, `UpdateDemand`,
/// `Replicate`, `SyncState`) must be routed once its batch is durable:
/// shard + connection slot + a generation fence (slots are recycled) +
/// the response's sequence number.
#[derive(Debug, Clone, Copy)]
struct CutDest {
    shard: usize,
    token: usize,
    gen: u64,
    seq: u64,
}

/// One queued write.
enum WriteOp {
    Update {
        a: usize,
        b: usize,
        circuits: u32,
        dest: CutDest,
        /// When the op entered the queue (feeds the batch trace's
        /// queue-wait span).
        enqueued: Instant,
    },
    Cut {
        cuts: Vec<EdgeId>,
        dest: CutDest,
        enqueued: Instant,
    },
    /// One WAL batch shipped from a primary region (serialized
    /// [`WalBatch`] JSON), applied via
    /// [`ControlMachine::apply_replicated`].
    Replicate {
        batch_json: String,
        dest: CutDest,
        enqueued: Instant,
    },
    /// A full persisted snapshot shipped from a primary region
    /// (serialized [`PersistedSnapshot`] JSON), adopted via
    /// [`ControlMachine::adopt_state`].
    SyncState {
        state_json: String,
        dest: CutDest,
        enqueued: Instant,
    },
}

impl WriteOp {
    fn enqueued(&self) -> Instant {
        match self {
            WriteOp::Update { enqueued, .. }
            | WriteOp::Cut { enqueued, .. }
            | WriteOp::Replicate { enqueued, .. }
            | WriteOp::SyncState { enqueued, .. } => *enqueued,
        }
    }
}

/// One acknowledgement held back until its batch's group commit: the
/// syncer routes these to their shards only after the fsync, so every
/// ack a client sees describes durable state.
enum DeferredReply {
    /// A fiber-cut outcome.
    Cut(CutReply),
    /// A demand update became durable and visible at `epoch` — the
    /// read-your-writes fence a client hands to `GetPlanAt`.
    Demand { epoch: u64 },
    /// A replicated batch (or adopted snapshot) committed at `epoch`
    /// with the follower snapshot fingerprinting to `state_crc`.
    Replicated {
        epoch: u64,
        state_crc: u32,
        op: &'static str,
    },
    /// The operation failed (WAL error, epoch-chain gap, ...).
    Failed { op: &'static str, err: IrisError },
}

impl DeferredReply {
    /// Telemetry label of the operation being acknowledged.
    fn op(&self) -> &'static str {
        match self {
            DeferredReply::Cut(_) => "report_fiber_cut",
            DeferredReply::Demand { .. } => "update_demand",
            DeferredReply::Replicated { op, .. } | DeferredReply::Failed { op, .. } => op,
        }
    }
}

/// Payload selector for [`ShardRunner::defer_repl_write`].
enum WriteOpKind {
    /// Serialized [`WalBatch`] JSON.
    Replicate(String),
    /// Serialized [`PersistedSnapshot`] JSON.
    SyncState(String),
}

/// One published batch retained for incremental replication: the epoch,
/// the canonical-state CRC a correct follower must report back, and the
/// serialized [`WalBatch`].
#[derive(Clone)]
struct ReplEntry {
    epoch: u64,
    state_crc: u32,
    batch_json: Arc<String>,
}

/// What the primary knows about one replication peer; written by the
/// peer's replicator thread, read by `Health` and the chaos harness.
struct PeerState {
    addr: String,
    /// The peer's region id as learned from its `Health` reply (0 until
    /// the first successful probe).
    region: AtomicU64,
    acked_epoch: AtomicU64,
    connected: AtomicBool,
    reconnects: AtomicU64,
    /// Partition-simulation switch: while set, the replicator drops the
    /// connection and ships nothing, so the peer lags exactly like one
    /// behind a severed inter-region link.
    paused: AtomicBool,
}

/// Codec-indexed slot (`[Json, Binary]`) for pre-serialized buffers.
fn cidx(codec: Codec) -> usize {
    codec as usize
}

/// The per-epoch read-path publication: the snapshot itself plus the
/// `GetPlan` / `GetTopology` replies pre-serialized in both codecs with
/// their length prefixes attached, so serving one is a single memcpy.
struct Published {
    snap: Arc<StateSnapshot>,
    plan_framed: [Vec<u8>; 2],
    topo_framed: [Vec<u8>; 2],
}

/// Frame `resp` (length prefix + payload) in `codec`, appending to
/// `out`. `out` is untouched on error.
fn frame_response(codec: Codec, resp: &Response, out: &mut Vec<u8>) -> IrisResult<()> {
    append_frame_with(out, |buf| codec.encode_into(resp, buf))
}

/// Build the [`Published`] buffers for `snap`.
fn build_published(
    plan: &PlanSummary,
    dc_count: usize,
    huts: usize,
    ducts: usize,
    snap: Arc<StateSnapshot>,
) -> IrisResult<Published> {
    let mut plan = plan.clone();
    plan.epoch = snap.epoch;
    let plan_resp = Response::Plan(plan);
    let topo_resp = Response::Topology(TopologySummary {
        epoch: snap.epoch,
        dcs: dc_count,
        huts,
        ducts,
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

/// State shared by the acceptor, shard loops, mutator and syncer.
struct Shared {
    cell: SnapshotCell,
    /// The pre-serialized read-path buffers, swapped once per epoch.
    published: RwLock<Arc<Published>>,
    /// Static plan summary; `epoch` is patched per publication.
    plan: PlanSummary,
    huts: usize,
    dc_count: usize,
    edge_count: usize,
    retry_after_ms: u64,
    shutdown: AtomicBool,
    /// Writes accepted but not yet visible in a published snapshot
    /// (queued + in-batch + awaiting the group fsync). Reaching zero
    /// therefore means every acknowledged write is readable.
    queue_depth: AtomicUsize,
    overloaded: AtomicU64,
    /// When the server started serving (for `HealthInfo::uptime_ms`).
    start: Instant,
    /// WAL statistics mirrored out of the mutator-owned [`crate::wal::Wal`]
    /// after each group commit so read threads can answer `Health`
    /// without touching the write path. Fsync latency is stored in µs
    /// to keep it atomic.
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    last_fsync_us: AtomicU64,
    /// This instance's region id.
    region: u64,
    /// Role switch: `true` accepts local writes and replicates out,
    /// `false` rejects them with `NotPrimary` and applies `Replicate`
    /// frames instead. Flipped by [`Request::Promote`].
    is_primary: AtomicBool,
    /// Replication peers (config order).
    peers: Vec<Arc<PeerState>>,
    /// The bounded in-memory window of published batches the replicator
    /// threads ship from, newest at the back.
    repl_log: Mutex<VecDeque<ReplEntry>>,
    /// The coalesce window, used to convert replication lag from epochs
    /// into a deterministic modeled milliseconds figure.
    coalesce_window_ms: u64,
}

impl Shared {
    /// Per-peer replication status rows for `Health` and `iris top`.
    /// Lag is measured in epochs (exact and deterministic); the modeled
    /// ms figure assumes one batch per coalesce window plus 1 ms of
    /// shipping.
    fn peer_infos(&self) -> Vec<PeerInfo> {
        let epoch = self.cell.load().epoch;
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
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    replay: Option<ReplayStats>,
    wakers: Vec<Arc<Waker>>,
    accept: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    mutator: Option<JoinHandle<()>>,
    syncer: Option<JoinHandle<()>>,
    replicators: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The bound listen address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The currently published state snapshot (what readers see).
    #[must_use]
    pub fn current_snapshot(&self) -> Arc<StateSnapshot> {
        self.shared.cell.load()
    }

    /// What WAL recovery replayed at startup. `None` when the server
    /// runs without a `wal_dir`.
    #[must_use]
    pub fn replay_stats(&self) -> Option<&ReplayStats> {
        self.replay.as_ref()
    }

    /// Stop accepting, wake every shard, and join all server threads.
    /// The syncer is joined last so every acknowledged write's group
    /// fsync has completed by the time this returns.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        if let Ok(mut s) = TcpStream::connect(self.local_addr) {
            let _ = s.flush();
        }
        for waker in &self.wakers {
            waker.wake();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.mutator.take() {
            let _ = h.join();
        }
        if let Some(h) = self.syncer.take() {
            let _ = h.join();
        }
        for h in self.replicators.drain(..) {
            let _ = h.join();
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
    let wal_backed = wal.is_some();
    let sync_handle = wal.as_ref().map(Wal::sync_handle).transpose()?;
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
    let local_addr = listener.local_addr().map_err(|e| IrisError::Io {
        detail: format!("cannot resolve listen address: {e}"),
    })?;

    let nshards = config.effective_shards();
    let boot_wal_stats = wal.as_ref().map(Wal::stats).unwrap_or_default();
    let boot_snap = Arc::new(boot);
    let published = build_published(
        &plan_summary,
        region.dcs.len(),
        region.map.huts().len(),
        region.map.duct_count(),
        Arc::clone(&boot_snap),
    )?;
    let peers: Vec<Arc<PeerState>> = config
        .peers
        .iter()
        .map(|addr| {
            Arc::new(PeerState {
                addr: addr.clone(),
                region: AtomicU64::new(0),
                acked_epoch: AtomicU64::new(0),
                connected: AtomicBool::new(false),
                reconnects: AtomicU64::new(0),
                paused: AtomicBool::new(false),
            })
        })
        .collect();
    let shared = Arc::new(Shared {
        cell: SnapshotCell::new((*boot_snap).clone()),
        published: RwLock::new(Arc::new(published)),
        plan: plan_summary,
        huts: region.map.huts().len(),
        dc_count: region.dcs.len(),
        edge_count: region.map.duct_count(),
        retry_after_ms: config.retry_after_ms(),
        shutdown: AtomicBool::new(false),
        queue_depth: AtomicUsize::new(0),
        overloaded: AtomicU64::new(0),
        start: Instant::now(),
        wal_records: AtomicU64::new(boot_wal_stats.records),
        wal_bytes: AtomicU64::new(boot_wal_stats.bytes),
        last_fsync_us: AtomicU64::new(0),
        region: config.region_id,
        is_primary: AtomicBool::new(!config.follower),
        peers,
        repl_log: Mutex::new(VecDeque::new()),
        coalesce_window_ms: config.coalesce_window_ms,
    });

    let io_err = |what: &str, e: std::io::Error| IrisError::Io {
        detail: format!("cannot create shard {what}: {e}"),
    };
    let (tx, rx) = mpsc::sync_channel::<WriteOp>(config.queue_capacity.max(1));
    let (sync_tx, sync_rx) = mpsc::channel::<SyncMsg>();
    let mut intake_txs = Vec::with_capacity(nshards);
    let mut done_txs = Vec::with_capacity(nshards);
    let mut wakers = Vec::with_capacity(nshards);
    let mut shard_parts = Vec::with_capacity(nshards);
    for _ in 0..nshards {
        let (intake_tx, intake_rx) = mpsc::channel::<TcpStream>();
        let (done_tx, done_rx) = mpsc::channel::<(CutDest, DeferredReply)>();
        let poller = Poller::new().map_err(|e| io_err("poller", e))?;
        let waker = Arc::new(Waker::new().map_err(|e| io_err("waker", e))?);
        intake_txs.push(intake_tx);
        done_txs.push(done_tx);
        wakers.push(Arc::clone(&waker));
        shard_parts.push((poller, waker, intake_rx, done_rx));
    }

    let mutator = {
        let shared = Arc::clone(&shared);
        let provisioning = plan.provisioning.clone();
        let window = Duration::from_millis(config.coalesce_window_ms);
        let snapshot_every = config.snapshot_every;
        let boot_snap = Arc::clone(&boot_snap);
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
            mutator_loop(
                machine, &rx, &shared, window, &sync_tx, boot_snap, wal_backed,
            );
        })
    };

    let syncer = {
        let shared = Arc::clone(&shared);
        let wakers = wakers.clone();
        std::thread::spawn(move || syncer_loop(&sync_rx, &shared, sync_handle, &done_txs, &wakers))
    };

    let mut shards = Vec::with_capacity(nshards);
    let tick = Duration::from_millis(config.read_timeout_ms.max(1));
    for (id, (poller, waker, intake, done)) in shard_parts.into_iter().enumerate() {
        let runner = ShardRunner {
            id,
            shared: Arc::clone(&shared),
            tx: tx.clone(),
            poller,
            waker,
            intake,
            done,
            done_alive: true,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            metrics: ShardMetrics::new(id),
            waits: Vec::new(),
        };
        shards.push(std::thread::spawn(move || runner.run(tick)));
    }

    let accept = {
        let shared = Arc::clone(&shared);
        let wakers = wakers.clone();
        std::thread::spawn(move || {
            let accept_errors = iris_telemetry::global().counter("iris_service_accept_errors");
            let mut next = 0usize;
            let mut backoff_ms = 1u64;
            for conn in listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match conn {
                    Ok(stream) => {
                        backoff_ms = 1;
                        stream
                    }
                    Err(_) => {
                        // Transient accept failures (EMFILE, ECONNABORTED,
                        // EINTR, ...) must not tear down the listener:
                        // count them and back off so an fd-exhausted
                        // process does not spin, then keep accepting.
                        accept_errors.inc();
                        std::thread::sleep(Duration::from_millis(backoff_ms));
                        backoff_ms = (backoff_ms * 2).min(ACCEPT_BACKOFF_CAP_MS);
                        continue;
                    }
                };
                let shard = next % intake_txs.len();
                next += 1;
                if intake_txs[shard].send(stream).is_err() {
                    break;
                }
                wakers[shard].wake();
            }
        })
    };

    let replicators = shared
        .peers
        .iter()
        .enumerate()
        .map(|(idx, peer)| {
            let shared = Arc::clone(&shared);
            let peer = Arc::clone(peer);
            std::thread::spawn(move || replicator_loop(&shared, &peer, idx))
        })
        .collect();

    Ok(ServiceHandle {
        local_addr,
        shared,
        replay,
        wakers,
        accept: Some(accept),
        shards,
        mutator: Some(mutator),
        syncer: Some(syncer),
        replicators,
    })
}

/// Sleep up to `ms` in short slices, returning early (false) when
/// shutdown is requested — keeps replicator backoffs from delaying
/// [`ServiceHandle::shutdown`].
fn nap(shared: &Shared, ms: u64) -> bool {
    let mut left = ms;
    while left > 0 {
        if shared.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let step = left.min(20);
        std::thread::sleep(Duration::from_millis(step));
        left -= step;
    }
    !shared.shutdown.load(Ordering::SeqCst)
}

/// One peer's replication pump, running for the server's lifetime and
/// active only while this instance is primary and the peer is not
/// paused (partitioned).
///
/// Per session: connect (seeded decorrelated-jitter backoff between
/// attempts), negotiate the binary codec, probe `Health` to learn the
/// follower's region and resume epoch, then ship batches from the
/// in-memory replication window in epoch order, checking every
/// `ReplicateAck` CRC against the primary's own canonical-state CRC at
/// that epoch. A follower behind the window (or answering with an
/// epoch-chain gap or CRC divergence) is resynced with one full
/// `SyncState` snapshot, then streaming resumes.
fn replicator_loop(shared: &Shared, peer: &PeerState, idx: usize) {
    let telemetry = iris_telemetry::global();
    let ship_c = telemetry.counter(&labeled(
        "iris_service_replicated_batches_total",
        "peer",
        &peer.addr,
    ));
    let sync_c = telemetry.counter(&labeled(
        "iris_service_state_syncs_total",
        "peer",
        &peer.addr,
    ));
    let crc_c = telemetry.counter("iris_service_replication_crc_mismatch_total");
    let mut backoff = Backoff::new(5, 500, 0x5EED_u64 ^ (shared.region << 8) ^ idx as u64);

    'session: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if !shared.is_primary.load(Ordering::SeqCst) || peer.paused.load(Ordering::SeqCst) {
            peer.connected.store(false, Ordering::SeqCst);
            if !nap(shared, 5) {
                return;
            }
            continue 'session;
        }
        let mut client = match ServiceClient::connect(&peer.addr) {
            Ok(c) => c,
            Err(_) => {
                peer.reconnects.fetch_add(1, Ordering::SeqCst);
                if !nap(shared, backoff.next_delay_ms()) {
                    return;
                }
                continue 'session;
            }
        };
        // A hung or partitioned follower must not wedge the pump.
        let _ = client.set_deadline(Some(Duration::from_millis(2000)));
        let _ = client.hello(Codec::Binary);
        let follower = match client.call(&Request::Health) {
            Ok(Response::Health(h)) => h,
            _ => {
                peer.reconnects.fetch_add(1, Ordering::SeqCst);
                if !nap(shared, backoff.next_delay_ms()) {
                    return;
                }
                continue 'session;
            }
        };
        peer.region.store(follower.region, Ordering::SeqCst);
        peer.acked_epoch.store(follower.epoch, Ordering::SeqCst);
        peer.connected.store(true, Ordering::SeqCst);
        let mut next_epoch = follower.epoch + 1;

        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if !shared.is_primary.load(Ordering::SeqCst) || peer.paused.load(Ordering::SeqCst) {
                peer.connected.store(false, Ordering::SeqCst);
                continue 'session;
            }
            let local_epoch = shared.cell.load().epoch;
            if next_epoch > local_epoch {
                // Caught up; poll for the next publish.
                if !nap(shared, 1) {
                    return;
                }
                continue;
            }
            let entry = {
                let log = shared.repl_log.lock();
                log.iter().find(|e| e.epoch == next_epoch).cloned()
            };
            let mut need_sync = entry.is_none();
            if let Some(entry) = entry {
                match client.call_retrying(
                    &Request::Replicate {
                        source_region: shared.region,
                        batch: (*entry.batch_json).clone(),
                    },
                    4,
                ) {
                    Ok(Response::ReplicateAck { epoch, state_crc }) => {
                        if state_crc == entry.state_crc {
                            ship_c.inc();
                            peer.acked_epoch.store(epoch, Ordering::SeqCst);
                            next_epoch = epoch + 1;
                            continue;
                        }
                        // The follower committed the batch but its state
                        // diverged: fall back to a full snapshot.
                        crc_c.inc();
                        need_sync = true;
                    }
                    Err(IrisError::ReplayFailed { .. }) => need_sync = true,
                    Ok(_) | Err(_) => {
                        peer.connected.store(false, Ordering::SeqCst);
                        peer.reconnects.fetch_add(1, Ordering::SeqCst);
                        if !nap(shared, backoff.next_delay_ms()) {
                            return;
                        }
                        continue 'session;
                    }
                }
            }
            if need_sync {
                let snap = shared.cell.load();
                let persisted = PersistedSnapshot::from_state(&snap);
                let Ok(state_json) = serde_json::to_string(&persisted) else {
                    continue 'session;
                };
                match client.call_retrying(
                    &Request::SyncState {
                        source_region: shared.region,
                        state: state_json,
                    },
                    4,
                ) {
                    Ok(Response::ReplicateAck { epoch, state_crc }) => {
                        sync_c.inc();
                        if state_crc != snap.state_crc() {
                            crc_c.inc();
                        }
                        peer.acked_epoch.store(epoch, Ordering::SeqCst);
                        next_epoch = epoch + 1;
                    }
                    _ => {
                        peer.connected.store(false, Ordering::SeqCst);
                        peer.reconnects.fetch_add(1, Ordering::SeqCst);
                        if !nap(shared, backoff.next_delay_ms()) {
                            return;
                        }
                        continue 'session;
                    }
                }
            }
        }
    }
}

/// One applied batch handed from the mutator to the syncer for group
/// commit: fsync (if a record was appended), publish, route cut acks.
struct SyncMsg {
    snapshot: Option<Arc<StateSnapshot>>,
    replies: Vec<(CutDest, DeferredReply)>,
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

/// The single writer: pop a write, gather the coalesce window, apply the
/// batch through the [`ControlMachine`] (which appends it to the WAL
/// *without* fsyncing), and hand the result to the syncer for group
/// commit.
fn mutator_loop(
    mut machine: ControlMachine<'_>,
    rx: &Receiver<WriteOp>,
    shared: &Shared,
    window: Duration,
    sync_tx: &Sender<SyncMsg>,
    boot_snap: Arc<StateSnapshot>,
    wal_backed: bool,
) {
    machine.set_deferred_sync(true);
    let telemetry = iris_telemetry::global();
    // The last snapshot this thread built. `shared.cell` lags behind it
    // (publication happens in the syncer, after the group fsync), so
    // the mutator must chain batches off its own copy.
    let mut prev = boot_snap;

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
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
        let first_enqueued = first.enqueued();
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
        let mut update_dests: Vec<CutDest> = Vec::new();
        let mut cuts_ops: Vec<(Vec<EdgeId>, CutDest)> = Vec::new();
        let mut repl_ops: Vec<WriteOp> = Vec::new();
        let mut coalesced_now = 0u64;
        let mut local_len = 0usize;
        for op in batch {
            match op {
                WriteOp::Update {
                    a,
                    b,
                    circuits,
                    dest,
                    ..
                } => {
                    if updates.insert((a, b), circuits).is_some() {
                        coalesced_now += 1;
                    }
                    update_dests.push(dest);
                    local_len += 1;
                }
                WriteOp::Cut { cuts, dest, .. } => {
                    cuts_ops.push((cuts, dest));
                    local_len += 1;
                }
                op => repl_ops.push(op),
            }
        }

        if local_len > 0 {
            // Every batch gets its own trace: the root span covers the
            // apply path, with queue-wait and coalesce recorded as
            // sibling windows preceding it. The group fsync + publish
            // land under a `group_commit` root in the same trace,
            // emitted by the syncer.
            let batch_trace = iris_telemetry::trace::mint_trace_id();
            let batch_span = iris_telemetry::trace::root_span(batch_trace, "write_batch");
            iris_telemetry::trace::emit_window("queue_wait", first_enqueued, popped);
            iris_telemetry::trace::emit_window("coalesce", popped, drained);

            let only_cuts: Vec<Vec<EdgeId>> = cuts_ops.iter().map(|(c, _)| c.clone()).collect();
            match machine.apply_batch(&prev, &updates, coalesced_now, &only_cuts) {
                Ok(result) => {
                    let snapshot = result.snapshot.map(Arc::new);
                    let applied = snapshot
                        .as_ref()
                        .map_or(0, |next| next.writes_applied - prev.writes_applied);
                    // Demand acks carry the epoch their write is
                    // readable at: the batch's commit epoch, or the
                    // current one when the whole batch was a no-op.
                    let ack_epoch = snapshot.as_ref().map_or(prev.epoch, |next| next.epoch);
                    if let Some(next) = &snapshot {
                        prev = Arc::clone(next);
                    }
                    let repl_entry = match (&snapshot, result.batch) {
                        (Some(next), Some(record)) => {
                            serde_json::to_string(&record).ok().map(|json| ReplEntry {
                                epoch: next.epoch,
                                state_crc: next.state_crc(),
                                batch_json: Arc::new(json),
                            })
                        }
                        _ => None,
                    };
                    let mut replies: Vec<(CutDest, DeferredReply)> = update_dests
                        .drain(..)
                        .map(|dest| (dest, DeferredReply::Demand { epoch: ack_epoch }))
                        .collect();
                    replies.extend(
                        cuts_ops
                            .drain(..)
                            .map(|(_, dest)| dest)
                            .zip(result.cut_replies.into_iter().map(DeferredReply::Cut)),
                    );
                    let msg = SyncMsg {
                        appended: wal_backed && snapshot.is_some(),
                        snapshot,
                        replies,
                        repl_entry,
                        applied,
                        coalesced: coalesced_now,
                        batch_len: local_len,
                        wal_stats: machine.wal_stats(),
                        batch_trace,
                        fatal: false,
                    };
                    if sync_tx.send(msg).is_err() {
                        return;
                    }
                    drop(batch_span);
                    iris_telemetry::trace::note_if_slow(
                        "write_batch",
                        popped.elapsed().as_secs_f64() * 1e3,
                        batch_trace,
                    );
                }
                Err(e) => {
                    // The WAL could not be written: accepting more
                    // writes would let acknowledged state evaporate on
                    // the next crash, so fail loudly and stop the
                    // server.
                    telemetry.counter("iris_service_wal_errors_total").inc();
                    let mut replies: Vec<(CutDest, DeferredReply)> = update_dests
                        .drain(..)
                        .map(|dest| {
                            (
                                dest,
                                DeferredReply::Failed {
                                    op: "update_demand",
                                    err: e.clone(),
                                },
                            )
                        })
                        .collect();
                    replies.extend(cuts_ops.drain(..).map(|(_, dest)| {
                        (
                            dest,
                            DeferredReply::Failed {
                                op: "report_fiber_cut",
                                err: e.clone(),
                            },
                        )
                    }));
                    let msg = SyncMsg {
                        snapshot: None,
                        replies,
                        repl_entry: None,
                        appended: false,
                        applied: 0,
                        coalesced: 0,
                        batch_len: local_len,
                        wal_stats: None,
                        batch_trace,
                        fatal: true,
                    };
                    let _ = sync_tx.send(msg);
                    shared.shutdown.store(true, Ordering::SeqCst);
                    return;
                }
            }
        }

        for op in repl_ops {
            if !apply_repl_op(&mut machine, &mut prev, shared, sync_tx, wal_backed, op) {
                return;
            }
        }
    }
}

/// Apply one replication op (a shipped WAL batch or a full snapshot)
/// through the [`ControlMachine`] and hand its deferred `ReplicateAck`
/// to the syncer. Returns whether the mutator should keep running:
/// epoch-chain gaps and undecodable frames only fail the one request
/// (the primary falls back to `SyncState`), while a WAL write failure
/// is as fatal as it is for local batches.
fn apply_repl_op(
    machine: &mut ControlMachine<'_>,
    prev: &mut Arc<StateSnapshot>,
    shared: &Shared,
    sync_tx: &Sender<SyncMsg>,
    wal_backed: bool,
    op: WriteOp,
) -> bool {
    let batch_trace = iris_telemetry::trace::mint_trace_id();
    let (dest, op_name, outcome, shipped_json) = match op {
        WriteOp::Replicate {
            batch_json, dest, ..
        } => {
            let outcome = serde_json::from_str::<WalBatch>(&batch_json)
                .map_err(|e| IrisError::Decode {
                    detail: format!("replicated batch does not parse: {e}"),
                })
                .and_then(|record| machine.apply_replicated(prev, &record));
            (dest, "replicate", outcome, Some(batch_json))
        }
        WriteOp::SyncState {
            state_json, dest, ..
        } => {
            let outcome = serde_json::from_str::<PersistedSnapshot>(&state_json)
                .map_err(|e| IrisError::Decode {
                    detail: format!("sync-state snapshot does not parse: {e}"),
                })
                .and_then(|snap| machine.adopt_state(prev, &snap));
            (dest, "sync_state", outcome, None)
        }
        WriteOp::Update { .. } | WriteOp::Cut { .. } => return true,
    };
    match outcome {
        Ok(next) => {
            let next = Arc::new(next);
            let epoch = next.epoch;
            let applied = next.writes_applied.saturating_sub(prev.writes_applied);
            let coalesced = next.coalesced.saturating_sub(prev.coalesced);
            let state_crc = next.state_crc();
            *prev = Arc::clone(&next);
            let repl_entry = shipped_json.map(|json| ReplEntry {
                epoch,
                state_crc,
                batch_json: Arc::new(json),
            });
            let msg = SyncMsg {
                appended: wal_backed && repl_entry.is_some(),
                snapshot: Some(next),
                replies: vec![(
                    dest,
                    DeferredReply::Replicated {
                        epoch,
                        state_crc,
                        op: op_name,
                    },
                )],
                repl_entry,
                applied,
                coalesced,
                batch_len: 1,
                wal_stats: machine.wal_stats(),
                batch_trace,
                fatal: false,
            };
            sync_tx.send(msg).is_ok()
        }
        Err(e) => {
            let fatal = matches!(e, IrisError::Io { .. });
            if fatal {
                iris_telemetry::global()
                    .counter("iris_service_wal_errors_total")
                    .inc();
            }
            let msg = SyncMsg {
                snapshot: None,
                replies: vec![(
                    dest,
                    DeferredReply::Failed {
                        op: op_name,
                        err: e,
                    },
                )],
                repl_entry: None,
                appended: false,
                applied: 0,
                coalesced: 0,
                batch_len: 1,
                wal_stats: machine.wal_stats(),
                batch_trace,
                fatal,
            };
            let sent = sync_tx.send(msg).is_ok();
            if fatal {
                shared.shutdown.store(true, Ordering::SeqCst);
                return false;
            }
            sent
        }
    }
}

/// The group-commit thread: drain every batch the mutator produced
/// while the previous fsync was in flight, make them all durable with
/// one fsync, publish the newest snapshot (rebuilding the
/// pre-serialized read buffers), and only then route cut
/// acknowledgements back to their shards.
fn syncer_loop(
    rx: &Receiver<SyncMsg>,
    shared: &Shared,
    handle: Option<WalSyncHandle>,
    done_txs: &[Sender<(CutDest, DeferredReply)>],
    wakers: &[Arc<Waker>],
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
                        telemetry.counter("iris_service_wal_errors_total").inc();
                        fatal = true;
                        for msg in &mut group {
                            msg.snapshot = None;
                            msg.repl_entry = None;
                            for (_, reply) in &mut msg.replies {
                                let op = reply.op();
                                *reply = DeferredReply::Failed {
                                    op,
                                    err: IrisError::Io {
                                        detail: "WAL group fsync failed".to_owned(),
                                    },
                                };
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
            match build_published(
                &shared.plan,
                shared.dc_count,
                shared.huts,
                shared.edge_count,
                Arc::clone(&next),
            ) {
                Ok(p) => {
                    *shared.published.write() = Arc::new(p);
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
            let mut log = shared.repl_log.lock();
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
        let mut touched = vec![published_now; done_txs.len()];
        for msg in group {
            for (dest, reply) in msg.replies {
                if dest.shard < done_txs.len() && done_txs[dest.shard].send((dest, reply)).is_ok() {
                    touched[dest.shard] = true;
                }
            }
        }
        for (shard, wake) in touched.into_iter().enumerate() {
            if wake {
                wakers[shard].wake();
            }
        }
        if fatal {
            shared.shutdown.store(true, Ordering::SeqCst);
            for waker in wakers {
                waker.wake();
            }
            return;
        }
    }
}

/// Telemetry labels for every operation a connection can carry
/// (`invalid` covers undecodable requests).
const OPS: [&str; 14] = [
    "get_plan",
    "get_plan_at",
    "get_topology",
    "query_path",
    "update_demand",
    "report_fiber_cut",
    "health",
    "metrics_snapshot",
    "trace_dump",
    "hello",
    "replicate",
    "sync_state",
    "promote",
    "invalid",
];

fn op_idx(op: &str) -> usize {
    OPS.iter().position(|&o| o == op).unwrap_or(OPS.len() - 1)
}

/// Per-shard cached telemetry handles: registry lookups hash the metric
/// name, so the hot path resolves them once per shard instead of once
/// per request.
struct ShardMetrics {
    /// `(requests_total, latency_ms)` per op, [`OPS`] order.
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
            ops: OPS
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

/// Interest bitmask: bit 0 = read, bit 1 = write, 0 = deregistered.
const WANT_READ: u8 = 1;
const WANT_WRITE: u8 = 2;

fn interest_of(mask: u8) -> Interest {
    match mask {
        WANT_READ => Interest::READ,
        WANT_WRITE => Interest::WRITE,
        _ => Interest::READ_WRITE,
    }
}

/// One response owed to a connection, in request order. `framed` is
/// `None` while a `ReportFiberCut` waits for its batch's group commit;
/// everything behind it queues here so replies never reorder.
struct OutSlot {
    seq: u64,
    framed: Option<Vec<u8>>,
    op_start: Instant,
    trace_id: u64,
    codec: Codec,
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    /// Generation fence: slots are recycled, and a late cut reply must
    /// not land on a connection that reused the token.
    gen: u64,
    rbuf: Vec<u8>,
    rlen: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    out: VecDeque<OutSlot>,
    next_seq: u64,
    codec: Codec,
    /// Current poller registration (interest bitmask; 0 = deregistered).
    registered: u8,
    /// Stop reading; close once the write buffer and slot queue drain.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Self {
        Self {
            stream,
            gen,
            rbuf: Vec::new(),
            rlen: 0,
            wbuf: Vec::new(),
            wpos: 0,
            out: VecDeque::new(),
            next_seq: 0,
            codec: Codec::Json,
            registered: 0,
            closing: false,
        }
    }
}

/// One parked `GetPlanAt`: the slot to fill once the published epoch
/// reaches `min_epoch`, or with a typed `Timeout` once the deadline
/// passes.
struct EpochWait {
    token: usize,
    gen: u64,
    seq: u64,
    min_epoch: u64,
    deadline: Instant,
    wait_ms: u64,
}

/// One shard's event loop state.
struct ShardRunner {
    id: usize,
    shared: Arc<Shared>,
    tx: SyncSender<WriteOp>,
    poller: Poller,
    waker: Arc<Waker>,
    intake: Receiver<TcpStream>,
    done: Receiver<(CutDest, DeferredReply)>,
    done_alive: bool,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    metrics: ShardMetrics,
    /// Parked `GetPlanAt` requests, serviced every loop iteration.
    waits: Vec<EpochWait>,
}

impl ShardRunner {
    fn run(mut self, tick: Duration) {
        if self
            .poller
            .register(self.waker.fd(), WAKER_TOKEN, Interest::READ)
            .is_err()
        {
            return;
        }
        let mut events = Vec::new();
        loop {
            if self.poller.wait(&mut events, Some(tick)).is_err() {
                std::thread::sleep(tick);
            }
            self.waker.drain();
            while let Ok(stream) = self.intake.try_recv() {
                self.accept_stream(stream);
            }
            if self.done_alive {
                loop {
                    match self.done.try_recv() {
                        Ok((dest, reply)) => self.fill_deferred(dest, reply),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            self.done_alive = false;
                            self.fail_pending_cuts();
                            break;
                        }
                    }
                }
            }
            for ev in &events {
                if ev.token == WAKER_TOKEN {
                    continue;
                }
                self.on_event(ev.token, ev.readable, ev.writable, ev.error);
            }
            self.service_epoch_waits();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
        }
    }

    fn accept_stream(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Replies are small frames on a request/reply socket: without
        // NODELAY they sit out Nagle + delayed-ACK (~40 ms per call).
        let _ = stream.set_nodelay(true);
        self.next_gen += 1;
        let token = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let fd = stream.as_raw_fd();
        let mut conn = Conn::new(stream, self.next_gen);
        if self.poller.register(fd, token, Interest::READ).is_ok() {
            conn.registered = WANT_READ;
            self.conns[token] = Some(conn);
            self.metrics.connections.inc();
        } else {
            self.free.push(token);
        }
    }

    fn on_event(&mut self, token: usize, readable: bool, writable: bool, error: bool) {
        let Some(mut conn) = self.conns.get_mut(token).and_then(Option::take) else {
            return;
        };
        let mut alive = !error;
        if alive && readable {
            alive = self.conn_readable(&mut conn, token);
        }
        if alive && writable {
            alive = try_flush(&mut conn);
        }
        if alive {
            alive = self.finalize(&mut conn, token);
        }
        if alive {
            self.conns[token] = Some(conn);
        } else {
            self.drop_conn(&conn, token);
        }
    }

    fn drop_conn(&mut self, conn: &Conn, token: usize) {
        if conn.registered != 0 {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
        self.free.push(token);
    }

    /// Read until the socket would block, then parse and serve every
    /// complete frame buffered so far. Returns whether the connection
    /// stays alive.
    fn conn_readable(&mut self, conn: &mut Conn, token: usize) -> bool {
        let mut budget = READ_BUDGET;
        loop {
            if conn.rbuf.len() < conn.rlen + 4096 {
                conn.rbuf.resize(conn.rlen + READ_CHUNK, 0);
            }
            match conn.stream.read(&mut conn.rbuf[conn.rlen..]) {
                Ok(0) => {
                    // EOF: serve what's buffered, flush, then close.
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    conn.rlen += n;
                    budget = budget.saturating_sub(n);
                    if budget == 0 {
                        break; // level-triggered: the rest re-reports
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        let mut off = 0;
        while !conn.closing {
            match parse_frame(&conn.rbuf[off..conn.rlen]) {
                Ok(Some(frame)) => {
                    off += frame.consumed;
                    self.process_request(conn, token, &frame.payload, frame.trace_id);
                }
                Ok(None) => break,
                Err(e) => {
                    // The stream state is unknown after a framing
                    // error: answer best-effort, flush, then close.
                    self.deliver(conn, &Response::Error(e), conn.codec);
                    conn.closing = true;
                }
            }
        }
        if conn.closing {
            conn.rlen = 0;
        } else if off > 0 {
            conn.rbuf.copy_within(off..conn.rlen, 0);
            conn.rlen -= off;
        }
        true
    }

    /// Decode and dispatch one request payload.
    fn process_request(
        &mut self,
        conn: &mut Conn,
        token: usize,
        payload: &[u8],
        frame_trace: Option<u64>,
    ) {
        let start = Instant::now();
        // A client-supplied trace id (frame header) wins so the caller
        // can correlate; otherwise mint one server-side.
        let trace_id = frame_trace.unwrap_or_else(iris_telemetry::trace::mint_trace_id);
        let req = match codec::decode_request(conn.codec, payload) {
            Ok(req) => req,
            Err(e) => {
                // Decode errors keep the connection: the frame was
                // well-formed, so the stream stays in sync.
                self.deliver(conn, &Response::Error(e), conn.codec);
                self.record("invalid", start, trace_id);
                return;
            }
        };
        let op = req.op();
        let span = iris_telemetry::trace::root_span(trace_id, op);
        match req {
            Request::GetPlan => {
                let published = Arc::clone(&*self.shared.published.read());
                self.deliver_pre(conn, &published.plan_framed[cidx(conn.codec)]);
            }
            Request::GetPlanAt { min_epoch, wait_ms } => {
                let published = Arc::clone(&*self.shared.published.read());
                if published.snap.epoch >= min_epoch {
                    self.deliver_pre(conn, &published.plan_framed[cidx(conn.codec)]);
                } else {
                    // Park: the slot fills from a later publication, or
                    // with a typed Timeout at the deadline. A parked
                    // slot keeps replies behind it ordered, exactly
                    // like a pending cut ack.
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.out.push_back(OutSlot {
                        seq,
                        framed: None,
                        op_start: start,
                        trace_id,
                        codec: conn.codec,
                    });
                    self.waits.push(EpochWait {
                        token,
                        gen: conn.gen,
                        seq,
                        min_epoch,
                        deadline: start + Duration::from_millis(wait_ms),
                        wait_ms,
                    });
                    drop(span);
                    return; // recorded when the wait resolves
                }
            }
            Request::GetTopology => {
                let published = Arc::clone(&*self.shared.published.read());
                self.deliver_pre(conn, &published.topo_framed[cidx(conn.codec)]);
            }
            Request::QueryPath { a, b } => {
                let resp = self.query_path_response(a, b);
                self.deliver(conn, &resp, conn.codec);
            }
            Request::UpdateDemand { a, b, circuits } => {
                if !self.shared.is_primary.load(Ordering::SeqCst) {
                    let resp = Response::Error(IrisError::NotPrimary {
                        region: self.shared.region,
                    });
                    self.deliver(conn, &resp, conn.codec);
                } else {
                    match normalize_pair(a, b, self.shared.dc_count) {
                        Err(e) => self.deliver(conn, &Response::Error(e), conn.codec),
                        Ok((a, b)) => {
                            // Acknowledge-after-durable, like cuts: the
                            // DemandAccepted leaves only after the group
                            // commit, carrying the commit epoch as the
                            // client's read-your-writes fence.
                            let seq = conn.next_seq;
                            conn.next_seq += 1;
                            conn.out.push_back(OutSlot {
                                seq,
                                framed: None,
                                op_start: start,
                                trace_id,
                                codec: conn.codec,
                            });
                            let dest = CutDest {
                                shard: self.id,
                                token,
                                gen: conn.gen,
                                seq,
                            };
                            match self.enqueue(WriteOp::Update {
                                a,
                                b,
                                circuits,
                                dest,
                                enqueued: Instant::now(),
                            }) {
                                Ok(_) => {
                                    drop(span);
                                    return; // recorded at fill time
                                }
                                Err(e) => {
                                    conn.out.pop_back();
                                    self.deliver(conn, &Response::Error(e), conn.codec);
                                }
                            }
                        }
                    }
                }
            }
            Request::ReportFiberCut { cuts } => {
                if !self.shared.is_primary.load(Ordering::SeqCst) {
                    let resp = Response::Error(IrisError::NotPrimary {
                        region: self.shared.region,
                    });
                    self.deliver(conn, &resp, conn.codec);
                } else if let Some(err) = self.validate_cuts(&cuts) {
                    self.deliver(conn, &err, conn.codec);
                } else {
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.out.push_back(OutSlot {
                        seq,
                        framed: None,
                        op_start: start,
                        trace_id,
                        codec: conn.codec,
                    });
                    let dest = CutDest {
                        shard: self.id,
                        token,
                        gen: conn.gen,
                        seq,
                    };
                    match self.enqueue(WriteOp::Cut {
                        cuts,
                        dest,
                        enqueued: Instant::now(),
                    }) {
                        Ok(_) => {
                            // The ack routes back after the group
                            // commit; latency is recorded at fill time.
                            drop(span);
                            return;
                        }
                        Err(e) => {
                            conn.out.pop_back();
                            self.deliver(conn, &Response::Error(e), conn.codec);
                        }
                    }
                }
            }
            Request::Replicate { batch, .. } => {
                if self.shared.is_primary.load(Ordering::SeqCst) {
                    // Two primaries shipping at each other is a config
                    // error (or a split brain); refuse rather than fork
                    // the epoch chain.
                    let resp = Response::Error(IrisError::InvalidInput {
                        detail: format!(
                            "region {} is a primary and does not accept replicated batches",
                            self.shared.region
                        ),
                    });
                    self.deliver(conn, &resp, conn.codec);
                } else {
                    self.defer_repl_write(
                        conn,
                        token,
                        start,
                        trace_id,
                        WriteOpKind::Replicate(batch),
                    );
                    drop(span);
                    return; // recorded at fill time
                }
            }
            Request::SyncState { state, .. } => {
                if self.shared.is_primary.load(Ordering::SeqCst) {
                    let resp = Response::Error(IrisError::InvalidInput {
                        detail: format!(
                            "region {} is a primary and does not accept state syncs",
                            self.shared.region
                        ),
                    });
                    self.deliver(conn, &resp, conn.codec);
                } else {
                    self.defer_repl_write(
                        conn,
                        token,
                        start,
                        trace_id,
                        WriteOpKind::SyncState(state),
                    );
                    drop(span);
                    return; // recorded at fill time
                }
            }
            Request::Promote => {
                // Idempotent: promoting a primary changes nothing. The
                // reply is the enriched health row so the caller sees
                // the new role immediately.
                self.shared.is_primary.store(true, Ordering::SeqCst);
                let resp = self.health_response();
                self.deliver(conn, &resp, conn.codec);
            }
            Request::Health => {
                let resp = self.health_response();
                self.deliver(conn, &resp, conn.codec);
            }
            Request::MetricsSnapshot => {
                iris_telemetry::global()
                    .gauge("iris_service_uptime_ms")
                    .set(self.shared.start.elapsed().as_millis() as i64);
                let resp = Response::Metrics {
                    prometheus: iris_telemetry::global().snapshot().to_prometheus_text(),
                };
                self.deliver(conn, &resp, conn.codec);
            }
            Request::TraceDump { max_events } => {
                let resp = trace_dump_response(max_events);
                self.deliver(conn, &resp, conn.codec);
            }
            Request::Hello { codec: name } => match Codec::from_name(&name) {
                Some(next) => {
                    // Ack in the *old* codec, then switch: the client
                    // decodes the ack before changing its own framing.
                    let old = conn.codec;
                    self.deliver(
                        conn,
                        &Response::HelloAck {
                            codec: next.name().to_owned(),
                        },
                        old,
                    );
                    conn.codec = next;
                }
                None => {
                    let resp = Response::Error(IrisError::InvalidInput {
                        detail: format!("unknown codec {name:?} (expected \"json\" or \"binary\")"),
                    });
                    self.deliver(conn, &resp, conn.codec);
                }
            },
        }
        drop(span);
        self.record(op, start, trace_id);
    }

    fn record(&self, op: &'static str, start: Instant, trace_id: u64) {
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        iris_telemetry::trace::note_if_slow(op, elapsed_ms, trace_id);
        let (count, latency) = &self.metrics.ops[op_idx(op)];
        count.inc();
        latency.record(elapsed_ms);
        self.metrics.shard_requests.inc();
    }

    /// Queue `resp` for the connection: straight into the write buffer
    /// when nothing is pending, else as a filled slot behind whatever
    /// still waits (so replies keep request order).
    fn deliver(&self, conn: &mut Conn, resp: &Response, codec: Codec) {
        if conn.out.is_empty() {
            if frame_response(codec, resp, &mut conn.wbuf).is_err() {
                let frame = encode_error_frame(codec);
                if frame.is_empty() {
                    conn.closing = true;
                } else {
                    conn.wbuf.extend_from_slice(&frame);
                }
            }
        } else {
            let mut buf = Vec::new();
            if frame_response(codec, resp, &mut buf).is_err() {
                let fallback = encode_error_frame(codec);
                buf = fallback;
            }
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.out.push_back(OutSlot {
                seq,
                framed: Some(buf),
                op_start: Instant::now(),
                trace_id: 0,
                codec,
            });
        }
    }

    /// Queue an already-framed (pre-serialized) reply.
    fn deliver_pre(&self, conn: &mut Conn, framed: &[u8]) {
        if conn.out.is_empty() {
            conn.wbuf.extend_from_slice(framed);
        } else {
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.out.push_back(OutSlot {
                seq,
                framed: Some(framed.to_vec()),
                op_start: Instant::now(),
                trace_id: 0,
                codec: conn.codec,
            });
        }
    }

    /// Promote filled slots into the write buffer, flush, and update
    /// the poller registration. Returns whether the connection stays
    /// alive.
    fn finalize(&mut self, conn: &mut Conn, token: usize) -> bool {
        while conn.out.front().is_some_and(|s| s.framed.is_some()) {
            let slot = conn.out.pop_front();
            if let Some(framed) = slot.and_then(|s| s.framed) {
                conn.wbuf.extend_from_slice(&framed);
            }
        }
        if !try_flush(conn) {
            return false;
        }
        let want_write = conn.wpos < conn.wbuf.len();
        if conn.closing && !want_write && conn.out.is_empty() {
            return false;
        }
        let mut desired = 0u8;
        if !conn.closing {
            desired |= WANT_READ;
        }
        if want_write {
            desired |= WANT_WRITE;
        }
        if desired != conn.registered {
            let fd = conn.stream.as_raw_fd();
            let ok = match (conn.registered, desired) {
                (0, 0) => Ok(()),
                (0, d) => self.poller.register(fd, token, interest_of(d)),
                (_, 0) => self.poller.deregister(fd),
                (_, d) => self.poller.modify(fd, token, interest_of(d)),
            };
            if ok.is_err() {
                return false;
            }
            conn.registered = desired;
        }
        true
    }

    /// Park a replication write exactly like a cut: slot first, then
    /// enqueue; the `ReplicateAck` routes back after the group commit.
    fn defer_repl_write(
        &mut self,
        conn: &mut Conn,
        token: usize,
        start: Instant,
        trace_id: u64,
        kind: WriteOpKind,
    ) {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.out.push_back(OutSlot {
            seq,
            framed: None,
            op_start: start,
            trace_id,
            codec: conn.codec,
        });
        let dest = CutDest {
            shard: self.id,
            token,
            gen: conn.gen,
            seq,
        };
        let op = match kind {
            WriteOpKind::Replicate(batch_json) => WriteOp::Replicate {
                batch_json,
                dest,
                enqueued: Instant::now(),
            },
            WriteOpKind::SyncState(state_json) => WriteOp::SyncState {
                state_json,
                dest,
                enqueued: Instant::now(),
            },
        };
        if let Err(e) = self.enqueue(op) {
            conn.out.pop_back();
            self.deliver(conn, &Response::Error(e), conn.codec);
        }
    }

    /// Route one durable deferred acknowledgement into its waiting slot.
    fn fill_deferred(&mut self, dest: CutDest, reply: DeferredReply) {
        let Some(mut conn) = self.conns.get_mut(dest.token).and_then(Option::take) else {
            return;
        };
        if conn.gen != dest.gen {
            // The token was recycled; the original peer is gone.
            self.conns[dest.token] = Some(conn);
            return;
        }
        if let Some(slot) = conn
            .out
            .iter_mut()
            .find(|s| s.seq == dest.seq && s.framed.is_none())
        {
            let op = reply.op();
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
                DeferredReply::Replicated {
                    epoch, state_crc, ..
                } => Response::ReplicateAck { epoch, state_crc },
                DeferredReply::Failed { err, .. } => Response::Error(err),
            };
            let mut buf = Vec::new();
            if frame_response(slot.codec, &resp, &mut buf).is_err() {
                buf = encode_error_frame(slot.codec);
            }
            let elapsed_ms = slot.op_start.elapsed().as_secs_f64() * 1e3;
            let trace_id = slot.trace_id;
            slot.framed = Some(buf);
            iris_telemetry::trace::note_if_slow(op, elapsed_ms, trace_id);
            let (count, latency) = &self.metrics.ops[op_idx(op)];
            count.inc();
            latency.record(elapsed_ms);
            self.metrics.shard_requests.inc();
        }
        if self.finalize(&mut conn, dest.token) {
            self.conns[dest.token] = Some(conn);
        } else {
            self.drop_conn(&conn, dest.token);
        }
    }

    /// Resolve parked `GetPlanAt` requests: fill with the published
    /// plan once the epoch catches up, or with a typed `Timeout` at the
    /// deadline.
    fn service_epoch_waits(&mut self) {
        if self.waits.is_empty() {
            return;
        }
        let published = Arc::clone(&*self.shared.published.read());
        let epoch = published.snap.epoch;
        let now = Instant::now();
        let mut i = 0;
        while i < self.waits.len() {
            let ready = epoch >= self.waits[i].min_epoch;
            let expired = now >= self.waits[i].deadline;
            if !ready && !expired {
                i += 1;
                continue;
            }
            let wait = self.waits.swap_remove(i);
            self.fill_wait(&published, &wait, ready);
        }
    }

    /// Fill one resolved epoch-wait slot (satisfied or timed out).
    fn fill_wait(&mut self, published: &Published, wait: &EpochWait, ready: bool) {
        let Some(mut conn) = self.conns.get_mut(wait.token).and_then(Option::take) else {
            return;
        };
        if conn.gen != wait.gen {
            self.conns[wait.token] = Some(conn);
            return;
        }
        if let Some(slot) = conn
            .out
            .iter_mut()
            .find(|s| s.seq == wait.seq && s.framed.is_none())
        {
            let buf = if ready {
                published.plan_framed[cidx(slot.codec)].clone()
            } else {
                let resp = Response::Error(IrisError::Timeout {
                    what: format!("epoch wait for epoch {}", wait.min_epoch),
                    after_ms: wait.wait_ms,
                });
                let mut buf = Vec::new();
                if frame_response(slot.codec, &resp, &mut buf).is_err() {
                    buf = encode_error_frame(slot.codec);
                }
                buf
            };
            let elapsed_ms = slot.op_start.elapsed().as_secs_f64() * 1e3;
            let trace_id = slot.trace_id;
            slot.framed = Some(buf);
            iris_telemetry::trace::note_if_slow("get_plan_at", elapsed_ms, trace_id);
            let (count, latency) = &self.metrics.ops[op_idx("get_plan_at")];
            count.inc();
            latency.record(elapsed_ms);
            self.metrics.shard_requests.inc();
        }
        if self.finalize(&mut conn, wait.token) {
            self.conns[wait.token] = Some(conn);
        } else {
            self.drop_conn(&conn, wait.token);
        }
    }

    /// The reply channel died with acknowledgements still pending:
    /// answer them (cuts, demand acks, replication acks, parked epoch
    /// waits alike) with a typed error instead of leaving clients
    /// hanging.
    fn fail_pending_cuts(&mut self) {
        for token in 0..self.conns.len() {
            let Some(mut conn) = self.conns.get_mut(token).and_then(Option::take) else {
                continue;
            };
            let mut filled = false;
            for slot in conn.out.iter_mut().filter(|s| s.framed.is_none()) {
                let resp = Response::Error(IrisError::Io {
                    detail: "mutator exited before the write committed".to_owned(),
                });
                let mut buf = Vec::new();
                if frame_response(slot.codec, &resp, &mut buf).is_err() {
                    buf = encode_error_frame(slot.codec);
                }
                slot.framed = Some(buf);
                filled = true;
            }
            if !filled || self.finalize(&mut conn, token) {
                self.conns[token] = Some(conn);
            } else {
                self.drop_conn(&conn, token);
            }
        }
    }

    fn query_path_response(&self, a: usize, b: usize) -> Response {
        match normalize_pair(a, b, self.shared.dc_count) {
            Err(e) => Response::Error(e),
            Ok((a, b)) => {
                let snap = Arc::clone(&self.shared.published.read().snap);
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

    fn validate_cuts(&self, cuts: &[usize]) -> Option<Response> {
        if cuts.is_empty() {
            return Some(Response::Error(IrisError::InvalidInput {
                detail: "ReportFiberCut needs at least one duct id".to_owned(),
            }));
        }
        if let Some(&bad) = cuts.iter().find(|&&c| c >= self.shared.edge_count) {
            return Some(Response::Error(IrisError::InvalidInput {
                detail: format!(
                    "cut duct {bad} out of range (region has {} ducts)",
                    self.shared.edge_count
                ),
            }));
        }
        None
    }

    fn health_response(&self) -> Response {
        let snap = Arc::clone(&self.shared.published.read().snap);
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
    /// the channel the syncer may consume the batch and decrement at
    /// any moment, so counting afterwards would race the decrement and
    /// underflow.
    fn enqueue(&self, op: WriteOp) -> IrisResult<usize> {
        let depth = self.shared.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        match self.tx.try_send(op) {
            Ok(()) => {
                self.metrics.queue_gauge.set(depth as i64);
                Ok(depth)
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

/// Write buffered bytes until the socket would block. Returns whether
/// the connection stays alive.
fn try_flush(conn: &mut Conn) -> bool {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > READ_CHUNK {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    true
}

/// Frame a generic encode-failure error, falling back to an empty
/// (connection-closing) buffer if even that cannot be encoded.
fn encode_error_frame(codec: Codec) -> Vec<u8> {
    let err = Response::Error(IrisError::Decode {
        detail: "response could not be encoded".to_owned(),
    });
    let mut buf = Vec::new();
    let _ = frame_response(codec, &err, &mut buf);
    buf
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
