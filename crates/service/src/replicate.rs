//! Primary-to-follower replication: the per-peer pump that ships
//! published batches, and the bounded window it ships from. How a
//! follower is dialled and re-dialled is [`iris_wire::client`]'s.

use crate::api::{Request, Response, Service};
use crate::client::{call, call_retrying, Backoff};
use crate::server::Shared;
use crate::wal::PersistedSnapshot;
use iris_errors::{IrisError, IrisResult};
use iris_telemetry::{labeled, Counter};
use iris_wire::PeerLink;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// Published batches the primary keeps in memory for incremental
/// WAL-shipping; followers further behind resync via a full
/// [`Request::SyncState`] snapshot instead.
pub(crate) const REPL_LOG_CAP: usize = 1024;

/// One published batch retained for incremental replication: the epoch,
/// the canonical-state CRC a correct follower must report back, and the
/// serialized [`crate::wal::WalBatch`].
#[derive(Clone)]
pub(crate) struct ReplEntry {
    pub(crate) epoch: u64,
    pub(crate) state_crc: u32,
    pub(crate) batch_json: Arc<String>,
}

/// What the primary knows about one replication peer; written by the
/// peer's replicator thread, read by `Health` and the chaos harness.
#[derive(Default)]
pub(crate) struct PeerState {
    pub(crate) addr: String,
    /// The peer's region id as learned from its `Health` reply (0 until
    /// the first successful probe).
    pub(crate) region: AtomicU64,
    pub(crate) acked_epoch: AtomicU64,
    pub(crate) connected: AtomicBool,
    pub(crate) reconnects: AtomicU64,
    /// Partition-simulation switch: while set, the replicator drops the
    /// connection and ships nothing, so the peer lags exactly like one
    /// behind a severed inter-region link.
    pub(crate) paused: AtomicBool,
}

impl PeerState {
    pub(crate) fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_owned(),
            ..Self::default()
        }
    }
}

/// Sleep up to `ms` in short slices, returning early (false) when
/// shutdown is requested — keeps replicator backoffs from delaying
/// [`crate::ServiceHandle::shutdown`].
fn nap(shared: &Shared, ms: u64) -> bool {
    let mut left = ms;
    while left > 0 && !shared.shutdown.load(Ordering::SeqCst) {
        let step = left.min(20);
        std::thread::sleep(Duration::from_millis(step));
        left -= step;
    }
    !shared.shutdown.load(Ordering::SeqCst)
}

/// What one peer's pump reads and the counters it feeds.
struct Pump<'a> {
    shared: &'a Shared,
    peer: &'a PeerState,
    shipped: Arc<Counter>,
    synced: Arc<Counter>,
    crc_mismatch: Arc<Counter>,
}

/// One peer's replication pump, running for the server's lifetime and
/// active only while this instance is primary and the peer is not
/// paused (partitioned); an inactive pump holds no connection. Any
/// failure — connect, handshake, probe or ship — is one `reconnects`
/// count, one delay from the link's schedule, and a new session.
pub(crate) fn replicator_loop(shared: &Shared, peer: &PeerState, idx: usize) {
    let telemetry = iris_telemetry::global();
    let per_peer = |name| telemetry.counter(&labeled(name, "peer", &peer.addr));
    let pump = Pump {
        shared,
        peer,
        shipped: per_peer("iris_service_replicated_batches_total"),
        synced: per_peer("iris_service_state_syncs_total"),
        crc_mismatch: telemetry.counter("iris_service_replication_crc_mismatch_total"),
    };
    let active = || {
        !shared.shutdown.load(Ordering::SeqCst)
            && shared.is_primary.load(Ordering::SeqCst)
            && !peer.paused.load(Ordering::SeqCst)
    };
    loop {
        if !active() {
            peer.connected.store(false, Ordering::SeqCst);
            if !nap(shared, 5) {
                return;
            }
            continue;
        }
        // A hung or partitioned follower must not wedge the pump.
        let mut link = PeerLink::new(
            &peer.addr,
            Some(Duration::from_millis(2000)),
            Backoff::new(5, 500, 0x5EED_u64 ^ (shared.region << 8) ^ idx as u64),
        );
        let mut next_epoch = 0;
        while active() {
            let pause_ms = match pump.ship(&mut link, &mut next_epoch) {
                Ok(true) => continue,
                // Caught up; poll for the next publish.
                Ok(false) => 1,
                Err(_) => {
                    peer.connected.store(false, Ordering::SeqCst);
                    peer.reconnects.fetch_add(1, Ordering::SeqCst);
                    link.fail()
                }
            };
            if !nap(shared, pause_ms) {
                return;
            }
        }
    }
}

impl Pump<'_> {
    /// One step of a session, which opens by probing `Health` for the
    /// follower's region and resume epoch: ship the batch at `next_epoch`
    /// from the in-memory replication window, checking the `ReplicateAck`
    /// CRC against the primary's own canonical-state CRC at that epoch. A
    /// follower behind the window (or answering with an epoch-chain gap
    /// or CRC divergence) gets one full `SyncState` snapshot instead.
    /// `Ok(false)` when there is nothing to ship yet.
    fn ship(&self, link: &mut PeerLink<Service>, next_epoch: &mut u64) -> IrisResult<bool> {
        let (shared, peer) = (self.shared, self.peer);
        let conn = link.session(|fresh| {
            let Response::Health(follower) = call(fresh, &Request::Health)? else {
                return Err(unexpected("Health"));
            };
            peer.region.store(follower.region, Ordering::SeqCst);
            peer.acked_epoch.store(follower.epoch, Ordering::SeqCst);
            peer.connected.store(true, Ordering::SeqCst);
            *next_epoch = follower.epoch + 1;
            Ok(())
        })?;
        if *next_epoch > shared.snapshot().epoch {
            return Ok(false);
        }
        let entry = {
            let log = shared.repl_log.lock();
            let log = log.unwrap_or_else(PoisonError::into_inner);
            log.iter().find(|e| e.epoch == *next_epoch).cloned()
        };
        if let Some(entry) = entry {
            let batch = Request::Replicate {
                source_region: shared.region,
                batch: (*entry.batch_json).clone(),
            };
            match call_retrying(conn, &batch, 4) {
                Ok(Response::ReplicateAck { epoch, state_crc }) if state_crc == entry.state_crc => {
                    self.shipped.inc();
                    peer.acked_epoch.store(epoch, Ordering::SeqCst);
                    *next_epoch = epoch + 1;
                    return Ok(true);
                }
                // The follower committed the batch but its state
                // diverged: fall back to a full snapshot.
                Ok(Response::ReplicateAck { .. }) => self.crc_mismatch.inc(),
                Err(IrisError::ReplayFailed { .. }) => {}
                Ok(_) => return Err(unexpected("Replicate")),
                Err(e) => return Err(e),
            }
        }
        let snap = shared.snapshot();
        let state = serde_json::to_string(&PersistedSnapshot::from_state(&snap))
            .map_err(|_| unexpected("serializing the state"))?;
        let sync = Request::SyncState {
            source_region: shared.region,
            state,
        };
        let Response::ReplicateAck { epoch, state_crc } = call_retrying(conn, &sync, 4)? else {
            return Err(unexpected("SyncState"));
        };
        self.synced.inc();
        if state_crc != snap.state_crc() {
            self.crc_mismatch.inc();
        }
        peer.acked_epoch.store(epoch, Ordering::SeqCst);
        *next_epoch = epoch + 1;
        Ok(true)
    }
}

fn unexpected(what: &str) -> IrisError {
    IrisError::Decode {
        detail: format!("replication: unexpected outcome of {what}"),
    }
}
