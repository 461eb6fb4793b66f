//! Primary-to-follower replication: the per-peer pump that ships
//! published batches, and the bounded window it ships from.

use crate::api::{Request, Response};
use crate::client::{Backoff, ServiceClient};
use crate::codec::Codec;
use crate::server::Shared;
use crate::wal::PersistedSnapshot;
use iris_errors::IrisError;
use iris_telemetry::labeled;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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
            region: AtomicU64::new(0),
            acked_epoch: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            reconnects: AtomicU64::new(0),
            paused: AtomicBool::new(false),
        }
    }
}

/// Sleep up to `ms` in short slices, returning early (false) when
/// shutdown is requested — keeps replicator backoffs from delaying
/// [`crate::ServiceHandle::shutdown`].
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
pub(crate) fn replicator_loop(shared: &Shared, peer: &PeerState, idx: usize) {
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
