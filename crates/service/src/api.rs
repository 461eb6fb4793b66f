//! The service's typed request/response surface.
//!
//! Requests and responses travel inside the length-prefixed frames of
//! [`crate::frame`], as externally-tagged JSON or in the binary layout
//! [`crate::codec`] declares. Every type here is a
//! concrete struct or enum (the workspace's offline serde derive does
//! not handle generics), and pair-keyed maps are flattened into
//! `Vec<AllocEntry>` so the wire shape is plain JSON objects.

use iris_errors::{IrisError, IrisResult};
use iris_wire::{Codec, Protocol};
use serde::{Deserialize, Serialize};

/// A client request. Reads (`GetPlan`, `GetTopology`, `QueryPath`,
/// `Health`, `MetricsSnapshot`) are served from the current published
/// snapshot without touching the write path. `UpdateDemand` is enqueued
/// to the mutator and acknowledged immediately (redundant updates for
/// the same pair coalesce); `ReportFiberCut` is enqueued and the reply
/// carries the completed recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Summary of the current Iris plan.
    GetPlan,
    /// `GetPlan` with a read-your-writes fence: the reply is deferred
    /// until the snapshot epoch reaches `min_epoch`, or fails with a
    /// typed [`IrisError::Timeout`] after `wait_ms` so the caller can
    /// redirect to a less stale region.
    GetPlanAt {
        /// The reply must come from an epoch `>= min_epoch`.
        min_epoch: u64,
        /// How long the server may park the reply, ms (0 = fail
        /// immediately when behind).
        wait_ms: u64,
    },
    /// The region topology plus the live allocation.
    GetTopology,
    /// The surviving path a DC pair's circuit currently rides.
    QueryPath {
        /// First DC index.
        a: usize,
        /// Second DC index.
        b: usize,
    },
    /// Set the circuit count for one DC pair.
    UpdateDemand {
        /// First DC index.
        a: usize,
        /// Second DC index.
        b: usize,
        /// Target circuits for the pair.
        circuits: u32,
    },
    /// Fail a set of ducts and recover onto surviving capacity.
    ReportFiberCut {
        /// Duct ids to cut (cumulative with earlier cuts).
        cuts: Vec<usize>,
    },
    /// Liveness + write-path state.
    Health,
    /// The process-global telemetry registry, rendered as Prometheus
    /// text.
    MetricsSnapshot,
    /// Dump the flight recorder: recent trace events plus the
    /// slow-request log.
    TraceDump {
        /// Newest events to return; 0 asks for the server default
        /// (bounded so the reply fits one frame).
        max_events: u64,
    },
    /// Negotiate the wire codec for the rest of this connection.
    ///
    /// Sent in the connection's *current* codec (JSON at connect time).
    /// The server answers [`Response::HelloAck`] in the old codec, then
    /// both sides switch. A connection that never sends `Hello` speaks
    /// JSON forever, so every pre-existing client keeps working.
    Hello {
        /// Requested codec name; see [`crate::codec::Codec::from_name`].
        codec: String,
    },
    /// One WAL batch shipped from a primary region to a follower. The
    /// payload is the WAL's own record form ([`crate::wal::WalBatch`] as
    /// JSON), so the follower's log ends up byte-compatible with the
    /// primary's. Replayed through the shared `ControlMachine`; answered
    /// with [`Response::ReplicateAck`] once durable and published.
    Replicate {
        /// Region id of the shipping primary.
        source_region: u64,
        /// The serialized `WalBatch` (epoch `follower_epoch + 1`).
        batch: String,
    },
    /// Full-state resync for a follower too far behind the primary's
    /// in-memory replication window: a serialized
    /// [`crate::wal::PersistedSnapshot`] the follower adopts wholesale
    /// before the batch stream resumes.
    SyncState {
        /// Region id of the shipping primary.
        source_region: u64,
        /// The serialized `PersistedSnapshot`.
        state: String,
    },
    /// Promote this follower to primary (region failover). Idempotent on
    /// a primary; the reply is the post-promotion [`Response::Health`].
    Promote,
}

impl Request {
    /// Every operation name, in [`Request::op_index`] order, then
    /// `invalid`: the telemetry label of a request that did not decode.
    pub const OPS: [&'static str; 14] = [
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

    /// This operation's place in [`Request::OPS`].
    #[must_use]
    pub fn op_index(&self) -> usize {
        match self {
            Request::GetPlan => 0,
            Request::GetPlanAt { .. } => 1,
            Request::GetTopology => 2,
            Request::QueryPath { .. } => 3,
            Request::UpdateDemand { .. } => 4,
            Request::ReportFiberCut { .. } => 5,
            Request::Health => 6,
            Request::MetricsSnapshot => 7,
            Request::TraceDump { .. } => 8,
            Request::Hello { .. } => 9,
            Request::Replicate { .. } => 10,
            Request::SyncState { .. } => 11,
            Request::Promote => 12,
        }
    }

    /// Stable snake_case operation name, used as the telemetry label.
    #[must_use]
    pub fn op(&self) -> &'static str {
        Self::OPS[self.op_index()]
    }

    /// Whether the request goes through the mutator queue.
    #[must_use]
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::UpdateDemand { .. }
                | Request::ReportFiberCut { .. }
                | Request::Replicate { .. }
                | Request::SyncState { .. }
        )
    }
}

/// One pair's circuit count in the live allocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocEntry {
    /// First DC index.
    pub a: usize,
    /// Second DC index.
    pub b: usize,
    /// Circuits allocated to the pair.
    pub circuits: u32,
}

/// Summary of the planned network (from [`iris_planner::plan_iris`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSummary {
    /// Snapshot epoch this summary was read from.
    pub epoch: u64,
    /// DC count.
    pub dcs: usize,
    /// Ducts in the fiber map.
    pub ducts: usize,
    /// Ducts the plan actually provisions.
    pub used_ducts: usize,
    /// Cut tolerance `k` the plan was provisioned for.
    pub cut_tolerance: usize,
    /// Failure scenarios Algorithm 1 examined.
    pub scenarios_examined: u64,
    /// DC transceiver count.
    pub dc_transceivers: u64,
    /// Total leased fiber pair-spans.
    pub fiber_pair_spans: u64,
    /// Total OSS ports.
    pub oss_ports: u64,
    /// Whether all OC/TC constraints are met.
    pub feasible: bool,
}

/// The region topology plus live control-plane state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySummary {
    /// Snapshot epoch.
    pub epoch: u64,
    /// DC count.
    pub dcs: usize,
    /// Hut count.
    pub huts: usize,
    /// Duct count.
    pub ducts: usize,
    /// Ducts currently failed (cumulative cuts).
    pub active_cuts: Vec<usize>,
    /// The live circuit allocation, `(a, b)` ascending.
    pub allocation: Vec<AllocEntry>,
    /// Quarantined sites.
    pub quarantined: Vec<usize>,
}

/// The surviving path one DC pair's circuit rides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathInfo {
    /// First DC index.
    pub a: usize,
    /// Second DC index.
    pub b: usize,
    /// Site sequence.
    pub nodes: Vec<usize>,
    /// Duct sequence.
    pub edges: Vec<usize>,
    /// Path length, km.
    pub length_km: f64,
    /// Round-trip time over that fiber, ms.
    pub rtt_ms: f64,
    /// Circuits the pair currently holds.
    pub circuits: u32,
    /// Snapshot epoch.
    pub epoch: u64,
}

/// Compact record of one completed fiber-cut recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverySummary {
    /// The ducts failed in this recovery (the full cumulative set).
    pub cuts: Vec<usize>,
    /// Whether the cut set is within the planner's tolerance.
    pub within_tolerance: bool,
    /// Nothing shed, nothing overloaded, reconfiguration converged.
    pub fully_recovered: bool,
    /// Pairs shed (disconnected or SLA-violating post-cut).
    pub shed_pairs: usize,
    /// Modeled loss-of-signal detection delay, ms.
    pub detection_ms: f64,
    /// Modeled re-plan time, ms.
    pub replan_ms: f64,
    /// Reconfiguration wall time, ms.
    pub reconfig_ms: f64,
    /// End-to-end recovery time, ms.
    pub recovery_ms: f64,
}

/// One replication peer as the serving region sees it — the rows behind
/// `iris top`'s per-region view and the router's lag decisions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerInfo {
    /// The peer's region id (0 until the first successful probe learns
    /// it).
    pub region: u64,
    /// The peer's address, as configured.
    pub addr: String,
    /// Whether the replicator currently holds a live connection.
    pub connected: bool,
    /// Highest epoch the peer has acknowledged as durable + published.
    pub acked_epoch: u64,
    /// Replication lag in epochs (`local_epoch - acked_epoch`).
    pub lag_epochs: u64,
    /// Modeled replication lag, ms: lag in epochs × the batch
    /// cadence (coalesce window + 1 ms fsync slot). Deterministic for a
    /// given config; wall-clock lag is intentionally not serialized.
    pub lag_ms: f64,
    /// Times the replicator re-established the peer connection.
    pub reconnects: u64,
}

/// Liveness and write-path state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthInfo {
    /// Region id of the serving instance.
    pub region: u64,
    /// Serving role: `"primary"` (accepts writes, ships WAL batches) or
    /// `"follower"` (applies `Replicate` frames, rejects local writes).
    pub role: String,
    /// Replication peers and their lag, as seen from this region.
    /// Followers list their configured peers with no live state.
    pub peers: Vec<PeerInfo>,
    /// Snapshot epoch (increments on every applied write batch).
    pub epoch: u64,
    /// Writes waiting in the mutator queue right now.
    pub queue_depth: usize,
    /// Write operations applied since startup (post-coalescing).
    pub writes_applied: u64,
    /// Redundant `UpdateDemand`s absorbed by coalescing.
    pub coalesced: u64,
    /// Requests rejected with `Overloaded` since startup.
    pub overloaded: u64,
    /// Ducts currently failed.
    pub active_cuts: Vec<usize>,
    /// Quarantined site count.
    pub quarantined: usize,
    /// The most recent completed recovery, if any.
    pub last_recovery: Option<RecoverySummary>,
    /// Milliseconds since the server started serving.
    pub uptime_ms: u64,
    /// WAL records appended since the log was opened (0 when the
    /// server runs without durability).
    pub wal_records: u64,
    /// WAL bytes appended since the log was opened.
    pub wal_bytes: u64,
    /// Duration of the most recent WAL fsync, ms (0 before the first
    /// append or without a WAL).
    pub last_fsync_ms: f64,
}

/// One flight-recorder event on the wire. Mirrors
/// [`iris_telemetry::trace::TraceEvent`]; see there for field
/// semantics (notably: modeled events carry parent-relative starts).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEventInfo {
    /// Trace this event belongs to.
    pub trace_id: u64,
    /// Span id, unique within the server process.
    pub span_id: u32,
    /// Parent span id (0 = trace root).
    pub parent_id: u32,
    /// Pipeline stage name, e.g. `wal_fsync`.
    pub stage: String,
    /// Start offset, µs (epoch-relative, or parent-relative when
    /// modeled).
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Whether this is a modeled timeline step.
    pub modeled: bool,
}

/// One slow-request log entry on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowRequestInfo {
    /// The offending request's trace id.
    pub trace_id: u64,
    /// Request op (or `write_batch`).
    pub op: String,
    /// Total handling time, ms.
    pub total_ms: f64,
    /// When it was logged, µs since the recorder epoch.
    pub at_us: u64,
}

/// Reply body for [`Request::TraceDump`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDumpInfo {
    /// Whether the server's flight recorder is enabled.
    pub enabled: bool,
    /// Events overwritten in the ring before they could be dumped
    /// (lower bound).
    pub dropped: u64,
    /// Recorded events, oldest first, trimmed to the requested or
    /// server-side maximum.
    pub events: Vec<TraceEventInfo>,
    /// The slow-request log, oldest first.
    pub slow: Vec<SlowRequestInfo>,
}

/// A server reply. `Error` carries the typed [`IrisError`] — including
/// `Overloaded { retry_after_ms }` for backpressure — so clients get the
/// same error surface as in-process callers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Reply to [`Request::GetPlan`].
    Plan(PlanSummary),
    /// Reply to [`Request::GetTopology`].
    Topology(TopologySummary),
    /// Reply to [`Request::QueryPath`].
    Path(PathInfo),
    /// Reply to [`Request::UpdateDemand`]: the write batch containing
    /// this update has been applied, made durable (when a WAL is
    /// configured), and published. The carried epoch is the write's
    /// read-your-writes fence: a `GetPlanAt { min_epoch: epoch, .. }`
    /// against any region observes the update once that region caught
    /// up.
    DemandAccepted {
        /// Queue depth observed when the write was enqueued.
        queue_depth: usize,
        /// The epoch at which the update became visible.
        epoch: u64,
    },
    /// Reply to [`Request::ReportFiberCut`]: recovery has completed.
    Recovery(RecoverySummary),
    /// Reply to [`Request::ReportFiberCut`] when every requested duct is
    /// already severed: the report is an idempotent no-op — no epoch is
    /// consumed and no re-recovery runs.
    CutAlreadyActive {
        /// The (unchanged) cumulative active cut set, ascending.
        active_cuts: Vec<usize>,
    },
    /// Reply to [`Request::Health`].
    Health(HealthInfo),
    /// Reply to [`Request::MetricsSnapshot`].
    Metrics {
        /// The registry in Prometheus text exposition format.
        prometheus: String,
    },
    /// Reply to [`Request::TraceDump`].
    Trace(TraceDumpInfo),
    /// Reply to [`Request::Hello`]: the server accepted the codec
    /// switch. Encoded in the codec that was active *before* the
    /// switch.
    HelloAck {
        /// The codec now in effect for this connection.
        codec: String,
    },
    /// Reply to [`Request::Replicate`] / [`Request::SyncState`]: the
    /// follower applied the batch (or adopted the snapshot), fsync'd it
    /// into its own WAL, and published the snapshot. `state_crc` is the
    /// CRC-32 of the follower's canonical snapshot JSON at `epoch` — the
    /// primary compares it against its own snapshot at the same epoch,
    /// proving the replicas byte-identical at every acked epoch.
    ReplicateAck {
        /// The follower's snapshot epoch after applying.
        epoch: u64,
        /// CRC-32 of [`crate::state::StateSnapshot::canonical_json`] at
        /// that epoch.
        state_crc: u32,
    },
    /// The request failed.
    Error(IrisError),
}

impl Response {
    /// Unwrap into a result, mapping `Error` replies back to the typed
    /// error they carry.
    ///
    /// # Errors
    ///
    /// The transported [`IrisError`] for `Response::Error`.
    pub fn into_result(self) -> IrisResult<Response> {
        match self {
            Response::Error(e) => Err(e),
            other => Ok(other),
        }
    }
}

/// The control-plane protocol, as the transport sees it.
#[derive(Debug)]
pub struct Service;

impl Protocol for Service {
    type Request = Request;
    type Response = Response;
    const REPLY: &'static str = "response";

    fn hello(codec: Codec) -> Request {
        Request::Hello {
            codec: codec.name().to_owned(),
        }
    }

    fn hello_ack(reply: &Response) -> Option<&str> {
        match reply {
            Response::HelloAck { codec } => Some(codec),
            _ => None,
        }
    }

    fn into_result(reply: Response) -> IrisResult<Response> {
        reply.into_result()
    }

    fn op(req: &Request) -> &'static str {
        req.op()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_request, decode_response, Codec};

    #[test]
    fn op_names_are_stable_snake_case() {
        for req in [
            Request::GetPlan,
            Request::QueryPath { a: 0, b: 1 },
            Request::Health,
        ] {
            let op = req.op();
            assert!(op.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
        assert!(Request::UpdateDemand {
            a: 0,
            b: 1,
            circuits: 1
        }
        .is_write());
        assert!(!Request::GetPlan.is_write());
    }

    #[test]
    fn every_variant_has_its_own_slot_in_the_op_table() {
        let (s, n) = (String::new, 0);
        let all = [
            (Request::GetPlan, "get_plan"),
            (
                Request::GetPlanAt {
                    min_epoch: n,
                    wait_ms: n,
                },
                "get_plan_at",
            ),
            (Request::GetTopology, "get_topology"),
            (Request::QueryPath { a: 0, b: 1 }, "query_path"),
            (
                Request::UpdateDemand {
                    a: 0,
                    b: 1,
                    circuits: 1,
                },
                "update_demand",
            ),
            (Request::ReportFiberCut { cuts: vec![] }, "report_fiber_cut"),
            (Request::Health, "health"),
            (Request::MetricsSnapshot, "metrics_snapshot"),
            (Request::TraceDump { max_events: n }, "trace_dump"),
            (Request::Hello { codec: s() }, "hello"),
            (
                Request::Replicate {
                    source_region: n,
                    batch: s(),
                },
                "replicate",
            ),
            (
                Request::SyncState {
                    source_region: n,
                    state: s(),
                },
                "sync_state",
            ),
            (Request::Promote, "promote"),
        ];
        for (slot, (req, name)) in all.iter().enumerate() {
            assert_eq!((req.op_index(), req.op()), (slot, *name));
        }
        assert_eq!(Request::OPS[all.len()..], ["invalid"]);
    }

    #[test]
    fn error_responses_map_back_to_typed_errors() {
        let resp = Response::Error(IrisError::Overloaded { retry_after_ms: 40 });
        match resp.into_result() {
            Err(IrisError::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 40),
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn garbage_frames_are_decode_errors() {
        assert_eq!(
            decode_request(Codec::Json, b"\xff\xfe").unwrap_err().code(),
            "decode"
        );
        assert_eq!(
            decode_request(Codec::Json, b"{\"Nope\":1}")
                .unwrap_err()
                .code(),
            "decode"
        );
        assert_eq!(
            decode_response(Codec::Json, b"[1,2").unwrap_err().code(),
            "decode"
        );
    }
}
