//! Per-connection wire codecs: JSON (default) and a compact binary
//! encoding.
//!
//! Both codecs produce the *payload* of a [`crate::frame`] frame — the
//! length prefix, size cap, and optional trace header are codec
//! independent, which is why a trace id survives the binary encoding
//! unchanged. JSON stays the default so `nc`-level debugging and every
//! pre-existing client keep working; a connection opts into binary by
//! sending [`crate::api::Request::Hello`] (see there for the switch
//! protocol).
//!
//! The binary encoding is [`iris_wire::bin`]'s (value layouts, bounds
//! discipline and the trailing-byte rule are documented there); this
//! module declares, once per API type, the field order and tags that
//! make up its layout.

use crate::api::{
    AllocEntry, HealthInfo, PathInfo, PeerInfo, PlanSummary, RecoverySummary, Request, Response,
    SlowRequestInfo, TopologySummary, TraceDumpInfo, TraceEventInfo,
};
use iris_errors::{IrisError, IrisResult};
use iris_wire::{wire_enum, wire_struct};

pub use iris_wire::Codec;

/// First payload byte of a binary-encoded error response, so a peer can
/// classify a reply without decoding it.
pub const BIN_RESPONSE_ERROR_TAG: u8 = 10;

wire_enum!(Request: "request" {
    0 => GetPlan,
    1 => GetTopology,
    2 => QueryPath { a: usize, b: usize },
    3 => UpdateDemand { a: usize, b: usize, circuits: u32 },
    4 => ReportFiberCut { cuts: Vec<usize> },
    5 => Health,
    6 => MetricsSnapshot,
    7 => TraceDump { max_events: u64 },
    8 => Hello { codec: String },
    9 => GetPlanAt { min_epoch: u64, wait_ms: u64 },
    10 => Replicate { source_region: u64, batch: String },
    11 => SyncState { source_region: u64, state: String },
    12 => Promote,
});

wire_enum!(Response: "response" {
    0 => Plan(plan: PlanSummary),
    1 => Topology(topology: TopologySummary),
    2 => Path(path: PathInfo),
    3 => DemandAccepted { queue_depth: usize, epoch: u64 },
    4 => Recovery(recovery: RecoverySummary),
    5 => CutAlreadyActive { active_cuts: Vec<usize> },
    6 => Health(health: HealthInfo),
    7 => Metrics { prometheus: String },
    8 => Trace(trace: TraceDumpInfo),
    9 => HelloAck { codec: String },
    BIN_RESPONSE_ERROR_TAG => Error(error: IrisError),
    11 => ReplicateAck { epoch: u64, state_crc: u32 },
});

wire_struct!(PlanSummary {
    epoch: u64,
    dcs: usize,
    ducts: usize,
    used_ducts: usize,
    cut_tolerance: usize,
    scenarios_examined: u64,
    dc_transceivers: u64,
    fiber_pair_spans: u64,
    oss_ports: u64,
    feasible: bool,
});

wire_struct!(TopologySummary {
    epoch: u64,
    dcs: usize,
    huts: usize,
    ducts: usize,
    active_cuts: Vec<usize>,
    allocation: Vec<AllocEntry>,
    quarantined: Vec<usize>,
});

wire_struct!(AllocEntry {
    a: usize,
    b: usize,
    circuits: u32
});

wire_struct!(PathInfo {
    a: usize,
    b: usize,
    nodes: Vec<usize>,
    edges: Vec<usize>,
    length_km: f64,
    rtt_ms: f64,
    circuits: u32,
    epoch: u64,
});

wire_struct!(RecoverySummary {
    cuts: Vec<usize>,
    within_tolerance: bool,
    fully_recovered: bool,
    shed_pairs: usize,
    detection_ms: f64,
    replan_ms: f64,
    reconfig_ms: f64,
    recovery_ms: f64,
});

wire_struct!(PeerInfo {
    region: u64,
    addr: String,
    connected: bool,
    acked_epoch: u64,
    lag_epochs: u64,
    lag_ms: f64,
    reconnects: u64,
});

wire_struct!(HealthInfo {
    region: u64,
    role: String,
    peers: Vec<PeerInfo>,
    epoch: u64,
    queue_depth: usize,
    writes_applied: u64,
    coalesced: u64,
    overloaded: u64,
    active_cuts: Vec<usize>,
    quarantined: usize,
    last_recovery: Option<RecoverySummary>,
    uptime_ms: u64,
    wal_records: u64,
    wal_bytes: u64,
    last_fsync_ms: f64,
});

wire_struct!(TraceDumpInfo {
    enabled: bool,
    dropped: u64,
    events: Vec<TraceEventInfo>,
    slow: Vec<SlowRequestInfo>,
});

wire_struct!(TraceEventInfo {
    trace_id: u64,
    span_id: u32,
    parent_id: u32,
    stage: String,
    start_us: u64,
    dur_us: u64,
    modeled: bool,
});

wire_struct!(SlowRequestInfo {
    trace_id: u64,
    op: String,
    total_ms: f64,
    at_us: u64
});

/// Serialize a request in `codec`.
///
/// # Errors
///
/// [`IrisError::Decode`] if serialization fails.
pub fn encode_request(codec: Codec, req: &Request) -> IrisResult<Vec<u8>> {
    let mut buf = Vec::with_capacity(16);
    codec.encode_into(req, &mut buf)?;
    Ok(buf)
}

/// Parse a request payload in `codec`.
///
/// # Errors
///
/// [`IrisError::Decode`] for malformed payloads (bad tag, truncated
/// fields, over-long length headers, trailing bytes).
pub fn decode_request(codec: Codec, payload: &[u8]) -> IrisResult<Request> {
    codec.decode(payload, "request")
}

/// Serialize a response in `codec` into a fresh buffer; the server's
/// event loop appends to its write buffer with [`Codec::encode_into`]
/// instead.
///
/// # Errors
///
/// [`IrisError::Decode`] if serialization fails.
pub fn encode_response(codec: Codec, resp: &Response) -> IrisResult<Vec<u8>> {
    let mut buf = Vec::with_capacity(64);
    codec.encode_into(resp, &mut buf)?;
    Ok(buf)
}

/// Parse a response payload in `codec`.
///
/// # Errors
///
/// [`IrisError::Decode`] for malformed payloads.
pub fn decode_response(codec: Codec, payload: &[u8]) -> IrisResult<Response> {
    codec.decode(payload, "response")
}

#[cfg(test)]
mod tests {
    //! Round-trip, truncation, mutation and trailing-byte checks run
    //! over every type declared above in `iris-wire`'s
    //! `tests/hostile_bytes.rs`; the byte-exact layout is pinned by
    //! `tests/golden_frames.rs`.

    use super::*;
    use iris_wire::bin::Wire;

    #[test]
    fn hostile_length_headers_fail_before_allocation() {
        // A string header claiming u32::MAX bytes inside a tiny payload:
        // must fail on the bounds check, not attempt a 4 GiB reservation.
        let mut bytes = vec![8u8]; // Request::Hello tag
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(b"hi");
        let err = decode_request(Codec::Binary, &bytes).unwrap_err();
        assert_eq!(err.code(), "decode");

        // Same for a vec count: ReportFiberCut claiming 500M cuts.
        let mut bytes = vec![4u8];
        bytes.extend_from_slice(&500_000_000u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let err = decode_request(Codec::Binary, &bytes).unwrap_err();
        assert!(err.to_string().contains("cannot fit"), "{err}");
    }

    #[test]
    fn unknown_tags_and_bad_bools_are_rejected() {
        assert_eq!(
            decode_request(Codec::Binary, &[250u8]).unwrap_err().code(),
            "decode"
        );
        assert_eq!(
            decode_response(Codec::Binary, &[250u8]).unwrap_err().code(),
            "decode"
        );
        // Error response with an unknown error sub-tag.
        assert_eq!(
            decode_response(Codec::Binary, &[BIN_RESPONSE_ERROR_TAG, 200])
                .unwrap_err()
                .code(),
            "decode"
        );
        // Plan (tag 0, fixed size) whose last byte, `feasible`, is 2.
        let mut bytes = vec![0u8; 1 + PlanSummary::MIN_LEN];
        *bytes.last_mut().unwrap() = 2;
        assert!(decode_response(Codec::Binary, &bytes)
            .unwrap_err()
            .to_string()
            .contains("bool"));
    }

    #[test]
    fn element_counts_are_checked_against_the_declared_minimum() {
        // The per-element minimum the pre-allocation count check uses is
        // the sum of the declared fields, not a hand-kept constant.
        assert_eq!(AllocEntry::MIN_LEN, 8 + 8 + 4);
        assert_eq!(TraceEventInfo::MIN_LEN, 8 + 4 + 4 + 4 + 8 + 8 + 1);
        assert_eq!(SlowRequestInfo::MIN_LEN, 8 + 4 + 8 + 8);
        assert_eq!(PeerInfo::MIN_LEN, 8 + 4 + 1 + 8 + 8 + 8 + 8);
    }

    #[test]
    fn binary_is_denser_than_json() {
        let resp = Response::DemandAccepted {
            queue_depth: 17,
            epoch: 5,
        };
        let j = encode_response(Codec::Json, &resp).unwrap();
        let b = encode_response(Codec::Binary, &resp).unwrap();
        assert!(b.len() < j.len(), "binary {} >= json {}", b.len(), j.len());
    }
}
