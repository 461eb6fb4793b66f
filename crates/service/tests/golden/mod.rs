//! The golden samples: one fixed value per `Request`, `Response` and
//! `IrisError` variant, each with the exact payload the binary codec must
//! produce for it (hex, generated once from the hand-written encoder
//! these literals outlived). `golden_frames.rs` pins the bytes;
//! `iris-wire`'s `tests/hostile_bytes.rs` includes this file too and
//! fuzzes every value.

use iris_errors::IrisError;
use iris_service::api::{
    AllocEntry, HealthInfo, PathInfo, PeerInfo, PlanSummary, RecoverySummary, SlowRequestInfo,
    TopologySummary, TraceDumpInfo, TraceEventInfo,
};
use iris_service::{Request, Response};

fn recovery() -> RecoverySummary {
    RecoverySummary {
        cuts: vec![4],
        within_tolerance: true,
        fully_recovered: false,
        shed_pairs: 2,
        detection_ms: 10.0,
        replan_ms: 5.5,
        reconfig_ms: 52.0,
        recovery_ms: 67.5,
    }
}

pub fn golden_requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::GetPlan, "00"),
        (Request::GetTopology, "01"),
        (
            Request::QueryPath { a: 0, b: 3 },
            "0200000000000000000300000000000000",
        ),
        (
            Request::UpdateDemand {
                a: 1,
                b: 2,
                circuits: 4,
            },
            "030100000000000000020000000000000004000000",
        ),
        (
            Request::ReportFiberCut { cuts: vec![5, 9] },
            "040200000005000000000000000900000000000000",
        ),
        (Request::Health, "05"),
        (Request::MetricsSnapshot, "06"),
        (Request::TraceDump { max_events: 500 }, "07f401000000000000"),
        (
            Request::Hello {
                codec: "binary".into(),
            },
            "080600000062696e617279",
        ),
        (
            Request::GetPlanAt {
                min_epoch: 8,
                wait_ms: 250,
            },
            "090800000000000000fa00000000000000",
        ),
        (
            Request::Replicate {
                source_region: 1,
                batch: "{\"epoch\":9}".into(),
            },
            "0a01000000000000000b0000007b2265706f6368223a397d",
        ),
        (
            Request::SyncState {
                source_region: 2,
                state: "{}".into(),
            },
            "0b0200000000000000020000007b7d",
        ),
        (Request::Promote, "0c"),
    ]
}

pub fn golden_responses() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Plan(PlanSummary {
                epoch: 3,
                dcs: 10,
                ducts: 40,
                used_ducts: 22,
                cut_tolerance: 2,
                scenarios_examined: 780,
                dc_transceivers: 5_000,
                fiber_pair_spans: 900,
                oss_ports: 1_200,
                feasible: true,
            }),
            "0003000000000000000a00000000000000280000000000000016000000000000\
             0002000000000000000c03000000000000881300000000000084030000000000\
             00b00400000000000001",
        ),
        (
            Response::Topology(TopologySummary {
                epoch: 4,
                dcs: 3,
                huts: 5,
                ducts: 9,
                active_cuts: vec![1, 7],
                allocation: vec![
                    AllocEntry {
                        a: 0,
                        b: 1,
                        circuits: 3,
                    },
                    AllocEntry {
                        a: 0,
                        b: 2,
                        circuits: 1,
                    },
                ],
                quarantined: vec![2],
            }),
            "0104000000000000000300000000000000050000000000000009000000000000\
             0002000000010000000000000007000000000000000200000000000000000000\
             0001000000000000000300000000000000000000000200000000000000010000\
             00010000000200000000000000",
        ),
        (
            Response::Path(PathInfo {
                a: 0,
                b: 2,
                nodes: vec![0, 4, 2],
                edges: vec![3, 8],
                length_km: 41.25,
                rtt_ms: 0.5,
                circuits: 2,
                epoch: 4,
            }),
            "0200000000000000000200000000000000030000000000000000000000040000\
             0000000000020000000000000002000000030000000000000008000000000000\
             000000000000a04440000000000000e03f020000000400000000000000",
        ),
        (
            Response::DemandAccepted {
                queue_depth: 17,
                epoch: 5,
            },
            "0311000000000000000500000000000000",
        ),
        (
            Response::Recovery(recovery()),
            "0401000000040000000000000001000200000000000000000000000000244000\
             000000000016400000000000004a400000000000e05040",
        ),
        (
            Response::CutAlreadyActive {
                active_cuts: vec![2, 4],
            },
            "050200000002000000000000000400000000000000",
        ),
        (
            Response::Health(HealthInfo {
                region: 2,
                role: "follower".into(),
                peers: vec![PeerInfo {
                    region: 0,
                    addr: "127.0.0.1:4040".into(),
                    connected: true,
                    acked_epoch: 7,
                    lag_epochs: 1,
                    lag_ms: 9.0,
                    reconnects: 3,
                }],
                epoch: 7,
                queue_depth: 1,
                writes_applied: 12,
                coalesced: 3,
                overloaded: 1,
                active_cuts: vec![4],
                quarantined: 0,
                last_recovery: Some(recovery()),
                uptime_ms: 81_000,
                wal_records: 42,
                wal_bytes: 13_337,
                last_fsync_ms: 0.25,
            }),
            "06020000000000000008000000666f6c6c6f7765720100000000000000000000\
             000e0000003132372e302e302e313a3430343001070000000000000001000000\
             0000000000000000000022400300000000000000070000000000000001000000\
             000000000c000000000000000300000000000000010000000000000001000000\
             0400000000000000000000000000000001010000000400000000000000010002\
             00000000000000000000000000244000000000000016400000000000004a4000\
             00000000e05040683c0100000000002a00000000000000193400000000000000\
             0000000000d03f",
        ),
        (
            // The `None` arm of the only `Option` on the wire.
            Response::Health(HealthInfo {
                region: 0,
                role: "primary".into(),
                peers: vec![],
                epoch: 0,
                queue_depth: 0,
                writes_applied: 0,
                coalesced: 0,
                overloaded: 0,
                active_cuts: vec![],
                quarantined: 0,
                last_recovery: None,
                uptime_ms: 1,
                wal_records: 0,
                wal_bytes: 0,
                last_fsync_ms: 0.0,
            }),
            "060000000000000000070000007072696d617279000000000000000000000000\
             0000000000000000000000000000000000000000000000000000000000000000\
             0000000000000000000000000001000000000000000000000000000000000000\
             00000000000000000000000000",
        ),
        (
            Response::Metrics {
                prometheus: "x 1\n".into(),
            },
            "07040000007820310a",
        ),
        (
            Response::Trace(TraceDumpInfo {
                enabled: true,
                dropped: 3,
                events: vec![TraceEventInfo {
                    trace_id: 0xAB,
                    span_id: 2,
                    parent_id: 1,
                    stage: "wal_fsync".into(),
                    start_us: 1_000,
                    dur_us: 420,
                    modeled: false,
                }],
                slow: vec![SlowRequestInfo {
                    trace_id: 0xAB,
                    op: "report_fiber_cut".into(),
                    total_ms: 61.5,
                    at_us: 2_000,
                }],
            }),
            "0801030000000000000001000000ab0000000000000002000000010000000900\
             000077616c5f6673796e63e803000000000000a4010000000000000001000000\
             ab00000000000000100000007265706f72745f66696265725f63757400000000\
             00c04e40d007000000000000",
        ),
        (
            Response::HelloAck {
                codec: "binary".into(),
            },
            "090600000062696e617279",
        ),
        (
            Response::ReplicateAck {
                epoch: 5,
                state_crc: 0x1234_5678,
            },
            "0b050000000000000078563412",
        ),
    ]
}

/// Every `IrisError` variant, in declaration order (= sub-tag order).
pub fn golden_errors() -> Vec<(IrisError, &'static str)> {
    vec![
        (
            IrisError::PortOutOfRange {
                device: "OSS@HUT3".into(),
                input: 9,
                output: 1,
                ports: 4,
            },
            "0a00080000004f53534048555433090000000000000001000000000000000400\
             000000000000",
        ),
        (
            IrisError::ChannelOutOfRange {
                device: "TX".into(),
                channel: 41,
                count: 40,
            },
            "0a010200000054582900000028000000",
        ),
        (
            IrisError::Unreachable { what: "a".into() },
            "0a020100000061",
        ),
        (IrisError::Decode { detail: "b".into() }, "0a030100000062"),
        (
            IrisError::VerifyFailed {
                device: "OSS".into(),
                detail: "c".into(),
            },
            "0a04030000004f53530100000063",
        ),
        (
            IrisError::RetriesExhausted {
                phase: "actuate".into(),
                attempts: 3,
                last_error: "d".into(),
            },
            "0a050700000061637475617465030000000100000064",
        ),
        (
            IrisError::Quarantined {
                device: "OSS".into(),
            },
            "0a06030000004f5353",
        ),
        (
            IrisError::Infeasible { detail: "e".into() },
            "0a070100000065",
        ),
        (
            IrisError::Overloaded { retry_after_ms: 25 },
            "0a081900000000000000",
        ),
        (
            IrisError::InvalidInput { detail: "f".into() },
            "0a090100000066",
        ),
        (IrisError::Io { detail: "g".into() }, "0a0a0100000067"),
        (
            IrisError::Corrupt {
                what: "iris.wal".into(),
                detail: "crc".into(),
            },
            "0a0b08000000697269732e77616c03000000637263",
        ),
        (
            IrisError::ReplayFailed { detail: "h".into() },
            "0a0c0100000068",
        ),
        (
            IrisError::Timeout {
                what: "probe".into(),
                after_ms: 250,
            },
            "0a0d0500000070726f6265fa00000000000000",
        ),
        (IrisError::NotPrimary { region: 2 }, "0a0e0200000000000000"),
    ]
}
