//! The golden samples: one fixed value per `WorkerRequest` and
//! `WorkerResponse` variant with the exact payload the binary codec must
//! produce (hex, generated once from the hand-written encoder these
//! literals outlived). `LoadSpec.spec` and `Error.error` travel as JSON
//! text nested in a binary string; the literals pin that too.
//! `golden_frames.rs` pins the bytes; `iris-wire`'s
//! `tests/hostile_bytes.rs` includes this file too and fuzzes every value.

use iris_errors::IrisError;
use iris_flowsim::proto::{WorkSpec, WorkerRequest, WorkerResponse};
use iris_simnet::engine::{FabricModel, SimConfig};
use iris_simnet::traffic::ChangeModel;
use iris_simnet::workloads::FlowSizeDist;
use iris_simnet::{SimTopology, TrafficMatrix};

/// The smallest spec the simnet types allow, to keep the literal short.
fn spec() -> WorkSpec {
    WorkSpec {
        topo: SimTopology::hub_and_spoke(2, 1.0),
        matrix: TrafficMatrix::from_weights(2, 5, &[1.0]),
        config: SimConfig {
            duration_s: 2.0,
            utilization: 0.5,
            flow_sizes: FlowSizeDist::from_anchors("g", &[(1000.0, 0.5), (2000.0, 1.0)]),
            change_interval_s: None,
            change_model: ChangeModel::Unbounded,
            fabric: FabricModel::Eps,
            capacity_events: Vec::new(),
            seed: 6,
        },
    }
}

pub fn golden_requests() -> Vec<(WorkerRequest, &'static str)> {
    vec![
        (
            WorkerRequest::Hello {
                codec: "binary".into(),
            },
            "010600000062696e617279",
        ),
        (
            WorkerRequest::LoadSpec {
                spec: Box::new(spec()),
            },
            "026e0100007b22746f706f223a7b226e5f646373223a322c226c696e6b73223a\
             5b7b2263617061636974795f67627073223a317d2c7b2263617061636974795f\
             67627073223a317d5d2c22726f75746573223a5b5b302c315d5d2c22726f7574\
             655f7274745f73223a5b305d7d2c226d6174726978223a7b226e5f646373223a\
             322c2277656967687473223a5b315d2c22726e67223a7b2273656564223a352c\
             227374657073223a307d7d2c22636f6e666967223a7b226475726174696f6e5f\
             73223a322c227574696c697a6174696f6e223a302e352c22666c6f775f73697a\
             6573223a7b226e616d65223a2267222c22616e63686f7273223a5b5b31303030\
             2c302e355d2c5b323030302c315d5d7d2c226368616e67655f696e7465727661\
             6c5f73223a6e756c6c2c226368616e67655f6d6f64656c223a22556e626f756e\
             646564222c22666162726963223a22457073222c2263617061636974795f6576\
             656e7473223a5b5d2c2273656564223a367d7d",
        ),
        (WorkerRequest::RunLink { link: 7 }, "030700000000000000"),
    ]
}

pub fn golden_responses() -> Vec<(WorkerResponse, &'static str)> {
    vec![
        (
            WorkerResponse::HelloOk {
                codec: "json".into(),
            },
            "01040000006a736f6e",
        ),
        (
            WorkerResponse::SpecLoaded {
                flows: 1_000_000,
                links: 17,
            },
            "0240420f00000000001100000000000000",
        ),
        (
            WorkerResponse::LinkChunk {
                link: 3,
                offset: 16_384,
                finish_s: vec![0.25, -1.0, 39.5],
                done: true,
            },
            "030300000000000000004000000000000003000000000000000000d03f000000\
             000000f0bf0000000000c0434001",
        ),
        (
            WorkerResponse::Error {
                error: IrisError::Decode {
                    detail: "boom".into(),
                },
            },
            "041c0000007b224465636f6465223a7b2264657461696c223a22626f6f6d227d7d",
        ),
    ]
}
