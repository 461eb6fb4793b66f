//! A `LoadSpec` whose recipe `WorkSpec::trace` cannot run is answered
//! with a typed `InvalidInput`, and the worker keeps serving: the same
//! connection and a fresh one both still install a valid spec.

use iris_errors::IrisError;
use iris_flowsim::proto::{decode_response, WorkSpec, WorkerRequest, WorkerResponse};
use iris_flowsim::worker::{spawn_ephemeral, WorkerConfig};
use iris_simnet::engine::{FabricModel, SimConfig};
use iris_simnet::traffic::ChangeModel;
use iris_simnet::workloads::FlowSizeDist;
use iris_simnet::{SimTopology, TrafficMatrix};
use iris_wire::frame::append_frame;
use iris_wire::{recv_frame, Codec};
use serde_json::Value;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn valid_request() -> Value {
    let spec = WorkSpec {
        topo: SimTopology::hub_and_spoke(3, 1.0),
        matrix: TrafficMatrix::heavy_tailed(3, 4),
        config: SimConfig {
            duration_s: 1.0,
            utilization: 0.4,
            flow_sizes: FlowSizeDist::facebook_web(),
            change_interval_s: Some(0.5),
            change_model: ChangeModel::Bounded(0.5),
            fabric: FabricModel::Eps,
            capacity_events: Vec::new(),
            seed: 6,
        },
    };
    serde_json::to_value(WorkerRequest::LoadSpec {
        spec: Box::new(spec),
    })
    .expect("a spec serializes")
}

/// One JSON `LoadSpec` (the protocol's default codec) out, one reply in.
struct Conn {
    sock: TcpStream,
    unread: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Self {
        let sock = TcpStream::connect(addr).expect("connect to the worker");
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Self {
            sock,
            unread: Vec::new(),
        }
    }

    fn load(&mut self, request: &Value) -> WorkerResponse {
        let mut framed = Vec::new();
        append_frame(&mut framed, request.to_string().as_bytes()).expect("frame");
        self.sock.write_all(&framed).expect("send");
        let frame = recv_frame(&mut self.sock, &mut self.unread)
            .expect("a reply")
            .expect("the worker hung up");
        decode_response(Codec::Json, &frame.payload).expect("a well-formed reply")
    }
}

#[test]
fn a_malformed_load_spec_is_a_typed_error_and_the_worker_keeps_serving() {
    let addr = spawn_ephemeral(WorkerConfig::default()).expect("worker");
    let valid = valid_request();
    let four_dc = serde_json::to_value(TrafficMatrix::heavy_tailed(4, 4)).expect("matrix");
    let mutations: [(&[&str], Value); 4] = [
        (
            &["config", "flow_sizes", "anchors"],
            Value::Array(Vec::new()),
        ),
        (&["config", "utilization"], Value::from(1.5)),
        (&["matrix"], four_dc),
        (&["config", "change_interval_s"], Value::from(0.0)),
    ];
    let mut conn = Conn::open(addr);
    for (path, value) in mutations {
        let mut bad = valid.clone();
        let mut slot = &mut bad["LoadSpec"]["spec"];
        for key in path {
            slot = &mut slot[*key];
        }
        *slot = value;
        let reply = conn.load(&bad);
        assert!(
            matches!(
                reply,
                WorkerResponse::Error {
                    error: IrisError::InvalidInput { .. }
                }
            ),
            "{path:?}: {reply:?}"
        );
    }
    for conn in [&mut conn, &mut Conn::open(addr)] {
        let reply = conn.load(&valid);
        assert!(
            matches!(reply, WorkerResponse::SpecLoaded { flows, .. } if flows > 0),
            "{reply:?}"
        );
    }
}
