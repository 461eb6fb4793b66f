//! The coordinator ↔ worker wire protocol.
//!
//! Workers speak the workspace's shared frame codec ([`iris_wire`]):
//! length-prefixed frames carrying JSON by default, with the same
//! `Hello { codec: "binary" }` negotiation the control-plane service
//! uses — the ack travels in the old codec, then the connection
//! switches. Binary matters here: a link result is a dense `f64`
//! vector, which [`iris_wire::bin`] ships at 8 bytes per flow instead
//! of ~20 of JSON text.
//!
//! The job unit is deliberately *tiny on the wire*: the coordinator
//! ships the [`WorkSpec`] recipe (topology + matrix + config — the same
//! `iris_simnet` type every simulation runs from) **once per
//! connection**, the worker regenerates the flow trace and
//! decomposition locally (both are deterministic functions of the
//! spec, cached under its [`fingerprint`]), and each subsequent job
//! names a link by id alone. Results stream back as
//! [`WorkerResponse::LinkChunk`] frames so a million-flow link never
//! exceeds [`iris_wire::frame::MAX_FRAME_LEN`].

use iris_errors::{IrisError, IrisResult};
use iris_wire::bin::{Layout, Reader, Wire};
use iris_wire::{wire_enum, Codec, Protocol};
use serde::{Deserialize, Serialize};

/// Finish-time entries per [`WorkerResponse::LinkChunk`]. Binary:
/// `16384 * 8 B = 128 KiB` per frame; JSON stays comfortably under
/// [`iris_wire::frame::MAX_FRAME_LEN`] too.
pub const CHUNK_FLOWS: usize = 16_384;

pub use iris_simnet::WorkSpec;

/// Content fingerprint of a spec (FNV-1a over its canonical JSON
/// encoding) — the worker's spec-cache key.
///
/// # Panics
///
/// Panics if the spec cannot be serialized (all field types are
/// serializable, so this would be a programming error).
#[must_use]
pub fn fingerprint(spec: &WorkSpec) -> u64 {
    let bytes = serde_json::to_string(spec).expect("spec serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes.into_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Coordinator → worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerRequest {
    /// Switch codec (ack travels in the current codec).
    Hello {
        /// Requested codec name (`"json"` or `"binary"`).
        codec: String,
    },
    /// Install the run recipe for subsequent jobs.
    LoadSpec {
        /// The recipe (boxed: it dwarfs the other variants).
        spec: Box<WorkSpec>,
    },
    /// Simulate one link of the installed spec's decomposition.
    RunLink {
        /// Link id.
        link: usize,
    },
}

/// Worker → coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerResponse {
    /// Codec switch acknowledged.
    HelloOk {
        /// The codec now in effect.
        codec: String,
    },
    /// Spec installed (trace regenerated or served from cache).
    SpecLoaded {
        /// Admitted flows in the trace.
        flows: usize,
        /// Links carrying at least one flow.
        links: usize,
    },
    /// One slice of a link's finish times, aligned with the
    /// decomposition's flow list for that link starting at `offset`.
    LinkChunk {
        /// Link id the slice belongs to.
        link: usize,
        /// Index of the first entry within the link's flow list.
        offset: usize,
        /// Finish times (seconds; negative = incomplete).
        finish_s: Vec<f64>,
        /// Whether this is the link's final slice.
        done: bool,
    },
    /// The request failed; the connection remains usable.
    Error {
        /// The typed failure.
        error: IrisError,
    },
}

/// The coordinator ↔ worker protocol, as the transport sees it.
#[derive(Debug)]
pub struct Worker;

impl Protocol for Worker {
    type Request = WorkerRequest;
    type Response = WorkerResponse;
    const REPLY: &'static str = "flowsim response";

    fn hello(codec: Codec) -> WorkerRequest {
        WorkerRequest::Hello {
            codec: codec.name().to_owned(),
        }
    }

    fn hello_ack(reply: &WorkerResponse) -> Option<&str> {
        match reply {
            WorkerResponse::HelloOk { codec } => Some(codec),
            _ => None,
        }
    }

    fn into_result(reply: WorkerResponse) -> IrisResult<WorkerResponse> {
        match reply {
            WorkerResponse::Error { error } => Err(error),
            other => Ok(other),
        }
    }

    fn op(req: &WorkerRequest) -> &'static str {
        match req {
            WorkerRequest::Hello { .. } => "hello",
            WorkerRequest::LoadSpec { .. } => "load_spec",
            WorkerRequest::RunLink { .. } => "run_link",
        }
    }
}

/// JSON text nested in a binary string: the layout of the two fields
/// that carry structural rather than bulk data, so the binary codec need
/// not hand-code every simnet (or error) type.
struct JsonText;

impl<T: Serialize + Deserialize> Layout<T> for JsonText {
    const MIN: usize = String::MIN_LEN;

    fn encode(value: &T, buf: &mut Vec<u8>) {
        serde_json::to_string(value)
            .expect("message fields serialize")
            .put(buf);
    }

    fn decode(rd: &mut Reader<'_>, what: &str) -> IrisResult<T> {
        serde_json::from_str(&String::get(rd, what)?).map_err(|e| IrisError::Decode {
            detail: format!("flowsim message: {what}: {e}"),
        })
    }
}

wire_enum!(WorkerRequest: "flowsim request" {
    1 => Hello { codec: String },
    2 => LoadSpec { spec: Box<WorkSpec> as JsonText },
    3 => RunLink { link: usize },
});

wire_enum!(WorkerResponse: "flowsim response" {
    1 => HelloOk { codec: String },
    2 => SpecLoaded { flows: usize, links: usize },
    3 => LinkChunk { link: usize, offset: usize, finish_s: Vec<f64>, done: bool },
    4 => Error { error: IrisError as JsonText },
});

/// Encode a request in `codec`.
///
/// # Errors
///
/// Returns [`IrisError::Decode`] if JSON serialization fails (never for
/// well-formed specs).
pub fn encode_request(codec: Codec, req: &WorkerRequest) -> IrisResult<Vec<u8>> {
    let mut buf = Vec::new();
    codec.encode_into(req, &mut buf)?;
    Ok(buf)
}

/// Decode a request in `codec`.
///
/// # Errors
///
/// Returns [`IrisError::Decode`] on malformed payloads.
pub fn decode_request(codec: Codec, payload: &[u8]) -> IrisResult<WorkerRequest> {
    codec.decode(payload, "flowsim request")
}

/// Encode a response in `codec`.
///
/// # Errors
///
/// Returns [`IrisError::Decode`] if JSON serialization fails.
pub fn encode_response(codec: Codec, resp: &WorkerResponse) -> IrisResult<Vec<u8>> {
    let mut buf = Vec::new();
    codec.encode_into(resp, &mut buf)?;
    Ok(buf)
}

/// Decode a response in `codec`.
///
/// # Errors
///
/// Returns [`IrisError::Decode`] on malformed payloads.
pub fn decode_response(codec: Codec, payload: &[u8]) -> IrisResult<WorkerResponse> {
    codec.decode(payload, "flowsim response")
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_simnet::engine::{FabricModel, SimConfig};
    use iris_simnet::traffic::ChangeModel;
    use iris_simnet::workloads::FlowSizeDist;
    use iris_simnet::{SimTopology, TrafficMatrix};

    fn spec() -> WorkSpec {
        WorkSpec {
            topo: SimTopology::hub_and_spoke(3, 1.0),
            matrix: TrafficMatrix::heavy_tailed(3, 4),
            config: SimConfig {
                duration_s: 2.0,
                utilization: 0.4,
                flow_sizes: FlowSizeDist::facebook_web(),
                change_interval_s: Some(1.0),
                change_model: ChangeModel::Bounded(0.5),
                fabric: FabricModel::Eps,
                capacity_events: Vec::new(),
                seed: 6,
            },
        }
    }

    #[test]
    fn fingerprint_tracks_spec_content() {
        let a = spec();
        let mut b = spec();
        assert_eq!(fingerprint(&a), fingerprint(&a));
        b.config.seed = 7;
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }
}
