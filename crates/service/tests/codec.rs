//! End-to-end codec negotiation tests: a live server must serve JSON by
//! default, switch a connection to the compact binary codec after a
//! `Hello`, keep answering other (un-negotiated) connections in JSON,
//! propagate trace ids on binary frames, and reject malformed or
//! oversized frames without taking the server down.

use iris_errors::IrisError;
use iris_fibermap::{synth, MetroParams, PlacementParams, Region};
use iris_service::api::{Request, Response, TraceDumpInfo};
use iris_service::codec::{decode_request, decode_response, encode_request, encode_response};
use iris_service::frame::MAX_FRAME_LEN;
use iris_service::{serve, Codec, ServiceClient, ServiceConfig, ServiceHandle};
use iris_wire::recv_frame;
use proptest::prelude::*;
use std::io::Write as _;
use std::net::TcpStream;

fn region(seed: u64, n_dcs: usize) -> Region {
    synth::place_dcs(
        synth::generate_metro(&MetroParams {
            seed,
            ..MetroParams::default()
        }),
        &PlacementParams {
            seed: seed.wrapping_add(17),
            n_dcs,
            ..PlacementParams::default()
        },
    )
}

fn boot(seed: u64) -> ServiceHandle {
    serve(
        region(seed, 4),
        &ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            cuts: 1,
            coalesce_window_ms: 0,
            ..ServiceConfig::default()
        },
    )
    .expect("serve")
}

fn client_for(handle: &ServiceHandle) -> ServiceClient {
    ServiceClient::connect_retry(&handle.local_addr().to_string(), 20, 25).expect("connect")
}

#[test]
fn binary_negotiation_serves_the_full_request_surface() {
    let mut handle = boot(41);
    let mut json = client_for(&handle);
    let mut bin = client_for(&handle);
    bin.hello(Codec::Binary).expect("negotiate binary");
    assert_eq!(bin.codec(), Codec::Binary);
    assert_eq!(json.codec(), Codec::Json, "un-negotiated peer stays JSON");

    // Both connections must see identical state through their own codec.
    let reads = [Request::GetPlan, Request::GetTopology, Request::Health];
    for req in &reads {
        let a = json.call(req).expect("json call");
        let b = bin.call(req).expect("binary call");
        match (&a, &b) {
            // Health carries wall-clock fields; compare the stable core.
            (Response::Health(x), Response::Health(y)) => {
                assert_eq!(x.epoch, y.epoch);
                assert_eq!(x.writes_applied, y.writes_applied);
            }
            _ => assert_eq!(a, b, "codecs disagree on {req:?}"),
        }
    }

    // Writes and path queries round-trip on the binary connection.
    let Response::Topology(topo) = bin
        .call(&Request::GetTopology)
        .expect("topology")
        .into_result()
        .expect("ok")
    else {
        panic!("GetTopology answered a non-Topology response")
    };
    let (a, b) = (topo.allocation[0].a, topo.allocation[0].b);
    let reply = bin
        .call_retrying(&Request::UpdateDemand { a, b, circuits: 3 }, 50)
        .expect("update over binary");
    assert!(matches!(reply, Response::DemandAccepted { .. }));
    let reply = bin.call(&Request::QueryPath { a, b }).expect("path");
    assert!(matches!(reply, Response::Path(_)));
    let reply = bin.call(&Request::MetricsSnapshot).expect("metrics");
    assert!(matches!(reply, Response::Metrics { .. }));

    handle.shutdown();
}

#[test]
fn negotiation_works_in_both_directions() {
    let mut handle = boot(42);
    let mut client = client_for(&handle);
    client.hello(Codec::Binary).expect("to binary");
    assert!(matches!(
        client.call(&Request::GetPlan).expect("binary read"),
        Response::Plan(_)
    ));
    // The Hello (and its ack) travel in the current codec — binary —
    // and the connection drops back to JSON afterwards.
    client.hello(Codec::Json).expect("back to json");
    assert_eq!(client.codec(), Codec::Json);
    assert!(matches!(
        client.call(&Request::GetPlan).expect("json read"),
        Response::Plan(_)
    ));
    handle.shutdown();
}

#[test]
fn unknown_codec_is_rejected_and_the_connection_survives() {
    let mut handle = boot(43);
    let mut client = client_for(&handle);
    let reply = client
        .call(&Request::Hello {
            codec: "zstd".to_owned(),
        })
        .expect("hello rpc");
    match reply {
        Response::Error(IrisError::InvalidInput { detail }) => {
            assert!(detail.contains("zstd"), "error names the codec: {detail}");
        }
        other => panic!("expected InvalidInput, got {other:?}"),
    }
    // The failed negotiation left the connection speaking JSON.
    assert_eq!(client.codec(), Codec::Json);
    assert!(matches!(
        client.call(&Request::GetPlan).expect("post-reject read"),
        Response::Plan(_)
    ));
    handle.shutdown();
}

#[test]
fn traced_binary_frames_propagate_client_ids() {
    let mut handle = boot(44);
    let mut client = client_for(&handle);
    client.hello(Codec::Binary).expect("negotiate binary");

    let mine = iris_telemetry::trace::mint_trace_id();
    let reply = client
        .call_with_trace(&Request::GetTopology, Some(mine))
        .expect("traced binary call");
    assert!(matches!(reply, Response::Topology(_)));

    let dump: TraceDumpInfo = match client
        .call(&Request::TraceDump { max_events: 0 })
        .expect("trace dump over binary")
    {
        Response::Trace(d) => d,
        other => panic!("expected Trace, got {other:?}"),
    };
    assert!(
        dump.events
            .iter()
            .any(|e| e.trace_id == mine && e.stage == "get_topology"),
        "the server should record the binary request under the client's id"
    );
    handle.shutdown();
}

#[test]
fn oversized_frames_are_rejected_without_killing_the_server() {
    let mut handle = boot(45);
    let addr = handle.local_addr().to_string();
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    // Announce a frame one byte past the limit; the server must refuse
    // before buffering the payload, answer with an error frame, and
    // close this connection only.
    let prefix = u32::try_from(MAX_FRAME_LEN + 1)
        .expect("fits")
        .to_be_bytes();
    raw.write_all(&prefix).expect("write hostile prefix");
    let mut unread = Vec::new();
    match recv_frame(&mut raw, &mut unread).expect("error reply") {
        Some(frame) => {
            let resp = decode_response(Codec::Json, &frame.payload).expect("json error frame");
            assert!(
                matches!(resp, Response::Error(IrisError::Decode { .. })),
                "expected a Decode error, got {resp:?}"
            );
        }
        None => panic!("expected an error frame, got a close"),
    }
    assert!(
        matches!(recv_frame(&mut raw, &mut unread), Ok(None) | Err(_)),
        "the hostile connection should be closed"
    );
    // A fresh, well-behaved connection is unaffected.
    let mut client = client_for(&handle);
    assert!(matches!(
        client.call(&Request::GetPlan).expect("post-attack read"),
        Response::Plan(_)
    ));
    handle.shutdown();
}

#[test]
fn truncated_frames_get_no_reply() {
    let mut handle = boot(46);
    let addr = handle.local_addr().to_string();
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    // Announce 100 payload bytes, deliver 10, then half-close: the
    // server must drop the partial frame silently rather than decode it.
    raw.write_all(&100u32.to_be_bytes()).expect("prefix");
    raw.write_all(&[0u8; 10]).expect("partial payload");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    assert!(
        matches!(recv_frame(&mut raw, &mut Vec::new()), Ok(None) | Err(_)),
        "a truncated frame must never produce a reply"
    );
    let mut client = client_for(&handle);
    assert!(matches!(
        client
            .call(&Request::GetPlan)
            .expect("post-truncation read"),
        Response::Plan(_)
    ));
    handle.shutdown();
}

#[test]
fn requests_sent_before_a_half_close_are_answered() {
    let mut handle = boot(47);
    let addr = handle.local_addr().to_string();
    let health = encode_request(Codec::Json, &Request::Health).expect("encode");
    let mut bytes = Vec::new();
    for _ in 0..3 {
        iris_service::frame::append_frame(&mut bytes, &health).expect("frame");
    }
    // The FIN usually arrives in the same readiness event as the
    // requests: the server must stop reading, not stop serving.
    for round in 0..20 {
        let mut raw = TcpStream::connect(&addr).expect("raw connect");
        raw.write_all(&bytes).expect("three pipelined requests");
        raw.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut unread = Vec::new();
        for reply in 0..3 {
            match recv_frame(&mut raw, &mut unread) {
                Ok(Some(frame)) => assert!(matches!(
                    decode_response(Codec::Json, &frame.payload).expect("json reply"),
                    Response::Health(_)
                )),
                other => panic!("connection {round}, reply {reply}: got {other:?}"),
            }
        }
        assert!(matches!(recv_frame(&mut raw, &mut unread), Ok(None)));
    }
    handle.shutdown();
}

proptest! {
    #[test]
    fn arbitrary_requests_round_trip_in_both_codecs(
        selector in 0usize..9,
        a in 0usize..64,
        b in 0usize..64,
        circuits in 0u32..512,
        cuts in proptest::collection::vec(0usize..256, 0..6),
        name in proptest::collection::vec(0u8..26, 0..8),
    ) {
        let request = match selector {
            0 => Request::GetPlan,
            1 => Request::GetTopology,
            2 => Request::QueryPath { a, b },
            3 => Request::UpdateDemand { a, b, circuits },
            4 => Request::ReportFiberCut { cuts },
            5 => Request::Health,
            6 => Request::MetricsSnapshot,
            7 => Request::TraceDump { max_events: u64::from(circuits) },
            _ => Request::Hello {
                codec: name.iter().map(|c| char::from(b'a' + c)).collect(),
            },
        };
        for codec in [Codec::Json, Codec::Binary] {
            let bytes = encode_request(codec, &request).expect("encode");
            prop_assert_eq!(
                decode_request(codec, &bytes).expect("decode"),
                request.clone()
            );
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_error_responses_round_trip_in_both_codecs(
        selector in 0usize..4,
        retry in 0u64..10_000,
        text in proptest::collection::vec(0u8..26, 0..12),
    ) {
        let detail: String = text.iter().map(|c| char::from(b'a' + c)).collect();
        let resp = Response::Error(match selector {
            0 => IrisError::Overloaded { retry_after_ms: retry },
            1 => IrisError::Unreachable { what: detail },
            2 => IrisError::InvalidInput { detail },
            _ => IrisError::Decode { detail },
        });
        for codec in [Codec::Json, Codec::Binary] {
            let bytes = encode_response(codec, &resp).expect("encode");
            prop_assert_eq!(decode_response(codec, &bytes).expect("decode"), resp.clone());
        }
    }
}
