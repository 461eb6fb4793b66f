//! Golden frames: the binary codec's bytes on the wire, pinned.
//!
//! A change to a tag, a field order or a field width fails here before
//! it can strand a peer running the previous build. The samples and
//! their expected bytes are in `golden/mod.rs`.

mod golden;

use golden::{golden_errors, golden_requests, golden_responses};
use iris_service::codec::{
    decode_request, decode_response, encode_request, encode_response, BIN_RESPONSE_ERROR_TAG,
};
use iris_service::frame::{append_frame, parse_frame};
use iris_service::{Codec, Request, Response};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex literal"))
        .collect()
}

#[test]
fn every_request_variant_matches_its_golden_bytes() {
    let golden = golden_requests();
    for (req, want) in &golden {
        let bytes = encode_request(Codec::Binary, req).expect("encode");
        assert_eq!(hex(&bytes), *want, "{req:?}");
        assert_eq!(
            &decode_request(Codec::Binary, &unhex(want)).expect("decode"),
            req
        );
        let json = encode_request(Codec::Json, req).expect("encode json");
        assert_eq!(&decode_request(Codec::Json, &json).expect("json"), req);
    }
    // One entry per variant: the tag bytes cover 0..=12 exactly once.
    let mut tags: Vec<u8> = golden.iter().map(|(_, h)| unhex(h)[0]).collect();
    tags.sort_unstable();
    assert_eq!(tags, (0..=12).collect::<Vec<u8>>());
}

#[test]
fn every_response_variant_matches_its_golden_bytes() {
    let golden = golden_responses();
    for (resp, want) in &golden {
        let bytes = encode_response(Codec::Binary, resp).expect("encode");
        assert_eq!(hex(&bytes), *want, "{resp:?}");
        assert_eq!(
            &decode_response(Codec::Binary, &unhex(want)).expect("decode"),
            resp
        );
        let json = encode_response(Codec::Json, resp).expect("encode json");
        assert_eq!(&decode_response(Codec::Json, &json).expect("json"), resp);
    }
    // With the error reply below (tag 10) the tags cover 0..=11.
    let mut tags: Vec<u8> = golden.iter().map(|(_, h)| unhex(h)[0]).collect();
    tags.push(BIN_RESPONSE_ERROR_TAG);
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags, (0..=11).collect::<Vec<u8>>());
}

#[test]
fn every_error_variant_matches_its_golden_bytes() {
    let golden = golden_errors();
    for (sub_tag, (err, want)) in golden.iter().enumerate() {
        let resp = Response::Error(err.clone());
        let bytes = encode_response(Codec::Binary, &resp).expect("encode");
        assert_eq!(hex(&bytes), *want, "{err:?}");
        assert_eq!(
            bytes[0], BIN_RESPONSE_ERROR_TAG,
            "clients classify error replies by this first byte"
        );
        assert_eq!(usize::from(bytes[1]), sub_tag, "declaration order");
        assert_eq!(
            decode_response(Codec::Binary, &unhex(want)).expect("decode"),
            resp
        );
    }
    assert_eq!(BIN_RESPONSE_ERROR_TAG, 10);
    assert_eq!(golden.len(), 15);
}

#[test]
fn a_framed_request_matches_its_golden_bytes() {
    // The frame header is big-endian, the payload little-endian.
    let payload = encode_request(
        Codec::Binary,
        &Request::UpdateDemand {
            a: 1,
            b: 2,
            circuits: 4,
        },
    )
    .expect("encode");
    let mut wire = Vec::new();
    append_frame(&mut wire, &payload).expect("frame");
    assert_eq!(
        hex(&wire),
        "00000015030100000000000000020000000000000004000000"
    );
    let frame = parse_frame(&wire).expect("parse").expect("complete");
    assert_eq!(frame.payload, payload);
    assert_eq!(frame.consumed, wire.len());
}
