//! Golden frames: the coordinator ↔ worker binary codec, pinned. The
//! samples and their expected bytes are in `golden/mod.rs`.

mod golden;

use golden::{golden_requests, golden_responses};
use iris_flowsim::proto::{decode_request, decode_response, encode_request, encode_response};
use iris_wire::Codec;

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
fn every_worker_request_variant_matches_its_golden_bytes() {
    for (tag, (req, want)) in (1u8..).zip(golden_requests()) {
        let bytes = encode_request(Codec::Binary, &req).expect("encode");
        assert_eq!(hex(&bytes), want, "{req:?}");
        assert_eq!(bytes[0], tag);
        // Decoded values are compared through their JSON form, in both
        // codecs.
        let want_json = serde_json::to_string(&req).expect("json");
        let back = decode_request(Codec::Binary, &unhex(want)).expect("decode");
        assert_eq!(serde_json::to_string(&back).expect("json"), want_json);
        let json = encode_request(Codec::Json, &req).expect("encode json");
        let back = decode_request(Codec::Json, &json).expect("decode json");
        assert_eq!(serde_json::to_string(&back).expect("json"), want_json);
    }
}

#[test]
fn every_worker_response_variant_matches_its_golden_bytes() {
    for (tag, (resp, want)) in (1u8..).zip(golden_responses()) {
        let bytes = encode_response(Codec::Binary, &resp).expect("encode");
        assert_eq!(hex(&bytes), want, "{resp:?}");
        assert_eq!(bytes[0], tag);
        assert_eq!(
            decode_response(Codec::Binary, &unhex(want)).expect("decode"),
            resp
        );
        let json = encode_response(Codec::Json, &resp).expect("encode json");
        assert_eq!(decode_response(Codec::Json, &json).expect("json"), resp);
    }
}
