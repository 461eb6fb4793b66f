//! One hostile-bytes property, run over every message type that
//! declares a binary layout (service API, controller commands,
//! `IrisError`) and over the primitive layouts themselves.
//!
//! For each sample value: the round trip is the identity; every
//! truncation is a typed decode error naming the field it stopped at;
//! every single-byte mutation, trailing byte and 4-byte window
//! overwritten with `u32::MAX` decodes to a value or a typed decode
//! error, never a panic — and never an allocation out of proportion to
//! the payload, which a counting allocator checks rather than assumes.

#[path = "common/counting.rs"]
mod counting;
// The sample values are the golden-frame suite's own: one per variant.
#[path = "../../service/tests/golden/mod.rs"]
mod service_golden;

use iris_control::messages::Command;
use iris_errors::IrisResult;
use iris_service::Response;
use iris_wire::bin::{Reader, Wire};
use iris_wire::Codec;
use std::fmt::Debug;

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

fn decode<T: Wire>(bytes: &[u8]) -> IrisResult<T> {
    let mut rd = Reader::new(bytes);
    let value = T::get(&mut rd, "fuzzed")?;
    rd.finish("fuzzed")?;
    Ok(value)
}

/// Decode hostile `bytes`: a value or a typed decode error, and no
/// allocation beyond a small multiple of the payload (an element's
/// in-memory size can exceed its `MIN_LEN`, hence the factor).
fn decode_hostile<T: Wire + Debug>(bytes: &[u8], case: &str) {
    counting::reset_largest();
    if let Err(e) = decode::<T>(bytes) {
        assert_eq!(e.code(), "decode", "{case}: {e}");
    }
    let largest = counting::largest();
    assert!(
        largest <= 16 * bytes.len() + 1024,
        "{case}: a {}-byte payload drove a {largest}-byte allocation",
        bytes.len()
    );
}

fn fuzz<T: Wire + PartialEq + Debug>(value: &T) {
    let mut bytes = Vec::new();
    value.put(&mut bytes);
    assert!(bytes.len() >= T::MIN_LEN, "{value:?} under MIN_LEN");
    assert_eq!(&decode::<T>(&bytes).expect("round trip"), value);

    for cut in 0..bytes.len() {
        let err = decode::<T>(&bytes[..cut]).expect_err("truncated payload");
        assert_eq!(err.code(), "decode", "{value:?} cut at {cut}");
        // "... reading <field>: need ..." or "binary <field>: n elements
        // cannot fit ..." — either way the field is `Type.field`, a tag,
        // or (for a bare primitive) the caller's label.
        let msg = err.to_string();
        let field = msg
            .split_once("reading ")
            .or_else(|| msg.split_once("binary "))
            .and_then(|(_, rest)| rest.split_once(": "))
            .map(|(field, _)| field)
            .unwrap_or_else(|| panic!("{value:?} cut at {cut}: no field in {msg:?}"));
        assert!(
            field.contains('.') || field.ends_with(" tag") || field == "fuzzed",
            "{value:?} cut at {cut}: {msg:?} names no field"
        );
    }

    let mut longer = bytes.clone();
    longer.push(0);
    let err = decode::<T>(&longer).expect_err("trailing byte");
    assert!(err.to_string().contains("trailing"), "{err}");

    for at in 0..bytes.len() {
        for mask in [0x01, 0x80, 0xFF] {
            let mut mutated = bytes.clone();
            mutated[at] ^= mask;
            decode_hostile::<T>(&mutated, &format!("{value:?} byte {at} ^ {mask:#04x}"));
        }
    }

    // Wherever a count or length header sits, it now reads u32::MAX.
    for at in 0..bytes.len().saturating_sub(3) {
        let mut mutated = bytes.clone();
        mutated[at..at + 4].fill(0xFF);
        decode_hostile::<T>(&mutated, &format!("{value:?} u32::MAX at {at}"));
    }
}

#[test]
fn primitive_layouts_survive_hostile_bytes() {
    fuzz(&7u8);
    fuzz(&0xDEAD_BEEFu32);
    fuzz(&(u64::MAX - 1));
    fuzz(&42usize);
    fuzz(&-0.125f64);
    fuzz(&true);
    fuzz(&"héllo".to_owned());
    fuzz(&vec![1usize, 2, 3]);
    fuzz(&vec![0.5, f64::INFINITY]);
    fuzz(&Vec::<u32>::new());
    fuzz(&Some(9u32));
    fuzz(&None::<u32>);
    fuzz(&vec![Some("a".to_owned()), None]);
}

#[test]
fn every_service_message_survives_hostile_bytes() {
    for (request, _) in service_golden::golden_requests() {
        fuzz(&request);
    }
    for (response, _) in service_golden::golden_responses() {
        fuzz(&response);
    }
    for (error, _) in service_golden::golden_errors() {
        fuzz(&error);
        fuzz(&Response::Error(error));
    }
}

#[test]
fn every_controller_command_survives_hostile_bytes() {
    for command in [
        Command::SetCross {
            switch: 3,
            input: 7,
            output: 12,
        },
        Command::Tune {
            transceiver: 42,
            channel: 13,
        },
        Command::SetEmulation {
            emulator: 1,
            channel: 39,
            live: true,
        },
        Command::Drain { a: 0, b: 5 },
        Command::Undrain { a: 0, b: 5 },
        Command::HealthCheck { site: 9 },
    ] {
        fuzz(&command);
    }
}

/// Decode a hostile JSON payload as a `T`: it must fail with a typed
/// decode error naming `expect`, and allocate in proportion to the
/// payload.
fn json_rejects<T: Wire + serde::Deserialize + Debug>(payload: &str, expect: &str) {
    counting::reset_largest();
    let err = Codec::Json
        .decode::<T>(payload.as_bytes(), "fuzzed")
        .expect_err(payload);
    assert_eq!(err.code(), "decode", "{err}");
    assert!(err.to_string().contains(expect), "{payload:?}: {err}");
    let largest = counting::largest();
    assert!(
        largest <= 16 * payload.len() + 1024,
        "a {}-byte JSON payload drove a {largest}-byte allocation",
        payload.len()
    );
}

#[test]
fn json_nesting_is_bounded() {
    // Each level is one recursion of the parser: 200 k of them would
    // overflow any thread's stack, so the parser stops at 128.
    json_rejects::<Vec<u32>>(&"[".repeat(200_000), "nesting deeper than 128");
    json_rejects::<Vec<u32>>(&"{\"a\":".repeat(200_000), "nesting deeper than 128");
    let within = format!("{}{}", "[".repeat(128), "]".repeat(128));
    assert!(serde_json::from_str::<serde_json::Value>(&within).is_ok());
    let beyond = format!("{}{}", "[".repeat(129), "]".repeat(129));
    assert!(serde_json::from_str::<serde_json::Value>(&beyond).is_err());
}

#[test]
fn json_escapes_that_cannot_decode_are_typed_errors() {
    for (payload, expect) in [
        // A high surrogate must be followed by a low one.
        (r#""\uD800\u0041""#, "invalid \\u escape"),
        (r#""\uD800\uD800""#, "invalid \\u escape"),
        (r#""\uD800""#, "expected '\\'"),
        (r#""\uD800A""#, "expected '\\'"),
        // A low surrogate cannot stand alone.
        (r#""\uDC00""#, "invalid \\u escape"),
        // Truncated escapes.
        (r#""\u12"#, "truncated \\u escape"),
        (r#""\uD800\u12"#, "truncated \\u escape"),
        (r#""\"#, "bad escape"),
        (r#""\q""#, "unknown escape"),
        (r#""abc"#, "unterminated string"),
        // Exactly four hex digits: no sign, no space, no other byte.
        (r#""\u+041""#, "bad \\u escape"),
        (r#""\u-041""#, "bad \\u escape"),
        (r#""\u 041""#, "bad \\u escape"),
        (r#""\u00g1""#, "bad \\u escape"),
        (r#""\uD800\u+C00""#, "bad \\u escape"),
        (r#""\u€""#, "bad \\u escape"),
        // U+0000..U+001F travel only as escapes.
        ("\"a\u{0}b\"", "control character in string"),
        ("\"tab\there\"", "control character in string"),
        ("\"line\nbreak\"", "control character in string"),
        ("\"\u{1f}\"", "control character in string"),
    ] {
        json_rejects::<String>(payload, expect);
    }
}

#[test]
fn json_numbers_follow_the_json_grammar() {
    for (payload, expect) in [
        ("007", "leading zero in number"),
        ("-00", "leading zero in number"),
        ("01.5", "leading zero in number"),
        ("-01", "leading zero in number"),
        ("00e1", "leading zero in number"),
        ("-", "bad number"),
        ("-.5", "bad number"),
        ("1.", "bad number"),
        ("1.e5", "bad number"),
        ("1e", "bad number"),
        ("1e+", "bad number"),
    ] {
        json_rejects::<f64>(payload, expect);
    }
    for (payload, expect) in [
        ("0", 0.0f64),
        ("-0", -0.0),
        ("0.5", 0.5),
        ("-0.0", -0.0),
        ("0e1", 0.0),
        ("10", 10.0),
        ("-1.25E-2", -0.0125),
        ("1e+2", 100.0),
    ] {
        let back: f64 = Codec::Json.decode(payload.as_bytes(), "number").unwrap();
        assert_eq!(back.to_bits(), expect.to_bits(), "{payload}");
    }
}

#[test]
fn json_strings_decode_byte_for_byte() {
    for (payload, expect) in [
        (r#""""#, ""),
        (
            r#""\" \\ \/ \b \f \n \r \t""#,
            "\" \\ / \u{8} \u{c} \n \r \t",
        ),
        (r#""é€𝄞\u0000""#, "é€𝄞\u{0}"),
        (r#""a\"b€\\𝄞éc\n""#, "a\"b€\\𝄞éc\n"),
    ] {
        let back: String = Codec::Json.decode(payload.as_bytes(), "string").unwrap();
        assert_eq!(back, expect, "{payload}");
    }
    for s in [
        "2-byte: héllo ñ",
        "3-byte: € ✓ 日本語",
        "4-byte: 𝄞 🦀",
        "every escape: \" \\ / \u{8} \u{c} \n \r \t \u{1f}",
        "runs: é\"€\\𝄞\n🦀\tend",
    ] {
        let mut buf = Vec::new();
        Codec::Json.encode_into(&s.to_owned(), &mut buf).unwrap();
        let back: String = Codec::Json.decode(&buf, "string").unwrap();
        assert_eq!(back.as_bytes(), s.as_bytes());
    }
}

#[test]
fn a_frame_sized_json_string_decodes_in_linear_time() {
    // 1 MiB of mixed one- to four-byte characters, plus escapes, in one
    // string: quadratic decoding took tens of seconds at this size.
    let body: String = "a€é𝄞\\n".chars().cycle().take(524_288).collect();
    let payload = format!("\"{body}\"");
    assert!(payload.len() >= 1 << 20, "{} bytes", payload.len());
    let start = std::time::Instant::now();
    let back: String = Codec::Json.decode(payload.as_bytes(), "string").unwrap();
    let took = start.elapsed();
    assert_eq!(back, body.replace("\\n", "\n"));
    assert!(took.as_secs_f64() < 1.0, "{took:?}");
}
