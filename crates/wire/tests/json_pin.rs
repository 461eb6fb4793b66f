//! Pins the vendored JSON layer (`vendor/serde`, `vendor/serde_json`).
//! `vendor/` sits outside the workspace, so its own tests never run
//! with the workspace's; this one does. Over a fixed corpus — float
//! formatting at its edges, the integer bounds, every escape and
//! multibyte UTF-8 — it pins an FNV-1a digest of the compact and pretty
//! text, and checks that every value comes back from its own text bit
//! for bit.

use serde_json::Value;

fn floats() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        1.0,
        -2.5,
        0.1 + 0.2,
        1e300,
        -1e300,
        1e-300,
        f64::MAX,
        f64::MIN_POSITIVE,
        // The smallest and the largest subnormal.
        f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::EPSILON,
        // Integral floats at and past the i64 / u64 bounds, and past 2^53.
        i64::MIN as f64,
        i64::MAX as f64,
        u64::MAX as f64,
        9_007_199_254_740_993.0,
        123_456.789,
    ]
}

fn signed() -> Vec<i64> {
    vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX]
}

fn unsigned() -> Vec<u64> {
    vec![0, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX]
}

fn strings() -> Vec<String> {
    [
        "",
        "plain ascii",
        "2-byte: héllo ñ ß",
        "3-byte: € ✓ 日本語",
        "4-byte: 𝄞 🦀 \u{10FFFF}",
        "\" \\ / \u{8} \u{c} \n \r \t",
        "controls: \u{0} \u{1} \u{1f} \u{7f}",
        "mixed \"runs\": é\\ü\n🦀\t€ end",
        "\\\\\\\"\"\"",
    ]
    .map(str::to_owned)
    .to_vec()
}

fn corpus() -> Value {
    serde_json::json!({
        "floats": floats(),
        "signed": signed(),
        "unsigned": unsigned(),
        "strings": strings(),
        "nested": [{ "a": [], "b": {} }, [[1.5]], null, true, false],
    })
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn json_text_of_the_corpus_is_pinned() {
    let compact = serde_json::to_string(&corpus()).unwrap();
    let pretty = serde_json::to_string_pretty(&corpus()).unwrap();
    assert_eq!(
        (fnv1a(compact.as_bytes()), fnv1a(pretty.as_bytes())),
        (0xf35e_eacb_9c52_a32c, 0x7fb4_2d32_b406_21f6),
        "{compact}"
    );
}

#[test]
fn every_corpus_value_round_trips_bit_for_bit() {
    for x in floats() {
        let text = serde_json::to_string(&x).unwrap();
        let back: f64 = serde_json::from_str(&text).unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "{x:e} printed as {text}");
    }
    let text = serde_json::to_string(&floats()).unwrap();
    let back: Vec<f64> = serde_json::from_str(&text).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&back), bits(&floats()));

    let back: Vec<i64> = serde_json::from_str(&serde_json::to_string(&signed()).unwrap()).unwrap();
    assert_eq!(back, signed());
    let back: Vec<u64> =
        serde_json::from_str(&serde_json::to_string(&unsigned()).unwrap()).unwrap();
    assert_eq!(back, unsigned());
    for s in strings() {
        let text = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<String>(&text).unwrap(), s, "{text}");
    }

    for text in [
        serde_json::to_string(&corpus()).unwrap(),
        serde_json::to_string_pretty(&corpus()).unwrap(),
    ] {
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&corpus()).unwrap()
        );
    }
}
