//! Pins the vendored generator (`vendor/rand`'s `StdRng`). Every seeded
//! artifact — synthetic fiber maps, traffic families, traces, fault
//! schedules — is drawn from it, and `vendor/` sits outside the
//! workspace, so its own tests never run with the workspace's; this one
//! does. For fixed seeds it pins an FNV-1a digest of each draw the
//! workspace makes: the raw stream, standard floats, integer and float
//! ranges (half-open and inclusive) and biased coins. A change to the
//! stand-in fails here by name instead of silently moving artifacts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 5] = [0, 1, 42, 0x1915_C0DE, u64::MAX];
const DRAWS: usize = 64;

/// FNV-1a, 64-bit, over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `DRAWS` values of `draw` from each seed's generator, in seed order.
fn digest(mut draw: impl FnMut(&mut StdRng) -> u64) -> u64 {
    fnv1a(SEEDS.iter().flat_map(|&seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..DRAWS).map(|_| draw(&mut rng)).collect::<Vec<_>>()
    }))
}

#[test]
fn std_rng_streams_are_pinned() {
    let got = [
        ("next_u64", digest(|r| r.next_u64())),
        ("random::<f64>", digest(|r| r.random::<f64>().to_bits())),
        ("random::<u32>", digest(|r| u64::from(r.random::<u32>()))),
        ("random::<bool>", digest(|r| u64::from(r.random::<bool>()))),
        ("0..10u32", digest(|r| u64::from(r.random_range(0..10u32)))),
        ("0..7usize", digest(|r| r.random_range(0..7usize) as u64)),
        ("-5..=5i64", digest(|r| r.random_range(-5..=5i64) as u64)),
        (
            "0.0..1.5",
            digest(|r| r.random_range(0.0..1.5f64).to_bits()),
        ),
        (
            "2.0..=3.0",
            digest(|r| r.random_range(2.0..=3.0f64).to_bits()),
        ),
        ("bool(0.3)", digest(|r| u64::from(r.random_bool(0.3)))),
    ];
    let want = [
        ("next_u64", 0x6b0f_1a8e_6d45_11b3),
        ("random::<f64>", 0x0c78_3fc2_7be7_bce3),
        ("random::<u32>", 0xce0a_fd46_08f6_27c8),
        ("random::<bool>", 0xa67a_4b86_1f37_2424),
        ("0..10u32", 0xc59f_312f_6d98_4ce4),
        ("0..7usize", 0xa308_bebc_a47b_4480),
        ("-5..=5i64", 0xe341_000a_69ed_23da),
        ("0.0..1.5", 0x95b4_1f7d_9b9e_f59e),
        ("2.0..=3.0", 0xac3a_c7d9_e14b_e908),
        ("bool(0.3)", 0x73e1_25d9_4f5a_a445),
    ];
    for ((name, got), (_, want)) in got.iter().zip(want) {
        assert_eq!(*got, want, "{name}: {got:#018x}");
    }
}

#[test]
fn seed_zero_opens_with_the_splitmix64_reference_output() {
    // SplitMix64's published first output for state 0.
    assert_eq!(StdRng::seed_from_u64(0).next_u64(), 0xe220_a839_7b1d_cdaf);
}
