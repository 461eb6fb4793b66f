//! Hostile bytes for the write-ahead log: a real three-record log, then
//! every truncation, every single-byte mutation and each record's length
//! prefix overwritten with `u32::MAX`, all read back through `read_log`.
//! Each must end as salvage (`Ok`, keeping a prefix of the records) or a
//! typed `Corrupt` — never a panic, and never an allocation out of
//! proportion to the file, which a counting allocator checks rather than
//! assumes.

#[path = "../../wire/tests/common/counting.rs"]
mod counting;

use iris_service::api::{AllocEntry, RecoverySummary};
use iris_service::wal::{CutRecord, WAL_FILE};
use iris_service::{read_log, Salvage, Wal, WalBatch};
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

fn records() -> Vec<WalBatch> {
    let pair = |a, b, circuits| AllocEntry { a, b, circuits };
    let recovery = RecoverySummary {
        cuts: vec![4],
        within_tolerance: true,
        fully_recovered: true,
        shed_pairs: 0,
        detection_ms: 10.0,
        replan_ms: 5.0,
        reconfig_ms: 52.0,
        recovery_ms: 67.0,
    };
    vec![
        WalBatch {
            epoch: 1,
            updates: vec![pair(0, 1, 3), pair(1, 2, 0)],
            cuts: Vec::new(),
            writes_applied: 2,
            coalesced: 1,
        },
        WalBatch {
            epoch: 2,
            updates: Vec::new(),
            cuts: vec![CutRecord {
                cuts: vec![4],
                recovery,
            }],
            writes_applied: 1,
            coalesced: 0,
        },
        WalBatch {
            epoch: 3,
            updates: vec![pair(0, 2, 7)],
            cuts: Vec::new(),
            writes_applied: 1,
            coalesced: 0,
        },
    ]
}

/// Append [`records`] through a real [`Wal`] in a fresh directory;
/// returns the directory, the log's bytes and the byte offset where
/// each record starts.
fn real_log(name: &str) -> (PathBuf, Vec<u8>, Vec<usize>) {
    let dir = std::env::temp_dir()
        .join("iris-hostile-wal")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut wal, _) = Wal::open(&dir).expect("open");
    for record in records() {
        wal.append(&record).expect("append");
    }
    drop(wal);
    let bytes = std::fs::read(dir.join(WAL_FILE)).expect("read log");
    let mut starts = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        starts.push(at);
        let len: [u8; 4] = bytes[at..at + 4].try_into().unwrap();
        at += 8 + u32::from_be_bytes(len) as usize;
    }
    assert_eq!(starts.len(), 3, "three records");
    (dir, bytes, starts)
}

/// Read `bytes` as a log: salvage keeping a prefix of [`records`]
/// (returned), or a typed `Corrupt` (`None`); either way with no
/// allocation beyond a small multiple of the file.
fn read_hostile(path: &Path, bytes: &[u8], case: &str) -> Option<Salvage> {
    std::fs::write(path, bytes).expect("write log");
    let good = records();
    counting::reset_largest();
    let outcome = read_log(path);
    let largest = counting::largest();
    assert!(
        largest <= 16 * bytes.len() + 1024,
        "{case}: a {}-byte log drove a {largest}-byte allocation",
        bytes.len()
    );
    match outcome {
        Ok((batches, salvage)) => {
            assert!(good.starts_with(&batches), "{case}: kept {batches:?}");
            assert_eq!(salvage.records, batches.len() as u64, "{case}");
            let accounted = salvage.good_bytes + salvage.truncated_bytes;
            assert_eq!(accounted, bytes.len() as u64, "{case}");
            Some(salvage)
        }
        Err(e) => {
            assert_eq!(e.code(), "corrupt", "{case}: {e}");
            None
        }
    }
}

#[test]
fn every_truncation_keeps_the_whole_records_before_the_cut() {
    let (dir, bytes, starts) = real_log("truncate");
    let path = dir.join("hostile.wal");
    for cut in 0..=bytes.len() {
        let case = format!("cut at {cut}");
        let salvage = read_hostile(&path, &bytes[..cut], &case).expect("a torn tail salvages");
        // Record i ends where record i + 1 starts; the last at the end.
        let mut ends = starts[1..].iter().copied().chain([bytes.len()]);
        let whole = ends.clone().filter(|&end| end <= cut).count() as u64;
        assert_eq!(salvage.records, whole, "{case}");
        let at_boundary = cut == 0 || ends.any(|end| end == cut);
        assert_eq!(salvage.torn.is_none(), at_boundary, "{case}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_single_byte_mutation_is_salvage_or_typed_corrupt() {
    let (dir, bytes, _) = real_log("mutate");
    let path = dir.join("hostile.wal");
    for at in 0..bytes.len() {
        for mask in [0x01, 0x80, 0xFF] {
            let mut mutated = bytes.clone();
            mutated[at] ^= mask;
            read_hostile(&path, &mutated, &format!("byte {at} ^ {mask:#04x}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_u32_max_length_prefix_stops_salvage_without_allocating() {
    let (dir, bytes, starts) = real_log("maxlen");
    let path = dir.join("hostile.wal");
    for (kept, &start) in starts.iter().enumerate() {
        let mut mutated = bytes.clone();
        mutated[start..start + 4].fill(0xFF);
        let case = format!("u32::MAX length at {start}");
        let salvage = read_hostile(&path, &mutated, &case).expect("salvaged");
        assert_eq!(salvage.records, kept as u64, "{case}");
        let torn = salvage.torn.expect("torn reported");
        assert!(torn.contains("exceeds"), "{case}: {torn}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
