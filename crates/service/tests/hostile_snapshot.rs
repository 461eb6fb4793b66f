//! Hostile bytes for `snapshot.json`: a real compacted snapshot (written
//! by `Wal::compact` after a demand update and a fiber cut), then every
//! truncation and every single-byte mutation, read back through
//! `read_snapshot`; whatever still parses is booted through `Wal::open`
//! and `recover`. Each must end as `Ok` or a typed `Corrupt` /
//! `ReplayFailed` — never a panic, and never an allocation out of
//! proportion to the file, which a counting allocator checks rather
//! than assumes.

#[path = "../../wire/tests/common/counting.rs"]
mod counting;

use iris_control::Controller;
use iris_fibermap::{synth, MetroParams, PlacementParams, Region};
use iris_planner::{plan_iris, DesignGoals, Provisioning};
use iris_service::wal::{DurableState, SNAPSHOT_FILE};
use iris_service::{read_snapshot, recover, ControlMachine, PersistedSnapshot, Wal};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// A planned region, the unit every recovery runs against.
struct Planned {
    region: Region,
    goals: DesignGoals,
    provisioning: Provisioning,
}

impl Planned {
    fn new() -> Self {
        let region = synth::place_dcs(
            synth::generate_metro(&MetroParams {
                seed: 7,
                ..MetroParams::default()
            }),
            &PlacementParams {
                seed: 24,
                n_dcs: 4,
                ..PlacementParams::default()
            },
        );
        let goals = DesignGoals::with_cuts(1);
        let provisioning = plan_iris(&region, &goals).provisioning;
        Self {
            region,
            goals,
            provisioning,
        }
    }

    /// Recover from whatever `dir` holds, on a fresh controller.
    fn boot(&self, dir: &Path) -> Result<(), iris_errors::IrisError> {
        let (_wal, durable) = Wal::open(dir)?;
        let controller = Controller::for_region(&self.region, &self.goals);
        let (region, goals, prov) = (&self.region, &self.goals, &self.provisioning);
        recover(region, goals, prov, &controller, &durable).map(|_| ())
    }
}

/// Boot `planned`, apply one batch (a demand update and a cut on a
/// used duct) and compact the result through a real [`Wal`] in a fresh
/// directory; returns the directory and the snapshot's bytes.
fn real_snapshot(planned: &Planned, name: &str) -> (PathBuf, Vec<u8>) {
    let dir = std::env::temp_dir()
        .join("iris-hostile-snapshot")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let Planned {
        region,
        goals,
        provisioning,
    } = planned;
    let controller = Controller::for_region(region, goals);
    let (boot, cuts, _) = recover(
        region,
        goals,
        provisioning,
        &controller,
        &DurableState::empty(),
    )
    .unwrap();
    let mut machine = ControlMachine::new(region, goals, provisioning, &controller, cuts, None, 0);
    let (&pair, path) = boot.paths.iter().next().expect("a routed pair");
    let updates = BTreeMap::from([(pair, 3)]);
    let batch = machine
        .apply_batch(&boot, &updates, 0, &[vec![path.edges[0]]])
        .unwrap();
    let snap = batch.snapshot.expect("the batch applied");
    assert!(snap.last_recovery.is_some(), "the cut ran a recovery");

    let (mut wal, _) = Wal::open(&dir).expect("open");
    wal.compact(&PersistedSnapshot::from_state(&snap))
        .expect("compact");
    drop(wal);
    let bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).expect("read snapshot");
    (dir, bytes)
}

/// Write `bytes` as the directory's snapshot and read it back: a typed
/// `Corrupt` (`false`), or a snapshot that recovery then boots or
/// refuses with a typed error (`true`); either way with no allocation
/// beyond a small multiple of the file while reading it.
fn boot_hostile(planned: &Planned, dir: &Path, bytes: &[u8], case: &str) -> bool {
    let path = dir.join(SNAPSHOT_FILE);
    std::fs::write(&path, bytes).expect("write snapshot");
    counting::reset_largest();
    let read = read_snapshot(&path);
    let largest = counting::largest();
    assert!(
        largest <= 16 * bytes.len() + 1024,
        "{case}: a {}-byte snapshot drove a {largest}-byte allocation",
        bytes.len()
    );
    match read {
        Err(e) => {
            assert_eq!(e.code(), "corrupt", "{case}: {e}");
            false
        }
        Ok(None) => panic!("{case}: the snapshot read as absent"),
        Ok(Some(_)) => {
            if let Err(e) = planned.boot(dir) {
                let code = e.code();
                assert!(code == "corrupt" || code == "replay-failed", "{case}: {e}");
            }
            true
        }
    }
}

#[test]
fn every_truncation_is_typed_corrupt_or_boots() {
    let planned = Planned::new();
    let (dir, bytes) = real_snapshot(&planned, "truncate");
    for cut in 0..=bytes.len() {
        let parsed = boot_hostile(&planned, &dir, &bytes[..cut], &format!("cut at {cut}"));
        // Only the whole file, or the whole file short of its trailing
        // newline, is still a snapshot.
        assert_eq!(parsed, cut + 1 >= bytes.len(), "cut at {cut}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_single_byte_mutation_is_typed_corrupt_or_boots() {
    let planned = Planned::new();
    let (dir, bytes) = real_snapshot(&planned, "mutate");
    let mut parsed = 0;
    for at in 0..bytes.len() {
        for mask in [0x01, 0x80, 0xFF] {
            let mut mutated = bytes.clone();
            mutated[at] ^= mask;
            let case = format!("byte {at} ^ {mask:#04x}");
            if boot_hostile(&planned, &dir, &mutated, &case) {
                parsed += 1;
            }
        }
    }
    // Digit flips keep the JSON well formed, so some mutations reach
    // recovery; a test that never got there would prove nothing.
    assert!(parsed > 0, "no mutation parsed");
    let _ = std::fs::remove_dir_all(&dir);
}
