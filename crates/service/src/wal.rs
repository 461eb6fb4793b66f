//! The append-only write-ahead log and the periodic compacted snapshot.
//!
//! Every write batch the mutator applies is serialized as one
//! [`WalBatch`] record and appended + fsync'd to `iris.wal` *before* the
//! new [`crate::StateSnapshot`] is published, so an accepted mutation
//! survives a crash of the process. Records reuse the framing discipline
//! of [`crate::frame`]: a 4-byte big-endian length (checked against
//! [`crate::MAX_FRAME_LEN`] before any allocation), then a 4-byte
//! big-endian CRC32 of the payload, then the JSON payload itself.
//!
//! Periodically the whole durable state is compacted into
//! `snapshot.json` (written to a temp file, fsync'd, renamed) and the
//! log is truncated; recovery loads the snapshot and replays only the
//! records after it ([`crate::recovery`]).
//!
//! A crash can tear the *tail* of the log — a partial header, a record
//! cut off mid-payload, a CRC that does not match. That is the expected
//! crash artifact, so [`read_log`] salvages: it stops at the first bad
//! record, reports what it dropped in [`Salvage`], and [`Wal::open`]
//! truncates the file back to the last good record. Damage that fsync
//! ordering cannot explain — a CRC-valid record whose payload is not a
//! [`WalBatch`], or an unparsable `snapshot.json` — is a typed
//! [`IrisError::Corrupt`] instead.

use crate::api::{AllocEntry, RecoverySummary};
use crate::frame::MAX_FRAME_LEN;
use crate::state::StateSnapshot;
use iris_errors::{IrisError, IrisResult};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Log file name inside the WAL directory.
pub const WAL_FILE: &str = "iris.wal";
/// Compacted-snapshot file name inside the WAL directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// Bytes of record header: 4-byte length + 4-byte CRC32.
const HEADER_LEN: usize = 8;

/// CRC32 (IEEE 802.3, reflected) of `bytes` — the checksum every WAL
/// record carries. Table-driven; the table is built in a `const` so the
/// per-byte cost is one lookup and one xor.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// One fiber-cut operation as applied by the mutator: the full merged
/// cumulative cut set and the recovery it produced. The summary is
/// *stored*, not recomputed on replay, so the republished snapshot's
/// `last_recovery` is byte-for-byte the one clients saw before the
/// crash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CutRecord {
    /// The cumulative active cut set after this operation, ascending.
    pub cuts: Vec<usize>,
    /// The completed recovery's summary.
    pub recovery: RecoverySummary,
}

/// One WAL record: everything one applied (post-coalescing) write batch
/// changed. Updates are absolute per-pair circuit targets (`0` removes
/// the pair), so replaying a batch twice converges to the same state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalBatch {
    /// The epoch this batch published.
    pub epoch: u64,
    /// Coalesced demand updates, `(a, b)` ascending, absolute targets.
    pub updates: Vec<AllocEntry>,
    /// Fiber-cut operations applied in this batch, in order.
    pub cuts: Vec<CutRecord>,
    /// Write operations applied by this batch (delta).
    pub writes_applied: u64,
    /// Redundant updates absorbed by coalescing in this batch (delta).
    pub coalesced: u64,
}

/// The compacted durable state — [`StateSnapshot`] minus the per-pair
/// paths, which are a deterministic function of `active_cuts` and are
/// recomputed on recovery by the same [`iris_planner::ScenarioEngine`]
/// call the live mutator uses. Pair-keyed maps are flattened into
/// [`AllocEntry`] rows (the offline serde derive does not handle
/// tuple-keyed maps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistedSnapshot {
    /// Snapshot epoch.
    pub epoch: u64,
    /// Circuits per DC pair, `(a, b)` ascending.
    pub allocation: Vec<AllocEntry>,
    /// Cumulative failed ducts, ascending.
    pub active_cuts: Vec<usize>,
    /// Quarantined sites.
    pub quarantined: Vec<usize>,
    /// Write operations applied up to this epoch.
    pub writes_applied: u64,
    /// Redundant updates absorbed by coalescing up to this epoch.
    pub coalesced: u64,
    /// The most recent completed fiber-cut recovery.
    pub last_recovery: Option<RecoverySummary>,
}

impl PersistedSnapshot {
    /// Flatten a live snapshot for persistence (paths are dropped; they
    /// are recomputed from `active_cuts` on recovery).
    #[must_use]
    pub fn from_state(snap: &StateSnapshot) -> Self {
        Self {
            epoch: snap.epoch,
            allocation: snap
                .allocation
                .iter()
                .map(|(&(a, b), &circuits)| AllocEntry { a, b, circuits })
                .collect(),
            active_cuts: snap.active_cuts.clone(),
            quarantined: snap.quarantined.clone(),
            writes_applied: snap.writes_applied,
            coalesced: snap.coalesced,
            last_recovery: snap.last_recovery.clone(),
        }
    }
}

/// What [`read_log`] kept and what it dropped.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Salvage {
    /// Records that passed framing, CRC and JSON validation.
    pub records: u64,
    /// Bytes of good records (the offset the log is truncated to).
    pub good_bytes: u64,
    /// Bytes dropped after the last good record.
    pub truncated_bytes: u64,
    /// Why reading stopped before end-of-file, when it did.
    pub torn: Option<String>,
}

/// Parse a WAL file, salvaging a torn tail.
///
/// Returns the good-record prefix plus a [`Salvage`] describing anything
/// dropped. A missing file reads as an empty log.
///
/// # Errors
///
/// [`IrisError::Io`] if the file exists but cannot be read;
/// [`IrisError::Corrupt`] for damage a crash cannot explain: a record
/// whose CRC matches but whose payload is not a [`WalBatch`].
pub fn read_log(path: &Path) -> IrisResult<(Vec<WalBatch>, Salvage)> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            return Err(IrisError::Io {
                detail: format!("cannot read WAL {}: {e}", path.display()),
            })
        }
    };
    let mut batches = Vec::new();
    let mut salvage = Salvage::default();
    let mut off = 0usize;
    while off < bytes.len() {
        let Some(header) = bytes.get(off..off + HEADER_LEN) else {
            salvage.torn = Some(format!(
                "torn record header at offset {off}: wanted {HEADER_LEN} bytes, got {}",
                bytes.len() - off
            ));
            break;
        };
        let len = u32::from_be_bytes(header[..4].try_into().expect("4-byte slice")) as usize;
        if len > MAX_FRAME_LEN {
            // Checked before slicing, mirroring the frame codec: a torn
            // or garbage length must not drive an allocation.
            salvage.torn = Some(format!(
                "record length {len} at offset {off} exceeds the {MAX_FRAME_LEN}-byte maximum"
            ));
            break;
        }
        let stored_crc = u32::from_be_bytes(header[4..].try_into().expect("4-byte slice"));
        let Some(payload) = bytes.get(off + HEADER_LEN..off + HEADER_LEN + len) else {
            salvage.torn = Some(format!(
                "torn record payload at offset {off}: wanted {len} bytes, got {}",
                bytes.len() - off - HEADER_LEN
            ));
            break;
        };
        if crc32(payload) != stored_crc {
            salvage.torn = Some(format!(
                "CRC mismatch at offset {off}: stored {stored_crc:#010x}, computed {:#010x}",
                crc32(payload)
            ));
            break;
        }
        // A CRC-valid record was fully written and fsync'd; if it does
        // not decode, the log is corrupt in a way salvage must not
        // silently paper over.
        let text = std::str::from_utf8(payload).map_err(|e| IrisError::Corrupt {
            what: path.display().to_string(),
            detail: format!(
                "record {} at offset {off}: payload is not UTF-8: {e}",
                batches.len()
            ),
        })?;
        let batch: WalBatch = serde_json::from_str(text).map_err(|e| IrisError::Corrupt {
            what: path.display().to_string(),
            detail: format!(
                "record {} at offset {off}: CRC-valid payload is not a WalBatch: {e}",
                batches.len()
            ),
        })?;
        batches.push(batch);
        off += HEADER_LEN + len;
        salvage.records += 1;
        salvage.good_bytes = off as u64;
    }
    salvage.truncated_bytes = bytes.len() as u64 - salvage.good_bytes;
    Ok((batches, salvage))
}

/// Load the compacted snapshot, if one exists.
///
/// # Errors
///
/// [`IrisError::Io`] if the file exists but cannot be read;
/// [`IrisError::Corrupt`] if it is not UTF-8 or does not parse as a
/// [`PersistedSnapshot`].
pub fn read_snapshot(path: &Path) -> IrisResult<Option<PersistedSnapshot>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(IrisError::Io {
                detail: format!("cannot read snapshot {}: {e}", path.display()),
            })
        }
    };
    let corrupt = |detail| IrisError::Corrupt {
        what: path.display().to_string(),
        detail,
    };
    // Bytes that are not text are damaged state, not an I/O failure.
    let text = std::str::from_utf8(&bytes).map_err(|e| corrupt(format!("not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map(Some)
        .map_err(|e| corrupt(format!("not a persisted snapshot: {e}")))
}

/// An open write-ahead log plus its snapshot slot.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    /// Batches appended since the last compaction.
    since_compaction: u64,
    /// Records in the log since open (salvaged replay + appended).
    records: u64,
    /// Bytes in the log since open (salvaged + appended).
    bytes: u64,
    /// Duration of the most recent fsync, ms (0 before the first
    /// append).
    last_fsync_ms: f64,
}

/// Cumulative log statistics, surfaced through `HealthInfo`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WalStats {
    /// Records known to the log since open (salvaged + appended).
    pub records: u64,
    /// Bytes known to the log since open (salvaged + appended).
    pub bytes: u64,
    /// Duration of the most recent fsync, ms (0 before the first
    /// append).
    pub last_fsync_ms: f64,
}

/// Everything found in a WAL directory at open time, before replay.
#[derive(Debug)]
pub struct DurableState {
    /// The compacted snapshot, if one was written.
    pub snapshot: Option<PersistedSnapshot>,
    /// Good WAL records, oldest first.
    pub batches: Vec<WalBatch>,
    /// What salvage kept and dropped.
    pub salvage: Salvage,
}

impl DurableState {
    /// The durable state of a server that has never persisted anything:
    /// no snapshot, no records. Booting from this reproduces a fresh
    /// memory-only start.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            snapshot: None,
            batches: Vec::new(),
            salvage: Salvage::default(),
        }
    }
}

impl Wal {
    /// Open (creating if needed) the log in `dir`, salvaging any torn
    /// tail — the file is truncated back to its last good record — and
    /// returning whatever durable state was found.
    ///
    /// # Errors
    ///
    /// [`IrisError::Io`] on filesystem failure; [`IrisError::Corrupt`]
    /// for unsalvageable damage (see [`read_log`] / [`read_snapshot`]).
    pub fn open(dir: &Path) -> IrisResult<(Self, DurableState)> {
        std::fs::create_dir_all(dir).map_err(|e| IrisError::Io {
            detail: format!("cannot create WAL dir {}: {e}", dir.display()),
        })?;
        let log_path = dir.join(WAL_FILE);
        let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let (batches, salvage) = read_log(&log_path)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| IrisError::Io {
                detail: format!("cannot open WAL {}: {e}", log_path.display()),
            })?;
        if salvage.truncated_bytes > 0 {
            // Drop the torn tail so the next append starts at a record
            // boundary.
            file.set_len(salvage.good_bytes)
                .map_err(|e| IrisError::Io {
                    detail: format!("cannot truncate torn WAL {}: {e}", log_path.display()),
                })?;
        }
        Ok((
            Self {
                dir: dir.to_path_buf(),
                file,
                since_compaction: batches.len() as u64,
                records: batches.len() as u64,
                bytes: salvage.good_bytes,
                last_fsync_ms: 0.0,
            },
            DurableState {
                snapshot,
                batches,
                salvage,
            },
        ))
    }

    /// The directory this log lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Batches appended (or replayed at open) since the last compaction.
    #[must_use]
    pub fn batches_since_compaction(&self) -> u64 {
        self.since_compaction
    }

    /// Cumulative log statistics since open.
    #[must_use]
    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.records,
            bytes: self.bytes,
            last_fsync_ms: self.last_fsync_ms,
        }
    }

    /// Append one batch record and fsync — the write-ahead barrier. Only
    /// after this returns may the batch's snapshot be published.
    ///
    /// # Errors
    ///
    /// [`IrisError::Io`] on write/fsync failure, [`IrisError::Decode`]
    /// if the batch cannot be serialized.
    pub fn append(&mut self, batch: &WalBatch) -> IrisResult<()> {
        self.append_nosync(batch)?;
        let fsync_span = iris_telemetry::trace::span("wal_fsync");
        let fsync_start = Instant::now();
        self.file.sync_data().map_err(|e| IrisError::Io {
            detail: format!("WAL fsync failed: {e}"),
        })?;
        let fsync_ms = fsync_start.elapsed().as_secs_f64() * 1e3;
        drop(fsync_span);
        self.last_fsync_ms = fsync_ms;
        iris_telemetry::global()
            .histogram("iris_service_wal_fsync_ms")
            .record(fsync_ms);
        Ok(())
    }

    /// Append one batch record **without** the fsync — the first half of
    /// [`Wal::append`]. The record reaches the kernel but is not
    /// durable until someone syncs the file ([`WalSyncHandle::sync`] or
    /// a subsequent [`Wal::append`]); callers must not acknowledge the
    /// batch to clients before that barrier.
    ///
    /// # Errors
    ///
    /// [`IrisError::Io`] on write failure, [`IrisError::Decode`] if the
    /// batch cannot be serialized.
    pub fn append_nosync(&mut self, batch: &WalBatch) -> IrisResult<()> {
        let payload = serde_json::to_string(batch)
            .map_err(|e| IrisError::Decode {
                detail: format!("cannot encode WAL record: {e}"),
            })?
            .into_bytes();
        debug_assert!(payload.len() <= MAX_FRAME_LEN, "WAL records are small");
        let len = u32::try_from(payload.len()).map_err(|_| IrisError::InvalidInput {
            detail: format!("WAL record of {} bytes exceeds u32", payload.len()),
        })?;
        let io_err = |e: std::io::Error| IrisError::Io {
            detail: format!("WAL append failed: {e}"),
        };
        let _append_span = iris_telemetry::trace::span("wal_append");
        self.file.write_all(&len.to_be_bytes()).map_err(io_err)?;
        self.file
            .write_all(&crc32(&payload).to_be_bytes())
            .map_err(io_err)?;
        self.file.write_all(&payload).map_err(io_err)?;
        self.since_compaction += 1;
        self.records += 1;
        self.bytes += (HEADER_LEN + payload.len()) as u64;
        let telemetry = iris_telemetry::global();
        telemetry.counter("iris_service_wal_records_total").inc();
        telemetry
            .counter("iris_service_wal_bytes_total")
            .add((HEADER_LEN + payload.len()) as u64);
        Ok(())
    }

    /// A second handle onto the log file, so the fsync can be driven
    /// (and timed) apart from the append. `fsync` acts on the *file*,
    /// not the descriptor, so a sync through the clone makes every
    /// record already written through the `Wal` durable. The server
    /// does not use it: its mutator appends and syncs through
    /// [`Wal::append`].
    ///
    /// # Errors
    ///
    /// [`IrisError::Io`] if the descriptor cannot be duplicated.
    pub fn sync_handle(&self) -> IrisResult<WalSyncHandle> {
        let file = self.file.try_clone().map_err(|e| IrisError::Io {
            detail: format!("cannot clone WAL descriptor: {e}"),
        })?;
        Ok(WalSyncHandle { file })
    }

    /// Compact: persist `snap` (temp file, fsync, atomic rename) and
    /// truncate the log. A crash between the rename and the truncate
    /// leaves records older than the snapshot in the log; recovery skips
    /// them by epoch.
    ///
    /// # Errors
    ///
    /// [`IrisError::Io`] on filesystem failure, [`IrisError::Decode`] if
    /// the snapshot cannot be serialized.
    pub fn compact(&mut self, snap: &PersistedSnapshot) -> IrisResult<()> {
        let _span = iris_telemetry::trace::span("wal_compact");
        let mut text = serde_json::to_string_pretty(snap).map_err(|e| IrisError::Decode {
            detail: format!("cannot encode snapshot: {e}"),
        })?;
        text.push('\n');
        let final_path = self.dir.join(SNAPSHOT_FILE);
        let tmp_path = self.dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        let io_err = |what: &str, e: std::io::Error| IrisError::Io {
            detail: format!("snapshot compaction: {what}: {e}"),
        };
        let mut tmp = File::create(&tmp_path).map_err(|e| io_err("create temp", e))?;
        tmp.write_all(text.as_bytes())
            .map_err(|e| io_err("write temp", e))?;
        tmp.sync_data().map_err(|e| io_err("fsync temp", e))?;
        drop(tmp);
        std::fs::rename(&tmp_path, &final_path).map_err(|e| io_err("rename", e))?;
        self.file
            .set_len(0)
            .map_err(|e| io_err("truncate log", e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync truncated log", e))?;
        self.since_compaction = 0;
        iris_telemetry::global()
            .counter("iris_service_snapshots_total")
            .inc();
        Ok(())
    }
}

/// A duplicated descriptor onto the WAL file, to fsync records appended
/// with [`Wal::append_nosync`]. See [`Wal::sync_handle`].
#[derive(Debug)]
pub struct WalSyncHandle {
    file: File,
}

impl WalSyncHandle {
    /// Make every record written so far durable with one fsync.
    /// Returns the fsync duration in milliseconds (also recorded in the
    /// `iris_service_wal_fsync_ms` histogram).
    ///
    /// # Errors
    ///
    /// [`IrisError::Io`] on fsync failure.
    pub fn sync(&self) -> IrisResult<f64> {
        let _span = iris_telemetry::trace::span("wal_fsync");
        let start = Instant::now();
        self.file.sync_data().map_err(|e| IrisError::Io {
            detail: format!("WAL fsync failed: {e}"),
        })?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        iris_telemetry::global()
            .histogram("iris_service_wal_fsync_ms")
            .record(ms);
        Ok(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("iris-wal-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    fn batch(epoch: u64) -> WalBatch {
        WalBatch {
            epoch,
            updates: vec![AllocEntry {
                a: 0,
                b: 1,
                circuits: epoch as u32,
            }],
            cuts: Vec::new(),
            writes_applied: 1,
            coalesced: 0,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_log_reads_as_no_records() {
        let dir = tmp_dir("empty");
        let (batches, salvage) = read_log(&dir.join(WAL_FILE)).expect("missing file is empty");
        assert!(batches.is_empty());
        assert_eq!(salvage, Salvage::default());
        // An existing zero-byte file behaves the same.
        std::fs::write(dir.join(WAL_FILE), b"").unwrap();
        let (batches, salvage) = read_log(&dir.join(WAL_FILE)).expect("zero-byte file");
        assert!(batches.is_empty());
        assert!(salvage.torn.is_none());
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = tmp_dir("roundtrip");
        let (mut wal, state) = Wal::open(&dir).expect("open");
        assert!(state.snapshot.is_none());
        assert!(state.batches.is_empty());
        for e in 1..=3 {
            wal.append(&batch(e)).expect("append");
        }
        assert_eq!(wal.batches_since_compaction(), 3);
        let (batches, salvage) = read_log(&dir.join(WAL_FILE)).expect("read");
        assert_eq!(batches, vec![batch(1), batch(2), batch(3)]);
        assert_eq!(salvage.records, 3);
        assert_eq!(salvage.truncated_bytes, 0);
        assert!(salvage.torn.is_none());
    }

    #[test]
    fn torn_final_record_is_salvaged_and_truncated_on_open() {
        let dir = tmp_dir("torn");
        let (mut wal, _) = Wal::open(&dir).expect("open");
        wal.append(&batch(1)).expect("append");
        wal.append(&batch(2)).expect("append");
        drop(wal);
        // A crash mid-append: a header promising 64 bytes, then only 3.
        let path = dir.join(WAL_FILE);
        let good_len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&64u32.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(b"abc");
        std::fs::write(&path, &bytes).unwrap();

        let (wal, state) = Wal::open(&dir).expect("salvage");
        assert_eq!(state.batches, vec![batch(1), batch(2)]);
        assert_eq!(state.salvage.records, 2);
        assert_eq!(state.salvage.truncated_bytes, 11);
        let torn = state.salvage.torn.as_deref().expect("torn reported");
        assert!(torn.contains("torn record payload"), "{torn}");
        // Open truncated the file back to the record boundary, so the
        // next append produces a clean log.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        drop(wal);
    }

    #[test]
    fn bad_crc_mid_log_recovers_to_the_last_consistent_record() {
        let dir = tmp_dir("badcrc");
        let (mut wal, _) = Wal::open(&dir).expect("open");
        for e in 1..=3 {
            wal.append(&batch(e)).expect("append");
        }
        drop(wal);
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of record 2 (skip record 1 and record
        // 2's header). Records are identical length here.
        let rec_len = bytes.len() / 3;
        bytes[rec_len + HEADER_LEN + 4] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (batches, salvage) = read_log(&path).expect("salvage, not error");
        assert_eq!(batches, vec![batch(1)], "replay stops at the bad record");
        assert_eq!(salvage.records, 1);
        // Record 2 *and* the still-intact record 3 after it are dropped:
        // replay must never skip a hole.
        assert_eq!(salvage.truncated_bytes as usize, 2 * rec_len);
        assert!(salvage.torn.as_deref().unwrap().contains("CRC mismatch"));
    }

    #[test]
    fn garbage_length_does_not_allocate_and_is_salvaged() {
        let dir = tmp_dir("garbagelen");
        let (mut wal, _) = Wal::open(&dir).expect("open");
        wal.append(&batch(1)).expect("append");
        drop(wal);
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        std::fs::write(&path, &bytes).unwrap();
        let (batches, salvage) = read_log(&path).expect("salvage");
        assert_eq!(batches.len(), 1);
        assert!(salvage.torn.as_deref().unwrap().contains("exceeds"));
    }

    #[test]
    fn crc_valid_garbage_payload_is_typed_corrupt() {
        let dir = tmp_dir("corrupt");
        let path = dir.join(WAL_FILE);
        // A well-framed record whose payload is valid JSON but not a
        // WalBatch: a crash cannot produce this, so it must not be
        // silently dropped.
        let payload = b"{\"not\":\"a batch\"}";
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&crc32(payload).to_be_bytes());
        bytes.extend_from_slice(payload);
        std::fs::write(&path, &bytes).unwrap();
        let err = read_log(&path).unwrap_err();
        assert_eq!(err.code(), "corrupt");
        assert_eq!(err.exit_code(), 5);
        assert!(err.to_string().contains("WalBatch"), "{err}");
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let dir = tmp_dir("badsnap");
        std::fs::write(dir.join(SNAPSHOT_FILE), b"{]").unwrap();
        let err = Wal::open(&dir).unwrap_err();
        assert_eq!(err.code(), "corrupt");
        assert!(err.to_string().contains(SNAPSHOT_FILE), "{err}");
    }

    #[test]
    fn compact_persists_the_snapshot_and_truncates_the_log() {
        let dir = tmp_dir("compact");
        let (mut wal, _) = Wal::open(&dir).expect("open");
        wal.append(&batch(1)).expect("append");
        wal.append(&batch(2)).expect("append");
        let snap = PersistedSnapshot {
            epoch: 2,
            allocation: vec![AllocEntry {
                a: 0,
                b: 1,
                circuits: 2,
            }],
            active_cuts: vec![4],
            quarantined: Vec::new(),
            writes_applied: 2,
            coalesced: 0,
            last_recovery: None,
        };
        wal.compact(&snap).expect("compact");
        assert_eq!(wal.batches_since_compaction(), 0);
        drop(wal);
        let (wal, state) = Wal::open(&dir).expect("reopen");
        assert_eq!(state.snapshot, Some(snap));
        assert!(state.batches.is_empty(), "log was truncated");
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        drop(wal);
    }

    #[test]
    fn nosync_appends_are_covered_by_one_handle_sync() {
        let dir = tmp_dir("groupcommit");
        let (mut wal, _) = Wal::open(&dir).expect("open");
        let handle = wal.sync_handle().expect("sync handle");
        for e in 1..=4 {
            wal.append_nosync(&batch(e)).expect("append");
        }
        // One fsync through the duplicated descriptor covers all four
        // records (fsync is per-file, not per-descriptor).
        let ms = handle.sync().expect("group fsync");
        assert!(ms >= 0.0);
        assert_eq!(wal.stats().records, 4);
        drop(wal);
        let (batches, salvage) = read_log(&dir.join(WAL_FILE)).expect("read");
        assert_eq!(batches, vec![batch(1), batch(2), batch(3), batch(4)]);
        assert_eq!(salvage.truncated_bytes, 0);
    }

    #[test]
    fn persisted_snapshot_round_trips_through_json() {
        let snap = PersistedSnapshot {
            epoch: 9,
            allocation: vec![AllocEntry {
                a: 1,
                b: 3,
                circuits: 4,
            }],
            active_cuts: vec![2, 7],
            quarantined: vec![5],
            writes_applied: 14,
            coalesced: 3,
            last_recovery: Some(RecoverySummary {
                cuts: vec![2, 7],
                within_tolerance: true,
                fully_recovered: true,
                shed_pairs: 0,
                detection_ms: 10.0,
                replan_ms: 5.0,
                reconfig_ms: 52.0,
                recovery_ms: 67.0,
            }),
        };
        let text = serde_json::to_string(&snap).unwrap();
        let back: PersistedSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
        // Serialization is deterministic: same value, same bytes.
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }
}
