//! Epoch-published immutable state shared between reader connections and
//! the single mutator thread.
//!
//! Readers never contend with writes: every read request is served from
//! one `Arc<StateSnapshot>`, cloned out of the server's publication
//! cell. The mutator builds the next snapshot entirely off-lock —
//! applying a whole coalesced write batch — and the commit step
//! publishes it, with its pre-serialized replies, in one pointer swap.
//! The epoch increments on every publish, so clients can observe write
//! batches becoming visible.

use crate::api::{AllocEntry, RecoverySummary};
use iris_netgraph::EdgeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The surviving route one DC pair's circuit rides.
#[derive(Debug, Clone, PartialEq)]
pub struct PairPath {
    /// Site sequence.
    pub nodes: Vec<usize>,
    /// Duct sequence.
    pub edges: Vec<EdgeId>,
    /// Path length, km.
    pub length_km: f64,
}

/// One immutable, internally consistent view of the control plane.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateSnapshot {
    /// Publish count; 0 is the boot snapshot.
    pub epoch: u64,
    /// Circuits per DC pair, `(a, b)` ascending with `a < b`.
    pub allocation: BTreeMap<(usize, usize), u32>,
    /// Current route per reachable DC pair.
    pub paths: BTreeMap<(usize, usize), PairPath>,
    /// Ducts failed so far (cumulative), ascending.
    pub active_cuts: Vec<EdgeId>,
    /// Quarantined sites.
    pub quarantined: Vec<usize>,
    /// Write operations applied (post-coalescing) up to this epoch.
    pub writes_applied: u64,
    /// Redundant `UpdateDemand`s absorbed by coalescing up to this epoch.
    pub coalesced: u64,
    /// The most recent completed fiber-cut recovery.
    pub last_recovery: Option<RecoverySummary>,
}

/// One pair's route as a flat JSON row (tuple map keys flattened for
/// the offline serde derive).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PathRow {
    /// First DC index.
    a: usize,
    /// Second DC index.
    b: usize,
    /// Site sequence.
    nodes: Vec<usize>,
    /// Duct sequence.
    edges: Vec<usize>,
    /// Path length, km.
    length_km: f64,
}

/// The whole snapshot as flat JSON rows — the canonical serialized form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CanonicalSnapshot {
    /// Snapshot epoch.
    epoch: u64,
    /// Circuits per DC pair, `(a, b)` ascending.
    allocation: Vec<AllocEntry>,
    /// Route per reachable pair, `(a, b)` ascending.
    paths: Vec<PathRow>,
    /// Cumulative failed ducts, ascending.
    active_cuts: Vec<usize>,
    /// Quarantined sites.
    quarantined: Vec<usize>,
    /// Write operations applied up to this epoch.
    writes_applied: u64,
    /// Redundant updates absorbed by coalescing up to this epoch.
    coalesced: u64,
    /// The most recent completed fiber-cut recovery.
    last_recovery: Option<RecoverySummary>,
}

impl StateSnapshot {
    /// Canonical JSON rendering of every field — a deterministic,
    /// byte-comparable fingerprint of the whole snapshot (tuple-keyed
    /// maps flattened to sorted rows). Two snapshots render identically
    /// iff they are equal, which is what the crash-recovery tests and
    /// the `chaos --crash` sweep diff.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        let flat = CanonicalSnapshot {
            epoch: self.epoch,
            allocation: self
                .allocation
                .iter()
                .map(|(&(a, b), &circuits)| AllocEntry { a, b, circuits })
                .collect(),
            paths: self
                .paths
                .iter()
                .map(|(&(a, b), p)| PathRow {
                    a,
                    b,
                    nodes: p.nodes.clone(),
                    edges: p.edges.clone(),
                    length_km: p.length_km,
                })
                .collect(),
            active_cuts: self.active_cuts.clone(),
            quarantined: self.quarantined.clone(),
            writes_applied: self.writes_applied,
            coalesced: self.coalesced,
            last_recovery: self.last_recovery.clone(),
        };
        serde_json::to_string_pretty(&flat).expect("snapshot fields always serialize")
    }

    /// CRC-32 of [`StateSnapshot::canonical_json`] — the compact
    /// fingerprint `ReplicateAck` carries so a primary can prove its
    /// follower byte-identical at every acked epoch without shipping the
    /// whole rendering back.
    #[must_use]
    pub fn state_crc(&self) -> u32 {
        crate::wal::crc32(self.canonical_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_crc_fingerprints_the_whole_snapshot() {
        let a = StateSnapshot::default();
        let mut b = StateSnapshot::default();
        assert_eq!(a.state_crc(), b.state_crc(), "equal snapshots, equal CRC");
        b.allocation.insert((0, 1), 2);
        assert_ne!(a.state_crc(), b.state_crc(), "allocation change shows");
        let mut c = b.clone();
        c.epoch = 9;
        assert_ne!(b.state_crc(), c.state_crc(), "epoch change shows");
    }
}
