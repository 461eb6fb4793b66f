//! The region-level chaos sweep behind `iris chaos --federation`.
//!
//! Three real `iris` servers — one primary, two followers — run on
//! loopback sockets with WAL-shipping replication between them, while a
//! seeded geo-distributed user population
//! ([`iris_service::GeoPopulation`]) reads through health-routed
//! [`RegionRouter`]s and one writer router drives demand onto the
//! primary. The sweep then walks the region-level fault menu in order:
//!
//! 1. **steady** — writes (plus one replicated fiber cut) fan out to
//!    every follower; all three regions must converge byte-identically.
//! 2. **partition** — the primary→region-3 link is severed; the
//!    follower lags by exactly the writes landed behind its back, and
//!    every region-3-homed user's epoch-fenced read times out typed and
//!    redirects to the primary (the stale-read count). Healing must
//!    converge with no epoch-chain fork.
//! 3. **follower-kill** — region 2 dies mid-run and restarts empty; its
//!    users fail over on first contact, and the torn peer stream
//!    re-syncs through a full state shipment.
//! 4. **primary-kill** — region 1 dies. The harness promotes the
//!    highest-epoch follower, the writer re-asserts every acknowledged
//!    write against it, and the final allocation must contain all of
//!    them: zero lost acknowledged writes.
//!
//! Everything serialized into [`FederationReport`] is a pure function
//! of the seed: replication lag is measured in epochs (exact, because
//! the coalescing window is zero and writes are sequential), lag and
//! failover *times* are modeled from those counts, and wall-clock phase
//! durations are printed but never serialized — so the `federation` CI
//! job can byte-diff two runs, at any `IRIS_THREADS`.

use iris_errors::{IrisError, IrisResult};
use iris_service::api::{Request, Response};
use iris_service::{
    serve, GeoPopulation, RegionEndpoint, RegionRouter, ServiceClient, ServiceConfig, ServiceHandle,
};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Per-call router deadline, ms — also the unit the modeled failover
/// time is counted in (one failed region costs one probe deadline).
pub const ROUTER_DEADLINE_MS: u64 = 2_000;

/// How long an epoch-fenced read waits on a lagging follower before it
/// counts as stale and redirects, ms.
const STALE_WAIT_MS: u64 = 40;

/// Federation sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FederationConfig {
    /// Master seed: topology, population and write mix all derive from
    /// it.
    pub seed: u64,
    /// DCs in the synthetic region topology (shared by every region).
    pub n_dcs: usize,
    /// Planner cut tolerance `k`.
    pub cuts: usize,
    /// Simulated users in the geo population.
    pub users: usize,
    /// Demand writes landed in each phase.
    pub writes_per_phase: usize,
}

impl Default for FederationConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            n_dcs: 5,
            cuts: 1,
            users: 12,
            writes_per_phase: 6,
        }
    }
}

/// One region's share of the user population.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionSummary {
    /// Region id (1-based, matching `iris serve --region-id`).
    pub region: u64,
    /// Users homed here.
    pub home_users: u64,
}

/// What one fault phase did and what it cost — all seed-deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseOutcome {
    /// Phase name: `steady`, `partition`, `follower-kill`,
    /// `primary-kill`.
    pub phase: String,
    /// Demand writes acknowledged during the phase.
    pub writes_acked: u64,
    /// The writer's read-your-writes fence after the phase (highest
    /// acknowledged commit epoch).
    pub acked_epoch: u64,
    /// Peak replication lag observed at the faulted peer, in epochs.
    pub lag_epochs: u64,
    /// Modeled replication lag, ms (`lag_epochs` batch latencies).
    pub modeled_lag_ms: f64,
    /// Epoch-fenced reads that timed out on a lagging follower and
    /// redirected to the primary.
    pub stale_redirects: u64,
    /// Regions users failed away from during the phase.
    pub failovers: u64,
    /// Modeled failover time, ms: each failed-over region costs one
    /// probe deadline before the next candidate answers.
    pub modeled_failover_ms: u64,
    /// Every live region reached the fence epoch with an identical
    /// state CRC.
    pub converged: bool,
    /// The canonical-state CRC all live regions agreed on.
    pub state_crc: u32,
}

/// The sweep's aggregate result (what `results/federation_chaos.json`
/// holds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationReport {
    /// The parameters that produced this report.
    pub config: FederationConfig,
    /// Ducts in the shared synthetic topology.
    pub ducts: usize,
    /// Users homed per region, heaviest region first.
    pub population: Vec<RegionSummary>,
    /// The fault phases, in the order they ran.
    pub phases: Vec<PhaseOutcome>,
    /// Regions failed away from across the whole run.
    pub total_failovers: u64,
    /// Stale-read redirects across the whole run.
    pub total_stale_redirects: u64,
    /// Acknowledged writes missing from the final promoted primary —
    /// the sweep's headline invariant is that this is zero.
    pub lost_acked_writes: u64,
    /// Every phase converged CRC-identically.
    pub all_converged: bool,
}

/// Wall-clock observations: printed, never serialized.
#[derive(Debug, Clone)]
pub struct FederationMeasured {
    /// `(phase, elapsed ms)` for each phase.
    pub phase_ms: Vec<(String, f64)>,
}

/// Home-region weights: region 1 is the population center, region 3 the
/// smallest — enough skew that every phase's per-region counts differ.
const REGION_WEIGHTS: [f64; 3] = [0.5, 0.3, 0.2];

struct Fleet {
    /// `handles[i]` serves region `i + 1`; `None` once killed.
    handles: Vec<Option<ServiceHandle>>,
    addrs: Vec<String>,
}

impl Fleet {
    fn handle(&self, region: u64) -> &ServiceHandle {
        self.handles[region as usize - 1]
            .as_ref()
            .expect("region is alive")
    }

    fn kill(&mut self, region: u64) {
        if let Some(mut h) = self.handles[region as usize - 1].take() {
            h.shutdown();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for h in &mut self.handles {
            if let Some(h) = h.as_mut() {
                h.shutdown();
            }
        }
    }
}

fn server_config(region_id: u64, follower: bool, peers: Vec<String>) -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        cuts: 1,
        // A zero window keeps epochs exact: one sequential awaited
        // write is one batch is one epoch, so every lag below is a
        // count, not a race.
        coalesce_window_ms: 0,
        region_id,
        peers,
        follower,
        ..ServiceConfig::default()
    }
}

/// Serve the 3-region fleet. Boot order runs outward-in so every server
/// knows its downstream peers' (ephemeral) addresses: region 3 is a
/// leaf, region 2 ships to region 3 (it only does so once promoted),
/// and region 1 — the initial primary — ships to both.
fn boot_fleet(topo: &iris_fibermap::Region) -> IrisResult<Fleet> {
    let r3 = serve(topo.clone(), &server_config(3, true, Vec::new()))?;
    let a3 = r3.local_addr().to_string();
    let r2 = serve(topo.clone(), &server_config(2, true, vec![a3.clone()]))?;
    let a2 = r2.local_addr().to_string();
    let r1 = serve(
        topo.clone(),
        &server_config(1, false, vec![a2.clone(), a3.clone()]),
    )?;
    let a1 = r1.local_addr().to_string();
    Ok(Fleet {
        handles: vec![Some(r1), Some(r2), Some(r3)],
        addrs: vec![a1, a2, a3],
    })
}

/// A router whose endpoint order follows `preference` (region indices,
/// 0-based).
fn router_for(fleet: &Fleet, preference: &[usize]) -> RegionRouter {
    let endpoints = preference
        .iter()
        .map(|&r| RegionEndpoint {
            region: r as u64 + 1,
            addr: fleet.addrs[r].clone(),
        })
        .collect();
    RegionRouter::new(endpoints, ROUTER_DEADLINE_MS)
}

/// Block until `primary` reports peer `addr` acked `epoch`.
fn fence_peer(primary: &ServiceHandle, addr: &str, epoch: u64) -> IrisResult<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let acked = primary
            .peer_infos()
            .iter()
            .find(|p| p.addr == addr)
            .map_or(0, |p| p.acked_epoch);
        if acked >= epoch {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(IrisError::Unreachable {
                what: format!("peer {addr} never acked epoch {epoch} (at {acked})"),
            });
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Every live region at `epoch` must render the same canonical state.
/// Returns `(identical, crc)`.
fn converged_crc(fleet: &Fleet, live: &[u64], epoch: u64) -> (bool, u32) {
    let mut crc = None;
    let mut identical = true;
    for &region in live {
        let snap = fleet.handle(region).current_snapshot();
        if snap.epoch != epoch {
            identical = false;
        }
        let c = snap.state_crc();
        match crc {
            None => crc = Some(c),
            Some(prev) if prev != c => identical = false,
            Some(_) => {}
        }
    }
    (identical, crc.unwrap_or(0))
}

/// The seeded write mix: phase `p`'s writes cycle the DC pairs with
/// circuit counts derived from the seed, never 0.
fn phase_writes(
    cfg: &FederationConfig,
    pairs: &[(usize, usize)],
    phase: usize,
) -> Vec<(usize, usize, u32)> {
    (0..cfg.writes_per_phase)
        .map(|i| {
            let (a, b) = pairs[(phase * 31 + i * 7) % pairs.len()];
            let circuits = 1 + ((cfg.seed as usize + phase * 13 + i * 5) % 4) as u32;
            (a, b, circuits)
        })
        .collect()
}

/// Run the federation chaos sweep.
///
/// # Errors
///
/// Propagates any infrastructure failure — a server that will not
/// serve, a write that will not land, a fence that never closes. Chaos
/// *outcomes* (lag, redirects, failovers, lost writes) are data in the
/// report, not errors.
#[allow(clippy::too_many_lines)]
pub fn run_federation(
    cfg: &FederationConfig,
) -> IrisResult<(FederationReport, FederationMeasured)> {
    let topo = crate::simple_region(cfg.seed, cfg.n_dcs);
    let ducts = topo.map.graph().edge_count();
    let fleet = boot_fleet(&topo)?;
    let mut fleet = fleet;

    let population = GeoPopulation::new(cfg.seed, cfg.users, &REGION_WEIGHTS);
    let counts = population.counts();
    let mut writer = router_for(&fleet, &[0, 1, 2]);
    let mut users: Vec<RegionRouter> = (0..cfg.users)
        .map(|u| router_for(&fleet, &population.preference(u)))
        .collect();

    let pairs: Vec<(usize, usize)> = fleet
        .handle(1)
        .current_snapshot()
        .allocation
        .keys()
        .copied()
        .collect();
    // The duct the steady phase cuts: the first hop of the first pair's
    // route, a valid id by construction.
    let cut_duct = fleet.handle(1).current_snapshot().paths[&pairs[0]].edges[0];

    let mut phases = Vec::new();
    let mut measured = Vec::new();

    // ---- Phase 1: steady state -------------------------------------
    let t0 = Instant::now();
    for &(a, b, circuits) in &phase_writes(cfg, &pairs, 0) {
        writer.update_demand(a, b, circuits)?;
    }
    // One replicated fiber cut rides along so recovery state ships too.
    let mut cut_client = ServiceClient::connect_retry(&fleet.addrs[0], 20, 25)?;
    match cut_client
        .call_retrying(
            &Request::ReportFiberCut {
                cuts: vec![cut_duct],
            },
            50,
        )?
        .into_result()?
    {
        Response::Recovery(_) | Response::CutAlreadyActive { .. } => {}
        other => {
            return Err(IrisError::Decode {
                detail: format!("unexpected reply to ReportFiberCut: {other:?}"),
            })
        }
    }
    let epoch = fleet.handle(1).current_snapshot().epoch;
    fence_peer(fleet.handle(1), &fleet.addrs[1], epoch)?;
    fence_peer(fleet.handle(1), &fleet.addrs[2], epoch)?;
    let (stale0, fail0) = drive_reads(&mut users, writer.write_epoch());
    let (converged, state_crc) = converged_crc(&fleet, &[1, 2, 3], epoch);
    phases.push(PhaseOutcome {
        phase: "steady".to_owned(),
        writes_acked: cfg.writes_per_phase as u64,
        acked_epoch: writer.write_epoch(),
        lag_epochs: 0,
        modeled_lag_ms: 0.0,
        stale_redirects: stale0,
        failovers: fail0,
        modeled_failover_ms: fail0 * ROUTER_DEADLINE_MS,
        converged,
        state_crc,
    });
    measured.push(("steady".to_owned(), t0.elapsed().as_secs_f64() * 1e3));

    // ---- Phase 2: partition region 3 -------------------------------
    let t0 = Instant::now();
    assert!(
        fleet.handle(1).set_peer_paused(&fleet.addrs[2], true),
        "region 3 is a known peer"
    );
    for &(a, b, circuits) in &phase_writes(cfg, &pairs, 1) {
        writer.update_demand(a, b, circuits)?;
    }
    let epoch = fleet.handle(1).current_snapshot().epoch;
    // Region 2 still hears everything; fence it so only region 3 lags.
    fence_peer(fleet.handle(1), &fleet.addrs[1], epoch)?;
    let lag = fleet
        .handle(1)
        .peer_infos()
        .iter()
        .find(|p| p.addr == fleet.addrs[2])
        .map_or(0, |p| p.lag_epochs);
    let lag_ms = fleet
        .handle(1)
        .peer_infos()
        .iter()
        .find(|p| p.addr == fleet.addrs[2])
        .map_or(0.0, |p| p.lag_ms);
    let (stale1, fail1) = drive_reads(&mut users, writer.write_epoch());
    // Heal: the link resumes from region 3's last acked epoch and the
    // chains must converge with no fork.
    assert!(fleet.handle(1).set_peer_paused(&fleet.addrs[2], false));
    fence_peer(fleet.handle(1), &fleet.addrs[2], epoch)?;
    let (converged, state_crc) = converged_crc(&fleet, &[1, 2, 3], epoch);
    phases.push(PhaseOutcome {
        phase: "partition".to_owned(),
        writes_acked: cfg.writes_per_phase as u64,
        acked_epoch: writer.write_epoch(),
        lag_epochs: lag,
        modeled_lag_ms: lag_ms,
        stale_redirects: stale1,
        failovers: fail1,
        modeled_failover_ms: fail1 * ROUTER_DEADLINE_MS,
        converged,
        state_crc,
    });
    measured.push(("partition".to_owned(), t0.elapsed().as_secs_f64() * 1e3));

    // ---- Phase 3: kill and restart follower region 2 ---------------
    let t0 = Instant::now();
    fleet.kill(2);
    for &(a, b, circuits) in &phase_writes(cfg, &pairs, 2) {
        writer.update_demand(a, b, circuits)?;
    }
    let (stale2, fail2) = drive_reads(&mut users, writer.write_epoch());
    // Restart region 2 empty on its old address: a torn peer stream.
    // The primary's health probe sees epoch 0, misses the replication
    // window, ships a full state sync, then streams from there.
    let restarted = serve(
        topo.clone(),
        &ServiceConfig {
            addr: fleet.addrs[1].clone(),
            ..server_config(2, true, vec![fleet.addrs[2].clone()])
        },
    )?;
    fleet.handles[1] = Some(restarted);
    let epoch = fleet.handle(1).current_snapshot().epoch;
    fence_peer(fleet.handle(1), &fleet.addrs[1], epoch)?;
    fence_peer(fleet.handle(1), &fleet.addrs[2], epoch)?;
    let (converged, state_crc) = converged_crc(&fleet, &[1, 2, 3], epoch);
    phases.push(PhaseOutcome {
        phase: "follower-kill".to_owned(),
        writes_acked: cfg.writes_per_phase as u64,
        acked_epoch: writer.write_epoch(),
        lag_epochs: 0,
        modeled_lag_ms: 0.0,
        stale_redirects: stale2,
        failovers: fail2,
        modeled_failover_ms: fail2 * ROUTER_DEADLINE_MS,
        converged,
        state_crc,
    });
    measured.push(("follower-kill".to_owned(), t0.elapsed().as_secs_f64() * 1e3));

    // ---- Phase 4: kill the primary, promote, re-assert -------------
    let t0 = Instant::now();
    fleet.kill(1);
    // Promote the highest-epoch survivor (ties break to the lowest
    // region id). Both followers were fenced above, so this choice is
    // deterministic.
    let best = [2u64, 3]
        .into_iter()
        .max_by_key(|&r| (fleet.handle(r).current_snapshot().epoch, u64::MAX - r))
        .expect("two survivors");
    writer.promote_region(best)?;
    let reasserted = writer.reassert_acked_writes()? as u64;
    for &(a, b, circuits) in &phase_writes(cfg, &pairs, 3) {
        writer.update_demand(a, b, circuits)?;
    }
    let (stale3, fail3) = drive_reads(&mut users, writer.write_epoch());
    let epoch = fleet.handle(best).current_snapshot().epoch;
    let other = if best == 2 { 3 } else { 2 };
    fence_peer(fleet.handle(best), &fleet.addrs[other as usize - 1], epoch)?;
    let (converged, state_crc) = converged_crc(&fleet, &[2, 3], epoch);

    // Zero lost acknowledged writes: every pair the writer ever got an
    // ack for must hold its last acknowledged value on the new primary.
    let final_alloc = fleet.handle(best).current_snapshot().allocation.clone();
    let lost_acked_writes = writer
        .acked_pairs()
        .iter()
        .filter(|&&((a, b), circuits)| final_alloc.get(&(a, b)) != Some(&circuits))
        .count() as u64;
    phases.push(PhaseOutcome {
        phase: "primary-kill".to_owned(),
        writes_acked: cfg.writes_per_phase as u64 + reasserted,
        acked_epoch: writer.write_epoch(),
        lag_epochs: 0,
        modeled_lag_ms: 0.0,
        stale_redirects: stale3,
        failovers: fail3,
        modeled_failover_ms: fail3 * ROUTER_DEADLINE_MS,
        converged,
        state_crc,
    });
    measured.push(("primary-kill".to_owned(), t0.elapsed().as_secs_f64() * 1e3));

    let total_failovers = phases.iter().map(|p| p.failovers).sum();
    let total_stale_redirects = phases.iter().map(|p| p.stale_redirects).sum();
    let all_converged = phases.iter().all(|p| p.converged);
    Ok((
        FederationReport {
            config: *cfg,
            ducts,
            population: counts
                .iter()
                .enumerate()
                .map(|(i, &home_users)| RegionSummary {
                    region: i as u64 + 1,
                    home_users,
                })
                .collect(),
            phases,
            total_failovers,
            total_stale_redirects,
            lost_acked_writes,
            all_converged,
        },
        FederationMeasured { phase_ms: measured },
    ))
}

/// Every user performs one epoch-fenced read at the writer's fence.
/// Returns the deltas of `(stale_redirects, failovers)` the phase
/// produced across the population.
fn drive_reads(users: &mut [RegionRouter], fence: u64) -> (u64, u64) {
    let before: (u64, u64) = users
        .iter()
        .map(|u| (u.stale_redirects(), u.failovers()))
        .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1));
    for user in users.iter_mut() {
        let resp = user
            .read_at(fence, STALE_WAIT_MS)
            .expect("a fenced read always lands somewhere");
        assert!(
            matches!(resp, Response::Plan(_)),
            "fenced reads return plans, got {resp:?}"
        );
    }
    let after: (u64, u64) = users
        .iter()
        .map(|u| (u.stale_redirects(), u.failovers()))
        .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1));
    (after.0 - before.0, after.1 - before.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FederationConfig {
        FederationConfig {
            seed: 11,
            n_dcs: 4,
            cuts: 1,
            // Seed 11 homes users [3, 2, 1] across the regions, so the
            // partition and kill phases each touch a populated region.
            users: 6,
            writes_per_phase: 2,
        }
    }

    #[test]
    fn federation_sweep_is_deterministic_and_loses_nothing() {
        let (a, _) = run_federation(&tiny()).expect("sweep");
        let (b, _) = run_federation(&tiny()).expect("sweep");
        assert_eq!(a, b, "same seed, byte-identical report");
        assert_eq!(a.lost_acked_writes, 0, "zero lost acknowledged writes");
        assert!(a.all_converged, "every phase converged");
        assert_eq!(a.phases.len(), 4);
        let partition = &a.phases[1];
        assert_eq!(
            partition.lag_epochs, 2,
            "the partitioned follower lags by exactly the writes behind its back"
        );
        assert!(
            partition.stale_redirects >= 1,
            "region-3 users must redirect while their home lags"
        );
        let kill = &a.phases[3];
        assert!(kill.failovers >= 1, "primary loss must fail users over");
    }
}
