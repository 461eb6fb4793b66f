//! The control-plane state machine without a socket: a live machine, a
//! follower fed its records, a recovery from its directory and a late
//! joiner adopting its snapshot must publish the same bytes at every
//! epoch, and none of them may be moved by a record it refuses.

use iris_control::Controller;
use iris_fibermap::{synth, MetroParams, PlacementParams, Region};
use iris_planner::topology::nominal_paths;
use iris_planner::{plan_iris, DesignGoals, Provisioning, ScenarioEngine};
use iris_service::api::{AllocEntry, RecoverySummary};
use iris_service::wal::{CutRecord, SNAPSHOT_FILE, WAL_FILE};
use iris_service::{recover, ControlMachine, PersistedSnapshot, StateSnapshot, Wal, WalBatch};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn region(seed: u64, n_dcs: usize) -> Region {
    synth::place_dcs(
        synth::generate_metro(&MetroParams {
            seed,
            ..MetroParams::default()
        }),
        &PlacementParams {
            seed: seed.wrapping_add(17),
            n_dcs,
            ..PlacementParams::default()
        },
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("iris-machine-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// splitmix64: the script must not depend on which `rand` is linked.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// The fixed parts of one region every machine in a test shares.
struct World {
    region: Region,
    goals: DesignGoals,
    prov: Provisioning,
}

impl World {
    fn new(seed: u64, n_dcs: usize) -> Self {
        let region = region(seed, n_dcs);
        let goals = DesignGoals::with_cuts(1);
        let prov = plan_iris(&region, &goals).provisioning;
        Self {
            region,
            goals,
            prov,
        }
    }

    /// Boot a WAL-backed machine over `dir` the way `serve` does.
    fn boot<'w>(
        &'w self,
        controller: &'w Controller,
        dir: &Path,
    ) -> (ControlMachine<'w>, StateSnapshot) {
        let (wal, durable) = Wal::open(dir).expect("open WAL");
        let (snap, cuts, _) =
            recover(&self.region, &self.goals, &self.prov, controller, &durable).expect("recover");
        let (region, goals, prov) = (&self.region, &self.goals, &self.prov);
        let machine = ControlMachine::new(region, goals, prov, controller, cuts, Some(wal), 3);
        (machine, snap)
    }

    /// What a restarted server would publish from a copy of `dir`.
    fn recovered(&self, dir: &Path, copy: &Path) -> StateSnapshot {
        let _ = std::fs::remove_dir_all(copy);
        std::fs::create_dir_all(copy).unwrap();
        for file in [WAL_FILE, SNAPSHOT_FILE] {
            if dir.join(file).exists() {
                std::fs::copy(dir.join(file), copy.join(file)).unwrap();
            }
        }
        let controller = Controller::for_region(&self.region, &self.goals);
        let (_wal, durable) = Wal::open(copy).expect("open copy");
        let (snap, _, stats) =
            recover(&self.region, &self.goals, &self.prov, &controller, &durable).expect("recover");
        assert_eq!(stats.recovered_epoch, snap.epoch);
        snap
    }

    fn controller(&self) -> Controller {
        Controller::for_region(&self.region, &self.goals)
    }
}

fn assert_same(what: &str, at: usize, got: &StateSnapshot, want: &StateSnapshot) {
    assert_eq!(
        got.canonical_json(),
        want.canonical_json(),
        "{what} diverged from the live machine after batch {at}"
    );
    assert_eq!(got.state_crc(), want.state_crc(), "{what} CRC, batch {at}");
}

/// One scripted batch: updates, the coalesced count the mutator would
/// report with them, and cut operations.
type Scripted = (BTreeMap<(usize, usize), u32>, u64, Vec<Vec<usize>>);

/// Twelve batches in a seeded order: plain updates (pairs repeat across
/// batches, some arrive coalesced), `circuits == 0` removals, a new cut,
/// the same cut again alone (a no-op batch) and beside an update, a cut
/// of every duct at DC 0 (over tolerance: its pairs are shed), and an
/// empty batch. Cut ducts are picked when the batch runs, from the paths
/// then published.
fn script(rng: &mut Rng) -> Vec<u8> {
    let mut kinds = b"uuucrzzxoemu".to_vec();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    kinds
}

fn updates(rng: &mut Rng, n_dcs: usize, n: usize, zero: bool) -> BTreeMap<(usize, usize), u32> {
    let mut out = BTreeMap::new();
    while out.len() < n {
        let a = rng.below(n_dcs - 1);
        let b = a + 1 + rng.below(n_dcs - 1 - a);
        out.insert((a, b), 1 + rng.below(5) as u32);
    }
    if zero {
        let first = *out.keys().next().unwrap();
        out.insert(first, 0);
    }
    out
}

fn scripted(kind: u8, rng: &mut Rng, world: &World, live: &StateSnapshot) -> Scripted {
    let n_dcs = world.region.dcs.len();
    // A duct some published path rides, so the cut moves circuits.
    let carried = |rng: &mut Rng| {
        let paths: Vec<_> = live
            .paths
            .values()
            .filter(|p| !p.edges.is_empty())
            .collect();
        let path = paths[rng.below(paths.len())];
        path.edges[rng.below(path.edges.len())]
    };
    let severed = || live.active_cuts.first().copied();
    match kind {
        b'u' => (updates(rng, n_dcs, 3, false), rng.below(3) as u64, vec![]),
        b'z' => (updates(rng, n_dcs, 2, true), 0, vec![]),
        b'c' => (BTreeMap::new(), 0, vec![vec![carried(rng)]]),
        // Repeat a cut alone: nothing to apply, no epoch.
        b'r' => match severed() {
            Some(duct) => (BTreeMap::new(), 0, vec![vec![duct]]),
            None => (BTreeMap::new(), 0, vec![]),
        },
        // Repeat a cut beside an update: the update publishes.
        b'x' => (
            updates(rng, n_dcs, 1, false),
            0,
            severed().map(|duct| vec![duct]).into_iter().collect(),
        ),
        b'o' => {
            let site = world.region.dcs[0];
            let ducts = world.region.map.graph().neighbors(site);
            let all = ducts.iter().map(|&(duct, _)| duct).collect();
            (BTreeMap::new(), 0, vec![all])
        }
        b'e' => (BTreeMap::new(), 0, vec![]),
        // Two cut operations and updates in one record.
        b'm' => (
            updates(rng, n_dcs, 2, false),
            1,
            vec![vec![carried(rng)], vec![carried(rng)]],
        ),
        _ => unreachable!(),
    }
}

#[test]
fn live_follower_recovered_and_late_joiner_agree_at_every_epoch() {
    for seed in 0..32u64 {
        let world = World::new(seed, 4 + (seed % 3) as usize);
        let mut rng = Rng(seed);
        let (dir_l, dir_f, dir_s, dir_r) = (
            scratch(&format!("live-{seed}")),
            scratch(&format!("follower-{seed}")),
            scratch(&format!("joiner-{seed}")),
            scratch(&format!("restart-{seed}")),
        );
        let (cl, cf, cs) = (world.controller(), world.controller(), world.controller());
        let (mut live, mut l) = world.boot(&cl, &dir_l);
        let (mut follower, mut f) = world.boot(&cf, &dir_f);
        let (mut joiner, mut s) = world.boot(&cs, &dir_s);
        assert_same("follower boot", 0, &f, &l);

        let kinds = script(&mut rng);
        let join_at = 2 + rng.below(kinds.len() - 4);
        let mut joined = false;
        let mut saw_shed = false;
        for (i, &kind) in kinds.iter().enumerate() {
            let (ups, coalesced, cuts) = scripted(kind, &mut rng, &world, &l);
            let result = live
                .apply_batch(&l, &ups, coalesced, &cuts)
                .expect("live batch");
            assert_eq!(result.cut_replies.len(), cuts.len());
            match (result.snapshot, result.batch) {
                (Some(next), Some(record)) => {
                    assert_eq!(next.epoch, l.epoch + 1, "one epoch per publishing batch");
                    assert_eq!(record.epoch, next.epoch);
                    saw_shed |= record.cuts.iter().any(|c| c.recovery.shed_pairs > 0);
                    l = next;
                    f = follower.apply_replicated(&f, &record).expect("replicated");
                    if joined {
                        s = joiner
                            .apply_replicated(&s, &record)
                            .expect("joiner follows");
                    }
                }
                (None, None) => {
                    // No epoch consumed and nothing to ship: the replicas
                    // stay where they are, and are compared below.
                    assert!(ups.is_empty() && coalesced == 0, "only a batch of no-ops");
                }
                _ => panic!("snapshot and record come together"),
            }
            if i == join_at {
                let shipped = PersistedSnapshot::from_state(&l);
                s = joiner.adopt_state(&s, &shipped).expect("adopt");
                joined = true;
            }
            assert_same("follower", i, &f, &l);
            assert_same("recovered", i, &world.recovered(&dir_l, &dir_r), &l);
            if joined {
                assert_same("late joiner", i, &s, &l);
            }
            assert_eq!(
                std::fs::read(dir_l.join(WAL_FILE)).unwrap(),
                std::fs::read(dir_f.join(WAL_FILE)).unwrap(),
                "follower log differs from the primary's after batch {i} (seed {seed})"
            );
        }
        assert!(saw_shed, "seed {seed}: isolating DC 0 shed nothing");
        // What the joiner adopted, compacted and then appended recovers
        // to the same state as the primary's own directory.
        drop(joiner);
        assert_same(
            "joiner restart",
            kinds.len(),
            &world.recovered(&dir_s, &dir_r),
            &l,
        );
        drop((live, follower));
        for dir in [dir_l, dir_f, dir_s, dir_r] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// `snapshot()` routes every epoch, 0 included, through the scenario
/// engine; the boot snapshot used to come from `nominal_paths`. They are
/// the same map on every region the suite generates.
#[test]
fn engine_view_of_no_cuts_is_the_nominal_paths() {
    for seed in 0..32u64 {
        for n_dcs in [4, 5, 6, 8] {
            let region = region(seed, n_dcs);
            for goals in [DesignGoals::with_cuts(1), DesignGoals::with_cuts(2)] {
                let row = |p: &iris_planner::paths::DcPath| {
                    (
                        (p.a, p.b),
                        (p.nodes.clone(), p.edges.clone(), p.length_km.to_bits()),
                    )
                };
                let nominal: BTreeMap<_, _> =
                    nominal_paths(&region, &goals).iter().map(row).collect();
                let mut viewed = BTreeMap::new();
                ScenarioEngine::new(&region, &goals).for_scenarios(&[Vec::new()], |_, view| {
                    viewed.extend(view.paths().map(row));
                });
                assert_eq!(viewed, nominal, "seed {seed}, {n_dcs} DCs");
            }
        }
    }
}

fn summary(cuts: &[usize]) -> RecoverySummary {
    RecoverySummary {
        cuts: cuts.to_vec(),
        within_tolerance: true,
        fully_recovered: true,
        shed_pairs: 0,
        detection_ms: 10.0,
        replan_ms: 5.0,
        reconfig_ms: 52.0,
        recovery_ms: 67.0,
    }
}

fn update(a: usize, b: usize, circuits: u32) -> AllocEntry {
    AllocEntry { a, b, circuits }
}

fn record(epoch: u64, updates: Vec<AllocEntry>, cuts: Vec<usize>) -> WalBatch {
    WalBatch {
        epoch,
        writes_applied: (updates.len() + usize::from(!cuts.is_empty())) as u64,
        updates,
        cuts: if cuts.is_empty() {
            Vec::new()
        } else {
            vec![CutRecord {
                recovery: summary(&cuts),
                cuts,
            }]
        },
        coalesced: 0,
    }
}

/// Input offered to a follower that must refuse it.
enum Hostile {
    Record(WalBatch),
    Snapshot(PersistedSnapshot),
}
use Hostile::{Record, Snapshot};

/// What a case may use to build its hostile input: the epoch the
/// follower expects next, a duct already cut, the region's duct count,
/// and the primary's current state as it would ship it.
struct Offer {
    next: u64,
    duct: usize,
    n_ducts: usize,
    shipped: PersistedSnapshot,
}

/// Bring a WAL-backed follower two good records (an update, then a cut)
/// behind a live machine, so it has an epoch, a cut set and a log to
/// protect. Offer it each of `cases`: the machine must answer
/// `ReplayFailed` with its controller, cut state and directory exactly
/// as they were, and — when `on_disk` — a restart that finds the same
/// input in its directory must fail the same way instead of publishing
/// it. Then the next good record must still apply.
fn refused(name: &str, cases: impl FnOnce(&Offer) -> Vec<(&'static str, Hostile, bool)>) {
    let world = World::new(7, 4);
    let (dir_f, dir_r) = (
        scratch(&format!("{name}-follower")),
        scratch(&format!("{name}-restart")),
    );
    let (cl, cf) = (world.controller(), world.controller());
    let (region, goals, prov) = (&world.region, &world.goals, &world.prov);
    let mut live = ControlMachine::new(region, goals, prov, &cl, Vec::new(), None, 0);
    let empty = iris_service::wal::DurableState::empty();
    let (mut l, _, _) = recover(region, goals, prov, &cl, &empty).expect("boot");
    let (mut follower, mut f) = world.boot(&cf, &dir_f);

    let duct = l.paths.values().next().unwrap().edges[0];
    let steps: [Scripted; 2] = [
        (BTreeMap::from([((0, 1), 3)]), 0, vec![]),
        (BTreeMap::new(), 0, vec![vec![duct]]),
    ];
    for (ups, coalesced, cuts) in &steps {
        let result = live.apply_batch(&l, ups, *coalesced, cuts).unwrap();
        l = result.snapshot.unwrap();
        let shipped = result.batch.unwrap();
        f = follower.apply_replicated(&f, &shipped).unwrap();
    }
    assert_same("follower", 2, &f, &l);

    let (allocation, paths) = (cf.allocation(), cf.current_paths());
    let log = std::fs::read(dir_f.join(WAL_FILE)).unwrap();
    assert!(!log.is_empty());
    let offer = Offer {
        next: f.epoch + 1,
        duct,
        n_ducts: world.region.map.duct_count(),
        shipped: PersistedSnapshot::from_state(&l),
    };
    for (what, hostile, on_disk) in cases(&offer) {
        let err = match &hostile {
            Record(batch) => follower.apply_replicated(&f, batch),
            Snapshot(snap) => follower.adopt_state(&f, snap),
        }
        .expect_err(what);
        assert_eq!(err.code(), "replay-failed", "{what}: {err}");
        assert_eq!(cf.allocation(), allocation, "{what}: allocation moved");
        assert_eq!(cf.current_paths(), paths, "{what}: cut state moved");
        let log_now = std::fs::read(dir_f.join(WAL_FILE)).unwrap();
        assert_eq!(log_now, log, "{what}: log moved");
        assert!(!dir_f.join(SNAPSHOT_FILE).exists(), "{what}: compacted");

        if on_disk {
            let _ = std::fs::remove_dir_all(&dir_r);
            let (mut wal, _) = Wal::open(&dir_r).unwrap();
            match &hostile {
                Record(batch) => {
                    std::fs::write(dir_r.join(WAL_FILE), &log).unwrap();
                    wal.append(batch).unwrap();
                }
                Snapshot(snap) => wal.compact(snap).unwrap(),
            }
            let (_, durable) = Wal::open(&dir_r).unwrap();
            let err = recover(region, goals, prov, &world.controller(), &durable)
                .expect_err("recovery published hostile input");
            assert_eq!(err.code(), "replay-failed", "{what} on disk: {err}");
        }
    }

    let ups = BTreeMap::from([((1, 3), 4), ((0, 1), 0)]);
    let result = live.apply_batch(&l, &ups, 1, &[]).unwrap();
    l = result.snapshot.unwrap();
    f = follower
        .apply_replicated(&f, &result.batch.unwrap())
        .expect("the next valid record applies");
    assert_same("follower after refusing", 3, &f, &l);
    drop(follower);
    for dir in [dir_f, dir_r] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_record_naming_a_pair_the_region_lacks_is_refused() {
    refused("pairs", |o| {
        let good = update(0, 2, 2);
        vec![
            (
                "pair out of range",
                Record(record(o.next, vec![update(99, 100, 3)], vec![])),
                true,
            ),
            (
                "pair not ascending",
                Record(record(o.next, vec![good, update(2, 1, 3)], vec![])),
                true,
            ),
            (
                "pair endpoints equal",
                Record(record(o.next, vec![update(1, 1, 3)], vec![])),
                true,
            ),
        ]
    });
}

/// The cut is checked before the updates beside it are applied, so a
/// follower's controller can never run ahead of what it published.
#[test]
fn a_record_whose_cut_cannot_be_reapplied_lands_none_of_its_updates() {
    refused("ducts", |o| {
        let cuts = vec![o.duct, o.n_ducts];
        vec![(
            "duct out of range",
            Record(record(o.next, vec![update(0, 2, 2)], cuts)),
            true,
        )]
    });
}

#[test]
fn a_record_off_the_epoch_chain_is_refused() {
    refused("epochs", |o| {
        let ups = vec![update(0, 2, 2)];
        vec![
            (
                "epoch gap",
                Record(record(o.next + 1, ups.clone(), vec![])),
                true,
            ),
            // In a log this is a leftover from before a compaction, and
            // recovery skips it; a peer sending it is refused.
            (
                "epoch already applied",
                Record(record(o.next - 1, ups, vec![])),
                false,
            ),
        ]
    });
}

#[test]
fn a_snapshot_that_rewinds_or_names_what_the_region_lacks_is_refused() {
    refused("snapshots", |o| {
        let advanced = || {
            let mut snap = o.shipped.clone();
            snap.epoch = o.next;
            snap
        };
        let (mut far_pair, mut equal_pair, mut far_duct) = (advanced(), advanced(), advanced());
        far_pair.allocation.push(update(99, 100, 3));
        equal_pair.allocation[0] = update(3, 3, 1);
        far_duct.active_cuts.push(o.n_ducts + 5);
        vec![
            // A valid file on disk; only adoption must not go backwards.
            (
                "does not advance the epoch",
                Snapshot(o.shipped.clone()),
                false,
            ),
            ("pair out of range", Snapshot(far_pair), true),
            ("pair endpoints equal", Snapshot(equal_pair), true),
            ("duct out of range", Snapshot(far_duct), true),
        ]
    });
}
