//! Pinned plans: FNV-1a digests of everything `DesignStudy::run` decides,
//! on synthetic and hand-built regions at k = 0, 1 and 2.
//!
//! The digests were captured at commit ee7b2f9 (before the planner's
//! stages shared one recorded failure sweep) and must not move: a change
//! to how the planner enumerates, caches or parallelises scenarios is
//! only a refactor if every bit below survives it. The regions include
//! one that places cut-throughs after the no-failure scenario (the
//! ladder) and one with an unsplittable baseline path.

use iris_core::DesignStudy;
use iris_cost::CostBreakdown;
use iris_fibermap::{synth, FiberMap, MetroParams, PlacementParams, Region, SiteKind};
use iris_geo::Point;
use iris_netgraph::NodeId;
use iris_planner::DesignGoals;

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// A length-prefixed list, so adjacent lists cannot run together.
    fn list<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        items.iter().for_each(|t| each(self, t));
    }

    fn cost(&mut self, c: &CostBreakdown) {
        for x in [
            c.transceivers,
            c.electrical_ports,
            c.fiber,
            c.oss_ports,
            c.oxc_ports,
            c.amplifiers,
        ] {
            self.f64(x);
        }
    }
}

fn study_digest(s: &DesignStudy) -> u64 {
    let mut h = Fnv::new();
    let iris = &s.iris;
    h.list(&iris.base_fiber_pairs, |h, &f| h.u64(f.into()));
    h.list(&iris.residual_fiber_pairs, |h, &f| h.u64(f.into()));
    let amps: Vec<(NodeId, u32)> = iris
        .amps
        .amps_per_node
        .iter()
        .map(|(&n, &a)| (n, a))
        .collect();
    h.list(&amps, |h, &(n, a)| {
        h.usize(n);
        h.u64(a.into());
    });
    h.list(&iris.amps.unresolved, |h, u| {
        h.usize(u.pair.0);
        h.usize(u.pair.1);
        h.list(&u.scenario, |h, &e| h.usize(e));
    });
    h.list(&iris.cuts.cuts, |h, c| {
        h.list(&c.nodes, |h, &n| h.usize(n));
        h.list(&c.edges, |h, &e| h.usize(e));
        h.f64(c.length_km);
        h.u64(c.fiber_pairs.into());
    });
    h.list(&iris.cuts.unresolved, |h, (a, b, scenario)| {
        h.usize(*a);
        h.usize(*b);
        h.list(scenario, |h, &e| h.usize(e));
    });
    h.list(&iris.provisioning.edge_capacity_wl, |h, &c| h.f64(c));
    h.list(&iris.provisioning.infeasible, |h, p| {
        h.usize(p.pair.0);
        h.usize(p.pair.1);
        h.list(&p.scenario, |h, &e| h.usize(e));
    });
    h.u64(iris.provisioning.scenarios_examined);
    h.usize(iris.violations.len());
    h.u64(iris.dc_transceivers);
    let eps = &s.eps;
    h.list(&eps.fiber_pairs, |h, &f| h.u64(f.into()));
    h.list(&eps.provisioning.edge_capacity_wl, |h, &c| h.f64(c));
    h.u64(eps.transceivers_dc);
    h.u64(eps.transceivers_hut);
    let hybrid = &s.hybrid;
    h.list(&hybrid.before_pairs_per_edge, |h, &f| h.u64(f.into()));
    h.list(&hybrid.after_pairs_per_edge, |h, &f| h.u64(f.into()));
    h.list(&hybrid.wss_sites, |h, &(n, g)| {
        h.usize(n);
        h.u64(g.into());
    });
    h.cost(&s.iris_cost);
    h.cost(&s.eps_cost);
    h.cost(&s.hybrid_cost);
    h.0
}

fn synthetic(seed: u64, n_dcs: usize, n_huts: usize) -> Region {
    synth::place_dcs(
        synth::generate_metro(&MetroParams {
            seed,
            n_huts,
            ..MetroParams::default()
        }),
        &PlacementParams {
            seed: seed.wrapping_mul(7919).wrapping_add(n_dcs as u64),
            n_dcs,
            ..PlacementParams::default()
        },
    )
}

fn region_of(map: FiberMap, dcs: Vec<NodeId>) -> Region {
    Region {
        capacity_fibers: vec![10; dcs.len()],
        map,
        dcs,
        wavelengths_per_fiber: 40,
        gbps_per_wavelength: 400.0,
    }
}

/// Two DCs joined by two chains of 5 km hut hops (9 and 12 huts), a
/// third DC off the middle of each: every path crosses more than six
/// huts, and a failed chain pushes pairs onto the longer one, so
/// cut-throughs are placed after the no-failure scenario too.
fn ladder_region() -> Region {
    let mut map = FiberMap::new();
    let d0 = map.add_site(SiteKind::DataCenter, Point::new(0.0, 0.0));
    let d1 = map.add_site(SiteKind::DataCenter, Point::new(2.0, 0.0));
    let d2 = map.add_site(SiteKind::DataCenter, Point::new(1.0, 0.5));
    for (hops, y) in [(9, 0.0), (12, 1.0)] {
        let mut prev = d0;
        for i in 0..hops {
            let h = map.add_site(SiteKind::Hut, Point::new(0.1 * (i + 1) as f64, y));
            map.add_duct(prev, h, 5.0);
            if i == hops / 2 {
                map.add_duct(h, d2, 5.0);
            }
            prev = h;
        }
        map.add_duct(prev, d1, 5.0);
    }
    region_of(map, vec![d0, d1, d2])
}

/// DC0 --75-- H --44-- DC1 needs an amplifier but no split at H fits the
/// budget; DC2 --60-- G --55-- DC3 splits at G; 20 km ducts DC0-DC2 and
/// DC1-DC3 give every scenario something to re-route.
fn unsplittable_region() -> Region {
    let mut map = FiberMap::new();
    let d0 = map.add_site(SiteKind::DataCenter, Point::new(0.0, 0.0));
    let h = map.add_site(SiteKind::Hut, Point::new(74.0, 0.0));
    let d1 = map.add_site(SiteKind::DataCenter, Point::new(110.0, 0.0));
    let d2 = map.add_site(SiteKind::DataCenter, Point::new(0.0, 20.0));
    let g = map.add_site(SiteKind::Hut, Point::new(55.0, 20.0));
    let d3 = map.add_site(SiteKind::DataCenter, Point::new(110.0, 20.0));
    map.add_duct(d0, h, 75.0);
    map.add_duct(h, d1, 44.0);
    map.add_duct(d2, g, 60.0);
    map.add_duct(g, d3, 55.0);
    map.add_duct(d0, d2, 20.0);
    map.add_duct(d1, d3, 20.0);
    region_of(map, vec![d0, d1, d2, d3])
}

/// `(region, k, digest)` as captured at ee7b2f9.
const PINNED: [(&str, usize, u64); 15] = [
    ("synthetic 3/6/16", 0, 0xc4d6_035d_84e4_cb69),
    ("synthetic 3/6/16", 1, 0x5dd7_1f28_47f1_b88a),
    ("synthetic 3/6/16", 2, 0xd693_9a7a_2e7b_b01f),
    ("synthetic 11/8/16", 0, 0x5e73_dbc1_3f43_b3d8),
    ("synthetic 11/8/16", 1, 0x252b_11c3_5f6d_2538),
    ("synthetic 11/8/16", 2, 0x636e_c539_f11b_05e2),
    ("synthetic 21/12/24", 0, 0x1724_7ab9_df25_cad2),
    ("synthetic 21/12/24", 1, 0x4ba4_e628_e967_eac1),
    ("synthetic 21/12/24", 2, 0x911e_9ee6_fce8_eaba),
    ("ladder 9/12", 0, 0xddf0_f451_ce18_e774),
    ("ladder 9/12", 1, 0xd789_3b52_475a_8368),
    ("ladder 9/12", 2, 0x796a_9790_64ee_5773),
    ("unsplittable", 0, 0x80ab_55fb_4e05_e6df),
    ("unsplittable", 1, 0xe971_cfb3_3997_5792),
    ("unsplittable", 2, 0x3851_34a2_b72c_d771),
];

fn region(name: &str) -> Region {
    match name {
        "synthetic 3/6/16" => synthetic(3, 6, 16),
        "synthetic 11/8/16" => synthetic(11, 8, 16),
        "synthetic 21/12/24" => synthetic(21, 12, 24),
        "ladder 9/12" => ladder_region(),
        "unsplittable" => unsplittable_region(),
        _ => unreachable!("unknown region {name}"),
    }
}

#[test]
fn design_study_plans_are_pinned() {
    let got: Vec<(&str, usize, u64)> = PINNED
        .iter()
        .map(|&(name, k, _)| {
            let study = DesignStudy::run(&region(name), &DesignGoals::with_cuts(k));
            (name, k, study_digest(&study))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, k, d)| format!("    ({name:?}, {k}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got, PINNED, "digests now:\n{table}");
}

#[test]
fn pinned_regions_exercise_what_they_were_built_for() {
    let goals = DesignGoals::with_cuts(1);
    let ladder = DesignStudy::run(&ladder_region(), &goals);
    assert!(!ladder.iris.cuts.cuts.is_empty(), "the ladder places cuts");
    let baseline = DesignStudy::run(&ladder_region(), &DesignGoals::with_cuts(0));
    assert!(ladder.iris.cuts.cuts.len() > baseline.iris.cuts.cuts.len());
    let unsplittable = DesignStudy::run(&unsplittable_region(), &goals);
    assert!(unsplittable
        .iris
        .amps
        .unresolved
        .iter()
        .any(|u| u.pair == (0, 1)));
}
