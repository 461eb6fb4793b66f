//! End-to-end plan assembly: Iris (all-optical) and EPS (electrical
//! packet-switched) realizations of the same topology & capacity decision.
//!
//! Both designs share Algorithm 1's provisioning; they differ in how the
//! provisioned capacity is realized:
//!
//! * **EPS** (§4.2) terminates every fiber at every switching point in
//!   transceivers plugged into electrical switches — wavelength-granular,
//!   no residual fiber, but a transceiver count proportional to
//!   *in-network* fiber terminations;
//! * **Iris** (§4.3) keeps light paths optical end-to-end: transceivers
//!   exist only at the DCs, huts hold only OSS ports (one per fiber) and
//!   amplifiers, at the price of `n·(n-1)` residual fibers plus whatever
//!   amplifiers and cut-throughs the physical layer requires.

use crate::amplifiers::{place_amplifiers_recorded, AmpPlacement};
use crate::cutthrough::{
    active_switch_points, choose_amp_split, place_cutthroughs_recorded, CutThroughPlan,
};
use crate::engine::{thread_count, FailureSweep};
use crate::goals::DesignGoals;
use crate::paths::DcPath;
use crate::residual::residual_pairs_recorded;
use crate::topology::{nominal_paths, provision, provision_recorded, Provisioning};
use iris_fibermap::{Region, SiteKind};
use iris_optics::{evaluate_path, BudgetViolation, PathElement, SwitchElement};
use serde::{Deserialize, Serialize};

/// A complete Iris (optical fiber-switched) network plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IrisPlan {
    /// Algorithm 1 output.
    pub provisioning: Provisioning,
    /// Amplifier placement (Algorithm 2).
    pub amps: AmpPlacement,
    /// Cut-through links.
    pub cuts: CutThroughPlan,
    /// Base fiber pairs per duct (hose capacity rounded to fibers).
    pub base_fiber_pairs: Vec<u32>,
    /// Residual fiber pairs per duct (§4.3).
    pub residual_fiber_pairs: Vec<u32>,
    /// Wavelengths per fiber.
    pub lambda: u32,
    /// Transceiver count — all at DCs (one per wavelength of DC capacity).
    pub dc_transceivers: u64,
    /// Physical-layer violations of nominal paths after realization
    /// (empty for a feasible plan).
    pub violations: Vec<((usize, usize), BudgetViolation)>,
}

impl IrisPlan {
    /// Total fiber-pair-spans leased: base + residual per duct, plus
    /// cut-through runs (leases are per span, §3.3).
    #[must_use]
    pub fn total_fiber_pair_spans(&self) -> u64 {
        let base: u64 = self.base_fiber_pairs.iter().map(|&f| u64::from(f)).sum();
        let residual: u64 = self
            .residual_fiber_pairs
            .iter()
            .map(|&f| u64::from(f))
            .sum();
        base + residual + self.cuts.total_fiber_pair_spans()
    }

    /// OSS ports: every fiber (2 per pair) terminates on an OSS port at
    /// both ends of its span; cut-through fibers terminate only at their
    /// run endpoints; each amplifier loops through 2 additional ports.
    #[must_use]
    pub fn oss_ports(&self) -> u64 {
        let span_pairs: u64 = self
            .base_fiber_pairs
            .iter()
            .zip(&self.residual_fiber_pairs)
            .map(|(&b, &r)| u64::from(b) + u64::from(r))
            .sum();
        let cut_pairs: u64 = self
            .cuts
            .cuts
            .iter()
            .map(|c| u64::from(c.fiber_pairs))
            .sum();
        let amp_ports: u64 = 2 * self.amps.total_amps();
        4 * span_pairs + 4 * cut_pairs + amp_ports
    }

    /// In-network ports (everything except the DC transceivers): for Iris
    /// this is exactly the OSS port count.
    #[must_use]
    pub fn in_network_ports(&self) -> u64 {
        self.oss_ports()
    }

    /// Total amplifiers.
    #[must_use]
    pub fn total_amps(&self) -> u64 {
        self.amps.total_amps()
    }

    /// Whether the plan meets all constraints (no unresolved paths, no
    /// physical-layer violations, no infeasible pairs).
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.provisioning.infeasible.is_empty()
            && self.cuts.unresolved.is_empty()
            && self.violations.is_empty()
    }
}

/// A complete EPS (electrical packet-switched) network plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpsPlan {
    /// Algorithm 1 output (same inputs as Iris).
    pub provisioning: Provisioning,
    /// Fiber pairs leased per duct.
    pub fiber_pairs: Vec<u32>,
    /// Wavelengths per fiber.
    pub lambda: u32,
    /// Transceivers at DC sites.
    pub transceivers_dc: u64,
    /// Transceivers at huts (in-network).
    pub transceivers_hut: u64,
}

impl EpsPlan {
    /// All transceivers.
    #[must_use]
    pub fn total_transceivers(&self) -> u64 {
        self.transceivers_dc + self.transceivers_hut
    }

    /// Electrical switch ports: one per transceiver.
    #[must_use]
    pub fn electrical_ports(&self) -> u64 {
        self.total_transceivers()
    }

    /// Total fiber pairs leased.
    #[must_use]
    pub fn total_fiber_pair_spans(&self) -> u64 {
        self.fiber_pairs.iter().map(|&f| u64::from(f)).sum()
    }

    /// In-network ports: hut transceivers plus their electrical switch
    /// ports.
    #[must_use]
    pub fn in_network_ports(&self) -> u64 {
        2 * self.transceivers_hut
    }
}

/// Plan an Iris network for `region` under `goals`.
///
/// # Examples
///
/// ```
/// use iris_fibermap::synth::{generate_metro, place_dcs};
/// use iris_fibermap::{MetroParams, PlacementParams};
/// use iris_planner::{plan_iris, DesignGoals};
///
/// let region = place_dcs(
///     generate_metro(&MetroParams::default()),
///     &PlacementParams { n_dcs: 4, ..PlacementParams::default() },
/// );
/// let plan = plan_iris(&region, &DesignGoals::with_cuts(1));
/// assert!(plan.is_feasible());
/// // Transceivers exist only at the DCs: one per wavelength of capacity.
/// let cap: u64 = (0..4).map(|i| region.capacity_wavelengths(i)).sum();
/// assert_eq!(plan.dc_transceivers, cap);
/// ```
#[must_use]
pub fn plan_iris(region: &Region, goals: &DesignGoals) -> IrisPlan {
    let telemetry = iris_telemetry::global();
    let wall = iris_telemetry::Span::enter_ms(telemetry.histogram("iris_planner_plan_wall_ms"));
    telemetry.counter("iris_planner_plans_total").inc();
    // One failure sweep, replayed by all four stages: Algorithm 1 in the
    // recording's parallel chunks, then the three passes in order. The
    // cut-through pass judges paths under the final amplifier placement,
    // so it must run after the amplifier pass has seen every scenario.
    let sweep = FailureSweep::record(region, goals, thread_count());
    let provisioning = provision_recorded(region, &sweep);
    let amps = place_amplifiers_recorded(region, &sweep);
    let cuts = place_cutthroughs_recorded(region, goals, &amps, &sweep);
    let residual_fiber_pairs = residual_pairs_recorded(region, &sweep);
    drop(sweep);
    let lambda = region.wavelengths_per_fiber;
    let base_fiber_pairs = provisioning.edge_fiber_pairs(lambda);
    let dc_transceivers = (0..region.dcs.len())
        .map(|i| region.capacity_wavelengths(i))
        .sum();

    let mut plan = IrisPlan {
        provisioning,
        amps,
        cuts,
        base_fiber_pairs,
        residual_fiber_pairs,
        lambda,
        dc_transceivers,
        violations: Vec::new(),
    };
    plan.violations = validate_iris(region, goals, &plan);
    wall.finish();
    plan
}

/// Plan an EPS network for `region` under `goals`.
#[must_use]
pub fn plan_eps(region: &Region, goals: &DesignGoals) -> EpsPlan {
    EpsPlan::from_provisioning(region, provision(region, goals))
}

impl EpsPlan {
    /// Realize Algorithm 1's output electrically: the same provisioning
    /// an Iris plan of the same region and goals carries.
    #[must_use]
    pub fn from_provisioning(region: &Region, provisioning: Provisioning) -> Self {
        let lambda = region.wavelengths_per_fiber;
        let fiber_pairs = provisioning.edge_fiber_pairs(lambda);

        // Each fiber pair terminates λ transceivers at each of its two ends
        // (§3.4: T_E = 2 · F_E · λ); classify the ends by site kind.
        let g = region.map.graph();
        let mut transceivers_dc = 0u64;
        let mut transceivers_hut = 0u64;
        for (e, &pairs) in fiber_pairs.iter().enumerate() {
            if pairs == 0 {
                continue;
            }
            let edge = g.edge(e);
            for endpoint in [edge.u, edge.v] {
                let t = u64::from(pairs) * u64::from(lambda);
                match region.map.site(endpoint).kind {
                    SiteKind::DataCenter => transceivers_dc += t,
                    SiteKind::Hut => transceivers_hut += t,
                }
            }
        }

        Self {
            provisioning,
            fiber_pairs,
            lambda,
            transceivers_dc,
            transceivers_hut,
        }
    }
}

/// Build the physical-layer element sequence of one realized light path.
/// It depends on the plan's amplifiers and cut-throughs alone; `_goals`
/// is not read and stays for the public signature.
#[must_use]
pub fn realize_path(
    region: &Region,
    _goals: &DesignGoals,
    path: &DcPath,
    amps: &AmpPlacement,
    cuts: &CutThroughPlan,
) -> Vec<PathElement> {
    let amp_at = choose_amp_split(region, path, amps);
    let active: std::collections::HashSet<usize> = active_switch_points(path, amp_at, &cuts.cuts)
        .into_iter()
        .collect();
    let g = region.map.graph();

    let mut elements = vec![PathElement::default_amp()]; // send booster
    let mut pending_fiber = 0.0f64;
    for (i, &e) in path.edges.iter().enumerate() {
        pending_fiber += g.edge(e).length_km;
        let node_index = i + 1; // node after this edge
        let is_last = node_index == path.nodes.len() - 1;
        let switches_here = !is_last && active.contains(&node_index);
        let amp_here = amp_at == Some(node_index);
        if switches_here || amp_here || is_last {
            if pending_fiber > 0.0 {
                elements.push(PathElement::fiber_km(pending_fiber));
                pending_fiber = 0.0;
            }
            if switches_here {
                elements.push(PathElement::Switch(SwitchElement::Oss));
            }
            if amp_here {
                elements.push(PathElement::default_amp());
            }
        }
    }
    elements.push(PathElement::default_amp()); // receive pre-amp
    elements
}

/// Validate every nominal DC-DC path of an Iris plan against the optical
/// budget (TC1/TC2/TC4 and OC1). Returns the violations found.
#[must_use]
pub fn validate_iris(
    region: &Region,
    goals: &DesignGoals,
    plan: &IrisPlan,
) -> Vec<((usize, usize), BudgetViolation)> {
    let mut violations = Vec::new();
    for path in nominal_paths(region, goals) {
        let elements = realize_path(region, goals, &path, &plan.amps, &plan.cuts);
        if let Err(v) = evaluate_path(&elements) {
            violations.push(((path.a, path.b), v));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_fibermap::{synth, FiberMap, MetroParams, PlacementParams};
    use iris_geo::Point;

    fn synth_region(n_dcs: usize, seed: u64) -> Region {
        synth::place_dcs(
            synth::generate_metro(&MetroParams {
                seed,
                ..MetroParams::default()
            }),
            &PlacementParams {
                seed: seed.wrapping_add(100),
                n_dcs,
                ..PlacementParams::default()
            },
        )
    }

    #[test]
    fn iris_plan_is_feasible_on_synthetic_region() {
        let r = synth_region(6, 3);
        let plan = plan_iris(&r, &DesignGoals::with_cuts(0));
        assert!(
            plan.violations.is_empty(),
            "violations: {:?}",
            plan.violations
        );
        assert!(plan.cuts.unresolved.is_empty());
    }

    #[test]
    fn iris_plan_feasible_under_failures() {
        let r = synth_region(5, 11);
        let plan = plan_iris(&r, &DesignGoals::with_cuts(1));
        assert!(
            plan.provisioning.infeasible.is_empty(),
            "{:?}",
            plan.provisioning.infeasible
        );
        assert!(plan.violations.is_empty(), "{:?}", plan.violations);
        assert!(plan.is_feasible());
    }

    #[test]
    fn eps_needs_no_residual_and_many_transceivers() {
        let r = synth_region(6, 3);
        let goals = DesignGoals::with_cuts(0);
        let iris = plan_iris(&r, &goals);
        let eps = plan_eps(&r, &goals);
        // Iris's transceivers live only at DCs and equal total DC capacity.
        let total_cap: u64 = (0..r.dcs.len()).map(|i| r.capacity_wavelengths(i)).sum();
        assert_eq!(iris.dc_transceivers, total_cap);
        // EPS terminates in-network fibers too, so it needs strictly more.
        assert!(
            eps.total_transceivers() > iris.dc_transceivers,
            "EPS {} <= Iris {}",
            eps.total_transceivers(),
            iris.dc_transceivers
        );
        assert!(eps.transceivers_hut > 0);
    }

    #[test]
    fn iris_uses_more_fiber_than_eps() {
        // The §4.3 trade: extra fiber in exchange for fewer transceivers.
        let r = synth_region(6, 3);
        let goals = DesignGoals::with_cuts(0);
        let iris = plan_iris(&r, &goals);
        let eps = plan_eps(&r, &goals);
        assert!(iris.total_fiber_pair_spans() >= eps.total_fiber_pair_spans());
    }

    #[test]
    fn realized_paths_have_two_terminal_amps() {
        let r = synth_region(5, 7);
        let goals = DesignGoals::with_cuts(0);
        let plan = plan_iris(&r, &goals);
        for path in nominal_paths(&r, &goals) {
            let els = realize_path(&r, &goals, &path, &plan.amps, &plan.cuts);
            let amps = els
                .iter()
                .filter(|e| matches!(e, PathElement::Amp(_)))
                .count();
            assert!(
                (2..=3).contains(&amps),
                "path {:?} has {amps} amps",
                (path.a, path.b)
            );
            assert!(matches!(els.first(), Some(PathElement::Amp(_))));
            assert!(matches!(els.last(), Some(PathElement::Amp(_))));
        }
    }

    #[test]
    fn toy_example_of_section_3_4() {
        // Fig. 10: DC1,DC2 -- hub A; DC3,DC4 -- hub B; A -- B. Each DC has
        // 160 Tbps = 10 fibers of 40x400G wavelengths.
        let mut map = FiberMap::new();
        let ha = map.add_site(SiteKind::Hut, Point::new(-10.0, 0.0));
        let hb = map.add_site(SiteKind::Hut, Point::new(10.0, 0.0));
        let d1 = map.add_site(SiteKind::DataCenter, Point::new(-18.0, 6.0));
        let d2 = map.add_site(SiteKind::DataCenter, Point::new(-18.0, -6.0));
        let d3 = map.add_site(SiteKind::DataCenter, Point::new(18.0, 6.0));
        let d4 = map.add_site(SiteKind::DataCenter, Point::new(18.0, -6.0));
        map.add_duct(d1, ha, 12.0); // L1
        map.add_duct(d2, ha, 12.0); // L2
        map.add_duct(d3, hb, 12.0); // L3
        map.add_duct(d4, hb, 12.0); // L4
        map.add_duct(ha, hb, 24.0); // L5
        let r = Region {
            map,
            dcs: vec![d1, d2, d3, d4],
            capacity_fibers: vec![10; 4],
            wavelengths_per_fiber: 40,
            gbps_per_wavelength: 400.0,
        };
        let goals = DesignGoals::with_cuts(0);
        let eps = plan_eps(&r, &goals);
        let iris = plan_iris(&r, &goals);

        // EPS: L1-L4 carry 10 pairs, L5 carries 20 -> 60 pairs, 4800 tx.
        assert_eq!(eps.fiber_pairs, vec![10, 10, 10, 10, 20]);
        assert_eq!(eps.total_fiber_pair_spans(), 60);
        assert_eq!(eps.total_transceivers(), 4800);

        // Iris: 1600 transceivers (4 DCs x 10 fibers x 40 lambda).
        assert_eq!(iris.dc_transceivers, 1600);
        // Residual: +3 pairs on each access duct (3 other DCs each).
        assert_eq!(iris.residual_fiber_pairs[0..4], [3, 3, 3, 3]);
        // L5 carries the 4 cross-hub pairs' residuals. (The paper quotes
        // 6; shortest-path residual routing yields 4 — see DESIGN.md.)
        assert_eq!(iris.residual_fiber_pairs[4], 4);
        let total = iris.total_fiber_pair_spans();
        assert_eq!(total, 60 + 12 + 4); // 76 pairs vs the paper's 78
        assert!(iris.violations.is_empty());
    }

    #[test]
    fn no_resilience_goals_mean_no_infeasibility_reports_on_star() {
        let mut map = FiberMap::new();
        let hub = map.add_site(SiteKind::Hut, Point::new(0.0, 0.0));
        let mut dcs = Vec::new();
        for (x, y) in [(10.0, 0.0), (-10.0, 0.0), (0.0, 10.0)] {
            let d = map.add_site(SiteKind::DataCenter, Point::new(x, y));
            map.add_duct(d, hub, 12.0);
            dcs.push(d);
        }
        let r = Region {
            map,
            dcs,
            capacity_fibers: vec![8; 3],
            wavelengths_per_fiber: 40,
            gbps_per_wavelength: 400.0,
        };
        let plan = plan_iris(&r, &DesignGoals::no_resilience());
        assert!(plan.is_feasible());
        let plan2 = plan_iris(&r, &DesignGoals::with_cuts(2));
        assert!(!plan2.is_feasible(), "star cannot survive cuts");
    }

    #[test]
    fn oss_ports_count_structure() {
        let r = synth_region(5, 7);
        let goals = DesignGoals::with_cuts(0);
        let plan = plan_iris(&r, &goals);
        let span_pairs: u64 = plan
            .base_fiber_pairs
            .iter()
            .zip(&plan.residual_fiber_pairs)
            .map(|(&b, &r)| u64::from(b) + u64::from(r))
            .sum();
        assert!(plan.oss_ports() >= 4 * span_pairs);
        assert_eq!(plan.in_network_ports(), plan.oss_ports());
    }

    #[test]
    fn iris_in_network_ports_far_below_eps() {
        // Fig. 12(c)'s qualitative claim.
        let r = synth_region(8, 21);
        let goals = DesignGoals::with_cuts(0);
        let iris = plan_iris(&r, &goals);
        let eps = plan_eps(&r, &goals);
        assert!(
            iris.in_network_ports() < eps.in_network_ports(),
            "iris {} vs eps {}",
            iris.in_network_ports(),
            eps.in_network_ports()
        );
    }
}
