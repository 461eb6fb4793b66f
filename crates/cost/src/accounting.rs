//! Pricing complete network plans (§3.4, §6.1).

use crate::prices::PriceBook;
use iris_planner::residual::HybridAggregation;
use iris_planner::{CentralizedPlan, EpsPlan, IrisPlan, OxcPlan};
use serde::{Deserialize, Serialize};

/// Itemized annual cost of a network design, $/year.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// DCI transceivers.
    pub transceivers: f64,
    /// Electrical switch ports (one per transceiver).
    pub electrical_ports: f64,
    /// Fiber-pair leases (per span).
    pub fiber: f64,
    /// OSS ports.
    pub oss_ports: f64,
    /// OXC/WSS ports (hybrid designs only).
    pub oxc_ports: f64,
    /// In-line amplifiers.
    pub amplifiers: f64,
}

impl CostBreakdown {
    /// Total annual cost.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.transceivers
            + self.electrical_ports
            + self.fiber
            + self.oss_ports
            + self.oxc_ports
            + self.amplifiers
    }

    /// The in-network share: everything except DC-side transceivers and
    /// their switch ports. Used for Fig. 12(a)'s "in-network" series,
    /// which excludes the DC transceivers that are identical across
    /// designs.
    #[must_use]
    pub fn in_network(&self, dc_transceivers: u64, book: &PriceBook) -> f64 {
        let dc_side = dc_transceivers as f64 * (book.transceiver + book.electrical_port);
        (self.total() - dc_side).max(0.0)
    }
}

/// Price an Iris plan.
#[must_use]
pub fn iris_cost(plan: &IrisPlan, book: &PriceBook) -> CostBreakdown {
    CostBreakdown {
        transceivers: plan.dc_transceivers as f64 * book.transceiver,
        electrical_ports: plan.dc_transceivers as f64 * book.electrical_port,
        fiber: plan.total_fiber_pair_spans() as f64 * book.fiber_pair_span,
        oss_ports: plan.oss_ports() as f64 * book.oss_port,
        oxc_ports: 0.0,
        amplifiers: plan.total_amps() as f64 * book.amplifier,
    }
}

/// Price an EPS plan.
#[must_use]
pub fn eps_cost(plan: &EpsPlan, book: &PriceBook) -> CostBreakdown {
    CostBreakdown {
        transceivers: plan.total_transceivers() as f64 * book.transceiver,
        electrical_ports: plan.electrical_ports() as f64 * book.electrical_port,
        fiber: plan.total_fiber_pair_spans() as f64 * book.fiber_pair_span,
        oss_ports: 0.0,
        oxc_ports: 0.0,
        amplifiers: 0.0,
    }
}

/// Annual cost of the centralized hub-and-spoke design: transceivers at
/// both ends of every access fiber with their switch ports, plus the
/// fiber leases.
#[must_use]
pub fn centralized_cost(plan: &CentralizedPlan, book: &PriceBook) -> f64 {
    plan.total_transceivers() as f64 * (book.transceiver + book.electrical_port)
        + plan.total_fiber_pair_spans() as f64 * book.fiber_pair_span
}

/// Price a pure wavelength-switched (OXC) plan (§4.4 / Appendix B).
///
/// Wavelength switching removes Iris's residual fibers but pays for a
/// wavelength-slot port (plus mux/demux stages at a couple of OSS-port
/// equivalents each) per in-network wavelength — the component bill the
/// paper finds "pricier than the n² additional fibers".
#[must_use]
pub fn oxc_cost(plan: &OxcPlan, book: &PriceBook) -> CostBreakdown {
    CostBreakdown {
        transceivers: plan.dc_transceivers as f64 * book.transceiver,
        electrical_ports: plan.dc_transceivers as f64 * book.electrical_port,
        fiber: plan.total_fiber_pair_spans() as f64 * book.fiber_pair_span,
        oss_ports: 0.0,
        oxc_ports: plan.oxc_wavelength_ports as f64 * book.oxc_port
            + plan.mux_stages as f64 * 2.0 * book.oss_port,
        amplifiers: 0.0,
    }
}

/// Price the hybrid design (§4.4 / Appendix B): an Iris plan whose
/// residual fibers are wavelength-aggregated per `agg`, paying WSS/OXC
/// ports at the aggregation huts in exchange for the saved fiber.
#[must_use]
pub fn hybrid_cost(plan: &IrisPlan, agg: &HybridAggregation, book: &PriceBook) -> CostBreakdown {
    let mut cost = iris_cost(plan, book);
    let before: u64 = agg
        .before_pairs_per_edge
        .iter()
        .map(|&x| u64::from(x))
        .sum();
    let after: u64 = agg.after_pairs_per_edge.iter().map(|&x| u64::from(x)).sum();
    let saved_pairs = before.saturating_sub(after);
    cost.fiber -= saved_pairs as f64 * book.fiber_pair_span;
    // Saved fibers also free their OSS terminations (4 ports per pair).
    cost.oss_ports -= (4 * saved_pairs) as f64 * book.oss_port;
    // Each aggregation group needs a WSS stage: 1 common port plus up to 4
    // split ports.
    let groups: u64 = agg.wss_sites.iter().map(|&(_, g)| u64::from(g)).sum();
    cost.oxc_ports += (5 * groups) as f64 * book.oxc_port;
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_fibermap::{FiberMap, Region, SiteKind};
    use iris_geo::Point;
    use iris_planner::residual::hybrid_aggregate;
    use iris_planner::{plan_eps, plan_iris, DesignGoals};

    /// The §3.4 toy region (Fig. 10).
    fn toy_region() -> Region {
        let mut map = FiberMap::new();
        let ha = map.add_site(SiteKind::Hut, Point::new(-10.0, 0.0));
        let hb = map.add_site(SiteKind::Hut, Point::new(10.0, 0.0));
        let d1 = map.add_site(SiteKind::DataCenter, Point::new(-18.0, 6.0));
        let d2 = map.add_site(SiteKind::DataCenter, Point::new(-18.0, -6.0));
        let d3 = map.add_site(SiteKind::DataCenter, Point::new(18.0, 6.0));
        let d4 = map.add_site(SiteKind::DataCenter, Point::new(18.0, -6.0));
        map.add_duct(d1, ha, 12.0);
        map.add_duct(d2, ha, 12.0);
        map.add_duct(d3, hb, 12.0);
        map.add_duct(d4, hb, 12.0);
        map.add_duct(ha, hb, 24.0);
        Region {
            map,
            dcs: vec![d1, d2, d3, d4],
            capacity_fibers: vec![10; 4],
            wavelengths_per_fiber: 40,
            gbps_per_wavelength: 400.0,
        }
    }

    #[test]
    fn toy_example_cost_ratio_matches_section_3_4() {
        // The paper's footnote: with only transceivers and fiber,
        // (1300*4800 + 3600*60) / (1300*1600 + 3600*78) = 2.73. Our
        // shortest-path residual routing yields 76 pairs instead of 78
        // (see DESIGN.md), giving ~2.75; the full model including OSS and
        // electrical ports stays ~2.7x, as the paper reports.
        let r = toy_region();
        let goals = DesignGoals::with_cuts(0);
        let iris = plan_iris(&r, &goals);
        let eps = plan_eps(&r, &goals);
        let book = PriceBook::paper_2020();
        let ratio = eps_cost(&eps, &book).total() / iris_cost(&iris, &book).total();
        assert!(
            (2.4..=3.0).contains(&ratio),
            "EPS/Iris ratio {ratio:.2} outside the paper's ~2.7x"
        );
    }

    #[test]
    fn toy_example_transceiver_and_fiber_terms() {
        let r = toy_region();
        let goals = DesignGoals::with_cuts(0);
        let iris = plan_iris(&r, &goals);
        let eps = plan_eps(&r, &goals);
        let book = PriceBook::paper_2020();
        let ce = eps_cost(&eps, &book);
        let co = iris_cost(&iris, &book);
        assert_eq!(ce.transceivers, 4800.0 * 1300.0);
        assert_eq!(ce.fiber, 60.0 * 3600.0);
        assert_eq!(co.transceivers, 1600.0 * 1300.0);
        assert_eq!(co.fiber, 76.0 * 3600.0);
        // 76 pairs * 4 OSS ports each (no cut-throughs or amps here).
        assert_eq!(co.oss_ports, (76.0 * 4.0) * 150.0);
        assert_eq!(co.amplifiers, 0.0);
    }

    #[test]
    fn in_network_cost_excludes_dc_transceivers() {
        let r = toy_region();
        let goals = DesignGoals::with_cuts(0);
        let iris = plan_iris(&r, &goals);
        let book = PriceBook::paper_2020();
        let c = iris_cost(&iris, &book);
        let in_net = c.in_network(iris.dc_transceivers, &book);
        assert!(in_net < c.total());
        // For Iris the in-network part is fiber + OSS only.
        assert!((in_net - (c.fiber + c.oss_ports)).abs() < 1e-6);
    }

    #[test]
    fn totals_sum_components() {
        let c = CostBreakdown {
            transceivers: 1.0,
            electrical_ports: 2.0,
            fiber: 3.0,
            oss_ports: 4.0,
            oxc_ports: 5.0,
            amplifiers: 6.0,
        };
        assert_eq!(c.total(), 21.0);
    }

    #[test]
    fn hybrid_is_no_more_expensive_than_iris_when_savings_exist() {
        let r = toy_region();
        let goals = DesignGoals::with_cuts(0);
        let iris = plan_iris(&r, &goals);
        let agg = hybrid_aggregate(&r, &goals);
        let book = PriceBook::paper_2020();
        let ci = iris_cost(&iris, &book).total();
        let ch = hybrid_cost(&iris, &agg, &book).total();
        // Hybrid trades fiber for WSS ports; §6.1 finds the two designs
        // nearly identical in cost.
        let rel = (ch - ci).abs() / ci;
        assert!(rel < 0.15, "hybrid deviates {rel:.2} from Iris");
    }

    #[test]
    fn sr_pricing_shrinks_eps_advantage_but_iris_stays_cheaper() {
        // Fig. 12(b): even at SR prices, Iris wins (port counts dominate).
        let r = toy_region();
        let goals = DesignGoals::with_cuts(0);
        let iris = plan_iris(&r, &goals);
        let eps = plan_eps(&r, &goals);
        let full = PriceBook::paper_2020();
        let sr = full.with_sr_transceiver_prices();
        let ratio_full = eps_cost(&eps, &full).total() / iris_cost(&iris, &full).total();
        let ratio_sr = eps_cost(&eps, &sr).total() / iris_cost(&iris, &sr).total();
        assert!(ratio_sr < ratio_full, "SR prices must narrow the gap");
        assert!(ratio_sr > 1.0, "Iris should still win: {ratio_sr:.2}");
    }
}
