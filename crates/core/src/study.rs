//! A single-call design study: plan a region all three ways, price the
//! results, and collect the headline comparison numbers of §6.1.

use iris_cost::{eps_cost, hybrid_cost, iris_cost, CostBreakdown, PriceBook};
use iris_fibermap::Region;
use iris_planner::residual::{hybrid_aggregate, HybridAggregation};
use iris_planner::{plan_iris, DesignGoals, EpsPlan, IrisPlan};
use serde::Serialize;

/// Plans and costs for one region under one set of goals.
#[derive(Debug, Clone, Serialize)]
pub struct DesignStudy {
    /// The Iris (fiber-switched) plan.
    pub iris: IrisPlan,
    /// The EPS (electrical) plan.
    pub eps: EpsPlan,
    /// Hybrid residual aggregation on top of the Iris plan.
    pub hybrid: HybridAggregation,
    /// Iris cost breakdown.
    pub iris_cost: CostBreakdown,
    /// EPS cost breakdown.
    pub eps_cost: CostBreakdown,
    /// Hybrid cost breakdown.
    pub hybrid_cost: CostBreakdown,
    /// Prices used.
    pub prices: PriceBook,
}

impl DesignStudy {
    /// Run the full study with the paper's 2020 prices.
    #[must_use]
    pub fn run(region: &Region, goals: &DesignGoals) -> Self {
        Self::run_with_prices(region, goals, PriceBook::paper_2020())
    }

    /// Run the full study with explicit prices.
    #[must_use]
    pub fn run_with_prices(region: &Region, goals: &DesignGoals, prices: PriceBook) -> Self {
        let iris = plan_iris(region, goals);
        // Both designs realize the same Algorithm 1 output.
        let eps = EpsPlan::from_provisioning(region, iris.provisioning.clone());
        let hybrid = hybrid_aggregate(region, goals);
        let iris_cost_bd = iris_cost(&iris, &prices);
        let eps_cost_bd = eps_cost(&eps, &prices);
        let hybrid_cost_bd = hybrid_cost(&iris, &hybrid, &prices);
        Self {
            iris,
            eps,
            hybrid,
            iris_cost: iris_cost_bd,
            eps_cost: eps_cost_bd,
            hybrid_cost: hybrid_cost_bd,
            prices,
        }
    }

    /// Re-cost the already-computed plans under different prices.
    ///
    /// Planning is price-independent, so this produces exactly what
    /// [`DesignStudy::run_with_prices`] would for the same region and
    /// goals — without re-running Algorithm 1's scenario sweep. Fig. 12(b)
    /// uses this to evaluate short-reach transceiver prices for free.
    #[must_use]
    pub fn reprice(&self, prices: PriceBook) -> Self {
        Self {
            iris: self.iris.clone(),
            eps: self.eps.clone(),
            hybrid: self.hybrid.clone(),
            iris_cost: iris_cost(&self.iris, &prices),
            eps_cost: eps_cost(&self.eps, &prices),
            hybrid_cost: hybrid_cost(&self.iris, &self.hybrid, &prices),
            prices,
        }
    }

    /// EPS / Iris total-cost ratio (Fig. 12(a)'s headline metric).
    #[must_use]
    pub fn eps_iris_cost_ratio(&self) -> f64 {
        self.eps_cost.total() / self.iris_cost.total()
    }

    /// EPS / hybrid total-cost ratio.
    #[must_use]
    pub fn eps_hybrid_cost_ratio(&self) -> f64 {
        self.eps_cost.total() / self.hybrid_cost.total()
    }

    /// EPS / Iris ratio on in-network components only (excluding the DC
    /// transceivers common to both designs).
    #[must_use]
    pub fn in_network_cost_ratio(&self) -> f64 {
        let iris_in = self
            .iris_cost
            .in_network(self.iris.dc_transceivers, &self.prices);
        let eps_in = self
            .eps_cost
            .in_network(self.eps.transceivers_dc, &self.prices);
        eps_in / iris_in
    }

    /// Ratio of in-network ports to DC ports for both designs
    /// (Fig. 12(c)): `(eps_ratio, iris_ratio)`.
    #[must_use]
    pub fn in_network_port_ratios(&self) -> (f64, f64) {
        let eps_dc_ports = 2 * self.eps.transceivers_dc; // transceiver + switch port
        let iris_dc_ports = 2 * self.iris.dc_transceivers;
        (
            self.eps.in_network_ports() as f64 / eps_dc_ports.max(1) as f64,
            self.iris.in_network_ports() as f64 / iris_dc_ports.max(1) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_fibermap::synth::{generate_metro, place_dcs};
    use iris_fibermap::{MetroParams, PlacementParams};

    fn region(n_dcs: usize, seed: u64) -> Region {
        place_dcs(
            generate_metro(&MetroParams {
                seed,
                ..MetroParams::default()
            }),
            &PlacementParams {
                seed: seed + 1,
                n_dcs,
                ..PlacementParams::default()
            },
        )
    }

    #[test]
    fn study_reports_iris_cheaper_than_eps() {
        let r = region(8, 5);
        let study = DesignStudy::run(&r, &DesignGoals::with_cuts(0));
        assert!(
            study.eps_iris_cost_ratio() > 2.0,
            "EPS/Iris = {:.2}",
            study.eps_iris_cost_ratio()
        );
        // Hybrid within a whisker of Iris (§6.1).
        let rel = (study.eps_hybrid_cost_ratio() - study.eps_iris_cost_ratio()).abs()
            / study.eps_iris_cost_ratio();
        assert!(rel < 0.2, "hybrid deviates {rel:.2}");
    }

    #[test]
    fn in_network_ratio_exceeds_total_ratio() {
        // Excluding the common DC transceivers sharpens the contrast
        // (Fig. 12(a) "in-network" vs total).
        let r = region(6, 9);
        let study = DesignStudy::run(&r, &DesignGoals::with_cuts(0));
        assert!(study.in_network_cost_ratio() > study.eps_iris_cost_ratio());
    }

    #[test]
    fn eps_port_ratio_dwarfs_iris() {
        let r = region(8, 5);
        let study = DesignStudy::run(&r, &DesignGoals::with_cuts(0));
        let (eps_ratio, iris_ratio) = study.in_network_port_ratios();
        assert!(
            eps_ratio > iris_ratio,
            "EPS {eps_ratio:.2} <= Iris {iris_ratio:.2}"
        );
    }

    #[test]
    fn larger_regions_widen_iris_advantage() {
        // §3.4: "Iris's advantage is greater for larger regions".
        let goals = DesignGoals::with_cuts(0);
        let small = DesignStudy::run(&region(4, 31), &goals);
        let large = DesignStudy::run(&region(12, 31), &goals);
        assert!(
            large.eps_iris_cost_ratio() >= small.eps_iris_cost_ratio() * 0.9,
            "large {:.2} vs small {:.2}",
            large.eps_iris_cost_ratio(),
            small.eps_iris_cost_ratio()
        );
    }
}
