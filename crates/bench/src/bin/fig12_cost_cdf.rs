//! Figure 12 — the §6.1 cost evaluation over 240 scenarios (10 fiber
//! maps x n ∈ {5,10,15,20} DCs x f ∈ {8,16,32} fibers x λ ∈ {40,64}).
//!
//! Four panels:
//! (a) CDFs of EPS/Iris, EPS/hybrid and in-network-only cost ratios —
//!     paper: EPS >= 5x Iris in 80% of scenarios, Iris ≈ hybrid, and
//!     >= 10x on in-network components;
//! (b) the same with DCI transceivers priced as short-reach — Iris still
//!     wins;
//! (c) ratio of in-network ports to DC ports — EPS needs many times
//!     more;
//! (d) EPS planned with NO failure tolerance vs Iris at the sweep's
//!     tolerance — Iris still >= 2x cheaper across scenarios.
//!
//! Every point is planned at k = 1 cut; the paper plans at 2. The ratios
//! do depend on k: at k = 2 the median EPS/Iris is 9.59x against 8.08x at
//! k = 1 (ROADMAP `[tolerance]` moves the sweep to k = 2 and records k = 1
//! as a sensitivity row). The sweep takes about 1 s at `IRIS_THREADS=2`
//! and 2 s at 1 on a 2-vCPU machine.

use iris_core::DesignStudy;
use iris_cost::{eps_cost, PriceBook};
use iris_planner::{par_map, plan_eps, thread_count, DesignGoals};

fn main() {
    let points = iris_bench::sweep_points();
    // k = 1, not the paper's 2 cuts (see the module doc).
    let cuts = 1;
    let goals = DesignGoals::with_cuts(cuts);
    let goals_no_resilience = DesignGoals::no_resilience();
    let book = PriceBook::paper_2020();
    let book_sr = book.with_sr_transceiver_prices();

    eprintln!(
        "# sweeping {} scenarios (cut tolerance {cuts}, {} threads)...",
        points.len(),
        thread_count()
    );
    let rows = par_map(thread_count(), &points, |i, p| {
        let region = iris_bench::build_region(p);
        let study = DesignStudy::run(&region, &goals);
        let (pe, pi) = study.in_network_port_ratios();

        // (b) SR transceiver prices: same plans, different price book.
        let study_sr = study.reprice(book_sr);

        // (d) EPS with no failure guarantees vs this Iris (which keeps
        // its `cuts`-failure guarantee).
        let eps0 = plan_eps(&region, &goals_no_resilience);
        let eps0_cost = eps_cost(&eps0, &book).total();

        if (i + 1) % 20 == 0 {
            eprintln!("#   point {}/{} done", i + 1, points.len());
        }
        (
            study.eps_iris_cost_ratio(),
            study.eps_hybrid_cost_ratio(),
            study.in_network_cost_ratio(),
            study_sr.eps_iris_cost_ratio(),
            pe,
            pi,
            eps0_cost / study.iris_cost.total(),
        )
    });
    let ratio_eps_iris: Vec<f64> = rows.iter().map(|r| r.0).collect();
    let ratio_eps_hybrid: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let ratio_in_network: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let ratio_sr: Vec<f64> = rows.iter().map(|r| r.3).collect();
    let ports_eps: Vec<f64> = rows.iter().map(|r| r.4).collect();
    let ports_iris: Vec<f64> = rows.iter().map(|r| r.5).collect();
    let ratio_resilience: Vec<f64> = rows.iter().map(|r| r.6).collect();

    println!("== Fig 12(a): cost ratio CDFs ==");
    iris_bench::print_cdf("EPS / Iris", &ratio_eps_iris, 20);
    iris_bench::print_cdf("EPS / Hybrid", &ratio_eps_hybrid, 20);
    iris_bench::print_cdf("EPS / Iris (in-network only)", &ratio_in_network, 20);

    println!("\n== Fig 12(b): with SR transceiver prices ==");
    iris_bench::print_cdf("EPS / Iris @ SR prices", &ratio_sr, 20);

    println!("\n== Fig 12(c): in-network ports / DC ports ==");
    iris_bench::print_cdf("EPS", &ports_eps, 20);
    iris_bench::print_cdf("Iris", &ports_iris, 20);

    println!("\n== Fig 12(d): EPS (0 failures) / Iris ({cuts} failures) ==");
    iris_bench::print_cdf("EPS-0 / Iris", &ratio_resilience, 20);

    let p20 = iris_bench::percentile(&ratio_eps_iris, 0.2);
    let median = iris_bench::percentile(&ratio_eps_iris, 0.5);
    let frac_ge_5 =
        ratio_eps_iris.iter().filter(|&&r| r >= 5.0).count() as f64 / ratio_eps_iris.len() as f64;
    let in_net_p20 = iris_bench::percentile(&ratio_in_network, 0.2);
    let min_resilience = iris_bench::percentile(&ratio_resilience, 0.0);
    println!("\n== headline numbers ==");
    println!("median EPS/Iris:                      {median:.2}x (paper: ~7x)");
    println!(
        "EPS >= 5x Iris in                     {:.0}% of scenarios (paper: 80%)",
        frac_ge_5 * 100.0
    );
    println!("20th-pct EPS/Iris:                    {p20:.2}x");
    println!("20th-pct in-network ratio:            {in_net_p20:.2}x (paper: >=10x for 80%)");
    println!("min EPS-0-failures / Iris:            {min_resilience:.2}x (paper: >2x everywhere)");

    iris_bench::write_results(
        "fig12_cost_cdf",
        &serde_json::json!({
            "scenarios": points.len(),
            "cut_tolerance": cuts,
            "eps_iris": ratio_eps_iris,
            "eps_hybrid": ratio_eps_hybrid,
            "in_network": ratio_in_network,
            "sr_prices": ratio_sr,
            "ports_eps": ports_eps,
            "ports_iris": ports_iris,
            "resilience_adjusted": ratio_resilience,
            "median_eps_iris": median,
            "fraction_ge_5x": frac_ge_5,
            "paper_claim": "EPS >=5x Iris in 80% of scenarios; >2x even vs EPS without failure guarantees",
        }),
    );
}
