//! Figure 14 — pre-FEC BER over time while the testbed reconfigures
//! every minute (simulated testbed of §6.2 / Fig. 13).
//!
//! Paper shape: BER always below the 2e-2 SD-FEC threshold while
//! carrying traffic; ~50 ms signal recovery after each reconfiguration.

use iris_control::testbed::{run_testbed, summarize, TestbedConfig};

fn main() {
    let config = TestbedConfig {
        duration_s: 600.0,
        ..TestbedConfig::default()
    };
    let samples = run_testbed(&config);
    let summary = summarize(&samples, config.sample_period_ms);

    // Print one decimated trace per receiver around the first swap.
    println!("# t_ms  receiver  pre-FEC BER ('-' = path dark)");
    for s in samples
        .iter()
        .filter(|s| s.t_ms >= 59_800.0 && s.t_ms <= 60_400.0)
    {
        match s.ber {
            Some(b) => println!("{:8.0}  DC{}  {b:.3e}", s.t_ms, s.receiver + 2),
            None => println!("{:8.0}  DC{}  -", s.t_ms, s.receiver + 2),
        }
    }

    println!("\nduration:                 {:.0} s", config.duration_s);
    println!(
        "reconfig interval:        {:.0} s",
        config.reconfig_interval_s
    );
    println!(
        "max pre-FEC BER:          {:.3e} (SD-FEC threshold 2e-2)",
        summary.max_ber
    );
    println!(
        "samples below threshold:  {:.1}% (paper: all)",
        summary.below_threshold * 100.0
    );
    println!(
        "max recovery gap:         {:.0} ms (paper: ~50 ms)",
        summary.max_gap_ms
    );

    iris_bench::write_results(
        "fig14_ber_reconfig",
        &serde_json::json!({
            "duration_s": config.duration_s,
            "max_preFEC_ber": summary.max_ber,
            "fraction_below_threshold": summary.below_threshold,
            "max_recovery_gap_ms": summary.max_gap_ms,
            "paper_claim": "pre-FEC BER below 2e-2 throughout; 50 ms recovery after reconfiguration",
        }),
    );
}
