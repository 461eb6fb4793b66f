//! Chaos sweep — seeded fault schedules against the self-healing
//! control loop.
//!
//! Replays deterministic fault schedules (fiber cuts, stuck/misrouted
//! OSS ports, transceivers that fail to relock, EDFA power excursions,
//! lost control messages) through the live controller and reports the
//! recovery-time, dark-time, and p99-FCT-impact distributions. Same
//! seed, byte-identical `results/chaos_sweep.json`.

use iris_bench::chaos::{run_chaos, ChaosConfig};

fn main() {
    let cfg = ChaosConfig {
        seed: 7,
        scenarios: 25,
        n_dcs: 6,
        cuts: 1,
    };
    let report = match run_chaos(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: [{}] {e}", e.code());
            std::process::exit(2);
        }
    };
    print!("{report}");
    iris_bench::write_results(
        "chaos_sweep",
        &serde_json::to_value(&report).expect("serializable"),
    );
}
