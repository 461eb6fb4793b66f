//! Fault sweeps: `chaos`, `chaos --crash`, `chaos --federation`. Each
//! is deterministic: same seed, byte-identical output.

use super::write_report;
use crate::args::Options;
use iris_errors::{IrisError, IrisResult};

/// `--out FILE`: write the sweep's report, naming the file on stderr
/// (stdout is the seed-deterministic text CI diffs).
fn write_out(opts: &Options, report: &impl serde::Serialize) -> IrisResult<()> {
    if let Some(path) = opts.get("out") {
        write_report(path, report)?;
        eprintln!("report written to {path}");
    }
    Ok(())
}

/// `iris chaos` — seeded fault-schedule sweep through the self-healing
/// control loop.
pub fn chaos(opts: &Options) -> IrisResult<()> {
    use iris_bench::chaos::{run_chaos, ChaosConfig};
    let cfg = ChaosConfig {
        seed: opts.num("seed")?,
        scenarios: opts.num("scenarios")?,
        n_dcs: opts.num("dcs")?,
        cuts: opts.num("cuts")?,
    };
    let report = run_chaos(&cfg)?;
    print!("{report}");
    write_out(opts, &report)
}

/// `iris chaos --crash` — kill the mutator at a seeded point, recover
/// from the WAL, diff against an uninterrupted same-seed run.
pub fn crash(opts: &Options) -> IrisResult<()> {
    use iris_bench::crash::{run_crash, CrashConfig, CrashMode};
    let cfg = CrashConfig {
        seed: opts.num("seed")?,
        scenarios: opts.num("scenarios")?,
        n_dcs: opts.num("dcs")?,
        cuts: opts.num("cuts")?,
        batches: opts.num("batches")?,
    };
    let report = run_crash(&cfg)?;

    println!(
        "crash-recovery sweep: seed {}, {} scenarios x {} batches, {} DCs, k={} ({} ducts)",
        cfg.seed, cfg.scenarios, cfg.batches, cfg.n_dcs, cfg.cuts, report.ducts
    );
    println!("\nscenario  mode        crash@  lost  salvaged  torn-bytes  epoch  recovered  final");
    for o in &report.outcomes {
        let mode = match o.mode {
            CrashMode::CleanKill => "clean-kill",
            CrashMode::TornTail => "torn-tail",
            CrashMode::BadCrcTail => "bad-crc",
        };
        println!(
            "{:>8}  {:<10}  {:>6}  {:>4}  {:>8}  {:>10}  {:>5}  {:>9}  {:>5}",
            o.scenario,
            mode,
            o.crash_after,
            o.batches_lost,
            o.salvaged_records,
            o.truncated_bytes,
            o.recovered_epoch,
            o.recovered_identical,
            o.final_identical
        );
    }
    let d = &report.replay_reconfig_ms;
    println!(
        "\nmodeled replay cost (ms):  p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}",
        d.p50, d.p90, d.p99, d.max
    );
    println!(
        "all recovered byte-identical: {}   all finals byte-identical: {}",
        report.all_recovered_identical, report.all_final_identical
    );
    if !(report.all_recovered_identical && report.all_final_identical) {
        return Err(IrisError::ReplayFailed {
            detail: "a crash scenario diverged from its uninterrupted reference run".to_owned(),
        });
    }
    write_out(opts, &report)
}

/// `iris chaos --federation` — region-level faults against a real
/// 3-region federation; everything serialized is seed-deterministic.
pub fn federation(opts: &Options) -> IrisResult<()> {
    use iris_bench::federation::{run_federation, FederationConfig};
    let cfg = FederationConfig {
        seed: opts.num("seed")?,
        n_dcs: opts.num("dcs")?,
        cuts: opts.num("cuts")?,
        users: opts.num("users")?,
        writes_per_phase: opts.num("writes")?,
    };
    let (report, measured) = run_federation(&cfg)?;

    println!(
        "federation chaos: seed {}, 3 regions, {} users, {} writes/phase, {} DCs, k={} ({} ducts)",
        cfg.seed, cfg.users, cfg.writes_per_phase, cfg.n_dcs, cfg.cuts, report.ducts
    );
    print!("population:");
    for r in &report.population {
        print!("  region {}: {} users", r.region, r.home_users);
    }
    println!();
    println!(
        "\nphase          writes  epoch   lag    lag-ms  stale  fail    fail-ms converged  state-crc"
    );
    for p in &report.phases {
        println!(
            "{:<14} {:>6} {:>6} {:>5} {:>9.1} {:>6} {:>5} {:>10} {:>9} {:>10}",
            p.phase,
            p.writes_acked,
            p.acked_epoch,
            p.lag_epochs,
            p.modeled_lag_ms,
            p.stale_redirects,
            p.failovers,
            p.modeled_failover_ms,
            p.converged,
            p.state_crc
        );
    }
    println!(
        "\ntotals: {} failovers, {} stale-read redirects, {} lost acked writes; all converged: {}",
        report.total_failovers,
        report.total_stale_redirects,
        report.lost_acked_writes,
        report.all_converged
    );
    print!("wall clock (not serialized):");
    for (phase, ms) in &measured.phase_ms {
        print!("  {phase} {ms:.0} ms");
    }
    println!();
    if report.lost_acked_writes > 0 || !report.all_converged {
        return Err(IrisError::ReplayFailed {
            detail: format!(
                "federation diverged: {} lost acked writes, all converged: {}",
                report.lost_acked_writes, report.all_converged
            ),
        });
    }
    write_out(opts, &report)
}
