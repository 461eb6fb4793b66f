//! Shared helpers for the Iris figure-regeneration binaries and the
//! `perf` benchmark harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper: it prints the same rows/series the paper reports and writes a
//! JSON record under `results/` for EXPERIMENTS.md. Each binary has one
//! configuration, so a run rewrites its committed artifact byte for byte
//! at any `IRIS_THREADS`; a diff under `results/` is a finding.

pub mod chaos;
pub mod crash;
pub mod federation;

use iris_errors::{IrisError, IrisResult};
use iris_fibermap::synth::{generate_metro, place_dcs};
use iris_fibermap::{MetroParams, PlacementParams, Region};
use std::path::{Path, PathBuf};

/// The evaluation's region-scale knobs (§6.1): 10 fiber maps, DC counts,
/// DC capacities in fibers, wavelengths per fiber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// Which synthetic fiber map (seed).
    pub map_seed: u64,
    /// DCs placed.
    pub n_dcs: usize,
    /// DC capacity, fibers.
    pub f: u32,
    /// Wavelengths per fiber.
    pub lambda: u32,
}

/// All 240 evaluation combinations of §6.1.
#[must_use]
pub fn sweep_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for map_seed in 1..=10 {
        for n_dcs in [5, 10, 15, 20] {
            for f in [8, 16, 32] {
                for lambda in [40, 64] {
                    points.push(SweepPoint {
                        map_seed,
                        n_dcs,
                        f,
                        lambda,
                    });
                }
            }
        }
    }
    points
}

/// Build the region for one sweep point (deterministic).
#[must_use]
pub fn build_region(p: &SweepPoint) -> Region {
    let map = generate_metro(&MetroParams {
        seed: p.map_seed,
        n_huts: 16,
        ..MetroParams::default()
    });
    place_dcs(
        map,
        &PlacementParams {
            seed: p.map_seed.wrapping_mul(7919).wrapping_add(p.n_dcs as u64),
            n_dcs: p.n_dcs,
            capacity_fibers: p.f,
            wavelengths_per_fiber: p.lambda,
            ..PlacementParams::default()
        },
    )
}

/// A simple synthetic region used by several figures that only need
/// topology (no capacity sweep).
#[must_use]
pub fn simple_region(seed: u64, n_dcs: usize) -> Region {
    build_region(&SweepPoint {
        map_seed: seed,
        n_dcs,
        f: 16,
        lambda: 40,
    })
}

/// The `q`-quantile (0-1, nearest-rank) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let idx = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Print a CDF as `value fraction` rows (ascending), decimated to at
/// most `max_rows`.
pub fn print_cdf(label: &str, values: &[f64], max_rows: usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    println!("# CDF: {label} ({} samples)", sorted.len());
    let step = (sorted.len() / max_rows.max(1)).max(1);
    for (i, v) in sorted.iter().enumerate() {
        if i % step == 0 || i == sorted.len() - 1 {
            println!("{v:10.3}  {:6.3}", (i + 1) as f64 / sorted.len() as f64);
        }
    }
}

/// Write an artifact: `report` as pretty JSON plus a newline, creating
/// the directory `path` names if need be — the one writer behind every
/// figure binary's `results/` file and every CLI `--out`.
///
/// # Errors
///
/// [`IrisError::Io`] (exit 3) if the report cannot be serialized or the
/// directory or file cannot be written.
pub fn write_report(path: &str, report: &impl serde::Serialize) -> IrisResult<()> {
    let io = |detail| IrisError::Io { detail };
    let mut json = serde_json::to_string_pretty(report)
        .map_err(|e| io(format!("--out: cannot serialize report: {e}")))?;
    json.push('\n');
    let dir = Path::new(path).parent().unwrap_or(Path::new(""));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, json))
        .map_err(|e| io(format!("--out: cannot write {path}: {e}")))
}

/// Write a JSON value under the workspace's `results/<name>.json`
/// (wherever the binary is run from) through [`write_report`], exiting
/// the process with the error's exit code if it cannot: a figure binary
/// that wrote no artifact has failed. If the process-global telemetry
/// registry recorded anything, a `results/<name>.metrics.json` sidecar
/// captures the snapshot — planner work counters, simulator event
/// counts, control-plane phase latencies — for the run that produced
/// the figure.
pub fn write_results(name: &str, value: &serde_json::Value) {
    let dir = results_dir();
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = write_report(&path.display().to_string(), value) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
    println!("# results written to {}", path.display());

    let snapshot = iris_telemetry::global().snapshot();
    if snapshot.is_empty() {
        return;
    }
    let metrics_path = dir.join(format!("{name}.metrics.json"));
    match snapshot.write_to_file(&metrics_path.display().to_string()) {
        Ok(()) => println!("# metrics sidecar written to {}", metrics_path.display()),
        Err(e) => eprintln!("warning: {e}"),
    }
}

/// The workspace's `results/`, fixed when the crate is compiled, so a
/// figure binary run directly (not through cargo) writes there too.
fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_names_the_workspace_results() {
        let dir = results_dir().canonicalize().expect("results/ exists");
        assert!(dir.ends_with("results"), "{}", dir.display());
        let root = dir.parent().expect("results/ has a parent");
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
        assert!(
            manifest.contains("[workspace]"),
            "{} is no workspace",
            root.display()
        );
        assert!(dir.join("chaos_sweep.json").is_file());
    }

    #[test]
    fn full_sweep_has_240_points() {
        assert_eq!(sweep_points().len(), 240);
    }

    #[test]
    fn percentile_basics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
    }

    #[test]
    fn an_unwritable_out_path_is_one_error_shape() {
        // A path below a regular file: neither the directory nor the
        // file can be created.
        let file = std::env::temp_dir().join(format!("iris-report-{}", std::process::id()));
        std::fs::write(&file, "").expect("tmp file");
        for below in ["x.json", "dir/x.json"] {
            let path = file.join(below).display().to_string();
            let err = write_report(&path, &7).unwrap_err();
            let IrisError::Io { detail } = &err else {
                panic!("expected a typed Io error, got {err:?}");
            };
            assert!(
                detail.starts_with(&format!("--out: cannot write {path}: ")),
                "{detail}"
            );
            assert_eq!(err.exit_code(), 3);
        }
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn build_region_is_deterministic() {
        let p = SweepPoint {
            map_seed: 3,
            n_dcs: 5,
            f: 8,
            lambda: 40,
        };
        let a = build_region(&p);
        let b = build_region(&p);
        assert_eq!(a.dcs, b.dcs);
        assert_eq!(a.map.duct_count(), b.map.duct_count());
    }
}
