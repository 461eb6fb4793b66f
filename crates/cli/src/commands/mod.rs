//! The subcommands' handlers, one file per journey. What each accepts
//! is declared in [`crate::spec::TABLE`]; a handler reads an option with
//! `opts.num("seed")` and the default comes from its row.
//!
//! Every handler returns [`IrisResult`]: `String` errors from option
//! parsing convert into [`IrisError::InvalidInput`] (exit code 2), and
//! typed errors from the crates below keep their own class — `main`
//! exits with [`IrisError::exit_code`], so scripts can tell a corrupt
//! WAL (5) from an unreachable server (8) without parsing stderr.

pub mod chaos;
pub mod observe;
pub mod plan;
pub mod serve;
pub mod sim;

use crate::args::Options;
use iris_errors::{IrisError, IrisResult};
use iris_fibermap::io::load_region;
use iris_fibermap::Region;
use iris_planner::workload::FamilySpec;
use std::path::Path;

fn load(opts: &Options) -> IrisResult<Region> {
    load_region(Path::new(opts.required("region")?)).map_err(IrisError::from)
}

/// `--matrices KIND[:COUNT][@SEED]`, if the row gives it a value.
fn family_spec(opts: &Options) -> IrisResult<Option<FamilySpec>> {
    opts.get("matrices")
        .map(|raw| raw.parse())
        .transpose()
        .map_err(IrisError::from)
}

/// Write an `--out` artifact: `report` as pretty JSON plus a newline,
/// creating the directory `path` names if need be. Failing to is
/// [`IrisError::Io`] (exit 3), whichever subcommand asked.
fn write_report(path: &str, report: &impl serde::Serialize) -> IrisResult<()> {
    let io = |detail| IrisError::Io { detail };
    let mut json = serde_json::to_string_pretty(report)
        .map_err(|e| io(format!("--out: cannot serialize report: {e}")))?;
    json.push('\n');
    let dir = Path::new(path).parent().unwrap_or(Path::new(""));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, json))
        .map_err(|e| io(format!("--out: cannot write {path}: {e}")))
}

/// The non-empty items of a comma-separated list.
fn comma_list(list: &str) -> impl Iterator<Item = &str> {
    list.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// Parse a comma-separated duct-id list (`"4"`, `"4,17"`).
fn parse_cut_list(list: &str) -> Result<Vec<usize>, String> {
    comma_list(list)
        .map(|s| {
            s.parse()
                .map_err(|_| format!("cannot parse duct id '{s}' in cut list"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::write_report;
    use iris_errors::IrisError;

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
}
