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
use iris_bench::write_report;
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
