//! `iris` — command-line front end for the regional DCI planner.
//!
//! `iris help` lists the subcommands; it is generated from the one table
//! that declares them, [`spec::TABLE`].
//!
//! Failures exit with the stable per-class codes of
//! [`iris_errors::IrisError::exit_code`] (2 = bad input, 5 = corrupt
//! durable state, 6 = replay failed, ...); 1 is reserved for an unknown
//! subcommand.

mod args;
mod commands;
mod spec;

use iris_errors::IrisResult;

fn main() {
    // `IRIS_TRACE=0` disables the in-process flight recorder before any
    // subcommand (notably `serve` and `loadgen`) starts recording.
    iris_telemetry::trace::init_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&argv).unwrap_or_else(|e| {
        eprintln!("error: [{}] {e}", e.code());
        e.exit_code()
    });
    std::process::exit(code);
}

/// Find the row argv names, parse the rest of argv against it, run its
/// handler; exit 0, or 1 when argv names no row. `--threads` (which
/// `IRIS_THREADS` overrides; the planned output is bit-identical either
/// way) and `--telemetry` mean the same for every row, so they are
/// applied here.
fn run(argv: &[String]) -> IrisResult<i32> {
    let words = argv.iter().take_while(|a| !a.starts_with('-')).count();
    match argv.first().map(String::as_str) {
        None | Some("--help" | "-h") => return Ok(print_help(&[])),
        Some("help") => return Ok(print_help(&argv[1..])),
        Some(_) if argv.iter().any(|a| a == "--help" || a == "-h") => {
            return Ok(print_help(&argv[..words]))
        }
        Some(_) => {}
    }
    let Some((row, rest)) = spec::find(argv) else {
        return Ok(unknown_command(&argv[..words.max(1)]));
    };
    let opts = args::Options::parse(row, rest)?;
    if row.options().any(|o| o.name == "threads") {
        iris_planner::set_default_threads(opts.num("threads")?);
    }
    (row.run)(&opts)?;
    if let Some(path) = row.telemetry.then(|| opts.get("telemetry")).flatten() {
        let snapshot = iris_telemetry::global().snapshot();
        snapshot
            .write_to_file(path)
            .map_err(|e| format!("--telemetry: {e}"))?;
        println!("telemetry snapshot written to {path}");
    }
    Ok(0)
}

/// `iris help [COMMAND]`: the whole usage text, or the entries of the
/// rows `topic` names (`chaos` names three).
fn print_help(topic: &[String]) -> i32 {
    let rows = || spec::TABLE.iter().filter(|r| r.agrees(topic, topic.len()));
    if topic.is_empty() {
        print!("{}", spec::usage());
    } else if rows().next().is_none() {
        return unknown_command(topic);
    }
    rows().for_each(|row| print!("{}", row.help()));
    0
}

/// Exit 1, pointing at the help that lists what `words` could have been.
fn unknown_command(words: &[String]) -> i32 {
    let group = spec::TABLE.iter().find(|row| row.agrees(words, 1));
    let help = group.map_or(String::new(), |row| format!(" {}", row.path[0]));
    eprintln!(
        "error: unknown command '{}' (try `iris help{help}`)",
        words.join(" ")
    );
    1
}
