//! End-to-end tests of the `iris` binary: run the real executable the
//! way an operator would.

use std::path::PathBuf;
use std::process::{Command, Output};

fn iris(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_iris"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("iris-cli-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

#[test]
fn help_lists_subcommands() {
    let out = iris(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["gen", "plan", "compare", "siting", "simulate", "testbed"] {
        assert!(text.contains(cmd), "help missing '{cmd}'");
    }
}

#[test]
fn no_arguments_prints_usage_and_succeeds() {
    let out = iris(&[]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = iris(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gen_then_plan_round_trip() {
    let region = tmp("roundtrip.json");
    let out = iris(&[
        "gen",
        "--seed",
        "3",
        "--dcs",
        "5",
        "--out",
        region.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(region.exists());

    let out = iris(&["plan", "--region", region.to_str().unwrap(), "--cuts", "0"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Iris plan"), "{text}");
    assert!(text.contains("FEASIBLE"), "{text}");
}

#[test]
fn plan_without_region_is_a_clean_error() {
    let out = iris(&["plan"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--region"));
}

#[test]
fn plan_with_missing_file_reports_io_error() {
    let out = iris(&["plan", "--region", "/nonexistent/nowhere.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn siting_reports_flexibility_gain() {
    let region = tmp("siting.json");
    iris(&[
        "gen",
        "--seed",
        "5",
        "--dcs",
        "5",
        "--out",
        region.to_str().unwrap(),
    ]);
    let out = iris(&["siting", "--region", region.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("flexibility gain"), "{text}");
}

#[test]
fn simulate_reports_slowdowns() {
    let region = tmp("simulate.json");
    iris(&[
        "gen",
        "--seed",
        "6",
        "--dcs",
        "4",
        "--out",
        region.to_str().unwrap(),
    ]);
    let out = iris(&[
        "simulate",
        "--region",
        region.to_str().unwrap(),
        "--duration",
        "5",
        "--workload",
        "web2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("p99 FCT slowdown"), "{text}");
}

#[test]
fn simulate_rejects_unknown_workload() {
    let region = tmp("badworkload.json");
    iris(&[
        "gen",
        "--seed",
        "6",
        "--dcs",
        "4",
        "--out",
        region.to_str().unwrap(),
    ]);
    let out = iris(&[
        "simulate",
        "--region",
        region.to_str().unwrap(),
        "--workload",
        "nope",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

#[test]
fn testbed_reports_ber_below_threshold() {
    let out = iris(&["testbed"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("max pre-FEC BER"), "{text}");
    assert!(text.contains("100.0%"), "{text}");
}

#[test]
fn unknown_flag_names_flag_and_accepted_options() {
    let out = iris(&["simulate", "--bogus", "1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--bogus"), "{err}");
    assert!(err.contains("simulate"), "{err}");
    assert!(err.contains("--region"), "{err}");
    assert!(err.contains("--util"), "{err}");
}

#[test]
fn chaos_rejects_options_its_mode_ignores_and_repeated_options() {
    // Each of these used to parse cleanly and change nothing.
    for (args, stray, scope) in [
        (
            &["chaos", "--crash", "--users", "5"][..],
            "--users",
            "chaos --crash",
        ),
        (&["chaos", "--batches", "3"], "--batches", "iris chaos'"),
        (
            &["chaos", "--federation", "--scenarios", "3"],
            "--scenarios",
            "chaos --federation",
        ),
        (
            &["chaos", "--crash", "--federation"],
            "--federation",
            "chaos --crash",
        ),
    ] {
        let out = iris(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown option {stray}")), "{err}");
        assert!(err.contains(scope), "{err}");
        assert!(err.contains("accepted: "), "{err}");
        assert!(err.contains("--seed"), "{err}");
    }
    let out = iris(&["chaos", "--seed", "1", "--seed", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--seed given more than once"), "{err}");
}

#[test]
fn malformed_number_names_the_flag() {
    let region = tmp("badnum.json");
    iris(&[
        "gen",
        "--seed",
        "6",
        "--dcs",
        "4",
        "--out",
        region.to_str().unwrap(),
    ]);
    let out = iris(&[
        "simulate",
        "--region",
        region.to_str().unwrap(),
        "--util",
        "lots",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--util"), "{err}");
    assert!(err.contains("'lots'"), "{err}");
}

#[test]
fn sim_is_an_alias_for_simulate() {
    let region = tmp("simalias.json");
    iris(&[
        "gen",
        "--seed",
        "6",
        "--dcs",
        "4",
        "--out",
        region.to_str().unwrap(),
    ]);
    let out = iris(&[
        "sim",
        "--region",
        region.to_str().unwrap(),
        "--duration",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("p99 FCT slowdown"));
}

#[test]
fn telemetry_snapshot_covers_all_three_layers() {
    let region = tmp("telemetry-region.json");
    let snap = tmp("telemetry-snapshot.json");
    iris(&[
        "gen",
        "--seed",
        "6",
        "--dcs",
        "4",
        "--out",
        region.to_str().unwrap(),
    ]);
    let out = iris(&[
        "sim",
        "--region",
        region.to_str().unwrap(),
        "--duration",
        "3",
        "--telemetry",
        snap.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&snap).expect("snapshot written");
    // Simulator events, planner work and controller phase latencies all
    // land in the one process-wide registry.
    assert!(text.contains("iris_simnet_events_total"), "{text}");
    assert!(text.contains("iris_planner_scenarios_total"), "{text}");
    assert!(text.contains("iris_control_phase_ms"), "{text}");
    assert!(text.contains("\"p99\""), "{text}");
    // Event counter must be non-zero: "events_total": 0 would serialize
    // with a zero value right after the name.
    assert!(!text.contains("\"iris_simnet_events_total\": 0"), "{text}");
}

#[test]
fn telemetry_prom_extension_writes_prometheus_text() {
    let region = tmp("telemetry-prom-region.json");
    let snap = tmp("telemetry-snapshot.prom");
    iris(&[
        "gen",
        "--seed",
        "6",
        "--dcs",
        "4",
        "--out",
        region.to_str().unwrap(),
    ]);
    let out = iris(&[
        "sim",
        "--region",
        region.to_str().unwrap(),
        "--duration",
        "3",
        "--telemetry",
        snap.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&snap).expect("snapshot written");
    assert!(
        text.contains("# TYPE iris_simnet_events_total counter"),
        "{text}"
    );
    // Histograms export real cumulative buckets, not quantile gauges.
    assert!(text.contains("histogram"), "{text}");
    assert!(text.contains("_bucket{"), "{text}");
    assert!(text.contains("le=\"+Inf\""), "{text}");
    assert!(!text.contains("quantile=\""), "{text}");
}

#[test]
fn simulate_out_records_manifest_for_reproduction() {
    let region = tmp("manifest-region.json");
    let outfile = tmp("manifest-out.json");
    iris(&[
        "gen",
        "--seed",
        "6",
        "--dcs",
        "4",
        "--out",
        region.to_str().unwrap(),
    ]);
    let out = iris(&[
        "simulate",
        "--region",
        region.to_str().unwrap(),
        "--duration",
        "3",
        "--out",
        outfile.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&outfile).expect("results written");
    for field in [
        "\"manifest\"",
        "\"seed\"",
        "\"utilization\"",
        "\"flow_size_dist\"",
        "\"result\"",
    ] {
        assert!(text.contains(field), "missing {field}: {text}");
    }
}

#[test]
fn wal_inspect_reports_a_healthy_log_and_exits_6_on_an_epoch_gap() {
    use iris_service::{Wal, WalBatch};
    let dir = tmp(&format!("wal-inspect-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut wal, _) = Wal::open(&dir).expect("open");
    let batch = |epoch| WalBatch {
        epoch,
        updates: Vec::new(),
        cuts: Vec::new(),
        writes_applied: 1,
        coalesced: 0,
    };
    wal.append(&batch(1)).expect("append");
    wal.append(&batch(2)).expect("append");
    let out = iris(&["wal", "inspect", "--dir", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("replay would recover to epoch 2"), "{text}");

    // Epoch 3 never made it to the log: recovery would refuse this
    // directory, and inspect says so with the same typed error.
    wal.append(&batch(4)).expect("append");
    let out = iris(&["wal", "inspect", "--dir", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(6), "replay-failed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("epoch 4 does not follow epoch 2"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unwritable_out_exits_3_offline_and_from_loadgen() {
    // A path below a regular file can be neither created nor written.
    let file = tmp(&format!("not-a-dir-{}", std::process::id()));
    std::fs::write(&file, "").expect("tmp file");
    let report = file.join("report.json");
    let report = report.to_str().unwrap();

    let out = iris(&["chaos", "--scenarios", "1", "--dcs", "4", "--out", report]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "chaos: {err}");
    assert!(err.contains("--out: cannot write"), "{err}");

    let region = iris_fibermap::synth::place_dcs(
        iris_fibermap::synth::generate_metro(&iris_fibermap::MetroParams::default()),
        &iris_fibermap::PlacementParams {
            n_dcs: 4,
            ..iris_fibermap::PlacementParams::default()
        },
    );
    let config = iris_service::ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..iris_service::ServiceConfig::default()
    };
    let mut server = iris_service::serve(region, &config).expect("serve");
    let addr = server.local_addr().to_string();
    let out = iris(&[
        "loadgen",
        "--addr",
        &addr,
        "--requests",
        "20",
        "--out",
        report,
    ]);
    server.shutdown();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "loadgen: {err}");
    assert!(err.contains("--out: cannot write"), "{err}");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn an_oversized_matrix_family_exits_2_before_allocating() {
    let region = tmp("family-bound.json");
    let region = region.to_str().unwrap();
    let out = iris(&["gen", "--seed", "3", "--dcs", "4", "--out", region]);
    assert!(out.status.success());
    let huge = "burst:1000000000000@42";
    let bound = format!("outside 1..={}", iris_planner::workload::MAX_FAMILY_COUNT);
    for args in [
        vec!["plan", "--region", region, "--robust", "--matrices", huge],
        vec!["simd", "--matrices", huge],
        // Refused while parsing, before any connection is attempted.
        vec!["loadgen", "--addr", "127.0.0.1:1", "--matrices", huge],
    ] {
        let out = iris(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(&bound), "{args:?}: {err}");
    }
}

/// One `iris help` entry: the words naming the row (`wal inspect`), its
/// mode switch if any, and the option names its synopsis lists.
struct HelpRow {
    words: Vec<String>,
    mode: Option<String>,
    options: Vec<String>,
}

impl HelpRow {
    /// Take `tokens` in as synopsis words — `--mode`, `--name V`,
    /// `[--name]`, `[--name V]` — or leave the row alone and say `false`
    /// if they are something else (prose).
    fn read_synopsis(&mut self, tokens: &[&str]) -> bool {
        let is_option = |t: &str| t.starts_with("--") || t.starts_with("[--");
        let (mut mode, mut options) = (None, Vec::new());
        let mut it = tokens.iter().peekable();
        while let Some(token) = it.next() {
            if let Some(name) = token.strip_prefix("[--") {
                if !name.ends_with(']') && !it.next().is_some_and(|v| v.ends_with(']')) {
                    return false;
                }
                options.push(name.trim_end_matches(']').to_owned());
            } else if let Some(name) = token.strip_prefix("--") {
                if it.next_if(|v| !is_option(v)).is_some() {
                    options.push(name.to_owned());
                } else {
                    mode = Some(name.to_owned());
                }
            } else {
                return false;
            }
        }
        self.mode = self.mode.take().or(mode);
        self.options.extend(options);
        true
    }
}

/// Every entry of `iris help`, parsed back from the text.
fn help_rows() -> Vec<HelpRow> {
    let out = iris(&["help"]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let mut rows = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let Some(entry) = line.strip_prefix("  iris ") else {
            continue;
        };
        let tokens: Vec<&str> = entry.split_whitespace().collect();
        let named = tokens.iter().take_while(|t| !t.contains("--")).count();
        let mut row = HelpRow {
            words: tokens[..named].iter().map(|t| (*t).to_owned()).collect(),
            mode: None,
            options: Vec::new(),
        };
        assert!(row.read_synopsis(&tokens[named..]), "{line}");
        // The synopsis runs on while a line is nothing but options.
        while lines
            .next_if(|more| row.read_synopsis(&more.split_whitespace().collect::<Vec<_>>()))
            .is_some()
        {}
        rows.push(row);
    }
    rows
}

#[test]
fn help_lists_every_option_each_chaos_mode_accepts() {
    let rows = help_rows();
    let chaos = |mode: &str| {
        rows.iter()
            .find(|r| r.words == ["chaos"] && r.mode.as_deref() == Some(mode))
            .unwrap_or_else(|| panic!("help has no 'chaos --{mode}' entry"))
    };
    for option in ["cuts", "threads"] {
        assert!(chaos("federation").options.iter().any(|o| o == option));
    }
    assert!(chaos("crash").options.iter().any(|o| o == "threads"));
}

#[test]
fn every_row_accepts_exactly_the_options_help_lists_for_it() {
    let help = iris(&["help"]);
    let help = String::from_utf8_lossy(&help.stdout).into_owned();
    let without_telemetry = help
        .split_once("Every subcommand except ")
        .and_then(|(_, rest)| rest.split_once(" also accepts --telemetry"))
        .expect("the --telemetry paragraph")
        .0;
    let rows = help_rows();
    assert!(rows.len() > 15, "{} rows parsed", rows.len());
    for row in rows.iter().filter(|r| r.words[0] != "help") {
        let mut args = row.words.clone();
        args.extend(row.mode.iter().map(|m| format!("--{m}")));
        args.extend(["--no-such-option".to_owned(), "1".to_owned()]);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = iris(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains("unknown option --no-such-option"), "{err}");
        let accepted = err
            .split_once("(accepted: ")
            .and_then(|(_, list)| list.trim_end().strip_suffix(')'))
            .unwrap_or_else(|| panic!("no accepted list: {err}"));
        let mut listed: Vec<String> = row.mode.iter().chain(&row.options).cloned().collect();
        if !without_telemetry.split(", ").any(|c| c == row.words[0]) {
            listed.push("telemetry".to_owned());
        }
        let listed: Vec<String> = listed.iter().map(|o| format!("--{o}")).collect();
        assert_eq!(accepted, listed.join(", "), "{args:?}");
    }
}

#[test]
fn a_command_prints_its_own_help_entry_and_succeeds() {
    let by_word = iris(&["help", "plan"]);
    assert!(by_word.status.success());
    let entry = String::from_utf8_lossy(&by_word.stdout).into_owned();
    assert!(entry.starts_with("  iris plan "), "{entry}");
    assert!(entry.contains("--region FILE"), "{entry}");
    assert!(entry.contains("bill of materials"), "{entry}");
    assert!(!entry.contains("iris compare"), "{entry}");
    for args in [
        &["plan", "--help"][..],
        &["plan", "-h"],
        &["plan", "--cuts", "--help"],
    ] {
        let out = iris(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), entry, "{args:?}");
    }
    // A group word names every row below it.
    let chaos = iris(&["chaos", "--help"]);
    let chaos = String::from_utf8_lossy(&chaos.stdout).into_owned();
    assert_eq!(chaos.matches("  iris chaos ").count(), 3, "{chaos}");
    let out = iris(&["help", "frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
}
