//! The command table: every `iris` subcommand declared once, as a
//! [`Command`] row of [`TABLE`]. Parsing ([`crate::args::Options`]), the
//! unknown-option error, the synopsis lines of `iris help` and dispatch
//! all read it: a new option is one line in its row, a new subcommand is
//! one row plus its handler.

use crate::args::Options;
use crate::commands::{chaos, observe, plan, serve, sim};
use iris_bench::chaos::ChaosConfig;
use iris_bench::crash::CrashConfig;
use iris_bench::federation::FederationConfig;
use iris_errors::IrisResult;
use iris_fibermap::{MetroParams, PlacementParams};
use iris_service::{LoadgenConfig, ServiceConfig};

/// One row of the table.
#[derive(Debug)]
pub struct Command {
    /// The words after `iris` that name it (`["wal", "inspect"]`).
    pub path: &'static [&'static str],
    /// Other spellings of the first word (`sim` for `simulate`).
    pub aliases: &'static [&'static str],
    /// The switch that selects this row among the rows sharing `path`.
    pub mode: Option<&'static str>,
    /// The options the handler reads, in synopsis order.
    pub opts: &'static [Opt],
    /// Whether `--telemetry FILE` applies.
    pub telemetry: bool,
    /// The help paragraph; `{option}` stands for that option's default.
    pub prose: &'static str,
    pub run: fn(&Options) -> IrisResult<()>,
}

/// One `--name` a row accepts.
#[derive(Debug, Clone, Copy)]
pub struct Opt {
    /// The name, without the dashes.
    pub name: &'static str,
    /// The value's placeholder in the synopsis (empty for a switch).
    pub metavar: &'static str,
    /// What the handler reads when argv leaves the option out.
    pub value: Value,
}

/// How an option gets its value.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// Takes no value: given or not.
    Switch,
    /// Must be given.
    Required,
    /// May be left out; the handler then reads nothing.
    Optional,
    /// Left out, reads as this literal.
    Literal(&'static str),
    /// Left out, reads as a field of a config type's own `Default`.
    Derived(fn() -> String),
}
use Value::{Derived, Literal, Optional, Required, Switch};

const fn opt(name: &'static str, metavar: &'static str, value: Value) -> Opt {
    Opt {
        name,
        metavar,
        value,
    }
}

const fn switch(name: &'static str) -> Opt {
    opt(name, "", Switch)
}

/// `Derived` from one field of `$config::default()`.
macro_rules! from {
    ($config:ty, $($field:tt)+) => {
        Derived(|| <$config>::default().$($field)+.to_string())
    };
}

const REGION: Opt = opt("region", "FILE", Required);
const THREADS: Opt = opt("threads", "T", Literal("0"));
const OUT: Opt = opt("out", "FILE", Optional);
const ADDR: Opt = opt("addr", "HOST:PORT", from!(ServiceConfig, addr));
const WORKLOAD: Opt = opt("workload", "W", Literal("web1"));
const TELEMETRY: Opt = opt("telemetry", "FILE", Optional);

impl Opt {
    /// The value read when argv leaves the option out, if it has one.
    pub fn fallback(&self) -> Option<String> {
        match self.value {
            Literal(literal) => Some(literal.to_owned()),
            Derived(from) => Some(from()),
            Switch | Required | Optional => None,
        }
    }

    /// `--name V`, `[--name V]`, `[--name V=default]` or `[--name]`.
    fn synopsis(&self) -> String {
        let Opt { name, metavar, .. } = self;
        match (self.value, self.fallback()) {
            (Switch, _) => format!("[--{name}]"),
            (Required, _) => format!("--{name} {metavar}"),
            (_, None) => format!("[--{name} {metavar}]"),
            (_, Some(default)) => format!("[--{name} {metavar}={default}]"),
        }
    }
}

/// Column at which synopsis continuation lines and prose start.
const INDENT: usize = 16;
/// Synopsis lines wrap before this column.
const WIDTH: usize = 78;

impl Command {
    /// `plan`, `wal inspect`, `chaos --crash`: the name errors use.
    pub fn name(&self) -> String {
        let mode = self.mode.map_or(String::new(), |m| format!(" --{m}"));
        self.path.join(" ") + &mode
    }

    /// All argv may carry: the mode switch, `opts`, `--telemetry`.
    pub fn options(&self) -> impl Iterator<Item = Opt> + '_ {
        let mode = self.mode.map(switch);
        let telemetry = self.telemetry.then_some(TELEMETRY);
        mode.into_iter()
            .chain(self.opts.iter().copied())
            .chain(telemetry)
    }

    /// Whether `words` and the path agree on their first `n` words (an
    /// alias may stand for the first).
    pub fn agrees(&self, words: &[String], n: usize) -> bool {
        (1..=words.len().min(self.path.len())).contains(&n)
            && (self.path[0] == words[0] || self.aliases.contains(&words[0].as_str()))
            && self.path[1..n]
                .iter()
                .zip(&words[1..n])
                .all(|(p, w)| p == w)
    }

    /// The row's `iris help` entry: the synopsis generated from `opts`
    /// (`--telemetry` is explained once for all rows), then the prose.
    pub fn help(&self) -> String {
        let words: Vec<String> = (self.path[1..].iter().map(|&w| w.to_owned()))
            .chain(self.mode.map(|m| format!("--{m}")))
            .chain(self.opts.iter().map(Opt::synopsis))
            .collect();
        let mut text = format!("  iris {:<8}", self.path[0]);
        let mut column = text.len();
        for word in &words {
            if column + 1 + word.len() > WIDTH {
                text.push('\n');
                text.push_str(&" ".repeat(INDENT - 1));
                column = INDENT - 1;
            }
            text.push(' ');
            text.push_str(word);
            column += 1 + word.len();
        }
        text.truncate(text.trim_end().len());
        let mut prose = self.prose.to_owned();
        for o in self.opts {
            if let Some(default) = o.fallback() {
                prose = prose.replace(&format!("{{{}}}", o.name), &default);
            }
        }
        for line in prose.lines() {
            text.push('\n');
            text.push_str(&" ".repeat(INDENT));
            text.push_str(line);
        }
        text.push('\n');
        text
    }
}

/// The row `argv` names — among rows sharing a path, the one whose mode
/// switch argv carries, else the one without a mode — and the
/// arguments after its path.
pub fn find(argv: &[String]) -> Option<(&'static Command, &[String])> {
    let named = || TABLE.iter().filter(|row| row.agrees(argv, row.path.len()));
    let carries = |mode: &str| argv.iter().any(|a| a.strip_prefix("--") == Some(mode));
    let row = named()
        .find(|row| row.mode.is_some_and(carries))
        .or_else(|| named().find(|row| row.mode.is_none()))?;
    Some((row, &argv[row.path.len()..]))
}

/// `iris help`: a header, every row's entry, the options all rows share.
pub fn usage() -> String {
    let entries: String = TABLE.iter().map(Command::help).collect();
    let no_telemetry: Vec<&str> = (TABLE.iter().filter(|row| !row.telemetry))
        .map(|row| row.path[0])
        .collect();
    format!(
        "iris — regional DCI planning (SIGCOMM'20 Iris reproduction)

USAGE:
{entries}  iris help     [COMMAND]
                this text, or COMMAND's entry alone (`iris COMMAND --help`
                prints the same)

--threads T sets the worker count wherever a parallel failure-scenario
sweep runs (plan, compare, simulate, chaos, serve). The IRIS_THREADS
environment variable takes precedence over --threads; planner output is
bit-identical for every thread count.

Every subcommand except {} also accepts --telemetry FILE: after the
command runs, the process-wide metric registry (simulator event counts,
control-plane phase latencies, planner work counters) is snapshotted to
FILE — Prometheus text for .prom/.txt paths, JSON otherwise. A running
server exposes the same registry through the MetricsSnapshot request.
",
        no_telemetry.join(", ")
    )
}

/// What most rows say: no alias, no mode, `--telemetry` applies.
const ROW: Command = Command {
    path: &[],
    aliases: &[],
    mode: None,
    opts: &[],
    telemetry: true,
    prose: "",
    run: |_| Ok(()),
};

/// Every subcommand, in `iris help` order.
pub static TABLE: &[Command] = &[
    Command {
        path: &["gen"],
        opts: &[
            opt("seed", "N", from!(MetroParams, seed)),
            opt("dcs", "N", from!(PlacementParams, n_dcs)),
            opt("fibers", "F", from!(PlacementParams, capacity_fibers)),
            opt("lambda", "L", from!(PlacementParams, wavelengths_per_fiber)),
            opt("huts", "H", from!(MetroParams, n_huts)),
            opt("out", "FILE", Required),
        ],
        prose: "generate a synthetic metro region and write it as JSON",
        run: plan::generate,
        ..ROW
    },
    Command {
        path: &["plan"],
        opts: &[
            REGION,
            opt("cuts", "K", Literal("2")),
            THREADS,
            switch("robust"),
            opt("matrices", "SPEC", Literal("burst:8@42")),
        ],
        prose: "plan the region as an Iris all-optical network; print the\n\
                bill of materials and any constraint violations.\n\
                --robust provisions for a seeded family of concrete\n\
                traffic matrices instead of the hose envelope and prints\n\
                the hose-vs-robust cost and shed-under-surprise\n\
                comparison; --matrices KIND[:COUNT][@SEED] picks the\n\
                family (diurnal | burst | hotspot, default {matrices})",
        run: plan::plan,
        ..ROW
    },
    Command {
        path: &["compare"],
        opts: &[REGION, opt("cuts", "K", Literal("1")), THREADS],
        prose: "plan Iris, EPS and centralized designs; print the cost and\n\
                latency comparison table",
        run: plan::compare,
        ..ROW
    },
    Command {
        path: &["siting"],
        opts: &[REGION],
        prose: "service-area analysis: where can the next DC go?",
        run: plan::siting,
        ..ROW
    },
    Command {
        path: &["simulate"],
        aliases: &["sim"],
        opts: &[
            REGION,
            opt("util", "U", Literal("0.4")),
            opt("interval", "S", Literal("5")),
            opt("duration", "S", Literal("20")),
            WORKLOAD,
            THREADS,
            OUT,
        ],
        prose: "paired Iris-vs-EPS flow-level simulation (`sim` for short);\n\
                --out writes the result plus its reproducibility manifest",
        run: sim::simulate,
        ..ROW
    },
    Command {
        path: &["simd"],
        opts: &[
            opt("dcs", "N", Literal("8")),
            opt("util", "U", Literal("0.4")),
            opt("duration", "S", Literal("20")),
            opt("flows", "N", Literal("1000000")),
            opt("seed", "N", Literal("42")),
            WORKLOAD,
            opt("matrices", "SPEC", Optional),
            opt("interval", "S", Optional),
            opt("epsilon", "E", Literal("0.02")),
            switch("no-cluster"),
            THREADS,
            OUT,
        ],
        prose: "the simulate experiment at 10^6+ flows via per-link\n\
                decomposition: each occupied duct becomes an independent\n\
                single-link simulation, similar ducts are clustered so\n\
                only one representative per cluster is simulated\n\
                (--no-cluster simulates every duct; --epsilon tunes the\n\
                cluster tolerance), and link jobs run on the in-process\n\
                thread pool. Capacities are scaled so the run offers\n\
                --flows flows; a small cell is cross-checked against the\n\
                exact engine and the p50/p99 agreement printed. --matrices\n\
                KIND[:COUNT][@SEED] replaces the default heavy-tailed\n\
                traffic matrix with a planner workload family's mean\n\
                rates, so the simulated traffic matches what `iris plan\n\
                --robust` provisioned for. --out writes a deterministic\n\
                artifact that is byte-identical across IRIS_THREADS",
        run: sim::simd,
        ..ROW
    },
    Command {
        path: &["testbed"],
        prose: "replay the Fig. 14 physical-layer experiment",
        run: sim::testbed,
        ..ROW
    },
    // One row per chaos mode: an option another mode reads is an
    // unknown option here, not one parsed and ignored.
    Command {
        path: &["chaos"],
        opts: &[
            opt("seed", "N", from!(ChaosConfig, seed)),
            opt("scenarios", "N", from!(ChaosConfig, scenarios)),
            opt("dcs", "D", from!(ChaosConfig, n_dcs)),
            opt("cuts", "K", from!(ChaosConfig, cuts)),
            THREADS,
            OUT,
        ],
        prose: "replay seeded fault schedules (fiber cuts, stuck/misrouted\n\
                OSS ports, relock failures, EDFA excursions, lost control\n\
                messages) through the self-healing control loop; print\n\
                recovery-time / dark-time / FCT-impact distributions.\n\
                Deterministic: same seed, byte-identical output",
        run: chaos::chaos,
        ..ROW
    },
    Command {
        path: &["chaos"],
        mode: Some("crash"),
        opts: &[
            opt("seed", "N", from!(CrashConfig, seed)),
            opt("scenarios", "N", from!(CrashConfig, scenarios)),
            opt("dcs", "D", from!(CrashConfig, n_dcs)),
            opt("cuts", "K", from!(CrashConfig, cuts)),
            opt("batches", "B", from!(CrashConfig, batches)),
            THREADS,
            OUT,
        ],
        prose: "controller crash-recovery sweep: per scenario, run a\n\
                scripted write workload against a WAL-backed control\n\
                machine, kill it mid-sequence (clean kill / torn WAL tail\n\
                / corrupted tail record), restart, and diff the recovered\n\
                snapshot byte-for-byte against an uninterrupted run.\n\
                Exits 6 (replay-failed) if any scenario diverges",
        run: chaos::crash,
        ..ROW
    },
    Command {
        path: &["chaos"],
        mode: Some("federation"),
        opts: &[
            opt("seed", "N", from!(FederationConfig, seed)),
            opt("dcs", "D", from!(FederationConfig, n_dcs)),
            opt("cuts", "K", from!(FederationConfig, cuts)),
            opt("users", "U", from!(FederationConfig, users)),
            opt("writes", "W", from!(FederationConfig, writes_per_phase)),
            THREADS,
            OUT,
        ],
        prose: "region-level chaos against a real 3-region federation:\n\
                steady replication, a primary->follower partition (lag +\n\
                stale-read redirects), a follower kill-and-restart (torn\n\
                peer stream, full re-sync), and a primary kill-9 with\n\
                promotion and write re-assertion. Exits 6 unless every\n\
                phase converges CRC-identically with zero lost\n\
                acknowledged writes. Deterministic: same seed,\n\
                byte-identical output at any IRIS_THREADS",
        run: chaos::federation,
        ..ROW
    },
    Command {
        path: &["serve"],
        opts: &[
            REGION,
            ADDR,
            opt("cuts", "K", from!(ServiceConfig, cuts)),
            opt("queue", "N", from!(ServiceConfig, queue_capacity)),
            opt("window", "MS", from!(ServiceConfig, coalesce_window_ms)),
            THREADS,
            opt("shards", "S", from!(ServiceConfig, shards)),
            opt("wal-dir", "DIR", Optional),
            opt("snapshot-every", "B", from!(ServiceConfig, snapshot_every)),
            opt(
                "trace",
                "on|off",
                Derived(|| {
                    let on = ServiceConfig::default().trace;
                    if on { "on" } else { "off" }.to_owned()
                }),
            ),
            opt("slow-ms", "MS", from!(ServiceConfig, slow_ms)),
            opt("region-id", "R", from!(ServiceConfig, region_id)),
            opt("peers", "A1,A2", Optional),
            switch("follower"),
        ],
        // It never exits on its own; live metrics are served by the
        // MetricsSnapshot request instead.
        telemetry: false,
        prose: "run the long-lived control-plane server: length-prefixed\n\
                frames over TCP (JSON by default, compact binary after a\n\
                per-connection Hello); snapshot reads, coalesced writes,\n\
                typed Overloaded backpressure. Connections are served by\n\
                S non-blocking event-loop shards (default {shards} = derive from\n\
                the thread count). --addr HOST:0 picks a free\n\
                port (printed on the first stdout line). Runs until killed.\n\
                --wal-dir makes accepted writes durable: each coalesced\n\
                batch is appended to DIR/iris.wal (fsync'd) and compacted\n\
                into DIR/snapshot.json every B batches (default {snapshot-every}; 0 =\n\
                never); on restart the server replays WAL-after-snapshot\n\
                and republishes the pre-crash state byte-identically.\n\
                --region-id names this instance's region; --peers lists\n\
                follower addresses it ships acknowledged write batches\n\
                to (resuming from each peer's acked epoch, falling back\n\
                to a full state sync after long partitions); --follower\n\
                starts it read-only, applying replicated batches until\n\
                an `iris rpc --op promote` flips it to primary",
        run: serve::serve,
        ..ROW
    },
    Command {
        path: &["wal", "inspect"],
        opts: &[opt("dir", "DIR", Required)],
        prose: "read-only dump of a WAL directory: snapshot epoch,\n\
                per-record epochs/ops/CRCs, torn-tail diagnosis, and the\n\
                epoch the server would recover to. Never modifies DIR",
        run: serve::wal_inspect,
        ..ROW
    },
    Command {
        path: &["rpc"],
        opts: &[
            opt("op", "OP", Required),
            ADDR,
            opt("a", "N", Optional),
            opt("b", "N", Optional),
            opt("circuits", "C", Literal("1")),
            opt("cuts", "D1,D2", Optional),
            opt("max", "N", Literal("0")),
            opt("min-epoch", "E", Literal("0")),
            opt("wait", "MS", Literal("1000")),
        ],
        prose: "one request against a running server, reply as JSON; OP is\n\
                get_plan | get_plan_at | get_topology | query_path |\n\
                update_demand | report_fiber_cut | health | promote |\n\
                metrics_snapshot | trace_dump. get_plan_at waits up to\n\
                --wait ms for the server to reach epoch --min-epoch (the\n\
                read-your-writes fence), answering a typed Timeout if it\n\
                cannot catch up",
        run: serve::rpc,
        ..ROW
    },
    Command {
        path: &["trace", "dump"],
        opts: &[
            ADDR,
            opt("max", "N", Literal("0")),
            opt("traces", "N", Literal("10")),
        ],
        prose: "fetch the server's flight recorder and render each trace\n\
                as an indented span tree with per-stage latencies\n\
                (queue wait, coalesce, WAL append, fsync, apply, publish;\n\
                modeled reconfiguration phases marked with `~`), plus the\n\
                slow-request log. --traces N keeps only the N newest\n\
                traces (default {traces}, 0 = all)",
        run: observe::trace_dump,
        ..ROW
    },
    Command {
        path: &["top"],
        opts: &[ADDR, opt("watch", "SECS", Literal("0"))],
        prose: "one-shot (or repeating, with --watch) health and latency\n\
                view of a running server: uptime, epoch, queue depth,\n\
                WAL totals, group-commit batches committed,\n\
                per-shard request/connection counters, and approximate\n\
                per-op p50/p99 read from the server's live histograms;\n\
                federated servers add per-region rows (role, peer acked\n\
                epochs, lag in epochs and modeled ms, reconnects)",
        run: observe::top,
        ..ROW
    },
    Command {
        path: &["regions"],
        opts: &[opt("addr", "HOST:PORT,..", from!(ServiceConfig, addr))],
        prose: "probe every listed server and print the federation map:\n\
                each region's role and epoch plus its replication ledger\n\
                (peer lag in epochs/ms, reconnect counts)",
        run: observe::regions,
        ..ROW
    },
    Command {
        path: &["loadgen"],
        opts: &[
            ADDR,
            opt("seed", "N", from!(LoadgenConfig, seed)),
            opt("requests", "N", from!(LoadgenConfig, requests)),
            opt("connections", "N", from!(LoadgenConfig, connections)),
            opt("cut", "D1,D2", Optional),
            opt("codec", "json|binary", from!(LoadgenConfig, codec.name())),
            opt("pipeline", "W", from!(LoadgenConfig, pipeline)),
            opt("rate", "RPS", Optional),
            opt("matrices", "SPEC", Optional),
            opt("out", "FILE", Literal("results/service_load.json")),
        ],
        prose: "seeded load against a running server, every connection\n\
                multiplexed on one event loop. Closed loop by default\n\
                (--pipeline keeps W requests in flight per connection);\n\
                --rate RPS switches to an open loop with seeded\n\
                exponential arrivals; --matrices KIND[:COUNT][@SEED]\n\
                draws QueryPath/UpdateDemand pairs proportionally to a\n\
                planner workload family instead of uniformly (this\n\
                changes the artifact). Writes the seed-deterministic\n\
                results (byte-identical across runs, codecs, pipeline\n\
                depths and thread counts) to FILE (default\n\
                {out}) and prints wall-clock latency\n\
                and throughput",
        run: serve::loadgen,
        ..ROW
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn no_row_declares_an_option_twice_and_switches_have_no_placeholder() {
        for row in TABLE {
            let mut seen = BTreeSet::new();
            for o in row.options() {
                assert!(seen.insert(o.name), "'{}' has two --{}", row.name(), o.name);
                let switch = matches!(o.value, Switch);
                assert_eq!(switch, o.metavar.is_empty(), "{} --{}", row.name(), o.name);
            }
        }
    }

    #[test]
    fn every_invocation_names_at_most_one_row() {
        // A first word (path head or alias) belongs to one path head.
        for (i, a) in TABLE.iter().enumerate() {
            for b in &TABLE[i + 1..] {
                let heads = |r: &Command| -> BTreeSet<&str> {
                    r.aliases.iter().copied().chain([r.path[0]]).collect()
                };
                if a.path[0] != b.path[0] {
                    assert!(
                        heads(a).is_disjoint(&heads(b)),
                        "{} / {}",
                        a.name(),
                        b.name()
                    );
                }
                // No name twice, and no path that is the start of a
                // longer one (`find` would match both).
                assert_ne!(a.name(), b.name());
                let n = a.path.len().min(b.path.len());
                assert!(
                    a.path[..n] != b.path[..n] || a.path == b.path,
                    "{} / {}",
                    a.name(),
                    b.name()
                );
            }
        }
    }

    #[test]
    fn rows_sharing_a_path_are_told_apart_by_mutually_exclusive_switches() {
        for row in TABLE {
            let siblings = || TABLE.iter().filter(|r| r.path == row.path);
            assert_eq!(siblings().filter(|r| r.mode.is_none()).count(), 1);
            for sibling in siblings().filter(|r| r.name() != row.name()) {
                // Another mode's switch is an unknown option here.
                if let Some(other) = sibling.mode {
                    assert!(
                        row.options().all(|o| o.name != other),
                        "'{}' also accepts --{other}",
                        row.name()
                    );
                }
            }
        }
    }

    #[test]
    fn find_follows_aliases_longer_paths_and_mode_switches() {
        let name = |words: &[&str]| find(&argv(words)).map(|(row, _)| row.name());
        assert_eq!(name(&["sim", "--util", "0.5"]).as_deref(), Some("simulate"));
        assert_eq!(name(&["wal", "inspect"]).as_deref(), Some("wal inspect"));
        assert_eq!(name(&["wal"]), None);
        assert_eq!(name(&["chaos", "--seed", "1"]).as_deref(), Some("chaos"));
        let crash = argv(&["chaos", "--seed", "1", "--crash"]);
        let (row, rest) = find(&crash).expect("a chaos row");
        assert_eq!((row.name().as_str(), rest), ("chaos --crash", &crash[1..]));
    }

    #[test]
    fn every_default_the_prose_quotes_is_the_rows_own() {
        for row in TABLE {
            let entry = row.help();
            assert!(!entry.contains(['{', '}']), "{entry}");
            for line in entry.lines() {
                assert!(line.len() <= WIDTH && line == line.trim_end(), "{line:?}");
            }
        }
        let plan = TABLE.iter().find(|r| r.path == ["plan"]).expect("plan");
        assert!(plan.help().contains("default burst:8@42)"));
    }
}
