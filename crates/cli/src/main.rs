//! `iris` — command-line front end for the regional DCI planner.
//!
//! ```text
//! iris gen      --seed 7 --dcs 8 --fibers 16 --lambda 40 --out region.json
//! iris plan     --region region.json [--cuts 2] [--robust [--matrices SPEC]]
//! iris compare  --region region.json [--cuts 1]
//! iris siting   --region region.json
//! iris simulate --region region.json [--util 0.4] [--interval 5] [--duration 20]
//! iris simd     [--dcs 8] [--flows 1000000] [--matrices SPEC] [--workers A1,A2]
//!               [--no-cluster] [--out FILE]
//! iris testbed
//! iris chaos    --seed 7 --scenarios 10 [--dcs 6] [--cuts 1] [--out FILE]
//! iris chaos    --crash [--seed 7] [--scenarios 9] [--batches 8] [--out FILE]
//! iris chaos    --federation [--seed 7] [--users 12] [--writes 6] [--out FILE]
//! iris serve    --region region.json [--addr HOST:PORT] [--cuts 1] [--wal-dir DIR]
//! iris wal      inspect --dir DIR
//! iris rpc      --op health [--addr HOST:PORT]
//! iris trace    dump [--addr HOST:PORT] [--max N] [--traces N]
//! iris top      [--addr HOST:PORT] [--watch SECS]
//! iris loadgen  --seed 7 --requests 2000 [--cut DUCT] [--out FILE]
//! ```
//!
//! Failures exit with the stable per-class codes of
//! [`iris_errors::IrisError::exit_code`] (2 = bad input, 5 = corrupt
//! durable state, 6 = replay failed, ...); 1 is reserved for an unknown
//! subcommand.

mod args;
mod commands;

use iris_errors::IrisError;

/// `run` outcomes `main` maps to exit codes.
enum CliError {
    /// Not a subcommand at all: conventional exit 1.
    UnknownCommand(String),
    /// A typed failure: exit with its [`IrisError::exit_code`].
    Typed(IrisError),
}

impl From<IrisError> for CliError {
    fn from(e: IrisError) -> Self {
        CliError::Typed(e)
    }
}

impl From<String> for CliError {
    fn from(detail: String) -> Self {
        CliError::Typed(IrisError::InvalidInput { detail })
    }
}

fn main() {
    // `IRIS_TRACE=0` disables the in-process flight recorder before any
    // subcommand (notably `serve` and `loadgen`) starts recording.
    iris_telemetry::trace::init_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(()) => 0,
        Err(CliError::UnknownCommand(msg)) => {
            eprintln!("error: {msg}");
            1
        }
        Err(CliError::Typed(e)) => {
            eprintln!("error: [{}] {e}", e.code());
            e.exit_code()
        }
    };
    std::process::exit(code);
}

/// Accepted `--options` per subcommand. `--telemetry` works everywhere:
/// after the subcommand finishes, the process-global metric registry is
/// snapshotted to the given path (Prometheus text for `.prom`/`.txt`,
/// JSON otherwise).
fn accepted_options(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "gen" => &[
            "seed",
            "dcs",
            "fibers",
            "lambda",
            "huts",
            "out",
            "telemetry",
        ],
        "plan" => &[
            "region",
            "cuts",
            "threads",
            "robust",
            "matrices",
            "telemetry",
        ],
        "compare" => &["region", "cuts", "threads", "telemetry"],
        "siting" => &["region", "telemetry"],
        "simulate" | "sim" => &[
            "region",
            "util",
            "interval",
            "duration",
            "workload",
            "threads",
            "out",
            "telemetry",
        ],
        "simd" => &[
            "dcs",
            "util",
            "duration",
            "flows",
            "seed",
            "epsilon",
            "workload",
            "matrices",
            "interval",
            "workers",
            "no-cluster",
            "threads",
            "out",
            "telemetry",
        ],
        "testbed" => &["telemetry"],
        // One set per mode (see `run`): an option another mode reads
        // is an unknown option here, not one parsed and ignored.
        "chaos" => &[
            "seed",
            "scenarios",
            "dcs",
            "cuts",
            "threads",
            "out",
            "telemetry",
        ],
        "chaos --crash" => &[
            "crash",
            "seed",
            "scenarios",
            "dcs",
            "cuts",
            "batches",
            "threads",
            "out",
            "telemetry",
        ],
        "chaos --federation" => &[
            "federation",
            "seed",
            "dcs",
            "cuts",
            "users",
            "writes",
            "threads",
            "out",
            "telemetry",
        ],
        // No --telemetry for serve: it never exits on its own; live
        // metrics are served by the MetricsSnapshot request instead.
        "serve" => &[
            "region",
            "cuts",
            "addr",
            "queue",
            "window",
            "threads",
            "shards",
            "wal-dir",
            "snapshot-every",
            "trace",
            "slow-ms",
            "region-id",
            "peers",
            "follower",
        ],
        "rpc" => &[
            "addr",
            "op",
            "a",
            "b",
            "circuits",
            "cuts",
            "max",
            "min-epoch",
            "wait",
            "telemetry",
        ],
        "top" => &["addr", "watch", "telemetry"],
        "regions" => &["addr", "telemetry"],
        "loadgen" => &[
            "addr",
            "seed",
            "requests",
            "connections",
            "cut",
            "codec",
            "pipeline",
            "rate",
            "matrices",
            "out",
            "telemetry",
        ],
        _ => return None,
    })
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        print_usage();
        return Ok(());
    };
    if command == "wal" {
        return run_wal(&argv[1..]);
    }
    if command == "trace" {
        return run_trace(&argv[1..]);
    }
    // `--crash`/`--federation` (chaos), `--follower` (serve),
    // `--no-cluster` (simd) and `--robust` (plan) are boolean switches;
    // everything else is strict `--key value`.
    let flags: &[&str] = match command.as_str() {
        "chaos" => &["crash", "federation"],
        "serve" => &["follower"],
        "simd" => &["no-cluster"],
        "plan" => &["robust"],
        _ => &[],
    };
    let opts = args::Options::parse_with_flags(&argv[1..], flags)?;
    let scope = match command.as_str() {
        "chaos" if opts.flag("crash") => "chaos --crash",
        "chaos" if opts.flag("federation") => "chaos --federation",
        other => other,
    };
    if let Some(allowed) = accepted_options(scope) {
        opts.ensure_known(scope, allowed)?;
    }
    match command.as_str() {
        "gen" => commands::generate(&opts),
        "plan" => commands::plan(&opts),
        "compare" => commands::compare(&opts),
        "siting" => commands::siting(&opts),
        "simulate" | "sim" => commands::simulate(&opts),
        "simd" => commands::simd(&opts),
        "testbed" => commands::testbed(&opts),
        "chaos" => commands::chaos(&opts),
        "serve" => commands::serve(&opts),
        "rpc" => commands::rpc(&opts),
        "top" => commands::top(&opts),
        "regions" => commands::regions(&opts),
        "loadgen" => commands::loadgen(&opts),
        "help" | "--help" | "-h" => {
            print_usage();
            return Ok(());
        }
        other => {
            return Err(CliError::UnknownCommand(format!(
                "unknown command '{other}' (try `iris help`)"
            )))
        }
    }?;
    if let Some(path) = opts.get("telemetry") {
        write_telemetry(path)?;
    }
    Ok(())
}

/// `iris trace <verb>` dispatch (two-token, like `iris wal`).
fn run_trace(rest: &[String]) -> Result<(), CliError> {
    let Some(verb) = rest.first() else {
        return Err(CliError::UnknownCommand(
            "usage: iris trace dump [--addr HOST:PORT] [--max N] [--traces N]".to_owned(),
        ));
    };
    match verb.as_str() {
        "dump" => {
            let opts = args::Options::parse(&rest[1..])?;
            opts.ensure_known("trace dump", &["addr", "max", "traces", "telemetry"])?;
            commands::trace_dump(&opts)?;
            if let Some(path) = opts.get("telemetry") {
                write_telemetry(path)?;
            }
            Ok(())
        }
        other => Err(CliError::UnknownCommand(format!(
            "unknown command 'trace {other}' (try `iris trace dump --addr HOST:PORT`)"
        ))),
    }
}

/// `iris wal <verb>` dispatch (two-token, like `iris trace`).
fn run_wal(rest: &[String]) -> Result<(), CliError> {
    let Some(verb) = rest.first() else {
        return Err(CliError::UnknownCommand(
            "usage: iris wal inspect --dir DIR".to_owned(),
        ));
    };
    match verb.as_str() {
        "inspect" => {
            let opts = args::Options::parse(&rest[1..])?;
            opts.ensure_known("wal inspect", &["dir", "telemetry"])?;
            commands::wal_inspect(&opts)?;
            if let Some(path) = opts.get("telemetry") {
                write_telemetry(path)?;
            }
            Ok(())
        }
        other => Err(CliError::UnknownCommand(format!(
            "unknown command 'wal {other}' (try `iris wal inspect --dir DIR`)"
        ))),
    }
}

/// Snapshot the global metric registry to `path` (format dispatch lives
/// in [`iris_telemetry::Snapshot::write_to_file`], shared with the bench
/// sidecars and the service).
fn write_telemetry(path: &str) -> Result<(), String> {
    iris_telemetry::global()
        .snapshot()
        .write_to_file(path)
        .map_err(|e| format!("--telemetry: {e}"))?;
    println!("telemetry snapshot written to {path}");
    Ok(())
}

fn print_usage() {
    println!(
        "iris — regional DCI planning (SIGCOMM'20 Iris reproduction)

USAGE:
  iris gen      --seed N --dcs N [--fibers F] [--lambda L] [--huts H] --out FILE
                generate a synthetic metro region and write it as JSON
  iris plan     --region FILE [--cuts K] [--threads T]
                [--robust [--matrices SPEC]]
                plan the region as an Iris all-optical network; print the
                bill of materials and any constraint violations.
                --robust provisions for a seeded family of concrete
                traffic matrices instead of the hose envelope and prints
                the hose-vs-robust cost and shed-under-surprise
                comparison; --matrices KIND[:COUNT][@SEED] picks the
                family (diurnal | burst | hotspot, default burst:8@42)
  iris compare  --region FILE [--cuts K] [--threads T]
                plan Iris, EPS and centralized designs; print the cost and
                latency comparison table
  iris siting   --region FILE
                service-area analysis: where can the next DC go?
  iris simulate --region FILE [--util U] [--interval S] [--duration S]
                [--workload W] [--threads T] [--out FILE]
                paired Iris-vs-EPS flow-level simulation (`sim` for short);
                --out writes the result plus its reproducibility manifest
  iris simd     [--dcs N] [--util U] [--duration S] [--flows N] [--seed N]
                [--workload W] [--matrices SPEC] [--interval S]
                [--epsilon E] [--no-cluster]
                [--workers HOST:PORT,..] [--threads T] [--out FILE]
                the simulate experiment at 10^6+ flows via per-link
                decomposition: each occupied duct becomes an independent
                single-link simulation, similar ducts are clustered so
                only one representative per cluster is simulated
                (--no-cluster simulates every duct; --epsilon tunes the
                cluster tolerance), and link jobs run on an in-process
                pool or, with --workers, a fleet of iris-flowsim-worker
                processes (jobs are retried on worker death). Capacities
                are scaled so the run offers --flows flows; a small cell
                is cross-checked against the exact engine and the p50/p99
                agreement printed. --matrices KIND[:COUNT][@SEED] replaces
                the default heavy-tailed traffic matrix with a planner
                workload family's mean rates, so the simulated traffic
                matches what `iris plan --robust` provisioned for. --out
                writes a deterministic artifact that is byte-identical
                across backends, worker counts and IRIS_THREADS
  iris testbed  replay the Fig. 14 physical-layer experiment
  iris chaos    [--seed N] [--scenarios N] [--dcs D] [--cuts K]
                [--threads T] [--out FILE]
                replay seeded fault schedules (fiber cuts, stuck/misrouted
                OSS ports, relock failures, EDFA excursions, lost control
                messages) through the self-healing control loop; print
                recovery-time / dark-time / FCT-impact distributions.
                Deterministic: same seed, byte-identical output
  iris chaos    --crash [--seed N] [--scenarios N] [--dcs D] [--cuts K]
                [--batches B] [--out FILE]
                controller crash-recovery sweep: per scenario, run a
                scripted write workload against a WAL-backed control
                machine, kill it mid-sequence (clean kill / torn WAL tail
                / corrupted tail record), restart, and diff the recovered
                snapshot byte-for-byte against an uninterrupted run.
                Exits 6 (replay-failed) if any scenario diverges
  iris chaos    --federation [--seed N] [--dcs D] [--users U]
                [--writes W] [--out FILE]
                region-level chaos against a real 3-region federation:
                steady replication, a primary->follower partition (lag +
                stale-read redirects), a follower kill-and-restart (torn
                peer stream, full re-sync), and a primary kill-9 with
                promotion and write re-assertion. Exits 6 unless every
                phase converges CRC-identically with zero lost
                acknowledged writes. Deterministic: same seed,
                byte-identical output at any IRIS_THREADS
  iris serve    --region FILE [--addr HOST:PORT] [--cuts K] [--queue N]
                [--window MS] [--threads T] [--shards S] [--wal-dir DIR]
                [--snapshot-every B] [--trace on|off] [--slow-ms MS]
                [--region-id R] [--peers A1,A2] [--follower]
                run the long-lived control-plane server: length-prefixed
                frames over TCP (JSON by default, compact binary after a
                per-connection Hello); snapshot reads, coalesced writes,
                typed Overloaded backpressure. Connections are served by
                S non-blocking event-loop shards (default 0 = derive from
                the thread count). --addr HOST:0 picks a free
                port (printed on the first stdout line). Runs until killed.
                --wal-dir makes accepted writes durable: each coalesced
                batch is appended to DIR/iris.wal (fsync'd) and compacted
                into DIR/snapshot.json every B batches (default 64; 0 =
                never); on restart the server replays WAL-after-snapshot
                and republishes the pre-crash state byte-identically.
                --region-id names this instance's region; --peers lists
                follower addresses it ships acknowledged write batches
                to (resuming from each peer's acked epoch, falling back
                to a full state sync after long partitions); --follower
                starts it read-only, applying replicated batches until
                an `iris rpc --op promote` flips it to primary
  iris wal      inspect --dir DIR
                read-only dump of a WAL directory: snapshot epoch,
                per-record epochs/ops/CRCs, torn-tail diagnosis, and the
                epoch the server would recover to. Never modifies DIR
  iris rpc      --op OP [--addr HOST:PORT] [--a N --b N] [--circuits C]
                [--cuts D1,D2] [--max N]
                [--min-epoch E --wait MS]
                one request against a running server, reply as JSON; OP is
                get_plan | get_plan_at | get_topology | query_path |
                update_demand | report_fiber_cut | health | promote |
                metrics_snapshot | trace_dump. get_plan_at waits up to
                --wait ms for the server to reach epoch --min-epoch (the
                read-your-writes fence), answering a typed Timeout if it
                cannot catch up
  iris trace    dump [--addr HOST:PORT] [--max N] [--traces N]
                fetch the server's flight recorder and render each trace
                as an indented span tree with per-stage latencies
                (queue wait, coalesce, WAL append, fsync, apply, publish;
                modeled reconfiguration phases marked with `~`), plus the
                slow-request log. --traces N keeps only the N newest
                traces (default 10, 0 = all)
  iris top      [--addr HOST:PORT] [--watch SECS]
                one-shot (or repeating, with --watch) health and latency
                view of a running server: uptime, epoch, queue depth,
                WAL totals, group-commit batches and fsyncs saved,
                per-shard request/connection counters, and approximate
                per-op p50/p99 read from the server's live histograms;
                federated servers add per-region rows (role, peer acked
                epochs, lag in epochs and modeled ms, reconnects)
  iris regions  [--addr HOST:PORT[,HOST:PORT...]]
                probe every listed server and print the federation map:
                each region's role and epoch plus its replication ledger
                (peer lag in epochs/ms, reconnect counts)
  iris loadgen  [--addr HOST:PORT] [--seed N] [--requests N]
                [--connections N] [--cut D1,D2] [--codec json|binary]
                [--pipeline W] [--rate RPS] [--matrices SPEC] [--out FILE]
                seeded load against a running server, every connection
                multiplexed on one event loop. Closed loop by default
                (--pipeline keeps W requests in flight per connection);
                --rate RPS switches to an open loop with seeded
                exponential arrivals; --matrices KIND[:COUNT][@SEED]
                draws QueryPath/UpdateDemand pairs proportionally to a
                planner workload family instead of uniformly (this
                changes the artifact). Writes the seed-deterministic
                results (byte-identical across runs, codecs, pipeline
                depths and thread counts) to FILE (default
                results/service_load.json) and prints wall-clock latency
                and throughput
  iris help     this text

--threads T sets the worker count wherever a parallel failure-scenario
sweep runs (plan, compare, simulate, chaos, serve). The IRIS_THREADS
environment variable takes precedence over --threads; planner output is
bit-identical for every thread count.

Every subcommand except serve also accepts --telemetry FILE: after the
command runs, the process-wide metric registry (simulator event counts,
control-plane phase latencies, planner work counters) is snapshotted to
FILE — Prometheus text for .prom/.txt paths, JSON otherwise. A running
server exposes the same registry through the MetricsSnapshot request."
    );
}
