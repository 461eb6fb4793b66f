//! `perf` — one seeded harness for the three user journeys.
//!
//! `perf --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! generates every input from the seed, runs the workload in blocks of a
//! fixed operation count, checks the outputs, and prints every metric by
//! name with unit, sample count and spread across blocks. The last line
//! of standard output is the machine-readable result. See `README.md`
//! beside this file for the workloads, the metrics and how layers map to
//! end-to-end figures.

mod plan;
mod report;
mod rng;
mod serve;
mod sim;
mod spans;
mod stats;
mod sysinfo;

use iris_bench::SweepPoint;
use plan::{PlanCtx, PlanSpec};
use report::{Report, END_TO_END, PER_LAYER};
use serve::{ServeCtx, ServeSpec, Traffic, Yields};
use sim::{Engine, SimCtx, SimSpec};
use spans::Tracer;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// What one block measured.
#[derive(Debug, Default, Clone)]
pub struct Block {
    pub attempted: u64,
    pub failed: u64,
    /// Units of throughput completed: plans, requests or flows.
    pub work: f64,
    pub wall_s: f64,
    /// Latency over the block's successful ops: p50, the supported tail
    /// percentile and its label; `None` when no op succeeded. Reduced at
    /// the end of the block so memory does not grow with the block count.
    pub latency: Option<(f64, f64, &'static str)>,
    pub digest: u64,
    pub errors: Vec<String>,
    /// Peak resident set (MB) of each stretch the kernel's watermark was
    /// restarted for: every op on the simulation journey, else the block.
    pub peak_rss_mb: Vec<f64>,
}

impl Block {
    /// Reduce the block's op latencies (sorts them in place). Without
    /// `tail` the tail is the median itself: read latencies' upper
    /// percentiles wander by 0.4 from run to run on the reference box, too
    /// much for any bound, so they are per-layer metrics only.
    pub fn set_latencies(&mut self, lat_ms: &mut [f64], tail: bool) {
        self.latency = (!lat_ms.is_empty()).then(|| match stats::block_latency(lat_ms) {
            (p50, _, _) if !tail => (p50, p50, "p50"),
            supported => supported,
        });
    }
}

enum Journey {
    Plan(PlanSpec),
    Serve(ServeSpec),
    Sim(SimSpec),
}

struct Workload {
    name: &'static str,
    journey: Journey,
}

/// Set-ups per run; `setup_s` is their median. A fixed count, so that
/// every run does the same work before its timed phase.
const SETUPS: usize = 5;
/// Timed blocks per run, whatever `--seconds` says.
const MIN_BLOCKS: usize = 3;

/// The region the serving (10 DCs) and simulation (12 DCs) journeys run
/// on: map 3 of the grid, the one `flowsim_scale` simulates.
fn region(n_dcs: usize) -> SweepPoint {
    SweepPoint {
        map_seed: 3,
        n_dcs,
        f: 16,
        lambda: 40,
    }
}

fn workloads(par: usize) -> Vec<Workload> {
    let serve = |traffic, reads, writes| ServeSpec {
        traffic,
        region: region(10),
        reads,
        writes,
        // Deep enough on reads that the server never runs dry: with 16
        // in flight the loop is bound by thread wake-ups, not by work per
        // message, and throughput wanders between 465 k and 785 k/s.
        // Writes stay at 2 x 16 < the server's queue of 64.
        window: if traffic == Traffic::Read { 256 } else { 16 },
        read_rate: 50_000.0,
        write_rate: 2_000.0,
    };
    let sim = |engine, flows, threads| SimSpec {
        engine,
        region: region(12),
        flows,
        traces: if engine == Engine::Exact { 8 } else { 1 },
        layer_exact_flows: 3e5,
        layer_decomposed_flows: flows,
        threads,
    };
    let plan = |name, points, cuts, threads| Workload {
        name,
        journey: Journey::Plan(PlanSpec {
            points,
            cuts,
            threads,
        }),
    };
    let scale = SweepPoint {
        map_seed: 4,
        n_dcs: 30,
        f: 16,
        lambda: 40,
    };
    // Serving blocks last about 2 s (1 s on `serve_read`), so that a stall
    // recurring every second or two lands in most blocks and moves their
    // median.
    vec![
        plan("plan_sweep", iris_bench::sweep_points(), 1, 1),
        plan("plan_scale", vec![scale], 2, par),
        Workload {
            name: "serve_read",
            journey: Journey::Serve(serve(Traffic::Read, 1_500_000, 0)),
        },
        Workload {
            name: "serve_write",
            journey: Journey::Serve(serve(Traffic::Write, 0, 20_000)),
        },
        Workload {
            name: "serve_mixed",
            journey: Journey::Serve(serve(Traffic::Mixed, 100_000, 4_000)),
        },
        Workload {
            name: "sim_exact",
            journey: Journey::Sim(sim(Engine::Exact, 3e5, 1)),
        },
        Workload {
            name: "sim_decomposed",
            journey: Journey::Sim(sim(Engine::Decomposed, 3e6, par)),
        },
    ]
}

/// The reference probes: small fixed inputs, the same under every
/// workload, that give the layers of the journeys a workload does not
/// drive a measured reading (the benchmark contract wants every per-layer
/// name in every traced run). Their readings are marked in the report.
fn reference_plan() -> PlanSpec {
    PlanSpec {
        points: vec![region(10)],
        cuts: 1,
        threads: 1,
    }
}

fn reference_serve() -> ServeSpec {
    ServeSpec {
        traffic: Traffic::Mixed,
        region: region(10),
        reads: 20_000,
        writes: 1_000,
        window: 0,
        read_rate: 20_000.0,
        write_rate: 1_000.0,
    }
}

fn reference_sim() -> SimSpec {
    SimSpec {
        engine: Engine::Exact,
        region: region(12),
        flows: 3e4,
        traces: 1,
        layer_exact_flows: 3e4,
        layer_decomposed_flows: 3e5,
        threads: 1,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    keep_spans: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        keep_spans: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: cannot read {value:?} as {what}");
        let switch = || match value.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad("0 or 1")),
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
            }
            "--trace" => args.trace = switch()?,
            "--keep-spans" => args.keep_spans = switch()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Set up repeatedly; the median time (s) and the last context.
fn timed_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(stats::Summary, T), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(i)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((stats::summarize(&times), last.expect("SETUPS > 0")))
}

/// Blocks until `seconds` of timed phase have run. The kernel's
/// peak-memory watermark is restarted before every block (where
/// `/proc/self/clear_refs` is not writable it covers the whole process).
fn timed_phase(seconds: f64, mut block: impl FnMut() -> Block) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut spent = 0.0;
    while blocks.len() < MIN_BLOCKS || spent < seconds {
        sysinfo::reset_peak_rss();
        let mut b = block();
        if b.peak_rss_mb.is_empty() {
            b.peak_rss_mb.push(sysinfo::peak_rss_mb());
        }
        spent += b.wall_s;
        blocks.push(b);
    }
    blocks
}

/// The end-to-end report of an untraced run: every metric is the median
/// over blocks.
fn end_to_end(blocks: &[Block], setup_s: stats::Summary) -> Report {
    let mut rep = Report::new(END_TO_END);
    let per_block =
        |f: &dyn Fn(&Block) -> Option<f64>| -> Vec<f64> { blocks.iter().filter_map(f).collect() };
    let throughput = per_block(&|b| Some(b.work / b.wall_s));
    rep.set_summary("throughput_per_s", stats::summarize(&throughput), "");
    let p50s = per_block(&|b| b.latency.map(|l| l.0));
    if !p50s.is_empty() {
        let tails = per_block(&|b| b.latency.map(|l| l.1));
        let label = blocks.iter().find_map(|b| b.latency).map_or("", |l| l.2);
        rep.set_summary("op_p50_ms", stats::summarize(&p50s), "");
        rep.set_summary(
            "op_tail_ms",
            stats::summarize(&tails),
            &format!("tail={label}"),
        );
    }
    let rss: Vec<f64> = blocks.iter().flat_map(|b| b.peak_rss_mb.clone()).collect();
    rep.set_summary("peak_rss_mb", stats::summarize(&rss), "");
    rep.set_summary("setup_s", setup_s, "");
    rep
}

struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    digest: u64,
    notes: Vec<String>,
}

fn untraced(w: &Workload, args: &Args, par: usize, scratch: &Path) -> Result<Outcome, String> {
    let seed = args.seed;
    let (setup_s, blocks, errors) = match &w.journey {
        Journey::Plan(spec) => {
            let (setup_s, ctx) = timed_setup(|_| Ok(PlanCtx::setup(spec, seed)))?;
            let blocks = timed_phase(args.seconds, || ctx.run_block(spec.threads, None));
            let errors = ctx.check(blocks.iter().map(|b| b.digest), par);
            (setup_s, blocks, errors)
        }
        Journey::Serve(spec) => {
            let (setup_s, mut ctx) =
                timed_setup(|i| ServeCtx::setup(spec, seed, &scratch.join(format!("serve-{i}"))))?;
            let blocks = timed_phase(args.seconds, || ctx.run_block(None));
            let errors = ctx.check();
            (setup_s, blocks, errors)
        }
        Journey::Sim(spec) => {
            let (setup_s, ctx) = timed_setup(|_| Ok(SimCtx::setup(spec, seed)))?;
            let blocks = timed_phase(args.seconds, || ctx.run_block(None));
            (setup_s, blocks, Vec::new())
        }
    };
    let mut errors: Vec<String> = blocks
        .iter()
        .flat_map(|b| b.errors.iter().cloned())
        .chain(errors)
        .collect();
    let first = &blocks[0];
    // Blocks repeat the same inputs on the plan and simulation journeys,
    // so their outputs must repeat too.
    if !matches!(w.journey, Journey::Serve(_)) && blocks.iter().any(|b| b.digest != first.digest) {
        errors.push("output digest differs between blocks".to_owned());
    }
    let mean_block_s = blocks.iter().map(|b| b.wall_s).sum::<f64>() / blocks.len() as f64;
    let series = |f: &dyn Fn(&Block) -> Option<String>| {
        blocks.iter().filter_map(f).collect::<Vec<_>>().join(" ")
    };
    Ok(Outcome {
        attempted: blocks.iter().map(|b| b.attempted).sum(),
        failed: blocks.iter().map(|b| b.failed).sum(),
        digest: first.digest,
        notes: vec![
            format!(
                "# timed phase: {} blocks of {} ops, {:.3} s per block",
                blocks.len(),
                first.attempted,
                mean_block_s
            ),
            format!(
                "# throughput per block: {}",
                series(&|b| Some(format!("{:.4e}", b.work / b.wall_s)))
            ),
            format!(
                "# op tail per block, ms: {}",
                series(&|b| b.latency.map(|(_, tail, _)| format!("{tail:.4}")))
            ),
            format!(
                "# peak rss per block, MB: {}",
                series(&|b| Some(
                    b.peak_rss_mb
                        .iter()
                        .map(|mb| format!("{mb:.1}"))
                        .collect::<Vec<_>>()
                        .join("/")
                ))
            ),
        ],
        report: end_to_end(&blocks, setup_s),
        errors,
    })
}

/// Tracing overhead: alternate a block without spans and one with, up
/// to three pairs while they are cheap; the median ratio of time per op,
/// and the blocks.
fn overhead(mut run: impl FnMut(bool) -> Block) -> (f64, Vec<Block>) {
    let per_op = |b: &Block| b.wall_s / b.attempted as f64;
    let (mut ratios, mut blocks) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while ratios.is_empty() || (ratios.len() < 3 && t0.elapsed().as_secs_f64() < 5.0) {
        let (plain, spanned) = (run(false), run(true));
        ratios.push(per_op(&spanned) / per_op(&plain));
        blocks.extend([plain, spanned]);
    }
    (stats::median(&ratios), blocks)
}

/// One block of the reference serving traffic against a server of its
/// own, for the groups of readings `want` names.
fn reference_traffic(
    tr: &mut Tracer,
    rep: &mut Report,
    seed: u64,
    dir: &Path,
    want: Yields,
    standalone: bool,
) -> Result<(), String> {
    let mut probe = ServeCtx::setup(&reference_serve(), seed, dir)?;
    let (_, readings) = probe.traffic_layers(tr, want);
    rep.extend(readings);
    if standalone {
        probe.standalone_layers(tr, rep)?;
    }
    match probe.check() {
        errors if errors.is_empty() => Ok(()),
        errors => Err(format!("reference serving probe: {}", errors.join("; "))),
    }
}

/// The traced run: the other two journeys' layers from the reference
/// probes, then blocks of the workload with and without spans and its
/// own journey's layers on its input.
fn traced(w: &Workload, args: &Args, par: usize, scratch: &Path) -> Result<Outcome, String> {
    let seed = args.seed;
    let mut tr = Tracer::new();
    let mut rep = Report::new(PER_LAYER);
    let everything = Yields {
        client: true,
        reads: true,
        writes: true,
        lag: true,
    };

    rep.reference = true;
    if !matches!(w.journey, Journey::Plan(_)) {
        let probe = PlanCtx::setup(&reference_plan(), seed);
        probe.run_block(1, None); // warm the code the stages share
        probe.layers(&mut tr, &mut rep, par);
    }
    if !matches!(w.journey, Journey::Serve(_)) {
        let dir = scratch.join("reference");
        reference_traffic(&mut tr, &mut rep, seed, &dir, everything, true)?;
    }
    if !matches!(w.journey, Journey::Sim(_)) {
        SimCtx::setup(&reference_sim(), seed).layers(&mut tr, &mut rep);
    }
    rep.reference = false;

    let (ratio, blocks, errors) = match &w.journey {
        Journey::Plan(spec) => {
            let ctx = PlanCtx::setup(spec, seed);
            let (ratio, blocks) =
                overhead(|spans| ctx.run_block(spec.threads, spans.then_some(&mut tr)));
            ctx.layers(&mut tr, &mut rep, par);
            (ratio, blocks, Vec::new())
        }
        Journey::Serve(spec) => {
            let mut ctx = ServeCtx::setup(spec, seed, &scratch.join("serve"))?;
            let own = spec.yields();
            // The readings of the last traced block stand.
            let mut readings = Vec::new();
            let (ratio, blocks) = overhead(|spans| {
                if spans {
                    let (block, r) = ctx.traffic_layers(&mut tr, own);
                    readings = r;
                    block
                } else {
                    ctx.run_block(None)
                }
            });
            rep.extend(readings);
            ctx.standalone_layers(&mut tr, &mut rep)?;
            // What this workload's traffic cannot yield (no reads, no
            // writes, no schedule to lag behind) comes from the reference
            // traffic.
            let rest = Yields {
                client: false,
                reads: !own.reads,
                writes: !own.writes,
                lag: !own.lag,
            };
            if rest.reads || rest.writes || rest.lag {
                rep.reference = true;
                let dir = scratch.join("reference");
                reference_traffic(&mut tr, &mut rep, seed, &dir, rest, false)?;
                rep.reference = false;
            }
            (ratio, blocks, ctx.check())
        }
        Journey::Sim(spec) => {
            let ctx = SimCtx::setup(spec, seed);
            let (ratio, blocks) = overhead(|spans| ctx.run_block(spans.then_some(&mut tr)));
            ctx.layers(&mut tr, &mut rep);
            (ratio, blocks, Vec::new())
        }
    };
    rep.set("bench.trace_overhead_ratio", ratio);

    let mut notes = vec![
        "# readings marked reference-probe are of small fixed inputs, the same under every \
         workload; cite a layer on a workload of its own journey"
            .to_owned(),
    ];
    // Of the workload's own journey only: a reference probe compares one
    // plan of a few milliseconds with its stages once, which is noise.
    let own_ratio = match &w.journey {
        Journey::Plan(_) => Some((
            "planner.stage_sum_ratio",
            "planner stages vs DesignStudy::run",
        )),
        Journey::Sim(_) => Some(("flowsim.stage_sum_ratio", "flowsim stages vs estimate")),
        Journey::Serve(_) => None,
    };
    if let Some((name, what)) = own_ratio {
        if let Some(r) = rep.get(name).filter(|r| !(0.9..=1.1).contains(r)) {
            notes.push(format!(
                "# finding: {name} = {r:.3} ({what} do not add up within 10 %)"
            ));
        }
    }
    if ratio > 1.1 {
        notes.push(format!(
            "# finding: bench.trace_overhead_ratio = {ratio:.3}, spans cost more than 10 %"
        ));
    }
    if let (
        Journey::Serve(ServeSpec {
            traffic: Traffic::Mixed,
            ..
        }),
        Some(lag),
        Some(read_p50_us),
    ) = (
        &w.journey,
        rep.get("bench.gen_lag_p99_us"),
        rep.get("service.read_p50_us"),
    ) {
        let share = lag / read_p50_us;
        if share > 0.1 {
            notes.push(format!(
                "# finding: the generator sent up to {lag:.0} us late (p99), {:.0} % of the read p50; \
                 latency runs from the due time, so the lag is inside every figure",
                share * 100.0
            ));
        }
    }
    let spans_file = scratch.join(format!("{}-seed{}.spans.jsonl", w.name, seed));
    tr.write_jsonl(&spans_file)
        .map_err(|e| format!("cannot write {}: {e}", spans_file.display()))?;
    notes.push(if args.keep_spans {
        format!("# {} spans kept in {}", tr.len(), spans_file.display())
    } else {
        format!(
            "# {} spans written and removed with the temporary directory (--keep-spans 1 keeps them)",
            tr.len()
        )
    });

    let errors: Vec<String> = blocks
        .iter()
        .flat_map(|b| b.errors.iter().cloned())
        .chain(errors)
        .collect();
    Ok(Outcome {
        report: rep,
        attempted: blocks.iter().map(|b| b.attempted).sum(),
        failed: blocks.iter().map(|b| b.failed).sum(),
        errors,
        digest: blocks[0].digest,
        notes,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            eprintln!(
                "usage: perf --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--keep-spans <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    // Thread counts are passed explicitly; the environment must not
    // override them or shrink the workloads.
    std::env::remove_var("IRIS_THREADS");
    std::env::remove_var("IRIS_QUICK");
    let par = sysinfo::nproc().min(2);
    let all = workloads(par);
    let Some(w) = all.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = all.iter().map(|w| w.name).collect();
        eprintln!(
            "perf: unknown workload {:?}; one of {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let mut scratch = match sysinfo::Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf: cannot create a temporary directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    scratch.keep = args.trace && args.keep_spans;

    for line in sysinfo::header(scratch.path()) {
        println!("{line}");
    }
    println!(
        "# workload {} seed {} seconds {} trace {} planner-threads-par {par}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        traced(w, &args, par, scratch.path())
    } else {
        untraced(w, &args, par, scratch.path())
    };
    drop(scratch);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut errors = outcome.errors;
    errors.extend(
        outcome
            .report
            .missing()
            .iter()
            .map(|m| format!("metric {m} has no reading")),
    );
    if outcome.failed > 0 {
        errors.push(format!(
            "{} of {} ops failed",
            outcome.failed, outcome.attempted
        ));
    }
    for line in outcome.notes.iter().chain(&outcome.report.lines()) {
        println!("{line}");
    }
    println!("output_digest {:016x}", outcome.digest);
    for e in &errors {
        println!("check failed: {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{}",
        outcome
            .report
            .result_line(correct, outcome.attempted.max(1), outcome.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
