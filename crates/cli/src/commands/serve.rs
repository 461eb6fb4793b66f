//! The control-plane server and the clients that drive it: `serve`,
//! `wal inspect`, `rpc`, `loadgen`.

use super::{comma_list, family_spec, load, parse_cut_list, write_report};
use crate::args::Options;
use iris_errors::IrisResult;
use std::path::Path;

/// `iris wal inspect` — dump and validate a write-ahead log directory
/// without touching it (no truncation, no repair).
pub fn wal_inspect(opts: &Options) -> IrisResult<()> {
    use iris_service::wal::{SNAPSHOT_FILE, WAL_FILE};

    let dir = Path::new(opts.required("dir")?);
    if !dir.is_dir() {
        return Err(format!("--dir {}: not a directory", dir.display()).into());
    }
    let snap = iris_service::read_snapshot(&dir.join(SNAPSHOT_FILE))?;
    match &snap {
        Some(s) => println!(
            "snapshot: epoch {}, {} pairs allocated, {} active cuts, {} writes applied",
            s.epoch,
            s.allocation.len(),
            s.active_cuts.len(),
            s.writes_applied
        ),
        None => println!("snapshot: none"),
    }

    let (batches, salvage) = iris_service::read_log(&dir.join(WAL_FILE))?;
    println!(
        "log: {} records, {} bytes good, {} bytes torn",
        salvage.records, salvage.good_bytes, salvage.truncated_bytes
    );
    let base_epoch = snap.as_ref().map_or(0, |s| s.epoch);
    for (i, b) in batches.iter().enumerate() {
        let stale = if b.epoch <= base_epoch && base_epoch > 0 {
            "  [pre-snapshot, skipped on replay]"
        } else {
            ""
        };
        println!(
            "  record {i}: epoch {}, {} updates, {} cuts, {} writes, {} coalesced{stale}",
            b.epoch,
            b.updates.len(),
            b.cuts.len(),
            b.writes_applied,
            b.coalesced
        );
    }
    match &salvage.torn {
        Some(why) => println!("torn tail: {why}"),
        None => println!("torn tail: none"),
    }

    // The chain rule is recovery's own, so what this prints is what a
    // restart will do.
    let epoch = iris_service::recovery::chain_end(base_epoch, batches.iter().map(|b| b.epoch))?;
    println!("replay would recover to epoch {epoch}");
    Ok(())
}

/// `iris serve` — run the long-lived control-plane server until killed.
pub fn serve(opts: &Options) -> IrisResult<()> {
    use std::io::Write;

    let region = load(opts)?;
    let config = iris_service::ServiceConfig {
        addr: opts.required("addr")?.to_owned(),
        cuts: opts.num("cuts")?,
        queue_capacity: opts.num("queue")?,
        coalesce_window_ms: opts.num("window")?,
        wal_dir: opts.get("wal-dir").map(str::to_owned),
        snapshot_every: opts.num("snapshot-every")?,
        trace: match opts.required("trace")? {
            "on" | "true" | "1" => true,
            "off" | "false" | "0" => false,
            other => return Err(format!("--trace: expected on or off, got '{other}'").into()),
        },
        slow_ms: opts.num("slow-ms")?,
        shards: opts.num("shards")?,
        region_id: opts.num("region-id")?,
        peers: (opts.get("peers").into_iter().flat_map(comma_list))
            .map(str::to_owned)
            .collect(),
        follower: opts.flag("follower"),
    };
    let handle = iris_service::serve(region, &config)?;
    // The bound address goes out first and flushed: with --addr ...:0 the
    // kernel picks the port, and scripts parse this line to find it.
    println!("iris-service listening on {}", handle.local_addr());
    println!(
        "  {} event-loop shards, write queue {} slots, coalesce window {} ms \
         (Overloaded suggests retry in {} ms)",
        config.effective_shards(),
        config.queue_capacity,
        config.coalesce_window_ms,
        config.retry_after_ms()
    );
    if let Some(stats) = handle.replay_stats() {
        let dir = config.wal_dir.as_deref().unwrap_or("?");
        println!(
            "  durable: WAL in {dir}, compacting every {} batches",
            config.snapshot_every
        );
        println!(
            "  recovered to epoch {} ({} batches replayed{}{}{})",
            stats.recovered_epoch,
            stats.replayed_batches,
            (stats.from_snapshot_epoch)
                .map_or(String::new(), |e| format!(", snapshot at epoch {e}")),
            if stats.truncated_bytes > 0 {
                format!(", {} torn bytes salvaged", stats.truncated_bytes)
            } else {
                String::new()
            },
            if stats.skipped_records > 0 {
                format!(", {} pre-snapshot records skipped", stats.skipped_records)
            } else {
                String::new()
            },
        );
    }
    if config.region_id != 0 || !config.peers.is_empty() || config.follower {
        println!(
            "  region {} ({}){}",
            config.region_id,
            if config.follower {
                "follower: writes answered NotPrimary until promoted"
            } else {
                "primary"
            },
            if config.peers.is_empty() {
                String::new()
            } else {
                format!(", replicating to {}", config.peers.join(", "))
            }
        );
    }
    println!("  serving until killed (metrics via the MetricsSnapshot request)");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot flush stdout: {e}"))?;
    loop {
        std::thread::park();
        if handle.is_shutting_down() {
            return Ok(());
        }
    }
}

/// `iris rpc` — one ad-hoc request against a running server, reply
/// printed as JSON.
pub fn rpc(opts: &Options) -> IrisResult<()> {
    use iris_service::Request;

    let addr = opts.required("addr")?;
    let op = opts.required("op")?;
    let request = match op {
        "get_plan" | "plan" => Request::GetPlan,
        "get_plan_at" | "plan_at" => Request::GetPlanAt {
            min_epoch: opts.num("min-epoch")?,
            wait_ms: opts.num("wait")?,
        },
        "get_topology" | "topology" => Request::GetTopology,
        "query_path" | "path" => Request::QueryPath {
            a: opts.num("a")?,
            b: opts.num("b")?,
        },
        "update_demand" | "update" => Request::UpdateDemand {
            a: opts.num("a")?,
            b: opts.num("b")?,
            circuits: opts.num("circuits")?,
        },
        "report_fiber_cut" | "cut" => Request::ReportFiberCut {
            cuts: parse_cut_list(opts.required("cuts")?)?,
        },
        "health" => Request::Health,
        "promote" => Request::Promote,
        "metrics_snapshot" | "metrics" => Request::MetricsSnapshot,
        "trace_dump" | "trace" => Request::TraceDump {
            max_events: opts.num("max")?,
        },
        other => {
            return Err(format!(
                "unknown op '{other}' (try get_plan, get_plan_at, get_topology, query_path, \
                 update_demand, report_fiber_cut, health, promote, metrics_snapshot, trace_dump)"
            )
            .into())
        }
    };
    let mut client = iris_service::ServiceClient::connect(addr)?;
    let response = client.call(&request)?;
    let json =
        serde_json::to_string_pretty(&response).map_err(|e| format!("cannot render reply: {e}"))?;
    println!("{json}");
    Ok(())
}

/// `iris loadgen` — seeded event-loop load against a running server.
pub fn loadgen(opts: &Options) -> IrisResult<()> {
    let codec_name = opts.required("codec")?;
    let codec = iris_service::Codec::from_name(codec_name).ok_or_else(|| {
        format!("--codec: unknown codec '{codec_name}' (expected json or binary)")
    })?;
    let cfg = iris_service::LoadgenConfig {
        addr: opts.required("addr")?.to_owned(),
        seed: opts.num("seed")?,
        requests: opts.num("requests")?,
        connections: opts.num("connections")?,
        cuts: parse_cut_list(opts.get("cut").unwrap_or_default())?,
        codec,
        pipeline: opts.num("pipeline")?,
        rate: opts.num_opt("rate")?,
        matrices: family_spec(opts)?,
        ..iris_service::LoadgenConfig::default()
    };
    let out = opts.required("out")?;
    let report = iris_service::run_loadgen(&cfg)?;
    let r = &report.results;
    let m = &report.measured;

    println!(
        "loadgen: seed {}, {} requests over {} connections against {}",
        r.seed, r.requests, r.connections, cfg.addr
    );
    match cfg.rate {
        Some(rate) => println!(
            "  open loop at {rate} req/s (seeded exponential arrivals), {} codec",
            cfg.codec.name()
        ),
        None => println!(
            "  closed loop, pipeline {} per connection, {} codec",
            cfg.pipeline.max(1),
            cfg.codec.name()
        ),
    }
    println!("\ndeterministic results (written to {out}):");
    for oc in &r.op_counts {
        println!("  {:<18} {:>7}", oc.op, oc.count);
    }
    println!(
        "  {} update pairs, {} coalescable updates ({:.1}% of updates)",
        r.update_pairs,
        r.coalescable_updates,
        r.coalescable_ratio * 100.0
    );
    if let Some(cut) = &r.cut {
        println!(
            "  cut {:?} at request {}: recovered={} shed={} recovery {:.1} ms \
             (detect {:.0} + replan {:.0} + reconfig {:.0})",
            cut.cuts,
            cut.at_request,
            cut.recovery.fully_recovered,
            cut.recovery.shed_pairs,
            cut.recovery.recovery_ms,
            cut.recovery.detection_ms,
            cut.recovery.replan_ms,
            cut.recovery.reconfig_ms
        );
    }
    println!("  unexpected errors: {}", r.errors);

    println!("\nmeasured (wall clock, not serialized):");
    println!(
        "  {:.2} s wall, {:.0} req/s across {} connections",
        m.wall_s, m.throughput_rps, r.connections
    );
    for op in &m.per_op {
        println!(
            "  {:<18} {:>7}  p50 {:>8.3} ms  p99 {:>8.3} ms",
            op.op, op.count, op.p50_ms, op.p99_ms
        );
    }
    println!(
        "  idle-baseline read p99:     {:.3} ms",
        m.baseline_read_p99_ms
    );
    if r.cut.is_some() {
        println!(
            "  reads during recovery:      {} (p99 {:.3} ms)",
            m.reads_during_recovery, m.recovery_read_p99_ms
        );
        println!("  recovery wall time:         {:.1} ms", m.recovery_wall_ms);
    }
    println!(
        "  backpressure retries: {}   unreachable reads: {}   server coalesced: {}   \
         server overloaded: {}",
        m.retries, m.unreachable_reads, m.server_coalesced, m.server_overloaded
    );

    write_report(out, r)?;
    println!("\nresults written to {out}");
    Ok(())
}
