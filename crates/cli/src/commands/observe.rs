//! Views of a running server: `regions`, `trace dump`, `top`.

use super::comma_list;
use crate::args::Options;
use iris_errors::{IrisError, IrisResult};
use iris_service::api::HealthInfo;
use iris_service::{Request, Response, ServiceClient, TraceEventInfo};

/// The server's typed answer to a Health request.
fn health(client: &mut ServiceClient) -> IrisResult<HealthInfo> {
    match client.call(&Request::Health)?.into_result()? {
        Response::Health(h) => Ok(h),
        other => Err(IrisError::Decode {
            detail: format!("Health answered {other:?}"),
        }),
    }
}

/// `iris regions` — probe every listed server and print the federation
/// map.
pub fn regions(opts: &Options) -> IrisResult<()> {
    let addrs: Vec<&str> = comma_list(opts.required("addr")?).collect();
    let mut reached = 0usize;
    let mut last_err: Option<IrisError> = None;
    for addr in &addrs {
        let health = ServiceClient::connect(addr).and_then(|mut client| {
            client.set_deadline(Some(std::time::Duration::from_millis(2_000)))?;
            health(&mut client)
        });
        match health {
            Ok(h) => {
                reached += 1;
                println!(
                    "region {} ({}) at {addr} — epoch {}, queue {}, {} writes applied",
                    h.region, h.role, h.epoch, h.queue_depth, h.writes_applied
                );
                for p in &h.peers {
                    println!(
                        "  peer region {} at {}: {}, acked epoch {}, lag {} epochs (~{:.1} ms), \
                         {} reconnects",
                        p.region,
                        p.addr,
                        if p.connected { "connected" } else { "down" },
                        p.acked_epoch,
                        p.lag_epochs,
                        p.lag_ms,
                        p.reconnects
                    );
                }
            }
            Err(e) => {
                println!("region ? at {addr} — unreachable: {e}");
                last_err = Some(e);
            }
        }
    }
    match last_err {
        Some(e) if reached == 0 => Err(e),
        _ => Ok(()),
    }
}

/// `iris trace dump` — fetch the server's flight recorder and render
/// each trace as an indented span tree plus the slow-request log.
pub fn trace_dump(opts: &Options) -> IrisResult<()> {
    let addr = opts.required("addr")?;
    let max_events: u64 = opts.num("max")?;
    let keep: usize = opts.num("traces")?;
    let mut client = ServiceClient::connect(addr)?;
    let Response::Trace(dump) = client
        .call(&Request::TraceDump { max_events })?
        .into_result()?
    else {
        return Err(IrisError::Decode {
            detail: "TraceDump answered a non-Trace response".to_owned(),
        });
    };
    println!(
        "flight recorder @ {addr}: enabled={}, {} events, {} overwritten",
        dump.enabled,
        dump.events.len(),
        dump.dropped
    );

    // Traces in order of their newest event, so the tail of the output
    // is the most recent activity.
    let mut order: Vec<u64> = Vec::new();
    for e in &dump.events {
        if let Some(pos) = order.iter().position(|&t| t == e.trace_id) {
            order.remove(pos);
        }
        order.push(e.trace_id);
    }
    let skip = if keep == 0 {
        0
    } else {
        order.len().saturating_sub(keep)
    };
    if skip > 0 {
        println!(
            "(showing the {} newest of {} traces; --traces 0 shows all)",
            order.len() - skip,
            order.len()
        );
    }
    for &tid in &order[skip..] {
        let events: Vec<&TraceEventInfo> =
            dump.events.iter().filter(|e| e.trace_id == tid).collect();
        // Offsets are rendered relative to the trace's earliest
        // measured span, so each tree starts near +0.
        let base_us = events
            .iter()
            .filter(|e| !e.modeled)
            .map(|e| e.start_us)
            .min()
            .unwrap_or(0);
        println!("\ntrace {tid:#018x}");
        let mut roots: Vec<&&TraceEventInfo> = events
            .iter()
            .filter(|e| e.parent_id == 0 || !events.iter().any(|p| p.span_id == e.parent_id))
            .collect();
        roots.sort_by_key(|e| e.start_us);
        for root in roots {
            print_span_tree(&events, root, 0, base_us);
        }
    }

    if dump.slow.is_empty() {
        println!("\nslow-request log: empty");
    } else {
        println!("\nslow-request log (oldest first):");
        for s in &dump.slow {
            println!(
                "  {:<14} {:>10.3} ms  trace {:#018x}  at +{:.3} s",
                s.op,
                s.total_ms,
                s.trace_id,
                s.at_us as f64 / 1e6
            );
        }
    }
    Ok(())
}

/// Print one span and, recursively, its children (indented).
fn print_span_tree(events: &[&TraceEventInfo], node: &TraceEventInfo, depth: usize, base_us: u64) {
    let indent = "  ".repeat(depth + 1);
    let width = 26usize.saturating_sub(depth * 2).max(8);
    if node.modeled {
        // Modeled steps carry parent-relative offsets from the
        // controller's deterministic timeline.
        println!(
            "{indent}~{:<width$} +{:>9.3} ms  {:>10.3} ms (modeled)",
            node.stage,
            node.start_us as f64 / 1e3,
            node.dur_us as f64 / 1e3,
        );
    } else {
        println!(
            "{indent}{:<width$}  +{:>9.3} ms  {:>10.3} ms",
            node.stage,
            node.start_us.saturating_sub(base_us) as f64 / 1e3,
            node.dur_us as f64 / 1e3,
        );
    }
    let mut kids: Vec<&&TraceEventInfo> = events
        .iter()
        .filter(|e| e.parent_id == node.span_id && e.span_id != node.span_id)
        .collect();
    kids.sort_by_key(|e| (e.modeled, e.start_us));
    for kid in kids {
        print_span_tree(events, kid, depth + 1, base_us);
    }
}

/// `iris top` — one-shot (or `--watch` repeating) health and latency
/// view of a running server.
pub fn top(opts: &Options) -> IrisResult<()> {
    let addr = opts.required("addr")?;
    let watch: u64 = opts.num("watch")?;
    let mut client = ServiceClient::connect(addr)?;
    loop {
        let view = render_top(&mut client, addr)?;
        if watch > 0 {
            // Clear + home so the watch view repaints in place.
            print!("\x1b[2J\x1b[H");
        }
        print!("{view}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        if watch == 0 {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(watch.max(1)));
    }
}

/// Build the `iris top` screen from Health + MetricsSnapshot replies.
fn render_top(client: &mut ServiceClient, addr: &str) -> IrisResult<String> {
    use std::fmt::Write as _;

    let h = health(client)?;
    let Response::Metrics { prometheus } = client.call(&Request::MetricsSnapshot)?.into_result()?
    else {
        return Err(IrisError::Decode {
            detail: "MetricsSnapshot answered a non-Metrics response".to_owned(),
        });
    };

    let mut out = String::new();
    let _ = writeln!(out, "iris top — {addr}");
    let _ = writeln!(
        out,
        "uptime {:>8.1} s   epoch {}   queue {}   overload events {}",
        h.uptime_ms as f64 / 1e3,
        h.epoch,
        h.queue_depth,
        h.overloaded
    );
    let _ = writeln!(
        out,
        "writes applied {}   coalesced {}   active cuts {:?}   quarantined {}",
        h.writes_applied, h.coalesced, h.active_cuts, h.quarantined
    );
    let _ = writeln!(
        out,
        "wal: {} records, {} bytes, last fsync {:.3} ms",
        h.wal_records, h.wal_bytes, h.last_fsync_ms
    );
    if h.region != 0 || !h.peers.is_empty() || h.role != "primary" {
        let _ = writeln!(out, "region {} — role {}", h.region, h.role);
        for p in &h.peers {
            let _ = writeln!(
                out,
                "  peer region {:<4} {:<21} {:<9}  acked {:>6}  \
                 lag {:>4} epochs (~{:>7.1} ms)  reconnects {}",
                p.region,
                p.addr,
                if p.connected { "connected" } else { "down" },
                p.acked_epoch,
                p.lag_epochs,
                p.lag_ms,
                p.reconnects
            );
        }
    }
    if let Some(batches) = prom_counter(&prometheus, "iris_service_group_commit_batches") {
        let _ = writeln!(out, "group commit: {batches} batches committed");
    }
    let shards = shard_rows(&prometheus);
    if !shards.is_empty() {
        let _ = write!(out, "shards:");
        for (shard, requests, connections) in &shards {
            let _ = write!(out, "  [{shard}] {requests} req / {connections} conn");
        }
        let _ = writeln!(out);
    }
    let table = latency_table(&prometheus);
    if !table.is_empty() {
        let _ = writeln!(
            out,
            "\n  {:<18} {:>9}  {:>10}  {:>10}",
            "op", "count", "p50 \u{2264}", "p99 \u{2264}"
        );
        for (op, count, p50, p99) in table {
            let _ = writeln!(
                out,
                "  {:<18} {:>9}  {:>7} ms  {:>7} ms",
                op,
                count,
                fmt_upper(p50),
                fmt_upper(p99)
            );
        }
    }
    Ok(out)
}

/// `(labels, value)` of every sample of the metric `name` in Prometheus
/// text; `labels` is what stands between the braces, if anything.
fn samples<'a>(prom: &'a str, name: &'a str) -> impl Iterator<Item = (&'a str, u64)> + 'a {
    prom.lines().filter_map(move |line| {
        let (series, value) = line.strip_prefix(name)?.rsplit_once(' ')?;
        let labels = match series {
            "" => "",
            _ => series.strip_prefix('{')?.strip_suffix('}')?,
        };
        Some((labels, value.parse().ok()?))
    })
}

/// The value of the label `key` among `labels` (`a="x",b="y"`).
fn label<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    let value = |part: &'a str| {
        part.strip_prefix(key)?
            .strip_prefix("=\"")?
            .strip_suffix('"')
    };
    labels.split(',').find_map(value)
}

/// An unlabeled counter's value.
fn prom_counter(prom: &str, name: &str) -> Option<u64> {
    samples(prom, name).find_map(|(labels, value)| labels.is_empty().then_some(value))
}

/// Per-shard `(shard, requests, connections)` rows from the
/// `iris_service_shard_*_total{shard="N"}` counters, shard ascending.
fn shard_rows(prom: &str) -> Vec<(u64, u64, u64)> {
    let mut rows = std::collections::BTreeMap::<u64, [u64; 2]>::new();
    for (column, what) in ["requests", "connections"].into_iter().enumerate() {
        let name = format!("iris_service_shard_{what}_total");
        for (labels, value) in samples(prom, &name) {
            if let Some(Ok(shard)) = label(labels, "shard").map(str::parse) {
                rows.entry(shard).or_default()[column] = value;
            }
        }
    }
    rows.into_iter()
        .map(|(shard, [r, c])| (shard, r, c))
        .collect()
}

/// Render a histogram upper bound: finite as a number, overflow as
/// `>max` (the sample fell past the last finite bucket).
fn fmt_upper(upper: f64) -> String {
    if upper.is_finite() {
        format!("{upper:.3}")
    } else {
        ">max".to_owned()
    }
}

/// Per-op `(op, count, p50_upper, p99_upper)` rows parsed from the
/// server's Prometheus text (`iris_service_latency_ms_bucket` series).
/// Quantiles are bucket upper bounds — conservative, not interpolated.
fn latency_table(prom: &str) -> Vec<(String, u64, f64, f64)> {
    let mut per_op = std::collections::BTreeMap::<String, Vec<(f64, u64)>>::new();
    for (labels, cumulative) in samples(prom, "iris_service_latency_ms_bucket") {
        if let (Some(le), Some(op)) = (label(labels, "le"), label(labels, "op")) {
            // `+Inf` parses as infinity.
            let upper = le.parse().unwrap_or(f64::INFINITY);
            per_op
                .entry(op.to_owned())
                .or_default()
                .push((upper, cumulative));
        }
    }
    per_op
        .into_iter()
        .map(|(op, mut buckets)| {
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let count = buckets.last().map_or(0, |b| b.1);
            let p50 = bucket_quantile(&buckets, count, 0.50);
            let p99 = bucket_quantile(&buckets, count, 0.99);
            (op, count, p50, p99)
        })
        .collect()
}

/// The upper bound of the first cumulative bucket covering quantile `q`.
fn bucket_quantile(buckets: &[(f64, u64)], count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = ((count as f64) * q).ceil().max(1.0) as u64;
    for &(upper, cum) in buckets {
        if cum >= rank {
            return upper;
        }
    }
    f64::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_telemetry::{labeled, Registry};

    #[test]
    fn top_reads_the_registrys_own_prometheus_text() {
        let registry = Registry::new();
        registry.counter("iris_service_group_commit_batches").add(3);
        registry
            .counter("iris_service_group_commit_batches_late")
            .add(9);
        for (shard, requests) in [("1", 7), ("0", 5)] {
            let name = labeled("iris_service_shard_requests_total", "shard", shard);
            registry.counter(&name).add(requests);
        }
        let name = labeled("iris_service_shard_connections_total", "shard", "1");
        registry.counter(&name).add(2);
        let health = registry.histogram(&labeled("iris_service_latency_ms", "op", "health"));
        (1..=100).for_each(|ms| health.record(f64::from(ms)));
        let prom = registry.snapshot().to_prometheus_text();

        assert_eq!(
            prom_counter(&prom, "iris_service_group_commit_batches"),
            Some(3)
        );
        assert_eq!(
            prom_counter(&prom, "iris_service_shard_requests_total"),
            None
        );
        assert_eq!(shard_rows(&prom), [(0, 5, 0), (1, 7, 2)]);
        let [(op, count, p50, p99)] = &latency_table(&prom)[..] else {
            panic!("one op expected: {prom}");
        };
        assert_eq!((op.as_str(), *count), ("health", 100));
        // Bucket upper bounds: at or just above the exact quantiles.
        assert!((50.0..55.0).contains(p50), "{p50}");
        assert!((99.0..=f64::INFINITY).contains(p99) && p50 < p99, "{p99}");
    }
}
