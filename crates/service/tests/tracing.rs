//! End-to-end tracing tests: a live server under real load must expose
//! per-stage latency breakdowns for write batches, a span tree for
//! reconfigurations, propagated client trace ids, a slow-request log,
//! and the enriched health fields — all through the framed TCP protocol.
//!
//! These tests share one process (and therefore one global flight
//! recorder), so every assertion filters by trace id or searches for a
//! trace with the required shape instead of assuming the recorder holds
//! only its own events.

use iris_fibermap::{synth, MetroParams, PlacementParams, Region};
use iris_service::api::{Request, Response, TraceDumpInfo, TraceEventInfo};
use iris_service::{serve, ServiceClient, ServiceConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn region(seed: u64, n_dcs: usize) -> Region {
    synth::place_dcs(
        synth::generate_metro(&MetroParams {
            seed,
            ..MetroParams::default()
        }),
        &PlacementParams {
            seed: seed.wrapping_add(17),
            n_dcs,
            ..PlacementParams::default()
        },
    )
}

fn wal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("iris-tracing-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn client_for(handle: &iris_service::ServiceHandle) -> ServiceClient {
    ServiceClient::connect_retry(&handle.local_addr().to_string(), 20, 25).expect("connect")
}

/// Wait until the server has applied `writes` writes with an empty queue.
fn wait_for_writes(client: &mut ServiceClient, writes: u64) -> iris_service::api::HealthInfo {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Response::Health(h) = client.call(&Request::Health).expect("health") {
            if h.writes_applied >= writes && h.queue_depth == 0 {
                return h;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never applied {writes} writes"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn dump(client: &mut ServiceClient) -> TraceDumpInfo {
    match client
        .call(&Request::TraceDump { max_events: 0 })
        .expect("trace dump rpc")
    {
        Response::Trace(d) => d,
        other => panic!("expected Trace, got {other:?}"),
    }
}

/// Group a dump's events by trace id, preserving event order.
fn by_trace(events: &[TraceEventInfo]) -> Vec<(u64, Vec<&TraceEventInfo>)> {
    let mut out: Vec<(u64, Vec<&TraceEventInfo>)> = Vec::new();
    for e in events {
        match out.iter_mut().find(|(t, _)| *t == e.trace_id) {
            Some((_, v)) => v.push(e),
            None => out.push((e.trace_id, vec![e])),
        }
    }
    out
}

fn stages<'a>(events: &'a [&'a TraceEventInfo]) -> BTreeSet<&'a str> {
    events.iter().map(|e| e.stage.as_str()).collect()
}

#[test]
fn write_batches_carry_a_complete_stage_breakdown() {
    let dir = wal_dir("breakdown");
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        cuts: 1,
        coalesce_window_ms: 0,
        wal_dir: Some(dir.display().to_string()),
        ..ServiceConfig::default()
    };
    let mut handle = serve(region(31, 4), &config).expect("serve");
    let mut client = client_for(&handle);

    let topo = match client.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let (a, b) = (topo.allocation[0].a, topo.allocation[0].b);
    client
        .call(&Request::UpdateDemand { a, b, circuits: 3 })
        .unwrap();
    let health = wait_for_writes(&mut client, 1);

    // Satellite: the enriched health fields are live on a WAL-backed
    // server after one write.
    assert!(health.uptime_ms > 0, "uptime should be positive");
    assert!(health.wal_records >= 1, "the write was WAL-appended");
    assert!(health.wal_bytes > 0, "WAL bytes accounted");
    assert!(
        health.last_fsync_ms >= 0.0,
        "fsync latency mirrored: {}",
        health.last_fsync_ms
    );

    let d = dump(&mut client);
    assert!(d.enabled, "recorder is on by default");

    // Acceptance: at least one write batch exposes the full pipeline
    // breakdown. Other tests in this process add unrelated traces, so
    // search for a trace with the required shape. The whole batch runs
    // on the mutator, so every stage hangs off one `write_batch` root.
    let children = [
        "queue_wait",
        "coalesce",
        "apply",
        "wal_append",
        "wal_fsync",
        "snapshot_build",
        "publish",
    ];
    let groups = by_trace(&d.events);
    let (_, evs) = groups
        .iter()
        .find(|(_, evs)| {
            let s = stages(evs);
            s.contains("write_batch") && children.iter().all(|w| s.contains(w))
        })
        .unwrap_or_else(|| {
            panic!(
                "no write_batch trace with all of {children:?} in {} traces",
                groups.len()
            )
        });

    // Structural checks: one root, and every stage a direct child of it.
    let roots: Vec<_> = evs.iter().filter(|e| e.parent_id == 0).collect();
    let [root] = roots[..] else {
        panic!("one root expected, got {roots:?}");
    };
    assert_eq!(root.stage, "write_batch");
    for child in children {
        let e = evs.iter().find(|e| e.stage == child).unwrap();
        assert_eq!(
            e.parent_id, root.span_id,
            "{child} should be a direct child of write_batch"
        );
        assert!(!e.modeled, "{child} is measured, not modeled");
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_followers_replicated_batch_is_a_trace_of_its_own() {
    let dir = wal_dir("replicated");
    let config = |follower, peers, wal_dir| ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        follower,
        peers,
        wal_dir,
        ..ServiceConfig::default()
    };
    let topo = region(34, 4);
    let wal = Some(dir.display().to_string());
    let mut follower = serve(topo.clone(), &config(true, Vec::new(), wal)).expect("follower");
    let peers = vec![follower.local_addr().to_string()];
    let mut primary = serve(topo, &config(false, peers, None)).expect("primary");
    let mut client = client_for(&primary);
    let topo = match client.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let (a, b) = (topo.allocation[0].a, topo.allocation[0].b);
    client
        .call(&Request::UpdateDemand { a, b, circuits: 3 })
        .unwrap();
    wait_for_writes(&mut client_for(&follower), 1);

    // The follower's apply, WAL fsync and publish share one root.
    let d = dump(&mut client_for(&follower));
    let groups = by_trace(&d.events);
    let (_, evs) = groups
        .iter()
        .find(|(_, evs)| stages(evs).contains("apply_replicated"))
        .expect("a trace rooted at apply_replicated");
    let root = evs.iter().find(|e| e.stage == "apply_replicated").unwrap();
    assert_eq!(root.parent_id, 0, "apply_replicated is a trace root");
    for child in ["wal_fsync", "publish"] {
        let e = evs
            .iter()
            .find(|e| e.stage == child)
            .unwrap_or_else(|| panic!("no {child} in {evs:?}"));
        assert_eq!(
            e.parent_id, root.span_id,
            "{child} should be a direct child of apply_replicated"
        );
    }

    primary.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fiber_cut_emits_a_reconfiguration_span_tree() {
    let mut handle = serve(
        region(32, 4),
        &ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            cuts: 1,
            coalesce_window_ms: 0,
            ..ServiceConfig::default()
        },
    )
    .expect("serve");
    let mut client = client_for(&handle);

    let topo = match client.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let (a, b) = (topo.allocation[0].a, topo.allocation[0].b);
    let path = match client.call(&Request::QueryPath { a, b }).unwrap() {
        Response::Path(p) => p,
        other => panic!("expected Path, got {other:?}"),
    };
    let reply = client
        .call(&Request::ReportFiberCut {
            cuts: vec![path.edges[0]],
        })
        .unwrap();
    assert!(
        matches!(reply, Response::Recovery(_)),
        "cut should recover, got {reply:?}"
    );

    let d = dump(&mut client);
    let groups = by_trace(&d.events);
    // The cut batch's trace holds the recovery handler plus a
    // reconfigure span whose children are the controller's modeled
    // phase timeline.
    let (_, evs) = groups
        .iter()
        .find(|(_, evs)| {
            let s = stages(evs);
            s.contains("handle_fiber_cut") && s.contains("reconfigure")
        })
        .expect("a trace containing the fiber-cut recovery");
    let reconfigure = evs.iter().find(|e| e.stage == "reconfigure").unwrap();
    let phases: BTreeSet<&str> = evs
        .iter()
        .filter(|e| e.modeled && e.parent_id == reconfigure.span_id)
        .map(|e| e.stage.as_str())
        .collect();
    assert!(
        phases.len() >= 2,
        "reconfigure should carry modeled phase children, got {phases:?}"
    );
    let detect: Vec<&&TraceEventInfo> = evs
        .iter()
        .filter(|e| e.modeled && (e.stage == "detect" || e.stage == "replan"))
        .collect();
    assert_eq!(
        detect.len(),
        2,
        "detection and replanning are modeled on the cut handler"
    );
    assert!(
        detect.iter().all(|e| e.dur_us > 0),
        "modeled phases carry their timeline durations"
    );

    handle.shutdown();
}

#[test]
fn client_trace_ids_propagate_and_slow_requests_are_logged() {
    let mut handle = serve(
        region(33, 4),
        &ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            cuts: 1,
            coalesce_window_ms: 0,
            // Threshold 0 logs every request, so this test does not
            // depend on wall-clock speed.
            slow_ms: 0.0,
            ..ServiceConfig::default()
        },
    )
    .expect("serve");
    let mut client = client_for(&handle);

    // Parallel tests in this process reset the global threshold when
    // their servers boot, which can land between a pin and the traced
    // call: pin it before each call, and retry until one is logged.
    let (mine, d) = (0..20)
        .map(|_| {
            iris_telemetry::trace::set_slow_threshold_ms(0.0);
            let mine = iris_telemetry::trace::mint_trace_id();
            let reply = client
                .call_with_trace(&Request::GetTopology, Some(mine))
                .unwrap();
            assert!(matches!(reply, Response::Topology(_)));
            (mine, dump(&mut client))
        })
        .find(|(mine, d)| {
            d.slow
                .iter()
                .any(|s| s.trace_id == *mine && s.op == "get_topology")
        })
        .expect("a zero threshold logs the request as slow");
    let spans: Vec<&TraceEventInfo> = d.events.iter().filter(|e| e.trace_id == mine).collect();
    assert!(
        spans.iter().any(|e| e.stage == "get_topology"),
        "the server should record the request under the client's id, got {spans:?}"
    );

    handle.shutdown();
}
