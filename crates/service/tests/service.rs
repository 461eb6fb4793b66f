//! End-to-end tests: a real server on a loopback socket, driven through
//! the framed TCP protocol.

use iris_errors::IrisError;
use iris_fibermap::{synth, MetroParams, PlacementParams, Region};
use iris_service::api::{Request, Response};
use iris_service::codec::{decode_request, decode_response, encode_request};
use iris_service::frame::append_frame;
use iris_service::{serve, Codec, ServiceClient, ServiceConfig};
use iris_wire::recv_frame;
use proptest::prelude::*;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
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

fn test_config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        cuts: 1,
        coalesce_window_ms: 2,
        ..ServiceConfig::default()
    }
}

fn client_for(handle: &iris_service::ServiceHandle) -> ServiceClient {
    ServiceClient::connect_retry(&handle.local_addr().to_string(), 20, 25).expect("connect")
}

/// Wait until the server has applied at least `writes` write operations.
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

#[test]
fn serves_plan_topology_and_paths() {
    let mut handle = serve(region(11, 4), &test_config()).expect("serve");
    let mut client = client_for(&handle);

    let plan = match client.call(&Request::GetPlan).unwrap() {
        Response::Plan(p) => p,
        other => panic!("expected Plan, got {other:?}"),
    };
    assert_eq!(plan.dcs, 4);
    assert_eq!(plan.cut_tolerance, 1);
    assert!(plan.scenarios_examined > 0);
    assert!(plan.used_ducts > 0);

    let topo = match client.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    assert_eq!(topo.epoch, 0, "no writes yet");
    assert!(topo.active_cuts.is_empty());
    assert!(!topo.allocation.is_empty(), "seed allocation exists");
    assert!(topo.allocation.iter().all(|e| e.circuits == 1));

    let first = (topo.allocation[0].a, topo.allocation[0].b);
    let path = match client
        .call(&Request::QueryPath {
            a: first.0,
            b: first.1,
        })
        .unwrap()
    {
        Response::Path(p) => p,
        other => panic!("expected Path, got {other:?}"),
    };
    assert!(!path.edges.is_empty());
    assert_eq!(path.nodes.len(), path.edges.len() + 1);
    assert!(path.length_km > 0.0);
    assert!(path.rtt_ms > 0.0);
    assert_eq!(path.circuits, 1);

    // Invalid requests come back as typed errors, on a live connection.
    match client.call(&Request::QueryPath { a: 2, b: 2 }).unwrap() {
        Response::Error(e) => assert_eq!(e.code(), "invalid-input"),
        other => panic!("expected error, got {other:?}"),
    }
    match client
        .call(&Request::UpdateDemand {
            a: 0,
            b: 99,
            circuits: 1,
        })
        .unwrap()
    {
        Response::Error(e) => assert_eq!(e.code(), "invalid-input"),
        other => panic!("expected error, got {other:?}"),
    }
    match client
        .call(&Request::ReportFiberCut { cuts: vec![9999] })
        .unwrap()
    {
        Response::Error(e) => assert_eq!(e.code(), "invalid-input"),
        other => panic!("expected error, got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn updates_apply_and_advance_the_epoch() {
    let mut handle = serve(region(12, 4), &test_config()).expect("serve");
    let mut client = client_for(&handle);

    let topo = match client.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let (a, b) = (topo.allocation[0].a, topo.allocation[0].b);

    match client
        .call(&Request::UpdateDemand { a, b, circuits: 3 })
        .unwrap()
    {
        Response::DemandAccepted { .. } => {}
        other => panic!("expected DemandAccepted, got {other:?}"),
    }
    let health = wait_for_writes(&mut client, 1);
    assert!(health.epoch >= 1, "write batches bump the epoch");

    let topo = match client.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let entry = topo
        .allocation
        .iter()
        .find(|e| (e.a, e.b) == (a, b))
        .expect("updated pair present");
    assert_eq!(entry.circuits, 3);

    handle.shutdown();
}

/// Write one update through the server and return the epoch its
/// acknowledgement names.
fn update(client: &mut ServiceClient, (a, b): (usize, usize), circuits: u32) -> u64 {
    match client
        .call(&Request::UpdateDemand { a, b, circuits })
        .unwrap()
    {
        Response::DemandAccepted { epoch, .. } => epoch,
        other => panic!("expected DemandAccepted, got {other:?}"),
    }
}

#[test]
fn load_returns_published_snapshot() {
    let mut handle = serve(region(12, 4), &test_config()).expect("serve");
    let boot = handle.current_snapshot();
    assert_eq!(boot.epoch, 0);
    let pair = *boot.allocation.keys().next().expect("a seeded pair");
    let mut client = client_for(&handle);

    // The acknowledgement leaves after the publish, so the snapshot the
    // write produced is already the one readers load.
    let epoch = update(&mut client, pair, 2);
    let snap = handle.current_snapshot();
    assert_eq!(snap.epoch, epoch);
    assert_eq!(snap.allocation.get(&pair), Some(&2));
    handle.shutdown();
}

#[test]
fn old_readers_keep_their_snapshot_across_publishes() {
    let mut handle = serve(region(12, 4), &test_config()).expect("serve");
    let held = handle.current_snapshot();
    let pair = *held.allocation.keys().next().expect("a seeded pair");
    let mut client = client_for(&handle);

    let epoch = update(&mut client, pair, 5);
    // The reader that loaded before the swap still sees the boot state;
    // new loads see the write.
    assert_eq!((held.epoch, held.allocation.get(&pair)), (0, Some(&1)));
    let now = handle.current_snapshot();
    assert_eq!((now.epoch, now.allocation.get(&pair)), (epoch, Some(&5)));
    handle.shutdown();
}

#[test]
fn fiber_cut_recovers_and_reroutes_queryable_paths() {
    let mut handle = serve(region(13, 5), &test_config()).expect("serve");
    let mut client = client_for(&handle);

    let topo = match client.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let (a, b) = (topo.allocation[0].a, topo.allocation[0].b);
    let before = match client.call(&Request::QueryPath { a, b }).unwrap() {
        Response::Path(p) => p,
        other => panic!("expected Path, got {other:?}"),
    };
    let cut = before.edges[0];

    let recovery = match client
        .call(&Request::ReportFiberCut { cuts: vec![cut] })
        .unwrap()
    {
        Response::Recovery(r) => r,
        other => panic!("expected Recovery, got {other:?}"),
    };
    assert_eq!(recovery.cuts, vec![cut]);
    assert!(recovery.within_tolerance, "single cut, k = 1");
    assert!(recovery.fully_recovered, "k-tolerant plan sheds nothing");
    assert_eq!(recovery.shed_pairs, 0);
    assert!(
        (recovery.recovery_ms
            - (recovery.detection_ms + recovery.replan_ms + recovery.reconfig_ms))
            .abs()
            < 1e-9
    );

    // The published state reflects the cut: the pair still resolves, on
    // a path avoiding the failed duct.
    let health = wait_for_writes(&mut client, 1);
    assert_eq!(health.active_cuts, vec![cut]);
    assert_eq!(
        health.last_recovery.as_ref().map(|r| r.fully_recovered),
        Some(true)
    );
    let after = match client.call(&Request::QueryPath { a, b }).unwrap() {
        Response::Path(p) => p,
        other => panic!("expected Path, got {other:?}"),
    };
    assert!(
        !after.edges.contains(&cut),
        "rerouted path must avoid the cut duct"
    );

    let metrics = match client.call(&Request::MetricsSnapshot).unwrap() {
        Response::Metrics { prometheus } => prometheus,
        other => panic!("expected Metrics, got {other:?}"),
    };
    assert!(metrics.contains("iris_service_requests_total"), "{metrics}");
    assert!(
        metrics.contains("iris_control_reconfigs_total"),
        "{metrics}"
    );

    handle.shutdown();
}

#[test]
fn repeat_cut_on_severed_duct_is_an_idempotent_no_op() {
    let mut handle = serve(region(21, 5), &test_config()).expect("serve");
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
    let cut = path.edges[0];

    match client
        .call(&Request::ReportFiberCut { cuts: vec![cut] })
        .unwrap()
    {
        Response::Recovery(r) => assert_eq!(r.cuts, vec![cut]),
        other => panic!("expected Recovery, got {other:?}"),
    }
    let health = wait_for_writes(&mut client, 1);
    let epoch_after_cut = health.epoch;
    let writes_after_cut = health.writes_applied;

    // Reporting the same duct again must NOT take the (cheaper)
    // re-recovery path: it is a typed no-op that consumes no epoch and
    // counts no write.
    match client
        .call(&Request::ReportFiberCut { cuts: vec![cut] })
        .unwrap()
    {
        Response::CutAlreadyActive { active_cuts } => assert_eq!(active_cuts, vec![cut]),
        other => panic!("expected CutAlreadyActive, got {other:?}"),
    }
    let health = match client.call(&Request::Health).unwrap() {
        Response::Health(h) => h,
        other => panic!("expected Health, got {other:?}"),
    };
    assert_eq!(health.epoch, epoch_after_cut, "no-op must not publish");
    assert_eq!(health.writes_applied, writes_after_cut);
    assert_eq!(health.active_cuts, vec![cut]);

    // A mixed report (one new duct + the severed one) still applies.
    let path = match client.call(&Request::QueryPath { a, b }).unwrap() {
        Response::Path(p) => p,
        other => panic!("expected Path, got {other:?}"),
    };
    let second = path.edges[0];
    assert_ne!(second, cut, "rerouted path avoids the severed duct");
    match client
        .call(&Request::ReportFiberCut {
            cuts: vec![cut, second],
        })
        .unwrap()
    {
        Response::Recovery(r) => {
            let mut want = vec![cut, second];
            want.sort_unstable();
            assert_eq!(r.cuts, want);
        }
        other => panic!("expected Recovery, got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn full_queue_answers_typed_backpressure() {
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue_capacity: 1,
        // A long window keeps the mutator busy gathering its first batch
        // while the test floods the one-slot queue.
        coalesce_window_ms: 400,
        ..ServiceConfig::default()
    };
    let mut handle = serve(region(14, 4), &config).expect("serve");
    let mut client = client_for(&handle);

    let topo = match client.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let (a, b) = (topo.allocation[0].a, topo.allocation[0].b);

    // Demand acks now defer to the group commit, so one synchronous
    // client can never overfill the queue by itself: flood it from 8
    // concurrent connections released together by a barrier.
    let addr = handle.local_addr().to_string();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
    let overloaded = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
    let suggested = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let workers: Vec<_> = (1..=8u32)
        .map(|circuits| {
            let (addr, barrier) = (addr.clone(), std::sync::Arc::clone(&barrier));
            let overloaded = std::sync::Arc::clone(&overloaded);
            let suggested = std::sync::Arc::clone(&suggested);
            std::thread::spawn(move || {
                let mut c = ServiceClient::connect_retry(&addr, 20, 25).expect("connect");
                barrier.wait();
                match c.call(&Request::UpdateDemand { a, b, circuits }).unwrap() {
                    Response::DemandAccepted { .. } => {}
                    Response::Error(IrisError::Overloaded { retry_after_ms }) => {
                        overloaded.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        suggested.store(retry_after_ms, std::sync::atomic::Ordering::SeqCst);
                    }
                    other => panic!("unexpected reply {other:?}"),
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("writer thread");
    }
    assert!(
        overloaded.load(std::sync::atomic::Ordering::SeqCst) >= 1,
        "a one-slot queue under a burst of 8 must push back"
    );
    assert!(
        suggested.load(std::sync::atomic::Ordering::SeqCst) > 0,
        "backpressure suggests a retry delay"
    );

    // Backed-off retries eventually get through.
    let resp = client
        .call_retrying(&Request::UpdateDemand { a, b, circuits: 2 }, 50)
        .expect("retries eventually succeed");
    assert!(matches!(resp, Response::DemandAccepted { .. }));

    handle.shutdown();
}

#[test]
fn redundant_updates_coalesce_to_the_last_value() {
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        coalesce_window_ms: 300,
        ..ServiceConfig::default()
    };
    let mut handle = serve(region(15, 4), &config).expect("serve");
    let mut client = client_for(&handle);

    let topo = match client.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let (a, b) = (topo.allocation[0].a, topo.allocation[0].b);

    // Acks wait for the commit, so same-pair redundancy needs
    // concurrent writers: release 3 of them into one 300 ms gather
    // window, then land a final sequential write deterministically.
    let addr = handle.local_addr().to_string();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(3));
    let workers: Vec<_> = [2u32, 3, 4]
        .into_iter()
        .map(|circuits| {
            let (addr, barrier) = (addr.clone(), std::sync::Arc::clone(&barrier));
            std::thread::spawn(move || {
                let mut c = ServiceClient::connect_retry(&addr, 20, 25).expect("connect");
                barrier.wait();
                let resp = c
                    .call_retrying(&Request::UpdateDemand { a, b, circuits }, 20)
                    .unwrap();
                assert!(matches!(resp, Response::DemandAccepted { .. }));
            })
        })
        .collect();
    for w in workers {
        w.join().expect("writer thread");
    }
    match client
        .call_retrying(&Request::UpdateDemand { a, b, circuits: 5 }, 20)
        .unwrap()
    {
        Response::DemandAccepted { .. } => {}
        other => panic!("unexpected reply {other:?}"),
    }

    // Every enqueued update is either applied or coalesced away —
    // whatever the batch boundaries were.
    let deadline = Instant::now() + Duration::from_secs(10);
    let health = loop {
        if let Response::Health(h) = client.call(&Request::Health).unwrap() {
            if h.queue_depth == 0 && h.writes_applied + h.coalesced >= 4 {
                break h;
            }
        }
        assert!(Instant::now() < deadline, "updates never drained");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(health.writes_applied + health.coalesced, 4);
    assert!(
        health.coalesced >= 1,
        "a 300 ms window over a burst of 4 same-pair updates must coalesce"
    );

    let topo = match client.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let entry = topo
        .allocation
        .iter()
        .find(|e| (e.a, e.b) == (a, b))
        .unwrap();
    assert_eq!(entry.circuits, 5, "the last update wins");

    handle.shutdown();
}

#[test]
fn reads_are_served_from_snapshots_while_the_mutator_is_busy() {
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        coalesce_window_ms: 400,
        ..ServiceConfig::default()
    };
    let mut handle = serve(region(16, 4), &config).expect("serve");
    let mut writer = client_for(&handle);
    let mut reader = client_for(&handle);

    let topo = match writer.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let (a, b) = (topo.allocation[0].a, topo.allocation[0].b);
    let epoch_before = topo.epoch;

    // Park the mutator in its 400 ms coalesce window...
    writer
        .call(&Request::UpdateDemand { a, b, circuits: 2 })
        .unwrap();
    // ...and observe that reads neither block on it nor see its effects.
    let start = Instant::now();
    for _ in 0..20 {
        match reader.call(&Request::QueryPath { a, b }).unwrap() {
            Response::Path(p) => assert!(p.epoch <= epoch_before + 1),
            other => panic!("expected Path, got {other:?}"),
        }
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(350),
        "20 snapshot reads must not wait out the {:?} write window (took {elapsed:?})",
        Duration::from_millis(400),
    );

    handle.shutdown();
}

/// Keep bursts of 16 demand updates for one pair in flight, raising the
/// circuit count with every write, until the server goes away; returns
/// the circuit count of the last write it acknowledged (0: none).
fn hammer(addr: &str, (a, b): (usize, usize), acks: &AtomicU64) -> u32 {
    let client = ServiceClient::connect_retry(addr, 20, 25).expect("connect");
    let (mut sock, codec) = client.into_parts();
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let (mut unread, mut last_acked) = (Vec::new(), 0);
    for burst in 0u32.. {
        let circuits = 2 + 16 * burst..2 + 16 * (burst + 1);
        let mut frames = Vec::new();
        for circuits in circuits.clone() {
            let req = Request::UpdateDemand { a, b, circuits };
            append_frame(&mut frames, &encode_request(codec, &req).unwrap()).unwrap();
        }
        if sock.write_all(&frames).is_err() {
            break;
        }
        for circuits in circuits {
            let Ok(Some(frame)) = recv_frame(&mut sock, &mut unread) else {
                return last_acked;
            };
            if let Ok(Response::DemandAccepted { .. }) = decode_response(codec, &frame.payload) {
                last_acked = circuits;
                acks.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    last_acked
}

#[test]
fn shutdown_under_write_load_returns_and_keeps_every_acked_write() {
    let dir = std::env::temp_dir()
        .join("iris-service-tests")
        .join(format!("shutdown-under-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        wal_dir: Some(dir.display().to_string()),
        ..ServiceConfig::default()
    };
    let mut handle = serve(region(18, 5), &config).expect("serve");
    let topo = match client_for(&handle).call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let pairs: Vec<(usize, usize)> = topo.allocation[..4].iter().map(|e| (e.a, e.b)).collect();
    let addr = handle.local_addr().to_string();
    let acks = std::sync::Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = pairs
        .iter()
        .map(|&pair| {
            let (addr, acks) = (addr.clone(), std::sync::Arc::clone(&acks));
            std::thread::spawn(move || hammer(&addr, pair, &acks))
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while acks.load(Ordering::SeqCst) < 200 {
        assert!(Instant::now() < deadline, "the writers never got going");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The mutator may be blocked handing a batch to the syncer: shutdown
    // must still join both. It runs on a thread of its own so that a
    // deadlock fails this test instead of hanging it.
    let (done, stopped) = mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done.send(());
    });
    stopped
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown under write load did not return within 5 s");
    let last_acked: Vec<u32> = writers.into_iter().map(|w| w.join().unwrap()).collect();

    // Every acknowledged write survives: a restart (which runs
    // `recover()` over the WAL) holds at least the last acked circuit
    // count per pair; later, unacknowledged writes may have landed too.
    let mut restarted = serve(region(18, 5), &config).expect("recover");
    let recovered = restarted.current_snapshot();
    for (pair, acked) in pairs.iter().zip(last_acked) {
        assert!(acked > 0, "pair {pair:?} got no acknowledgement");
        assert!(
            recovered.allocation[pair] >= acked,
            "pair {pair:?}: acked {acked} circuits, recovered {}",
            recovered.allocation[pair]
        );
    }
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #[test]
    fn arbitrary_requests_survive_the_full_frame_codec(
        selector in 0usize..7,
        a in 0usize..64,
        b in 0usize..64,
        circuits in 0u32..512,
        cuts in proptest::collection::vec(0usize..256, 0..6),
    ) {
        let request = match selector {
            0 => Request::GetPlan,
            1 => Request::GetTopology,
            2 => Request::QueryPath { a, b },
            3 => Request::UpdateDemand { a, b, circuits },
            4 => Request::ReportFiberCut { cuts },
            5 => Request::Health,
            _ => Request::MetricsSnapshot,
        };
        // Encode to JSON, frame it, read the frame back, decode: the
        // whole wire path a real request takes.
        let payload = encode_request(Codec::Json, &request).expect("encode");
        let mut wire = Vec::new();
        append_frame(&mut wire, &payload).expect("frame");
        let (mut cursor, mut unread) = (std::io::Cursor::new(wire), Vec::new());
        let frame = recv_frame(&mut cursor, &mut unread).expect("read").expect("a frame");
        prop_assert_eq!(decode_request(Codec::Json, &frame.payload).expect("decode"), request);
        prop_assert_eq!(recv_frame(&mut cursor, &mut unread).expect("eof"), None);
    }
}
