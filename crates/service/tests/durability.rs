//! Crash-recovery end-to-end tests: a server with a WAL dies (cleanly
//! or with a torn log tail) and a restarted server must republish a
//! byte-identical `StateSnapshot` — same epoch, same allocation, same
//! paths, same `last_recovery` — as both the pre-crash server and an
//! uninterrupted same-sequence run.

use iris_fibermap::{synth, MetroParams, PlacementParams, Region};
use iris_service::api::{Request, Response};
use iris_service::codec::{decode_response, encode_request};
use iris_service::frame::append_frame;
use iris_service::{serve, ServiceClient, ServiceConfig};
use iris_wire::recv_frame;
use std::io::Write;
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
        .join("iris-durability-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: Option<&PathBuf>, snapshot_every: u64) -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        cuts: 1,
        wal_dir: dir.map(|d| d.display().to_string()),
        snapshot_every,
        ..ServiceConfig::default()
    }
}

fn client_for(handle: &iris_service::ServiceHandle) -> ServiceClient {
    ServiceClient::connect_retry(&handle.local_addr().to_string(), 20, 25).expect("connect")
}

/// Wait until the server has applied `writes` writes with an empty queue.
fn wait_for_writes(client: &mut ServiceClient, writes: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Response::Health(h) = client.call(&Request::Health).expect("health") {
            if h.writes_applied >= writes && h.queue_depth == 0 {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never applied {writes} writes"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Apply a fixed write sequence, one batch per write (each write is
/// fenced by a Health wait, so batching — and therefore the epoch
/// sequence — is identical across runs): three demand updates, a fiber
/// cut on the first allocated pair's path, one post-cut update.
fn apply_workload(client: &mut ServiceClient) {
    let topo = match client.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let (a, b) = (topo.allocation[0].a, topo.allocation[0].b);
    let (c, d) = (topo.allocation[1].a, topo.allocation[1].b);

    let mut writes = 0u64;
    for (pa, pb, circuits) in [(a, b, 3u32), (c, d, 2), (a, b, 4)] {
        let resp = client
            .call_retrying(
                &Request::UpdateDemand {
                    a: pa,
                    b: pb,
                    circuits,
                },
                50,
            )
            .unwrap();
        assert!(matches!(resp, Response::DemandAccepted { .. }), "{resp:?}");
        writes += 1;
        wait_for_writes(client, writes);
    }

    let path = match client.call(&Request::QueryPath { a, b }).unwrap() {
        Response::Path(p) => p,
        other => panic!("expected Path, got {other:?}"),
    };
    let cut = path.edges[0];
    match client
        .call_retrying(&Request::ReportFiberCut { cuts: vec![cut] }, 50)
        .unwrap()
    {
        Response::Recovery(r) => assert_eq!(r.cuts, vec![cut]),
        other => panic!("expected Recovery, got {other:?}"),
    }
    writes += 1;
    wait_for_writes(client, writes);

    let resp = client
        .call_retrying(
            &Request::UpdateDemand {
                a: c,
                b: d,
                circuits: 5,
            },
            50,
        )
        .unwrap();
    assert!(matches!(resp, Response::DemandAccepted { .. }), "{resp:?}");
    wait_for_writes(client, writes + 1);
}

#[test]
fn restarted_server_republishes_the_pre_crash_snapshot_byte_identically() {
    let dir = wal_dir("restart");

    // Run 1: durable server, full workload, then die.
    let mut first = serve(region(31, 5), &config(Some(&dir), 0)).expect("serve");
    let mut client = client_for(&first);
    apply_workload(&mut client);
    let pre_crash = first.current_snapshot().canonical_json();
    drop(client);
    first.shutdown();

    // Reference: an uninterrupted memory-only server, same region, same
    // fenced workload — what the state *should* be.
    let mut reference = serve(region(31, 5), &config(None, 0)).expect("serve reference");
    let mut client = client_for(&reference);
    apply_workload(&mut client);
    let uninterrupted = reference.current_snapshot().canonical_json();
    drop(client);
    reference.shutdown();
    assert_eq!(
        pre_crash, uninterrupted,
        "durable and memory-only servers must publish identical state"
    );

    // Run 2: restart over the same WAL dir. Recovery must republish the
    // pre-crash snapshot byte-for-byte, before any new write.
    let mut second = serve(region(31, 5), &config(Some(&dir), 0)).expect("recover");
    let stats = second.replay_stats().expect("durable server has stats");
    assert_eq!(stats.from_snapshot_epoch, None, "no compaction ran");
    assert_eq!(stats.replayed_batches, 5);
    assert_eq!(stats.truncated_bytes, 0);
    assert!(stats.replay_reconfig_ms > 0.0);
    assert_eq!(
        second.current_snapshot().canonical_json(),
        pre_crash,
        "recovered snapshot must be byte-identical"
    );

    // And the recovered server keeps serving: one more write advances
    // the epoch from the recovered one.
    let mut client = client_for(&second);
    let epoch = second.current_snapshot().epoch;
    let topo = match client.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let (a, b) = (topo.allocation[0].a, topo.allocation[0].b);
    client
        .call_retrying(&Request::UpdateDemand { a, b, circuits: 7 }, 50)
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while second.current_snapshot().epoch <= epoch {
        assert!(Instant::now() < deadline, "write never applied");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(second.current_snapshot().epoch, epoch + 1);
    drop(client);
    second.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_salvaged_on_restart() {
    let dir = wal_dir("torn");

    let mut first = serve(region(32, 5), &config(Some(&dir), 0)).expect("serve");
    let mut client = client_for(&first);
    apply_workload(&mut client);
    let pre_crash = first.current_snapshot().canonical_json();
    drop(client);
    first.shutdown();

    // A crash mid-append: a record header promising bytes that never
    // made it to disk.
    let log = dir.join("iris.wal");
    let mut bytes = std::fs::read(&log).expect("read log");
    bytes.extend_from_slice(&200u32.to_be_bytes());
    bytes.extend_from_slice(&0u32.to_be_bytes());
    bytes.extend_from_slice(b"partial");
    std::fs::write(&log, &bytes).expect("tear log");

    let mut second = serve(region(32, 5), &config(Some(&dir), 0)).expect("recover");
    let stats = second.replay_stats().expect("stats");
    assert_eq!(stats.replayed_batches, 5, "all complete records replayed");
    assert_eq!(stats.truncated_bytes, 15, "the torn tail was dropped");
    assert_eq!(
        second.current_snapshot().canonical_json(),
        pre_crash,
        "salvaged recovery must equal the last fsync'd state"
    );
    second.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_mid_sequence_recovers_identically() {
    let dir = wal_dir("compaction");

    // snapshot_every = 2: the workload's 5 batches compact twice, so
    // recovery restores a snapshot *and* replays a log suffix.
    let mut first = serve(region(33, 5), &config(Some(&dir), 2)).expect("serve");
    let mut client = client_for(&first);
    apply_workload(&mut client);
    let pre_crash = first.current_snapshot().canonical_json();
    drop(client);
    first.shutdown();
    assert!(
        dir.join("snapshot.json").exists(),
        "compaction must have produced a snapshot"
    );

    let mut second = serve(region(33, 5), &config(Some(&dir), 2)).expect("recover");
    let stats = second.replay_stats().expect("stats");
    assert_eq!(stats.from_snapshot_epoch, Some(4), "compacted at batch 4");
    assert_eq!(stats.replayed_batches, 1, "only the post-snapshot suffix");
    assert_eq!(
        second.current_snapshot().canonical_json(),
        pre_crash,
        "snapshot + suffix replay must equal the pre-crash state"
    );
    second.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

/// Send `writes` demand updates for one pair down one connection in a
/// single burst, then read every reply; returns how many were accepted.
fn pipelined_updates(addr: &str, (a, b): (usize, usize), writes: u32) -> u64 {
    let client = ServiceClient::connect_retry(addr, 20, 25).expect("connect");
    let (mut sock, codec) = client.into_parts();
    let mut burst = Vec::new();
    for circuits in 2..2 + writes {
        let req = Request::UpdateDemand { a, b, circuits };
        append_frame(&mut burst, &encode_request(codec, &req).unwrap()).unwrap();
    }
    sock.write_all(&burst).expect("pipelined writes");
    let mut unread = Vec::new();
    let accepted = (0..writes).filter(|_| {
        let frame = recv_frame(&mut sock, &mut unread)
            .unwrap()
            .expect("a reply");
        let reply = decode_response(codec, &frame.payload).unwrap();
        matches!(reply, Response::DemandAccepted { .. })
    });
    accepted.count() as u64
}

#[test]
fn group_commit_batches_pipelined_writes_with_no_window() {
    // The default config has no coalesce window: batching comes only
    // from writes queueing while the previous group fsync is in flight.
    let dir = wal_dir("batching");
    let mut handle = serve(region(34, 5), &config(Some(&dir), 0)).expect("serve");
    let mut client = client_for(&handle);
    let topo = match client.call(&Request::GetTopology).unwrap() {
        Response::Topology(t) => t,
        other => panic!("expected Topology, got {other:?}"),
    };
    let addr = handle.local_addr().to_string();
    let acked: u64 = std::thread::scope(|s| {
        let writers: Vec<_> = topo.allocation[..4]
            .iter()
            .map(|e| s.spawn(|| pipelined_updates(&addr, (e.a, e.b), 50)))
            .collect();
        writers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    let records = match client.call(&Request::Health).unwrap() {
        Response::Health(h) => h.wal_records,
        other => panic!("expected Health, got {other:?}"),
    };
    assert!(acked > 0, "no write was accepted");
    assert!(
        records * 2 < acked,
        "{records} WAL records for {acked} acknowledged writes: group commit did not batch"
    );
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
