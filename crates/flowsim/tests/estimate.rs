//! End-to-end validation of the flowsim estimator against the exact
//! engine, and of the distributed backend against the in-process one.

use iris_flowsim::coord::{estimate_with_trace, Backend, EstimateConfig, FleetConfig};
use iris_flowsim::proto::{
    decode_request, encode_response, WorkSpec, WorkerRequest, WorkerResponse,
};
use iris_flowsim::worker::{serve, spawn_ephemeral, WorkerConfig};
use iris_simnet::engine::{CapacityEvent, FabricModel, FlowRecord, SimConfig};
use iris_simnet::experiment::fct_quantile;
use iris_simnet::traffic::ChangeModel;
use iris_simnet::workloads::FlowSizeDist;
use iris_simnet::{SimTopology, TrafficMatrix};
use iris_wire::frame::append_frame;
use iris_wire::{recv_frame, Codec};
use proptest::prelude::*;
use std::io::Write as _;
use std::net::TcpListener;

fn spec(n_dcs: usize, seed: u64, utilization: f64, duration_s: f64) -> WorkSpec {
    WorkSpec {
        topo: SimTopology::hub_and_spoke(n_dcs, 1.0),
        matrix: TrafficMatrix::heavy_tailed(n_dcs, seed),
        config: SimConfig {
            duration_s,
            utilization,
            flow_sizes: FlowSizeDist::facebook_web(),
            change_interval_s: Some(1.0),
            change_model: ChangeModel::Bounded(0.5),
            fabric: FabricModel::Eps,
            capacity_events: Vec::new(),
            seed,
        },
    }
}

fn exact_cfg() -> EstimateConfig {
    EstimateConfig {
        cluster: false,
        ..EstimateConfig::default()
    }
}

/// Key records by arrival so exact and estimated runs can be joined
/// (the exact engine emits in completion order, the estimator in
/// arrival order — sort both on the identity key).
fn by_arrival(records: &[FlowRecord]) -> Vec<((u64, u64), f64)> {
    let mut keyed: Vec<((u64, u64), f64)> = records
        .iter()
        .map(|r| ((r.start_s.to_bits(), r.size_bytes.to_bits()), r.fct_s))
        .collect();
    keyed.sort_by_key(|&(k, _)| k);
    keyed
}

#[test]
fn single_pair_decomposition_matches_exact_per_flow() {
    // With one DC pair the decomposition is lossless: both spoke links
    // carry the identical flow set, so each per-link PS simulation sees
    // exactly the global max-min dynamics. Per-flow FCTs must agree to
    // float-integration precision.
    let spec = spec(2, 11, 0.6, 4.0);
    let trace = spec.trace();
    let exact = trace.replay(&spec.topo);
    let est = estimate_with_trace(&spec, &trace, &exact_cfg())
        .expect("in-process estimate")
        .records;
    assert!(!exact.is_empty(), "exact run completed no flows");
    assert_eq!(exact.len(), est.len(), "completed-flow sets differ");
    let exact_keyed = by_arrival(&exact);
    let est_keyed = by_arrival(&est);
    for ((ka, fct_a), (kb, fct_b)) in exact_keyed.iter().zip(&est_keyed) {
        assert_eq!(ka, kb, "flow identity mismatch");
        let tol = 1e-6 * fct_a.abs().max(1e-9);
        assert!(
            (fct_a - fct_b).abs() <= tol,
            "fct diverged: exact {fct_a} vs estimated {fct_b}"
        );
    }
}

proptest! {
    /// On small topologies (≤ 16 ducts) the no-cluster estimate must
    /// land in the same ballpark as the exact engine: p50 and p99 FCT
    /// within 3x either way, and comparable completion counts.
    #[test]
    fn decomposed_estimate_tracks_exact_engine(
        n_dcs in 2usize..=8,
        seed in 0u64..1000,
        utilization in 0.2f64..0.6,
    ) {
        let spec = spec(n_dcs, seed, utilization, 2.0);
        let trace = spec.trace();
        let exact = trace.replay(&spec.topo);
        prop_assume!(exact.len() >= 20);
        let est = estimate_with_trace(&spec, &trace, &exact_cfg())
            .expect("in-process estimate")
            .records;
        let count_ratio = est.len() as f64 / exact.len() as f64;
        prop_assert!(
            (0.8..=1.25).contains(&count_ratio),
            "completion counts diverged: exact {} vs estimated {}",
            exact.len(),
            est.len()
        );
        for q in [0.5, 0.99] {
            let a = fct_quantile(&exact, q, false).expect("exact quantile");
            let b = fct_quantile(&est, q, false).expect("estimated quantile");
            let ratio = b / a;
            prop_assert!(
                (1.0 / 3.0..=3.0).contains(&ratio),
                "p{} diverged: exact {a} vs estimated {b}",
                (q * 100.0) as u32
            );
        }
    }
}

#[test]
fn clustered_estimate_stays_close_to_exact_mode() {
    let spec = spec(12, 3, 0.5, 4.0);
    let trace = spec.trace();
    let exact_mode = estimate_with_trace(&spec, &trace, &exact_cfg()).expect("no-cluster estimate");
    let clustered =
        estimate_with_trace(&spec, &trace, &EstimateConfig::default()).expect("clustered estimate");
    assert!(
        clustered.links_simulated < exact_mode.links_simulated,
        "clustering simulated every link ({} of {})",
        clustered.links_simulated,
        exact_mode.links_occupied
    );
    for q in [0.5, 0.99] {
        let a = fct_quantile(&exact_mode.records, q, false).expect("exact-mode quantile");
        let b = fct_quantile(&clustered.records, q, false).expect("clustered quantile");
        let ratio = b / a;
        assert!(
            (0.75..=1.3).contains(&ratio),
            "clustered p{} drifted: {a} vs {b}",
            (q * 100.0) as u32
        );
    }
}

/// Byte-level equality of two record vectors (f64 bit patterns).
fn assert_bit_identical(a: &[FlowRecord], b: &[FlowRecord]) {
    assert_eq!(a.len(), b.len(), "record counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.pair, y.pair);
        assert_eq!(x.size_bytes.to_bits(), y.size_bytes.to_bits());
        assert_eq!(x.start_s.to_bits(), y.start_s.to_bits());
        assert_eq!(x.fct_s.to_bits(), y.fct_s.to_bits());
    }
}

#[test]
fn fleet_backend_is_byte_identical_to_in_process() {
    let spec = spec(6, 21, 0.5, 3.0);
    let trace = spec.trace();
    let local = estimate_with_trace(&spec, &trace, &EstimateConfig::default())
        .expect("in-process estimate");
    for n_workers in [1usize, 3] {
        let endpoints: Vec<String> = (0..n_workers)
            .map(|_| {
                spawn_ephemeral(WorkerConfig::default())
                    .expect("spawn worker")
                    .to_string()
            })
            .collect();
        let cfg = EstimateConfig {
            backend: Backend::Fleet(FleetConfig::new(endpoints)),
            ..EstimateConfig::default()
        };
        let fleet = estimate_with_trace(&spec, &trace, &cfg).expect("fleet estimate");
        assert_bit_identical(&local.records, &fleet.records);
        assert_eq!(local.links_simulated, fleet.links_simulated);
    }
}

#[test]
fn fleet_survives_a_dead_endpoint() {
    let spec = spec(5, 8, 0.5, 2.0);
    let trace = spec.trace();
    let local = estimate_with_trace(&spec, &trace, &EstimateConfig::default())
        .expect("in-process estimate");
    // Port 1 is never listening; that dispatcher retires after its
    // connect attempts and the live worker absorbs the requeued jobs.
    let live = spawn_ephemeral(WorkerConfig::default()).expect("spawn worker");
    let mut fleet = FleetConfig::new(vec!["127.0.0.1:1".to_owned(), live.to_string()]);
    fleet.connect_attempts = 1;
    fleet.backoff_base_ms = 1;
    fleet.backoff_cap_ms = 2;
    let cfg = EstimateConfig {
        backend: Backend::Fleet(fleet),
        ..EstimateConfig::default()
    };
    let out = estimate_with_trace(&spec, &trace, &cfg).expect("fleet estimate with dead peer");
    assert_bit_identical(&local.records, &out.records);
}

#[test]
fn a_lone_endpoint_that_drops_its_connection_is_redialled_and_reloaded() {
    let spec = spec(5, 8, 0.5, 2.0);
    let trace = spec.trace();
    let local = estimate_with_trace(&spec, &trace, &EstimateConfig::default())
        .expect("in-process estimate");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let (hung_up, first_connection) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // The first connection gets through the handshake and the spec,
        // then dies under its first job.
        let (mut sock, _) = listener.accept().expect("accept");
        let mut unread = Vec::new();
        let mut exchange = |codec: Codec, reply: Option<WorkerResponse>| {
            let Some(frame) = recv_frame(&mut sock, &mut unread).expect("a request") else {
                panic!("the coordinator hung up first");
            };
            if let Some(reply) = reply {
                let mut framed = Vec::new();
                append_frame(&mut framed, &encode_response(codec, &reply).unwrap()).unwrap();
                sock.write_all(&framed).unwrap();
            }
            decode_request(codec, &frame.payload).expect("a well-formed request")
        };
        let ack = WorkerResponse::HelloOk {
            codec: "binary".to_owned(),
        };
        let loaded = WorkerResponse::SpecLoaded { flows: 0, links: 0 };
        let asked = [
            exchange(Codec::Json, Some(ack)),
            exchange(Codec::Binary, Some(loaded)),
            exchange(Codec::Binary, None),
        ];
        drop(sock);
        hung_up.send(asked).expect("test alive");
        // The same port comes back as a real worker.
        let _ = serve(listener, WorkerConfig::default());
    });

    let mut fleet = FleetConfig::new(vec![addr]);
    fleet.backoff_base_ms = 1;
    fleet.backoff_cap_ms = 5;
    let cfg = EstimateConfig {
        backend: Backend::Fleet(fleet),
        ..EstimateConfig::default()
    };
    let out = estimate_with_trace(&spec, &trace, &cfg).expect("the endpoint came back");
    assert_bit_identical(&local.records, &out.records);
    let asked = first_connection
        .try_recv()
        .expect("the first connection was used");
    assert!(
        matches!(
            asked,
            [
                WorkerRequest::Hello { .. },
                WorkerRequest::LoadSpec { .. },
                WorkerRequest::RunLink { .. }
            ]
        ),
        "{asked:?}"
    );
}

#[test]
fn fleet_with_no_reachable_endpoint_reports_typed_failure() {
    let spec = spec(3, 2, 0.4, 1.0);
    let trace = spec.trace();
    let mut fleet = FleetConfig::new(vec!["127.0.0.1:1".to_owned()]);
    fleet.connect_attempts = 1;
    fleet.backoff_base_ms = 1;
    fleet.backoff_cap_ms = 2;
    let cfg = EstimateConfig {
        backend: Backend::Fleet(fleet),
        ..EstimateConfig::default()
    };
    let err = estimate_with_trace(&spec, &trace, &cfg).unwrap_err();
    assert!(
        matches!(err, iris_errors::IrisError::RetriesExhausted { .. }),
        "unexpected error: {err:?}"
    );
}

#[test]
fn in_process_backend_ignores_thread_count() {
    // IRIS_THREADS governs pool width, never results. (Set/remove is
    // process-global but harmless: no other test depends on widths.)
    let spec = spec(6, 13, 0.5, 2.0);
    let trace = spec.trace();
    std::env::set_var("IRIS_THREADS", "1");
    let one = estimate_with_trace(&spec, &trace, &EstimateConfig::default()).expect("1 thread");
    std::env::set_var("IRIS_THREADS", "4");
    let four = estimate_with_trace(&spec, &trace, &EstimateConfig::default()).expect("4 threads");
    std::env::remove_var("IRIS_THREADS");
    assert_bit_identical(&one.records, &four.records);
}

/// FNV-1a over every record's pair, size, start and FCT bits, in
/// record order: any float that moves changes it.
fn digest(records: &[FlowRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        let words = [
            r.pair.0 as u64,
            r.pair.1 as u64,
            r.size_bytes.to_bits(),
            r.start_s.to_bits(),
            r.fct_s.to_bits(),
        ];
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The estimator, pinned: record counts and digests captured at commit
/// 1288052, before each link's flows were put in size order once and
/// the nearest-size lookups became a forward merge. The spec has 12
/// DCs on spokes of three capacities (so members and their reps differ
/// in capacity), the Iris outage fabric, and one capacity event aimed
/// at a single spoke (so its timeline keeps it out of every cluster).
#[test]
fn estimate_reproduces_the_pinned_digests() {
    let mut work = spec(12, 5, 0.6, 4.0);
    for (l, link) in work.topo.links.iter_mut().enumerate() {
        link.capacity_gbps = [1.0, 1.5, 2.0][l % 3];
    }
    work.config.fabric = FabricModel::Iris { outage_s: 0.07 };
    work.config.capacity_events = vec![CapacityEvent {
        start_s: 1.5,
        duration_s: 0.8,
        capacity_factor: 0.25,
        links: Some(vec![4]),
    }];
    let trace = work.trace();
    for (cluster, (count, pinned)) in [
        (false, (13169, 0x5df4_fe22_89f8_7947)),
        (true, (13169, 0xa9f9_5d3e_34ba_d19d)),
    ] {
        let cfg = EstimateConfig {
            cluster,
            ..EstimateConfig::default()
        };
        let est = estimate_with_trace(&work, &trace, &cfg).expect("in-process estimate");
        if cluster {
            assert!(
                est.links_simulated < est.links_occupied,
                "no link was estimated from a representative"
            );
        }
        let got = (est.records.len(), digest(&est.records));
        assert_eq!(
            got,
            (count, pinned),
            "cluster {cluster}: got ({}, {:#018x})",
            got.0,
            got.1
        );
    }
}
