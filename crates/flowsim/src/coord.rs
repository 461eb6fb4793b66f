//! The coordinator: turn a [`WorkSpec`] into FCT records by fanning
//! per-link jobs out to a backend.
//!
//! Two backends share one job shape (simulate link *l* of the spec's
//! decomposition):
//!
//! * [`Backend::InProcess`] — link jobs mapped through
//!   `iris_planner::par_map`, the workspace's one order-preserving
//!   compute fan-out, with `iris_planner::thread_count()` workers (so
//!   `IRIS_THREADS` governs it like every other sweep in the
//!   workspace). Zero configuration, no sockets; the default.
//! * [`Backend::Fleet`] — socket workers. One dispatcher thread per
//!   endpoint pulls jobs from a shared queue, so a slow or dead worker
//!   merely contributes less; a job interrupted by a worker death is
//!   requeued (bounded by [`FleetConfig::max_job_attempts`]) and the
//!   dispatcher reconnects with seeded decorrelated-jitter backoff
//!   ([`iris_wire::Backoff`]). These threads block on socket I/O; they
//!   are not a compute fan-out and `IRIS_THREADS` does not size them. A
//!   permanently unreachable endpoint retires its dispatcher; the run
//!   fails only if *every* dispatcher retires with jobs outstanding.
//!
//! Either way the result is deterministic: jobs are pure functions of
//! the spec, results are keyed by link id, and the cross-link
//! combination is a commutative `max` — worker count, thread count,
//! scheduling, and chunk arrival order cannot change a byte of the
//! output.

use crate::cluster::{cluster_links, estimate_member, SlowdownTable};
use crate::decompose::{combine, Decomposition};
use crate::proto::{decode_response, encode_request, WorkSpec, WorkerRequest, WorkerResponse};
use iris_errors::{IrisError, IrisResult};
use iris_simnet::trace::FlowTrace;
use iris_simnet::FlowRecord;
use iris_wire::frame::{read_frame, write_frame, FrameEvent};
use iris_wire::{Backoff, Codec};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::Mutex;

/// Where link-simulation jobs run.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Scoped thread pool in this process (the default).
    InProcess,
    /// Socket-connected [`crate::worker`] fleet.
    Fleet(FleetConfig),
}

/// Fleet backend tuning.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker addresses (`host:port`).
    pub endpoints: Vec<String>,
    /// Wire codec after negotiation ([`Codec::Binary`] by default —
    /// results are dense `f64` vectors).
    pub codec: Codec,
    /// Seed for the reconnect jitter streams (dispatcher `i` derives
    /// its own stream from `seed + i`).
    pub seed: u64,
    /// Times a single job may fail (across reconnects and endpoints)
    /// before the run is abandoned.
    pub max_job_attempts: u32,
    /// Consecutive failed connects before a dispatcher retires its
    /// endpoint.
    pub connect_attempts: u32,
    /// Jitter backoff floor, ms.
    pub backoff_base_ms: u64,
    /// Jitter backoff cap, ms.
    pub backoff_cap_ms: u64,
}

impl FleetConfig {
    /// Defaults for a given endpoint list.
    #[must_use]
    pub fn new(endpoints: Vec<String>) -> Self {
        Self {
            endpoints,
            codec: Codec::Binary,
            seed: 1,
            max_job_attempts: 5,
            connect_attempts: 8,
            backoff_base_ms: 10,
            backoff_cap_ms: 500,
        }
    }
}

/// Estimator configuration.
#[derive(Debug, Clone)]
pub struct EstimateConfig {
    /// Cluster links and simulate one representative per cluster
    /// (`false` = exact-per-link mode, every occupied link simulated).
    pub cluster: bool,
    /// Feature-distance threshold for joining a cluster.
    pub epsilon: f64,
    /// Job backend.
    pub backend: Backend,
}

impl Default for EstimateConfig {
    fn default() -> Self {
        Self {
            cluster: true,
            epsilon: 0.02,
            backend: Backend::InProcess,
        }
    }
}

/// The estimator's output.
#[derive(Debug)]
pub struct EstimateReport {
    /// Estimated completed-flow records, in flow arrival order.
    pub records: Vec<FlowRecord>,
    /// Admitted flows in the trace.
    pub flows: usize,
    /// Links carrying at least one flow.
    pub links_occupied: usize,
    /// Links actually simulated (cluster representatives).
    pub links_simulated: usize,
    /// Clusters formed (== `links_simulated`).
    pub clusters: usize,
}

/// Estimate FCTs for `spec`: generate the trace, decompose, cluster,
/// simulate, combine.
///
/// # Errors
///
/// Fails only on fleet-backend transport exhaustion; the in-process
/// backend is infallible.
pub fn estimate(spec: &WorkSpec, cfg: &EstimateConfig) -> IrisResult<EstimateReport> {
    let trace = spec.trace();
    estimate_with_trace(spec, &trace, cfg)
}

/// [`estimate`] for callers that already materialized the trace (e.g.
/// to also replay it through the exact engine for validation).
///
/// # Errors
///
/// See [`estimate`].
pub fn estimate_with_trace(
    spec: &WorkSpec,
    trace: &FlowTrace,
    cfg: &EstimateConfig,
) -> IrisResult<EstimateReport> {
    let telemetry = iris_telemetry::global();
    let dec = Decomposition::build(&spec.topo, trace);
    let occupied = dec.occupied_links();
    let clusters = if cfg.cluster {
        cluster_links(&spec.topo, &dec, &occupied, cfg.epsilon)
    } else {
        occupied
            .iter()
            .map(|&rep| crate::cluster::Cluster {
                rep,
                members: Vec::new(),
            })
            .collect()
    };
    let reps: Vec<usize> = clusters.iter().map(|c| c.rep).collect();
    let rep_finishes: Vec<Vec<f64>> = match &cfg.backend {
        Backend::InProcess => run_in_process(spec, &dec, &reps),
        Backend::Fleet(fleet) => run_fleet(spec, &dec, &reps, fleet)?,
    };
    telemetry
        .counter("iris_flowsim_links_simulated_total")
        .add(reps.len() as u64);

    let mut results: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut estimated = 0u64;
    for (cluster, finishes) in clusters.iter().zip(rep_finishes) {
        if !cluster.members.is_empty() {
            let table = SlowdownTable::build(&spec.topo, &dec, cluster.rep, &finishes);
            for &m in &cluster.members {
                results.push((m, estimate_member(&spec.topo, &dec, m, &table)));
                estimated += 1;
            }
        }
        results.push((cluster.rep, finishes));
    }
    telemetry
        .counter("iris_flowsim_links_estimated_total")
        .add(estimated);
    let records = combine(&spec.topo, &dec, results);
    Ok(EstimateReport {
        records,
        flows: dec.flows.len(),
        links_occupied: occupied.len(),
        links_simulated: reps.len(),
        clusters: clusters.len(),
    })
}

/// Simulate `reps` through the shared fan-out; results align with `reps`.
fn run_in_process(spec: &WorkSpec, dec: &Decomposition, reps: &[usize]) -> Vec<Vec<f64>> {
    iris_planner::par_map(iris_planner::thread_count(), reps, |_, &link| {
        dec.simulate(&spec.topo, link)
    })
}

/// One dispatcher's live connection.
struct Conn {
    stream: TcpStream,
    codec: Codec,
}

/// Fan `reps` out to the fleet; results align with `reps`.
fn run_fleet(
    spec: &WorkSpec,
    dec: &Decomposition,
    reps: &[usize],
    fleet: &FleetConfig,
) -> IrisResult<Vec<Vec<f64>>> {
    if fleet.endpoints.is_empty() {
        return Err(IrisError::InvalidInput {
            detail: "fleet backend needs at least one worker endpoint".to_owned(),
        });
    }
    let telemetry = iris_telemetry::global();
    let queue: Mutex<VecDeque<(usize, u32)>> =
        Mutex::new(reps.iter().enumerate().map(|(i, _)| (i, 0)).collect());
    let slots: Vec<Mutex<Option<Vec<f64>>>> = reps.iter().map(|_| Mutex::new(None)).collect();
    let fatal: Mutex<Option<IrisError>> = Mutex::new(None);
    // Jobs not yet completed. An empty queue with `remaining > 0` means
    // another dispatcher holds a job in flight — it will either finish
    // it or requeue it, so idle dispatchers wait instead of exiting.
    // (An incomplete job is always either queued or in flight, so the
    // wait cannot deadlock; if every dispatcher retires unreachable the
    // scope still ends and the unfilled slot reports the failure.)
    let remaining = std::sync::atomic::AtomicUsize::new(reps.len());

    std::thread::scope(|s| {
        for (worker_idx, endpoint) in fleet.endpoints.iter().enumerate() {
            let queue = &queue;
            let slots = &slots;
            let fatal = &fatal;
            let remaining = &remaining;
            s.spawn(move || {
                use std::sync::atomic::Ordering;
                let mut backoff = Backoff::new(
                    fleet.backoff_base_ms,
                    fleet.backoff_cap_ms,
                    fleet.seed.wrapping_add(worker_idx as u64),
                );
                let mut conn: Option<Conn> = None;
                loop {
                    if fatal.lock().expect("fatal lock").is_some() {
                        return;
                    }
                    let popped = queue.lock().expect("queue lock").pop_front();
                    let Some((job, attempts)) = popped else {
                        if remaining.load(Ordering::Relaxed) == 0 {
                            return;
                        }
                        // Another dispatcher holds the outstanding
                        // job(s) in flight; it will finish or requeue.
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        continue;
                    };
                    if attempts >= fleet.max_job_attempts {
                        *fatal.lock().expect("fatal lock") = Some(IrisError::RetriesExhausted {
                            phase: format!("flowsim link job {}", reps[job]),
                            attempts,
                            last_error: "worker fleet kept failing the job".to_owned(),
                        });
                        return;
                    }
                    // Ensure a connection with the spec installed.
                    if conn.is_none() {
                        match connect(endpoint, spec, fleet, &mut backoff) {
                            Ok(c) => {
                                conn = Some(c);
                                backoff.reset();
                            }
                            Err(_) => {
                                // Endpoint unreachable: requeue and
                                // retire this dispatcher.
                                queue.lock().expect("queue lock").push_back((job, attempts));
                                return;
                            }
                        }
                    }
                    let c = conn.as_mut().expect("connected");
                    match run_link(c, reps[job], dec.link_flows[reps[job]].len()) {
                        Ok(finishes) => {
                            *slots[job].lock().expect("slot lock") = Some(finishes);
                            remaining.fetch_sub(1, Ordering::Relaxed);
                            iris_telemetry::global()
                                .counter("iris_flowsim_jobs_total")
                                .add(1);
                        }
                        Err(_) => {
                            // Worker died or answered garbage: drop the
                            // connection, requeue with one more strike.
                            conn = None;
                            iris_telemetry::global()
                                .counter("iris_flowsim_job_retries_total")
                                .add(1);
                            queue
                                .lock()
                                .expect("queue lock")
                                .push_back((job, attempts + 1));
                            nap(&mut backoff);
                        }
                    }
                }
            });
        }
    });

    if let Some(e) = fatal.into_inner().expect("fatal lock") {
        return Err(e);
    }
    let mut out = Vec::with_capacity(reps.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().expect("slot lock") {
            Some(f) => out.push(f),
            None => {
                return Err(IrisError::RetriesExhausted {
                    phase: format!("flowsim link job {}", reps[i]),
                    attempts: 0,
                    last_error: "every worker endpoint became unreachable".to_owned(),
                })
            }
        }
    }
    telemetry.counter("iris_flowsim_fleet_runs_total").add(1);
    Ok(out)
}

/// Sleep for the schedule's next delay.
fn nap(backoff: &mut Backoff) {
    std::thread::sleep(std::time::Duration::from_millis(backoff.next_delay_ms()));
}

/// Connect to `endpoint`, negotiate the codec, install the spec.
/// Retries transport failures with jittered backoff up to
/// `connect_attempts` times.
fn connect(
    endpoint: &str,
    spec: &WorkSpec,
    fleet: &FleetConfig,
    backoff: &mut Backoff,
) -> IrisResult<Conn> {
    let mut last = IrisError::Io {
        detail: format!("never attempted {endpoint}"),
    };
    for attempt in 0..fleet.connect_attempts {
        if attempt > 0 {
            nap(backoff);
        }
        match try_connect(endpoint, spec, fleet.codec) {
            Ok(conn) => {
                if attempt > 0 {
                    iris_telemetry::global()
                        .counter("iris_flowsim_reconnects_total")
                        .add(1);
                }
                return Ok(conn);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

fn try_connect(endpoint: &str, spec: &WorkSpec, codec: Codec) -> IrisResult<Conn> {
    let stream = TcpStream::connect(endpoint).map_err(|e| IrisError::Io {
        detail: format!("connect {endpoint}: {e}"),
    })?;
    stream.set_nodelay(true).ok();
    let mut conn = Conn {
        stream,
        codec: Codec::Json,
    };
    if codec != Codec::Json {
        let ack = roundtrip(
            &mut conn,
            &WorkerRequest::Hello {
                codec: codec.name().to_owned(),
            },
        )?;
        match ack {
            WorkerResponse::HelloOk { .. } => conn.codec = codec,
            other => return Err(unexpected("Hello", &other)),
        }
    }
    let load = WorkerRequest::LoadSpec {
        spec: Box::new(spec.clone()),
    };
    match roundtrip(&mut conn, &load)? {
        WorkerResponse::SpecLoaded { .. } => Ok(conn),
        other => Err(unexpected("LoadSpec", &other)),
    }
}

/// Run one link job on a live connection, reassembling chunks.
fn run_link(conn: &mut Conn, link: usize, expected_flows: usize) -> IrisResult<Vec<f64>> {
    write_frame(
        &mut conn.stream,
        &encode_request(conn.codec, &WorkerRequest::RunLink { link })?,
    )?;
    let mut finishes: Vec<f64> = Vec::with_capacity(expected_flows);
    loop {
        match read_response(conn)? {
            WorkerResponse::LinkChunk {
                link: got,
                offset,
                finish_s,
                done,
            } => {
                if got != link || offset != finishes.len() {
                    return Err(IrisError::Decode {
                        detail: format!(
                            "link {link} chunk misaligned: got link {got} offset {offset}, \
                             expected offset {}",
                            finishes.len()
                        ),
                    });
                }
                finishes.extend_from_slice(&finish_s);
                if done {
                    if finishes.len() != expected_flows {
                        return Err(IrisError::Decode {
                            detail: format!(
                                "link {link}: worker returned {} finishes, expected {}",
                                finishes.len(),
                                expected_flows
                            ),
                        });
                    }
                    return Ok(finishes);
                }
            }
            other => return Err(unexpected("RunLink", &other)),
        }
    }
}

fn roundtrip(conn: &mut Conn, req: &WorkerRequest) -> IrisResult<WorkerResponse> {
    write_frame(&mut conn.stream, &encode_request(conn.codec, req)?)?;
    read_response(conn)
}

fn read_response(conn: &mut Conn) -> IrisResult<WorkerResponse> {
    match read_frame(&mut conn.stream)? {
        FrameEvent::Frame(payload) => decode_response(conn.codec, &payload),
        FrameEvent::Eof | FrameEvent::Idle => Err(IrisError::Io {
            detail: "worker closed the connection mid-reply".to_owned(),
        }),
    }
}

fn unexpected(what: &str, resp: &WorkerResponse) -> IrisError {
    match resp {
        WorkerResponse::Error { error } => error.clone(),
        other => IrisError::Decode {
            detail: format!("unexpected worker reply to {what}: {other:?}"),
        },
    }
}
