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
//!   requeued (at most [`MAX_JOB_ATTEMPTS`] times) and the dispatcher
//!   re-dials through its [`iris_wire::PeerLink`], installing the spec
//!   again. These threads block on socket I/O; `IRIS_THREADS` does not
//!   size them. A permanently unreachable endpoint retires its
//!   dispatcher; the run fails only if *every* one retires with jobs
//!   outstanding.
//!
//! Either way the result is deterministic: jobs are pure functions of
//! the spec, results are keyed by link id, and the cross-link
//! combination is a commutative `max` — worker count, thread count,
//! scheduling, and chunk arrival order cannot change a byte of the
//! output.

use crate::cluster::{cluster_links, estimate_member, SlowdownTable};
use crate::decompose::{combine, Decomposition};
use crate::proto::{WorkSpec, Worker, WorkerRequest, WorkerResponse};
use iris_errors::{IrisError, IrisResult};
use iris_simnet::trace::FlowTrace;
use iris_simnet::FlowRecord;
use iris_wire::{Backoff, Client, PeerLink, Protocol};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Times a single job may fail (across reconnects and endpoints) before
/// the run is abandoned.
pub const MAX_JOB_ATTEMPTS: u32 = 5;

/// Dispatcher `i` draws its reconnect jitter from stream `RECONNECT_SEED + i`.
const RECONNECT_SEED: u64 = 1;

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
}

/// Estimate FCTs for `spec`: generate the trace, decompose, cluster,
/// simulate, combine.
///
/// # Errors
///
/// Fails only on fleet-backend transport exhaustion; the in-process
/// backend is infallible.
pub fn estimate(spec: &WorkSpec, cfg: &EstimateConfig) -> IrisResult<EstimateReport> {
    // The trace is dropped once decomposed, before any link runs.
    let dec = Decomposition::build(&spec.topo, &spec.trace());
    estimate_decomposed(spec, dec, cfg)
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
    estimate_decomposed(spec, Decomposition::build(&spec.topo, trace), cfg)
}

/// Cluster, simulate and combine a decomposed trace.
fn estimate_decomposed(
    spec: &WorkSpec,
    dec: Decomposition,
    cfg: &EstimateConfig,
) -> IrisResult<EstimateReport> {
    let telemetry = iris_telemetry::global();
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
    })
}

/// Simulate `reps` through the shared fan-out; results align with `reps`.
fn run_in_process(spec: &WorkSpec, dec: &Decomposition, reps: &[usize]) -> Vec<Vec<f64>> {
    iris_planner::par_map(iris_planner::thread_count(), reps, |_, &link| {
        dec.simulate(&spec.topo, link)
    })
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
    // `(index into reps, strikes so far)`.
    let queue: Mutex<VecDeque<(usize, u32)>> =
        Mutex::new((0..reps.len()).map(|job| (job, 0)).collect());
    let slots: Vec<Mutex<Option<Vec<f64>>>> = reps.iter().map(|_| Mutex::new(None)).collect();
    let fatal: Mutex<Option<IrisError>> = Mutex::new(None);
    // Jobs not yet completed. An incomplete job is always either queued
    // or in flight on a dispatcher that will finish or requeue it, so an
    // idle dispatcher waits for `remaining == 0` instead of exiting; if
    // every dispatcher retires, an unfilled slot reports the failure.
    let remaining = AtomicUsize::new(reps.len());

    std::thread::scope(|s| {
        for (worker_idx, endpoint) in fleet.endpoints.iter().enumerate() {
            let (queue, slots, fatal, remaining) = (&queue, &slots, &fatal, &remaining);
            let seed = RECONNECT_SEED.wrapping_add(worker_idx as u64);
            let backoff = Backoff::new(fleet.backoff_base_ms, fleet.backoff_cap_ms, seed);
            let mut link = PeerLink::<Worker>::new(endpoint, None, backoff);
            s.spawn(move || {
                let requeue = |job| queue.lock().expect("queue lock").push_back(job);
                let mut failed_dials = 0;
                loop {
                    if fatal.lock().expect("fatal lock").is_some() {
                        return;
                    }
                    let popped = queue.lock().expect("queue lock").pop_front();
                    let Some((job, strikes)) = popped else {
                        if remaining.load(Ordering::Relaxed) == 0 {
                            return;
                        }
                        // Another dispatcher holds the outstanding
                        // job(s) in flight; it will finish or requeue.
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    };
                    if strikes >= MAX_JOB_ATTEMPTS {
                        *fatal.lock().expect("fatal lock") = Some(IrisError::RetriesExhausted {
                            phase: format!("flowsim link job {}", reps[job]),
                            attempts: strikes,
                            last_error: "worker fleet kept failing the job".to_owned(),
                        });
                        return;
                    }
                    let worker = match link.session(|fresh| load_spec(fresh, spec)) {
                        Ok(worker) => worker,
                        Err(_) => {
                            // No strike for a failed dial, but a run of
                            // them retires this dispatcher.
                            requeue((job, strikes));
                            failed_dials += 1;
                            if failed_dials >= fleet.connect_attempts {
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(link.fail()));
                            continue;
                        }
                    };
                    if std::mem::take(&mut failed_dials) > 0 {
                        telemetry.counter("iris_flowsim_reconnects_total").add(1);
                    }
                    match run_link(worker, reps[job], dec.link_flows[reps[job]].len()) {
                        Ok(finishes) => {
                            *slots[job].lock().expect("slot lock") = Some(finishes);
                            remaining.fetch_sub(1, Ordering::Relaxed);
                            telemetry.counter("iris_flowsim_jobs_total").add(1);
                        }
                        Err(_) => {
                            // Worker died or answered garbage: requeue
                            // with one more strike, start a new session.
                            telemetry.counter("iris_flowsim_job_retries_total").add(1);
                            requeue((job, strikes + 1));
                            std::thread::sleep(Duration::from_millis(link.fail()));
                        }
                    }
                }
            });
        }
    });

    if let Some(e) = fatal.into_inner().expect("fatal lock") {
        return Err(e);
    }
    let finished = slots.into_iter().zip(reps).map(|(slot, rep)| {
        let unfilled = || IrisError::RetriesExhausted {
            phase: format!("flowsim link job {rep}"),
            attempts: 0,
            last_error: "every worker endpoint became unreachable".to_owned(),
        };
        slot.into_inner().expect("slot lock").ok_or_else(unfilled)
    });
    let out = finished.collect::<IrisResult<Vec<_>>>()?;
    telemetry.counter("iris_flowsim_fleet_runs_total").add(1);
    Ok(out)
}

/// The resume step of a dispatcher's session: install the spec.
fn load_spec(worker: &mut Client<Worker>, spec: &WorkSpec) -> IrisResult<()> {
    let load = WorkerRequest::LoadSpec {
        spec: Box::new(spec.clone()),
    };
    match Worker::into_result(worker.call(&load, None)?)? {
        WorkerResponse::SpecLoaded { .. } => Ok(()),
        other => Err(unexpected("LoadSpec", &other)),
    }
}

/// Run one link job on a live connection, reassembling chunks.
fn run_link(
    worker: &mut Client<Worker>,
    link: usize,
    expected_flows: usize,
) -> IrisResult<Vec<f64>> {
    worker.send(&WorkerRequest::RunLink { link }, None)?;
    let mut finishes: Vec<f64> = Vec::with_capacity(expected_flows);
    let misaligned = |detail: String| IrisError::Decode {
        detail: format!("link {link} chunks misaligned: {detail}"),
    };
    loop {
        let (got, offset, finish_s, done) = match Worker::into_result(worker.recv()?)? {
            WorkerResponse::LinkChunk {
                link,
                offset,
                finish_s,
                done,
            } => (link, offset, finish_s, done),
            other => return Err(unexpected("RunLink", &other)),
        };
        let have = finishes.len();
        if got != link || offset != have {
            return Err(misaligned(format!(
                "got link {got} offset {offset}, expected offset {have}"
            )));
        }
        finishes.extend_from_slice(&finish_s);
        if done {
            let have = finishes.len();
            if have != expected_flows {
                return Err(misaligned(format!(
                    "{have} finishes in all, expected {expected_flows}"
                )));
            }
            return Ok(finishes);
        }
    }
}

fn unexpected(what: &str, reply: &WorkerResponse) -> IrisError {
    IrisError::Decode {
        detail: format!("unexpected worker reply to {what}: {reply:?}"),
    }
}
