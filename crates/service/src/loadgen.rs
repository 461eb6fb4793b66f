//! Seeded load generator driving every connection from one event loop.
//!
//! `connections` client connections each replay a deterministic, seeded
//! mix of reads (`GetPlan`, `GetTopology`, `QueryPath`, `Health`) and
//! writes (`UpdateDemand`); connection 0 optionally injects a
//! `ReportFiberCut` halfway through its sequence so read tail latency
//! can be observed *while a recovery is in flight*. All connections are
//! multiplexed onto a single non-blocking poller thread, so scaling
//! `--connections` costs sockets, not OS threads, and `--pipeline`
//! keeps several requests in flight per connection. Closed loop is the
//! default; `--rate` switches to an open loop where arrivals follow a
//! seeded exponential schedule and latency includes queueing delay.
//!
//! Each DC pair is owned by exactly one connection (updates for a pair
//! are totally ordered), which makes the final allocation — and
//! everything else in [`LoadResults`] — a pure function of the seed and
//! the region. When the server sheds an `UpdateDemand` with
//! `Overloaded`, the driver re-sends it only while it is still the
//! *latest* update sent for its pair; a superseded retry is dropped, so
//! pipelined retries can never reorder a pair's final value. Wall-clock
//! measurements (latency percentiles, throughput, realized coalescing)
//! are split into [`MeasuredStats`], which is printed but never
//! serialized, so `results/service_load.json` is byte-identical across
//! runs, machines, codecs, pipeline depths and worker-thread counts.

use crate::api::{AllocEntry, RecoverySummary, Request, Response};
use crate::client::ServiceClient;
use crate::codec::{self, Codec};
use iris_errors::{IrisError, IrisResult};
use iris_planner::workload::{pair_index, weighted_pick};
use iris_poll::{Event, Poller};
use iris_wire::FramedConn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Seed for the request mix (and the open-loop arrival schedule).
    pub seed: u64,
    /// Total request budget, split evenly across connections (the split
    /// is exact: the effective total is `requests / connections *
    /// connections`).
    pub requests: u64,
    /// Concurrent client connections (all driven by one event loop).
    pub connections: usize,
    /// Ducts connection 0 cuts halfway through its sequence; empty for a
    /// pure read/write run.
    pub cuts: Vec<usize>,
    /// `UpdateDemand` circuit counts are drawn from `1..=max_circuits`
    /// (never 0, so no pair ever loses its path state).
    pub max_circuits: u32,
    /// Idle-baseline reads issued before the load phase, to calibrate
    /// read tail latency on an unloaded server.
    pub baseline_requests: u64,
    /// Wire codec every connection negotiates before the run (JSON is
    /// the protocol default and needs no `Hello`).
    pub codec: Codec,
    /// Requests kept in flight per connection in closed-loop mode
    /// (clamped to at least 1). Ignored by open-loop runs.
    pub pipeline: usize,
    /// Open-loop target arrival rate in requests/s across all
    /// connections, with seeded exponential inter-arrivals; `None` runs
    /// the default closed loop.
    pub rate: Option<f64>,
    /// Planner workload family biasing pair selection: when set,
    /// `QueryPath` and `UpdateDemand` draw pairs proportionally to the
    /// family's mean per-pair rate instead of uniformly, so serving load
    /// mirrors the traffic matrices the planner provisioned for. `None`
    /// (the default) keeps the historical uniform mix — and the
    /// committed `results/service_load.json` — byte-identical.
    pub matrices: Option<iris_planner::FamilySpec>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7117".to_owned(),
            seed: 7,
            requests: 2000,
            connections: 4,
            cuts: Vec::new(),
            max_circuits: 4,
            baseline_requests: 200,
            codec: Codec::Json,
            pipeline: 1,
            rate: None,
            matrices: None,
        }
    }
}

/// One operation's share of the generated mix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCount {
    /// Operation name ([`Request::op`]).
    pub op: String,
    /// Requests generated.
    pub count: u64,
}

/// The injected cut and its (modeled, deterministic) recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CutOutcome {
    /// Ducts cut.
    pub cuts: Vec<usize>,
    /// Position in connection 0's sequence where the cut was injected.
    pub at_request: u64,
    /// The recovery as reported by the server. All times are modeled
    /// (detection + re-plan + reconfiguration pipeline), so they are
    /// identical across runs.
    pub recovery: RecoverySummary,
}

/// The seed-deterministic portion of a load run — everything serialized
/// to `results/service_load.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadResults {
    /// The seed.
    pub seed: u64,
    /// Client connections.
    pub connections: usize,
    /// Requests actually issued (after even split, excluding the cut and
    /// baseline reads).
    pub requests: u64,
    /// Generated mix per operation, op name ascending.
    pub op_counts: Vec<OpCount>,
    /// Distinct DC pairs that received at least one update.
    pub update_pairs: usize,
    /// Updates superseded by a later update to the same pair — the upper
    /// bound on server-side coalescing (the realized count depends on
    /// batch timing and is reported in [`MeasuredStats`]).
    pub coalescable_updates: u64,
    /// `coalescable_updates / total updates` (0 when no updates).
    pub coalescable_ratio: f64,
    /// The injected cut, if one was configured.
    pub cut: Option<CutOutcome>,
    /// The allocation after every write drained, `(a, b)` ascending —
    /// per-pair this is exactly the last generated update (or the seed
    /// value 1), because each pair is owned by one connection and
    /// superseded retries are never re-sent out of order.
    pub final_allocation: Vec<AllocEntry>,
    /// Unexpected request failures (anything besides backpressure
    /// retries and post-cut unreachable reads). Always 0 on a healthy
    /// run.
    pub errors: u64,
}

/// Per-operation wall-clock latency summary.
#[derive(Debug, Clone)]
pub struct OpLatency {
    /// Operation name.
    pub op: String,
    /// Completed requests.
    pub count: u64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
}

/// Wall-clock observations — printed, never serialized (they differ run
/// to run).
#[derive(Debug, Clone)]
pub struct MeasuredStats {
    /// Load-phase duration, s.
    pub wall_s: f64,
    /// Completed requests per second across all connections.
    pub throughput_rps: f64,
    /// Latency per op, op name ascending. Open-loop latencies include
    /// queueing delay, closed-loop latencies are pure service time.
    pub per_op: Vec<OpLatency>,
    /// p99 of baseline reads on the idle server, ms.
    pub baseline_read_p99_ms: f64,
    /// p99 of reads completed while the recovery was in flight, ms (0 if
    /// no cut or no overlapping reads).
    pub recovery_read_p99_ms: f64,
    /// Reads that overlapped the in-flight recovery.
    pub reads_during_recovery: u64,
    /// Wall time connection 0 waited for the recovery reply, ms.
    pub recovery_wall_ms: f64,
    /// Backpressure retries performed by clients.
    pub retries: u64,
    /// Reads answered `Unreachable` (possible only for cut sets beyond
    /// the planner's tolerance).
    pub unreachable_reads: u64,
    /// `UpdateDemand`s the server actually absorbed by coalescing.
    pub server_coalesced: u64,
    /// Writes the server rejected with `Overloaded`.
    pub server_overloaded: u64,
}

/// Everything a load run produces.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Seed-deterministic results (serialize these).
    pub results: LoadResults,
    /// Wall-clock observations (print these).
    pub measured: MeasuredStats,
}

/// A seeded geo-distributed user population for federation runs: every
/// simulated user gets a home region (drawn from per-region weights)
/// plus an affinity-ordered region preference — home first, then the
/// remaining regions in a deterministic rotation — which is exactly the
/// "nearest first" endpoint order a [`crate::client::RegionRouter`]
/// wants. A pure function of the seed, so the federation chaos sweep
/// inherits its determinism.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeoPopulation {
    /// Region count.
    pub regions: usize,
    /// Each user's home region index, `0..regions`.
    pub homes: Vec<usize>,
}

impl GeoPopulation {
    /// Draw `users` home regions from `weights` (one non-negative
    /// weight per region; uniform when they sum to zero) with the given
    /// seed.
    #[must_use]
    pub fn new(seed: u64, users: usize, weights: &[f64]) -> Self {
        let regions = weights.len().max(1);
        let weights: Vec<f64> = weights.iter().map(|w| w.max(0.0)).collect();
        let total: f64 = weights.iter().sum();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6E07_A11D);
        let homes = (0..users)
            .map(|_| {
                if total <= 0.0 {
                    rng.random_range(0..regions)
                } else {
                    weighted_pick(&mut rng, &weights, total)
                }
            })
            .collect();
        Self { regions, homes }
    }

    /// User `user`'s region preference order: home first, then the
    /// remaining regions rotated from the home — the deterministic
    /// stand-in for geographic proximity.
    #[must_use]
    pub fn preference(&self, user: usize) -> Vec<usize> {
        let home = self.homes.get(user).copied().unwrap_or(0);
        (0..self.regions)
            .map(|step| (home + step) % self.regions)
            .collect()
    }

    /// Users homed per region.
    #[must_use]
    pub fn counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.regions];
        for &home in &self.homes {
            counts[home] += 1;
        }
        counts
    }
}

/// One completed request's measurement.
struct Sample {
    op: &'static str,
    ms: f64,
    read_during_recovery: bool,
}

/// Generate connection `conn`'s request sequence. Reads draw from every
/// pair; updates draw only from the connection's owned pairs. With
/// [`LoadgenConfig::matrices`] set, both draws are weighted by the
/// family's mean rates; otherwise they are uniform (and bit-for-bit
/// what they always were).
fn generate_sequence(
    cfg: &LoadgenConfig,
    conn: usize,
    per_conn: u64,
    pairs: &[(usize, usize)],
) -> Vec<Request> {
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let owned: Vec<(usize, usize)> = pairs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % cfg.connections == conn)
        .map(|(_, &p)| p)
        .collect();
    // The family's mean per-pair rate over the loadgen's pair universe
    // (the same `(a, b)` indices the server serves); uniform when those
    // degenerate to zero.
    let weights = cfg.matrices.as_ref().and_then(|spec| {
        let n = pairs.iter().map(|&(a, b)| a.max(b)).max()? + 1;
        let mean = spec.mean_shape(n);
        let weights: Vec<f64> = pairs
            .iter()
            .map(|&(a, b)| mean[pair_index(n, a.min(b), a.max(b))])
            .collect();
        (weights.iter().sum::<f64>() > 0.0).then_some(weights)
    });
    let weighted = weights.as_ref().map(|w| {
        let owned_w: Vec<f64> = w
            .iter()
            .enumerate()
            .filter(|(i, _)| i % cfg.connections == conn)
            .map(|(_, &x)| x)
            .collect();
        let owned_total: f64 = owned_w.iter().sum();
        (w.clone(), w.iter().sum::<f64>(), owned_w, owned_total)
    });
    let mut seq = Vec::with_capacity(per_conn as usize);
    for _ in 0..per_conn {
        let roll: u32 = rng.random_range(0..100);
        let req = if roll < 10 {
            Request::GetPlan
        } else if roll < 20 {
            Request::GetTopology
        } else if roll < 60 {
            let (a, b) = match &weighted {
                Some((w, total, _, _)) => pairs[weighted_pick(&mut rng, w, *total)],
                None => pairs[rng.random_range(0..pairs.len())],
            };
            Request::QueryPath { a, b }
        } else if roll < 95 && !owned.is_empty() {
            let (a, b) = match &weighted {
                Some((_, _, ow, ot)) if *ot > 0.0 => owned[weighted_pick(&mut rng, ow, *ot)],
                _ => owned[rng.random_range(0..owned.len())],
            };
            let circuits = rng.random_range(1..=cfg.max_circuits.max(1));
            Request::UpdateDemand { a, b, circuits }
        } else {
            Request::Health
        };
        seq.push(req);
    }
    seq
}

/// Generate connection `conn`'s open-loop arrival offsets: `per_conn`
/// seeded exponential inter-arrival gaps at `rate / connections`
/// requests per second. Seeded independently of the request mix so the
/// same mix can be replayed at different rates.
fn generate_arrivals(cfg: &LoadgenConfig, conn: usize, per_conn: u64, rate: f64) -> Vec<Duration> {
    let lambda = (rate / cfg.connections as f64).max(1e-9);
    let mut rng = StdRng::seed_from_u64(
        cfg.seed.wrapping_mul(0xA076_1D64_78BD_642F).rotate_left(17)
            ^ (conn as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB),
    );
    let mut t = 0.0f64;
    (0..per_conn)
        .map(|_| {
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / lambda;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Why a request was sent — drives reply handling and retry policy.
#[derive(Debug, Clone)]
enum ReqKind {
    /// A read (or `Health`): never retried, never reordered.
    Plain,
    /// An `UpdateDemand`: on `Overloaded`, re-sent only while it is
    /// still the latest update sent for its pair.
    Update {
        seq_idx: usize,
        pair: (usize, usize),
    },
    /// The injected `ReportFiberCut`: always retried on `Overloaded`.
    Cut,
}

/// One request awaiting its reply (replies are strictly FIFO per
/// connection).
struct Inflight {
    op: &'static str,
    kind: ReqKind,
    /// The request bytes' source, kept only for writes so an
    /// `Overloaded` reply can re-send it.
    req: Option<Request>,
    first_sent: Instant,
    during_recovery: bool,
}

/// A backpressured write waiting out its server-suggested delay.
struct RetryEntry {
    due: Instant,
    req: Request,
    op: &'static str,
    kind: ReqKind,
    first_sent: Instant,
    during_recovery: bool,
}

/// Driver-global (cross-connection) run state.
struct DriverState {
    samples: Vec<Sample>,
    retries: u64,
    unreachable: u64,
    errors: u64,
    recovery: Option<(RecoverySummary, f64)>,
    recovery_in_flight: bool,
}

/// One multiplexed load connection.
struct LoadConn {
    io: FramedConn,
    codec: Codec,
    seq: Vec<Request>,
    next_idx: usize,
    /// Pending cut injection: `(position, ducts)`; taken when sent.
    cut: Option<(u64, Vec<usize>)>,
    /// Open-loop arrival offsets from the load start; empty = closed loop.
    arrivals: Vec<Duration>,
    inflight: VecDeque<Inflight>,
    retries: Vec<RetryEntry>,
    /// Latest sequence index sent per owned pair — the supersede fence.
    last_sent_update: BTreeMap<(usize, usize), usize>,
}

/// The load cannot continue on this socket.
fn io_failed(e: std::io::Error) -> IrisError {
    IrisError::Io {
        detail: format!("loadgen socket failed during load: {e}"),
    }
}

impl LoadConn {
    fn done(&self) -> bool {
        self.next_idx >= self.seq.len()
            && self.cut.is_none()
            && self.inflight.is_empty()
            && self.retries.is_empty()
    }

    /// Encode + frame `req` onto the write buffer and track its reply.
    fn send(
        &mut self,
        req: &Request,
        op: &'static str,
        kind: ReqKind,
        first_sent: Instant,
        during_recovery: bool,
    ) -> IrisResult<()> {
        let codec = self.codec;
        self.io
            .queue_frame(None, |buf| codec.encode_into(req, buf))?;
        self.inflight.push_back(Inflight {
            op,
            req: req.is_write().then(|| req.clone()),
            kind,
            first_sent,
            during_recovery,
        });
        Ok(())
    }
}

/// Fold `due` into the running next-timer estimate.
fn earlier(next: &mut Option<Instant>, due: Instant) {
    *next = Some(next.map_or(due, |n| n.min(due)));
}

/// Send everything currently eligible on `conn`: due retries first,
/// then the cut at its position, then new sequence entries while the
/// pipeline (closed loop) or arrival schedule (open loop) allows.
fn pump(
    conn: &mut LoadConn,
    state: &mut DriverState,
    start: Instant,
    pipeline: usize,
    next_due: &mut Option<Instant>,
) -> IrisResult<()> {
    let now = Instant::now();
    // Due retries: re-send unless a later update to the same pair is
    // already on the wire (then the retry is superseded — dropping it
    // is what keeps the pair's final value equal to its last generated
    // update even under deep pipelining).
    let mut i = 0;
    while i < conn.retries.len() {
        if conn.retries[i].due > now {
            earlier(next_due, conn.retries[i].due);
            i += 1;
            continue;
        }
        let r = conn.retries.remove(i);
        let superseded = match &r.kind {
            ReqKind::Update { seq_idx, pair } => conn.last_sent_update.get(pair) != Some(seq_idx),
            _ => false,
        };
        if superseded {
            state.samples.push(Sample {
                op: r.op,
                ms: r.first_sent.elapsed().as_secs_f64() * 1e3,
                read_during_recovery: r.during_recovery,
            });
        } else {
            conn.send(&r.req, r.op, r.kind, r.first_sent, r.during_recovery)?;
        }
    }
    let open_loop = !conn.arrivals.is_empty();
    loop {
        let now = Instant::now();
        // The injected cut rides immediately before its sequence slot.
        if let Some((pos, _)) = &conn.cut {
            if conn.next_idx as u64 == *pos {
                if open_loop {
                    let due = start + conn.arrivals[conn.next_idx];
                    if now < due {
                        earlier(next_due, due);
                        break;
                    }
                } else if conn.inflight.len() >= pipeline {
                    break;
                }
                let (_, ducts) = conn.cut.take().expect("checked above");
                state.recovery_in_flight = true;
                conn.send(
                    &Request::ReportFiberCut { cuts: ducts },
                    "report_fiber_cut",
                    ReqKind::Cut,
                    now,
                    false,
                )?;
                continue;
            }
        }
        if conn.next_idx >= conn.seq.len() {
            break;
        }
        if open_loop {
            let due = start + conn.arrivals[conn.next_idx];
            if now < due {
                earlier(next_due, due);
                break;
            }
        } else if conn.inflight.len() >= pipeline {
            break;
        }
        let req = conn.seq[conn.next_idx].clone();
        let during = !req.is_write() && state.recovery_in_flight;
        let kind = match &req {
            Request::UpdateDemand { a, b, .. } => {
                conn.last_sent_update.insert((*a, *b), conn.next_idx);
                ReqKind::Update {
                    seq_idx: conn.next_idx,
                    pair: (*a, *b),
                }
            }
            _ => ReqKind::Plain,
        };
        conn.send(&req, req.op(), kind, now, during)?;
        conn.next_idx += 1;
    }
    conn.io.flush().map_err(io_failed)
}

/// Consume one reply off the connection's FIFO.
fn handle_reply(conn: &mut LoadConn, state: &mut DriverState, resp: Response) -> IrisResult<()> {
    let inf = conn.inflight.pop_front().ok_or_else(|| IrisError::Decode {
        detail: "server sent a reply with no request outstanding".to_owned(),
    })?;
    let ms = inf.first_sent.elapsed().as_secs_f64() * 1e3;
    let mut sample = true;
    match resp {
        Response::Error(IrisError::Overloaded { retry_after_ms }) => {
            state.retries += 1;
            let superseded = match &inf.kind {
                ReqKind::Update { seq_idx, pair } => {
                    conn.last_sent_update.get(pair) != Some(seq_idx)
                }
                ReqKind::Cut | ReqKind::Plain => false,
            };
            match inf.req {
                Some(req) if !superseded => {
                    conn.retries.push(RetryEntry {
                        due: Instant::now() + Duration::from_millis(retry_after_ms.max(1)),
                        req,
                        op: inf.op,
                        kind: inf.kind,
                        first_sent: inf.first_sent,
                        during_recovery: inf.during_recovery,
                    });
                    sample = false;
                }
                // Superseded (or, impossibly, a backpressured read):
                // the request's story ends here.
                _ => {}
            }
        }
        Response::Error(IrisError::Unreachable { .. }) => state.unreachable += 1,
        Response::Error(e) => {
            if matches!(inf.kind, ReqKind::Cut) {
                return Err(e);
            }
            state.errors += 1;
        }
        Response::Recovery(summary) if matches!(inf.kind, ReqKind::Cut) => {
            state.recovery = Some((summary, ms));
            state.recovery_in_flight = false;
        }
        other => {
            if matches!(inf.kind, ReqKind::Cut) {
                return Err(IrisError::Decode {
                    detail: format!("unexpected reply to ReportFiberCut: {other:?}"),
                });
            }
        }
    }
    if sample {
        state.samples.push(Sample {
            op: inf.op,
            ms,
            read_during_recovery: inf.during_recovery,
        });
    }
    Ok(())
}

/// Read replies until the socket would block, handling every complete
/// frame.
fn read_replies(conn: &mut LoadConn, state: &mut DriverState) -> IrisResult<()> {
    conn.io.fill().map_err(io_failed)?;
    while let Some(frame) = conn.io.next_frame()? {
        let resp = codec::decode_response(conn.codec, &frame.payload)?;
        handle_reply(conn, state, resp)?;
    }
    if conn.io.is_eof() {
        return Err(IrisError::Io {
            detail: "server closed the connection during load".to_owned(),
        });
    }
    Ok(())
}

/// Drive every connection's sequence to completion on one poller.
fn run_driver(
    cfg: &LoadgenConfig,
    sequences: Vec<Vec<Request>>,
    cut_at: Option<(u64, Vec<usize>)>,
) -> IrisResult<(DriverState, f64)> {
    let pipeline = cfg.pipeline.max(1);
    let per_conn = sequences.first().map_or(0, Vec::len) as u64;
    let mut conns: Vec<LoadConn> = Vec::with_capacity(sequences.len());
    for seq in sequences {
        let mut client = ServiceClient::connect_retry(&cfg.addr, 20, 50)?;
        if cfg.codec != Codec::Json {
            client.hello(cfg.codec)?;
        }
        let (stream, codec) = client.into_parts();
        let conn_idx = conns.len();
        conns.push(LoadConn {
            io: FramedConn::new(stream).map_err(io_failed)?,
            codec,
            arrivals: cfg
                .rate
                .map(|r| generate_arrivals(cfg, conn_idx, per_conn, r))
                .unwrap_or_default(),
            seq,
            next_idx: 0,
            cut: None,
            inflight: VecDeque::new(),
            retries: Vec::new(),
            last_sent_update: BTreeMap::new(),
        });
    }
    if let Some(first) = conns.first_mut() {
        first.cut = cut_at;
    }

    let poller = Poller::new().map_err(|e| IrisError::Io {
        detail: format!("cannot create loadgen poller: {e}"),
    })?;
    let mut state = DriverState {
        samples: Vec::new(),
        retries: 0,
        unreachable: 0,
        errors: 0,
        recovery: None,
        recovery_in_flight: false,
    };
    let start = Instant::now();
    let mut events: Vec<Event> = Vec::new();
    loop {
        let mut next_due: Option<Instant> = None;
        let mut all_done = true;
        for (token, conn) in conns.iter_mut().enumerate() {
            pump(conn, &mut state, start, pipeline, &mut next_due)?;
            conn.io.reconcile(&poller, token, true).map_err(io_failed)?;
            if !conn.done() {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        let timeout = next_due
            .map(|due| due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(100))
            .clamp(Duration::from_millis(1), Duration::from_millis(100));
        poller
            .wait(&mut events, Some(timeout))
            .map_err(|e| IrisError::Io {
                detail: format!("loadgen poll failed: {e}"),
            })?;
        for ev in &events {
            let conn = &mut conns[ev.token];
            if ev.error {
                return Err(IrisError::Io {
                    detail: "loadgen socket error during load".to_owned(),
                });
            }
            if ev.readable {
                read_replies(conn, &mut state)?;
            }
            if ev.writable {
                conn.io.flush().map_err(io_failed)?;
            }
        }
    }
    Ok((state, start.elapsed().as_secs_f64()))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Poll `Health` until the write queue is empty twice in a row —
/// `queue_depth` counts writes not yet visible in a
/// published snapshot, so an empty queue means the final topology read
/// observes every applied write.
fn quiesce(client: &mut ServiceClient) -> IrisResult<()> {
    let mut empty_polls = 0;
    for _ in 0..2000 {
        match client.call(&Request::Health)?.into_result()? {
            Response::Health(h) if h.queue_depth == 0 => {
                empty_polls += 1;
                if empty_polls >= 2 {
                    return Ok(());
                }
            }
            _ => empty_polls = 0,
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err(IrisError::Io {
        detail: "mutator queue never drained".to_owned(),
    })
}

/// Run the full load: baseline reads, the seeded multi-connection mix
/// (with the optional mid-run cut), quiesce, and the final consistency
/// reads.
///
/// # Errors
///
/// [`IrisError::Io`] if the server is unreachable or the driver fails.
pub fn run_loadgen(cfg: &LoadgenConfig) -> IrisResult<LoadReport> {
    if cfg.connections == 0 {
        return Err(IrisError::InvalidInput {
            detail: "loadgen needs at least one connection".to_owned(),
        });
    }
    let mut control = ServiceClient::connect_retry(&cfg.addr, 40, 100)?;
    if cfg.codec != Codec::Json {
        control.hello(cfg.codec)?;
    }

    // The pair universe: every reachable pair in the server's seed
    // allocation, (a, b) ascending — deterministic for a given region.
    let topology = match control.call(&Request::GetTopology)?.into_result()? {
        Response::Topology(t) => t,
        other => {
            return Err(IrisError::Decode {
                detail: format!("unexpected reply to GetTopology: {other:?}"),
            })
        }
    };
    let pairs: Vec<(usize, usize)> = topology.allocation.iter().map(|e| (e.a, e.b)).collect();
    if pairs.is_empty() {
        return Err(IrisError::InvalidInput {
            detail: "server has no reachable DC pairs to load".to_owned(),
        });
    }

    // Idle baseline: alternate the two read paths before any writes.
    let mut baseline: Vec<f64> = Vec::with_capacity(cfg.baseline_requests as usize);
    for i in 0..cfg.baseline_requests {
        let (a, b) = pairs[(i as usize) % pairs.len()];
        let req = if i % 2 == 0 {
            Request::GetPlan
        } else {
            Request::QueryPath { a, b }
        };
        let start = Instant::now();
        control.call(&req)?.into_result()?;
        baseline.push(start.elapsed().as_secs_f64() * 1e3);
    }
    baseline.sort_by(f64::total_cmp);

    // Generate every sequence up front: the mix (and everything derived
    // from it) is fixed before a single load request is sent.
    let per_conn = cfg.requests / cfg.connections as u64;
    let sequences: Vec<Vec<Request>> = (0..cfg.connections)
        .map(|c| generate_sequence(cfg, c, per_conn, &pairs))
        .collect();

    // Deterministic mix accounting.
    let mut op_counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    let mut updates_per_pair: std::collections::BTreeMap<(usize, usize), u64> =
        std::collections::BTreeMap::new();
    for seq in &sequences {
        for req in seq {
            *op_counts.entry(req.op()).or_insert(0) += 1;
            if let Request::UpdateDemand { a, b, .. } = req {
                *updates_per_pair.entry((*a, *b)).or_insert(0) += 1;
            }
        }
    }
    let total_updates: u64 = updates_per_pair.values().sum();
    let coalescable: u64 = updates_per_pair.values().map(|&n| n - 1).sum();
    let cut_at = (!cfg.cuts.is_empty() && per_conn > 0).then(|| (per_conn / 2, cfg.cuts.clone()));
    if cut_at.is_some() {
        *op_counts.entry("report_fiber_cut").or_insert(0) += 1;
    }

    // The load phase: every connection multiplexed on one event loop.
    let (state, wall_s) = run_driver(cfg, sequences, cut_at)?;
    let DriverState {
        samples,
        retries,
        unreachable,
        errors,
        recovery,
        ..
    } = state;

    // Drain the write queue, then read the final state.
    quiesce(&mut control)?;
    let final_topology = match control.call(&Request::GetTopology)?.into_result()? {
        Response::Topology(t) => t,
        other => {
            return Err(IrisError::Decode {
                detail: format!("unexpected reply to GetTopology: {other:?}"),
            })
        }
    };
    let health = match control.call(&Request::Health)?.into_result()? {
        Response::Health(h) => h,
        other => {
            return Err(IrisError::Decode {
                detail: format!("unexpected reply to Health: {other:?}"),
            })
        }
    };

    // Wall-clock summaries.
    let mut per_op: Vec<OpLatency> = Vec::new();
    for &op in op_counts.keys() {
        let mut ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.op == op)
            .map(|s| s.ms)
            .collect();
        ms.sort_by(f64::total_cmp);
        per_op.push(OpLatency {
            op: op.to_owned(),
            count: ms.len() as u64,
            p50_ms: percentile(&ms, 50.0),
            p99_ms: percentile(&ms, 99.0),
        });
    }
    let mut during: Vec<f64> = samples
        .iter()
        .filter(|s| s.read_during_recovery)
        .map(|s| s.ms)
        .collect();
    during.sort_by(f64::total_cmp);

    let results = LoadResults {
        seed: cfg.seed,
        connections: cfg.connections,
        requests: per_conn * cfg.connections as u64,
        op_counts: op_counts
            .iter()
            .map(|(&op, &count)| OpCount {
                op: op.to_owned(),
                count,
            })
            .collect(),
        update_pairs: updates_per_pair.len(),
        coalescable_updates: coalescable,
        coalescable_ratio: if total_updates == 0 {
            0.0
        } else {
            coalescable as f64 / total_updates as f64
        },
        cut: recovery.as_ref().map(|(summary, _)| CutOutcome {
            cuts: cfg.cuts.clone(),
            at_request: per_conn / 2,
            recovery: summary.clone(),
        }),
        final_allocation: final_topology.allocation,
        errors,
    };
    let measured = MeasuredStats {
        wall_s,
        throughput_rps: if wall_s > 0.0 {
            samples.len() as f64 / wall_s
        } else {
            0.0
        },
        per_op,
        baseline_read_p99_ms: percentile(&baseline, 99.0),
        recovery_read_p99_ms: percentile(&during, 99.0),
        reads_during_recovery: during.len() as u64,
        recovery_wall_ms: recovery.as_ref().map_or(0.0, |&(_, wall)| wall),
        retries,
        unreachable_reads: unreachable,
        server_coalesced: health.coalesced,
        server_overloaded: health.overloaded,
    };
    Ok(LoadReport { results, measured })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_population_is_seeded_and_weighted() {
        let weights = [5.0, 3.0, 2.0];
        let a = GeoPopulation::new(42, 1000, &weights);
        let b = GeoPopulation::new(42, 1000, &weights);
        assert_eq!(a, b, "same seed, same homes");
        assert_ne!(
            a,
            GeoPopulation::new(43, 1000, &weights),
            "different seed, different homes"
        );
        let counts = a.counts();
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        assert!(
            counts[0] > counts[2],
            "the heaviest region must attract the most users: {counts:?}"
        );
    }

    #[test]
    fn geo_preference_is_a_home_first_rotation() {
        let pop = GeoPopulation::new(7, 20, &[1.0, 1.0, 1.0, 1.0]);
        for user in 0..20 {
            let pref = pop.preference(user);
            assert_eq!(pref[0], pop.homes[user], "home region comes first");
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "preference covers every region");
        }
        // Out-of-range users still get a usable order.
        assert_eq!(pop.preference(999)[0], 0);
    }

    #[test]
    fn geo_population_handles_degenerate_weights() {
        let uniform = GeoPopulation::new(9, 300, &[0.0, 0.0]);
        assert_eq!(uniform.counts().iter().sum::<u64>(), 300);
        let single = GeoPopulation::new(9, 10, &[1.0]);
        assert_eq!(single.counts(), vec![10]);
    }

    #[test]
    fn sequences_are_seed_deterministic_and_partition_updates() {
        let cfg = LoadgenConfig {
            requests: 400,
            connections: 3,
            ..LoadgenConfig::default()
        };
        let pairs: Vec<(usize, usize)> = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let a: Vec<Vec<Request>> = (0..3)
            .map(|c| generate_sequence(&cfg, c, 100, &pairs))
            .collect();
        let b: Vec<Vec<Request>> = (0..3)
            .map(|c| generate_sequence(&cfg, c, 100, &pairs))
            .collect();
        assert_eq!(a, b, "same seed must generate the same mix");

        // No pair is updated by two connections.
        let mut owner: std::collections::BTreeMap<(usize, usize), usize> =
            std::collections::BTreeMap::new();
        for (c, seq) in a.iter().enumerate() {
            for req in seq {
                if let Request::UpdateDemand { a, b, circuits } = req {
                    assert!(*circuits >= 1, "updates never drop a pair to 0 circuits");
                    let prev = owner.insert((*a, *b), c);
                    assert!(
                        prev.is_none() || prev == Some(c),
                        "pair ({a}, {b}) updated by connections {prev:?} and {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_generate_different_mixes() {
        let pairs = vec![(0, 1), (0, 2), (1, 2)];
        let a = generate_sequence(
            &LoadgenConfig {
                seed: 1,
                ..LoadgenConfig::default()
            },
            0,
            200,
            &pairs,
        );
        let b = generate_sequence(
            &LoadgenConfig {
                seed: 2,
                ..LoadgenConfig::default()
            },
            0,
            200,
            &pairs,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn family_weighting_skews_the_mix_and_stays_deterministic() {
        let pairs: Vec<(usize, usize)> = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let spec = iris_planner::FamilySpec::new(iris_planner::FamilyKind::Hotspot, 4, 42);
        let cfg = LoadgenConfig {
            matrices: Some(spec.clone()),
            connections: 1,
            ..LoadgenConfig::default()
        };
        let a = generate_sequence(&cfg, 0, 2000, &pairs);
        assert_eq!(a, generate_sequence(&cfg, 0, 2000, &pairs), "seeded");
        let uniform = generate_sequence(
            &LoadgenConfig {
                matrices: None,
                ..cfg.clone()
            },
            0,
            2000,
            &pairs,
        );
        assert_ne!(a, uniform, "weighting must change the mix");

        // QueryPath draws should concentrate on the family's heavy pairs
        // (`pairs` lists all six in triangular order).
        let weights = spec.mean_shape(4);
        let hottest = weights
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.total_cmp(y.1))
            .map(|(i, _)| pairs[i])
            .expect("non-empty");
        let mut counts: std::collections::BTreeMap<(usize, usize), u64> =
            std::collections::BTreeMap::new();
        for req in &a {
            if let Request::QueryPath { a, b } = req {
                *counts.entry((*a, *b)).or_insert(0) += 1;
            }
        }
        let total: u64 = counts.values().sum();
        let hot = counts.get(&hottest).copied().unwrap_or(0);
        assert!(
            hot as f64 > total as f64 / pairs.len() as f64,
            "hottest pair {hottest:?} drew {hot}/{total}, not above uniform share"
        );
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(percentile(&[5.0], 50.0), 5.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Nearest-rank on 100 samples: p50 rounds to index 50 (value 51).
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn results_serialize_deterministically() {
        let results = LoadResults {
            seed: 7,
            connections: 2,
            requests: 10,
            op_counts: vec![OpCount {
                op: "get_plan".into(),
                count: 10,
            }],
            update_pairs: 0,
            coalescable_updates: 0,
            coalescable_ratio: 0.0,
            cut: None,
            final_allocation: vec![AllocEntry {
                a: 0,
                b: 1,
                circuits: 1,
            }],
            errors: 0,
        };
        let a = serde_json::to_string_pretty(&results).unwrap();
        let b = serde_json::to_string_pretty(&results).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"seed\": 7"), "{a}");
    }

    #[test]
    fn open_loop_arrivals_are_seeded_monotonic_and_rate_shaped() {
        let cfg = LoadgenConfig {
            connections: 2,
            ..LoadgenConfig::default()
        };
        let a = generate_arrivals(&cfg, 0, 500, 1000.0);
        let b = generate_arrivals(&cfg, 0, 500, 1000.0);
        assert_eq!(a, b, "arrival schedules are seed-deterministic");
        assert_ne!(
            a,
            generate_arrivals(&cfg, 1, 500, 1000.0),
            "connections draw independent schedules"
        );
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "arrival offsets are monotonic"
        );
        // 500 arrivals at 500/s per connection should land near 1s.
        let last = a.last().unwrap().as_secs_f64();
        assert!(
            (0.5..2.0).contains(&last),
            "500 arrivals at 500/s should span roughly 1s, got {last}"
        );
    }
}
