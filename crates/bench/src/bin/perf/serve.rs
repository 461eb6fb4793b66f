//! Journey 2: request -> reply through a live `iris_service::serve`.
//!
//! One load-generator thread drives two connections to an in-process
//! server (one shard, product defaults otherwise) over loopback TCP in
//! the binary codec: closed loop with a sliding window per connection,
//! or open loop on a seeded Poisson schedule with latency timed from the
//! moment a request was due.

use crate::plan::seeded_region;
use crate::report::Report;
use crate::rng::{derive, poisson_schedule, Digest, Rng};
use crate::spans::Tracer;
use crate::stats::percentile_sorted;
use crate::Block;
use iris_bench::SweepPoint;
use iris_control::Controller;
use iris_errors::IrisError;
use iris_fibermap::Region;
use iris_planner::{plan_iris, DesignGoals};
use iris_service::codec::{decode_request, decode_response, encode_request, encode_response};
use iris_service::frame::{append_frame, parse_frame};
use iris_service::wal::DurableState;
use iris_service::{
    recover, serve, Codec, ControlMachine, PersistedSnapshot, Request, Response, ServiceClient,
    ServiceConfig, ServiceHandle, Wal,
};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Replies of a read workload's first block that enter its digest.
const DIGEST_REPLIES: usize = 2048;
const CONNECTIONS: usize = 2;
/// `UpdateDemand` circuit counts are drawn from `1..=MAX_CIRCUITS`.
const MAX_CIRCUITS: u64 = 4;
/// An `Overloaded` write is re-sent at most this often before it fails.
const MAX_RETRIES: u32 = 50;
/// A block whose replies stop arriving for this long is abandoned.
const STALL_NS: u64 = 20_000_000_000;
/// Initial size of a connection's read buffer; it doubles if a single
/// reply ever outgrows it.
const READ_BUFFER: usize = 1 << 18;
/// Request and reply payloads kept for the standalone codec timings.
const SAMPLES: usize = 256;
/// Cap on the set-up's warm-up reads: a closed loop gets through them at
/// the rate the two vCPUs allow that minute, and with 75 000 of them
/// `setup_s` on `serve_read` followed that rate (0.057 or 0.077 s) and
/// not the boot it is there to watch.
const WARM_UP_READS: usize = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Closed loop; 20 % `GetPlan`, 20 % `GetTopology`, 50 % `QueryPath`,
    /// 10 % `Health`; memory-only server.
    Read,
    /// Closed loop; `UpdateDemand` on connection-owned pairs; WAL on.
    Write,
    /// Open loop; connection 0 offers the read mix, connection 1 durable
    /// writes, so FIFO replies do not couple the two classes.
    Mixed,
}

#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub traffic: Traffic,
    /// The region served; its DC capacities are drawn from the seed.
    pub region: SweepPoint,
    /// Requests per block, by class.
    pub reads: usize,
    pub writes: usize,
    /// Requests in flight per connection in the closed loop.
    pub window: usize,
    /// Offered rates of the open loop, per second.
    pub read_rate: f64,
    pub write_rate: f64,
}

/// The groups of per-layer readings a traced block of traffic can
/// yield: the client-side spans (any traffic), read latencies (traffic
/// with reads), the server's write-path counters and the write budget
/// (traffic with writes), and the generator's lag (the open loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Yields {
    pub client: bool,
    pub reads: bool,
    pub writes: bool,
    pub lag: bool,
}

impl ServeSpec {
    pub fn yields(&self) -> Yields {
        Yields {
            client: true,
            reads: self.traffic != Traffic::Write,
            writes: self.traffic != Traffic::Read,
            lag: self.traffic == Traffic::Mixed,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Plan,
    Topology,
    Path,
    Health,
    Demand { a: usize, b: usize, circuits: u32 },
}

struct Pending {
    request: Request,
    expect: Expect,
    /// Send time (closed loop) or due time (open loop), ns.
    t_ns: u64,
    retries: u32,
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    /// Read buffer; the first `rlen` bytes are unparsed input.
    rbuf: Vec<u8>,
    rlen: usize,
    inflight: VecDeque<Pending>,
    resend: VecDeque<Pending>,
    rng: Rng,
    /// Pairs only this connection writes, so the final allocation is a
    /// function of the seed and not of how the connections interleave.
    pairs: Vec<(usize, usize)>,
    /// End of this connection's last write syscall, ns.
    wrote_at: u64,
}

/// One connection's part of a block.
struct Share {
    total: usize,
    write: bool,
    /// Due times, ns from block start; `None` keeps the window full.
    schedule: Option<Vec<u64>>,
}

/// What one block of traffic measured on the client side.
#[derive(Default)]
struct Tally {
    read_lat_ms: Vec<f64>,
    write_lat_ms: Vec<f64>,
    lag_us: Vec<f64>,
    failed: u64,
    retries: u64,
    bytes_out: u64,
    bytes_in: u64,
    wall_s: f64,
    digest: Digest,
    digested: usize,
    errors: Vec<String>,
}

pub struct ServeCtx {
    spec: ServeSpec,
    region: Region,
    server: Option<ServiceHandle>,
    config: ServiceConfig,
    conns: Vec<Conn>,
    seed: u64,
    blocks_run: u64,
    /// Last acknowledged circuit count per pair.
    acked: BTreeMap<(usize, usize), u32>,
    sample_requests: Vec<Vec<u8>>,
    sample_replies: Vec<Vec<u8>>,
    scratch_dir: PathBuf,
    origin: Instant,
}

impl ServeCtx {
    /// Boot a server for the seeded region, connect, negotiate the
    /// binary codec, and warm the path up with a twentieth of a block (at
    /// most `WARM_UP_READS` reads).
    /// `scratch_dir` must be fresh: it holds the WAL directory.
    pub fn setup(spec: &ServeSpec, seed: u64, scratch_dir: &Path) -> Result<Self, String> {
        let region = seeded_region(&spec.region, seed);
        let durable = spec.traffic != Traffic::Read;
        std::fs::create_dir_all(scratch_dir).map_err(|e| e.to_string())?;
        let config = ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: 1,
            wal_dir: durable.then(|| scratch_dir.join("wal").display().to_string()),
            ..ServiceConfig::default()
        };
        let server = serve(region.clone(), &config).map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        let n = region.dcs.len();
        let all_pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect();
        let writers = if spec.traffic == Traffic::Mixed {
            1
        } else {
            CONNECTIONS
        };
        let mut conns = Vec::new();
        for c in 0..CONNECTIONS {
            let mut client = ServiceClient::connect(&addr).map_err(|e| e.to_string())?;
            client.hello(Codec::Binary).map_err(|e| e.to_string())?;
            let (stream, _) = client.into_parts();
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            // In the mixed workload only connection 1 writes.
            let writer = if spec.traffic == Traffic::Mixed { 0 } else { c };
            conns.push(Conn {
                stream,
                wbuf: Vec::with_capacity(4096),
                rbuf: vec![0; READ_BUFFER],
                rlen: 0,
                inflight: VecDeque::new(),
                resend: VecDeque::new(),
                rng: Rng::new(derive(seed, "requests", c as u64)),
                pairs: all_pairs
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % writers == writer)
                    .map(|(_, p)| p)
                    .collect(),
                wrote_at: 0,
            });
        }
        let mut ctx = Self {
            spec: ServeSpec {
                reads: (spec.reads / 20).min(WARM_UP_READS),
                writes: spec.writes / 20,
                ..spec.clone()
            },
            region,
            server: Some(server),
            config,
            conns,
            seed,
            blocks_run: 0,
            acked: BTreeMap::new(),
            sample_requests: Vec::new(),
            sample_replies: Vec::new(),
            scratch_dir: scratch_dir.to_owned(),
            origin: Instant::now(),
        };
        let warm_up = ctx.run_block(None);
        if warm_up.failed > 0 {
            return Err(format!("warm-up failed: {}", warm_up.errors.join("; ")));
        }
        ctx.spec = spec.clone();
        ctx.blocks_run = 0;
        ctx.sample_requests.clear();
        ctx.sample_replies.clear();
        Ok(ctx)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// One block of the spec's traffic.
    pub fn run_block(&mut self, tracer: Option<&mut Tracer>) -> Block {
        let (block, _) = self.run_traffic(tracer);
        block
    }

    fn run_traffic(&mut self, mut tracer: Option<&mut Tracer>) -> (Block, Tally) {
        // Span timestamps and latencies share one clock.
        if let Some(t) = tracer.as_ref() {
            self.origin = t.origin();
        }
        let (reads, writes) = (self.spec.reads, self.spec.writes);
        let mut out = Tally {
            read_lat_ms: Vec::with_capacity(reads),
            write_lat_ms: Vec::with_capacity(writes),
            ..Tally::default()
        };
        let start = Instant::now();
        let shares = self.shares();
        self.drive(&shares, &mut out, &mut tracer);
        out.wall_s = start.elapsed().as_secs_f64();
        self.blocks_run += 1;
        if self.spec.traffic != Traffic::Read {
            // Every write of the block is acknowledged, hence published.
            if let Some(server) = &self.server {
                for (&(a, b), &c) in &server.current_snapshot().allocation {
                    out.digest
                        .u64(((a as u64) << 40) | ((b as u64) << 20) | u64::from(c));
                }
            }
        }
        let attempted = (match self.spec.traffic {
            Traffic::Read => reads,
            Traffic::Write => writes,
            Traffic::Mixed => reads + writes,
        }) as u64;
        let mut block = Block {
            attempted,
            failed: out.failed,
            work: (attempted - out.failed) as f64,
            wall_s: out.wall_s,
            latency: None,
            digest: out.digest.0,
            errors: out.errors.clone(),
            peak_rss_mb: Vec::new(),
        };
        // The block's op is the read on the read workload and the durable
        // write elsewhere: beside the read load too, a write's latency is
        // the coalesce window and the fsync, which repeat from run to run,
        // while a read's there is mostly the wake-up of an idle vCPU
        // (9 or 35 us by the host's mood).
        if self.spec.traffic == Traffic::Read {
            block.set_latencies(&mut out.read_lat_ms, false);
        } else {
            block.set_latencies(&mut out.write_lat_ms, true);
        }
        (block, out)
    }

    /// Each connection's part of the next block.
    fn shares(&self) -> Vec<Share> {
        let spec = &self.spec;
        let halves = |total: usize, write| {
            (0..CONNECTIONS)
                .map(|c| Share {
                    total: total / CONNECTIONS + usize::from(c < total % CONNECTIONS),
                    write,
                    schedule: None,
                })
                .collect()
        };
        match spec.traffic {
            Traffic::Read => halves(spec.reads, false),
            Traffic::Write => halves(spec.writes, true),
            Traffic::Mixed => [(spec.reads, spec.read_rate), (spec.writes, spec.write_rate)]
                .iter()
                .enumerate()
                .map(|(c, &(total, rate))| {
                    let stream = self.blocks_run * CONNECTIONS as u64 + c as u64;
                    Share {
                        total,
                        write: c == 1,
                        schedule: Some(poisson_schedule(
                            derive(self.seed, "schedule", stream),
                            rate,
                            total,
                        )),
                    }
                })
                .collect(),
        }
    }

    fn next_request(&mut self, c: usize, write: bool) -> Pending {
        let n = self.region.dcs.len() as u64;
        let conn = &mut self.conns[c];
        let (request, expect) = if write {
            let (a, b) = conn.pairs[conn.rng.below(conn.pairs.len() as u64) as usize];
            let circuits = 1 + conn.rng.below(MAX_CIRCUITS) as u32;
            (
                Request::UpdateDemand { a, b, circuits },
                Expect::Demand { a, b, circuits },
            )
        } else {
            match conn.rng.below(10) {
                0 | 1 => (Request::GetPlan, Expect::Plan),
                2 | 3 => (Request::GetTopology, Expect::Topology),
                4..=8 => {
                    let a = conn.rng.below(n) as usize;
                    let b = (a + 1 + conn.rng.below(n - 1) as usize) % n as usize;
                    (Request::QueryPath { a, b }, Expect::Path)
                }
                _ => (Request::Health, Expect::Health),
            }
        };
        Pending {
            request,
            expect,
            t_ns: 0,
            retries: 0,
        }
    }

    /// Encode and frame `batch` into the connection's write buffer.
    fn stage(
        &mut self,
        c: usize,
        batch: Vec<Pending>,
        out: &mut Tally,
        tracer: &mut Option<&mut Tracer>,
    ) {
        if batch.is_empty() {
            return;
        }
        let op = self.blocks_run;
        let n = batch.len() as u32;
        let t0 = tracer.as_ref().map_or(0, |_| self.now_ns());
        let payloads: Vec<Vec<u8>> = batch
            .iter()
            .map(|p| encode_request(Codec::Binary, &p.request).expect("requests encode"))
            .collect();
        let t1 = tracer.as_ref().map_or(0, |_| self.now_ns());
        let conn = &mut self.conns[c];
        let before = conn.wbuf.len();
        for payload in &payloads {
            append_frame(&mut conn.wbuf, payload).expect("requests fit a frame");
        }
        out.bytes_out += (conn.wbuf.len() - before) as u64;
        if let Some(t) = tracer.as_mut() {
            let t2 = t.now_ns();
            t.leaf("service.encode_request", op, t0, t1, n);
            t.leaf("wire.append_frame", op, t1, t2, n);
        }
        let room = SAMPLES.saturating_sub(self.sample_requests.len());
        self.sample_requests.extend(payloads.into_iter().take(room));
        self.conns[c].inflight.extend(batch);
    }

    /// Parse and check every complete reply in the connection's read
    /// buffer. Latency runs to `done_ns`, taken after decoding.
    fn absorb(&mut self, c: usize, out: &mut Tally, tracer: &mut Option<&mut Tracer>) -> usize {
        let op = self.blocks_run;
        let t0 = tracer.as_ref().map_or(0, |_| self.now_ns());
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        let conn = &mut self.conns[c];
        let mut consumed = 0;
        loop {
            match parse_frame(&conn.rbuf[consumed..conn.rlen]) {
                Ok(Some(frame)) => {
                    consumed += frame.consumed;
                    payloads.push(frame.payload);
                }
                Ok(None) => break,
                Err(e) => {
                    out.errors.push(format!("unparsable reply frame: {e}"));
                    consumed = conn.rlen;
                    break;
                }
            }
        }
        conn.rbuf.copy_within(consumed..conn.rlen, 0);
        conn.rlen -= consumed;
        if payloads.is_empty() {
            return 0;
        }
        let t1 = tracer.as_ref().map_or(0, |_| self.now_ns());
        let replies: Vec<_> = payloads
            .iter()
            .map(|p| decode_response(Codec::Binary, p))
            .collect();
        let done_ns = self.now_ns();
        if let Some(t) = tracer.as_mut() {
            t.leaf("wire.parse_frame", op, t0, t1, payloads.len() as u32);
            t.leaf(
                "service.decode_response",
                op,
                t1,
                done_ns,
                payloads.len() as u32,
            );
        }
        let mut completed = 0;
        for (payload, reply) in payloads.into_iter().zip(replies) {
            let Some(mut pending) = self.conns[c].inflight.pop_front() else {
                out.errors
                    .push("reply without a request in flight".to_owned());
                out.failed += 1;
                continue;
            };
            let lat_ms = done_ns.saturating_sub(pending.t_ns) as f64 / 1e6;
            let verdict = match (&pending.expect, reply) {
                (Expect::Plan, Ok(Response::Plan(_)))
                | (Expect::Topology, Ok(Response::Topology(_)))
                | (Expect::Path, Ok(Response::Path(_))) => {
                    // Connection 0's first replies: a function of the seed
                    // alone, however the two connections interleave.
                    if self.spec.traffic == Traffic::Read
                        && self.blocks_run == 0
                        && c == 0
                        && out.digested < DIGEST_REPLIES
                    {
                        out.digested += 1;
                        payload.iter().for_each(|&b| out.digest.u64(u64::from(b)));
                    }
                    Ok(false)
                }
                (Expect::Health, Ok(Response::Health(_))) => Ok(false),
                (&Expect::Demand { a, b, circuits }, Ok(Response::DemandAccepted { .. })) => {
                    self.acked.insert((a.min(b), a.max(b)), circuits);
                    Ok(true)
                }
                (Expect::Demand { .. }, Ok(Response::Error(IrisError::Overloaded { .. })))
                    if pending.retries < MAX_RETRIES =>
                {
                    pending.retries += 1;
                    out.retries += 1;
                    self.conns[c].resend.push_back(pending);
                    continue;
                }
                (expect, Ok(other)) => Err(format!("{expect:?} answered by {other:?}")),
                (expect, Err(e)) => Err(format!("{expect:?}: undecodable reply: {e}")),
            };
            completed += 1;
            match verdict {
                Ok(is_write) => {
                    if self.sample_replies.len() < SAMPLES {
                        self.sample_replies.push(payload);
                    }
                    if is_write {
                        out.write_lat_ms.push(lat_ms);
                    } else {
                        out.read_lat_ms.push(lat_ms);
                    }
                }
                Err(why) => {
                    out.failed += 1;
                    if out.errors.len() < 8 {
                        out.errors.push(why);
                    }
                }
            }
        }
        completed
    }

    /// Drive every connection's share of a block from one thread without
    /// blocking: admit what the connection's policy allows (the window in
    /// the closed loop, the schedule in the open loop), write, read what
    /// has arrived, check it.
    fn drive(&mut self, shares: &[Share], out: &mut Tally, tracer: &mut Option<&mut Tracer>) {
        let op = self.blocks_run;
        let window = self.spec.window;
        let base = self.now_ns();
        let total: usize = shares.iter().map(|s| s.total).sum();
        let mut issued = vec![0usize; shares.len()];
        let mut completed = 0usize;
        let mut progress_at = base;
        while completed < total {
            let now = self.now_ns();
            let mut busy = false;
            for (c, share) in shares.iter().enumerate() {
                // A refused write goes out again at once; its latency still
                // runs from when it was first sent or due.
                let mut batch: Vec<Pending> = self.conns[c].resend.drain(..).collect();
                while issued[c] < share.total {
                    let t_ns = match &share.schedule {
                        Some(due) if base + due[issued[c]] <= now => base + due[issued[c]],
                        None if self.conns[c].inflight.len() + batch.len() < window => now,
                        _ => break,
                    };
                    let mut p = self.next_request(c, share.write);
                    p.t_ns = t_ns;
                    if share.schedule.is_some() {
                        out.lag_us.push((now - t_ns) as f64 / 1e3);
                    }
                    batch.push(p);
                    issued[c] += 1;
                }
                let staged = batch.len() as u32;
                if staged > 0 {
                    progress_at = now;
                }
                self.stage(c, batch, out, tracer);
                if !self.conns[c].wbuf.is_empty() {
                    busy = true;
                    let t0 = tracer.as_ref().map_or(0, |_| self.now_ns());
                    let conn = &mut self.conns[c];
                    match conn.stream.write(&conn.wbuf) {
                        Ok(n) => {
                            conn.wbuf.drain(..n);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                        Err(e) => {
                            return self.abandon(total - completed, &format!("write: {e}"), out)
                        }
                    }
                    if let Some(t) = tracer.as_mut() {
                        let t1 = t.now_ns();
                        self.conns[c].wrote_at = t1;
                        t.leaf("service.client_write_syscall", op, t0, t1, staged.max(1));
                    }
                }
                if self.conns[c].inflight.is_empty() {
                    continue;
                }
                let t0 = tracer.as_ref().map_or(0, |_| self.now_ns());
                match self.fill(c, out) {
                    Ok(0) => {
                        return self.abandon(total - completed, "server closed the connection", out)
                    }
                    Ok(_) => {
                        busy = true;
                        if let Some(t) = tracer.as_mut() {
                            let t1 = t.now_ns();
                            t.leaf("service.client_read_syscall", op, t0, t1, 1);
                            t.leaf(
                                "service.server_wait",
                                op,
                                self.conns[c].wrote_at.min(t1),
                                t1,
                                1,
                            );
                        }
                        let done = self.absorb(c, out, tracer);
                        completed += done;
                        if done > 0 {
                            progress_at = now;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) => return self.abandon(total - completed, &format!("read: {e}"), out),
                }
            }
            if !busy {
                if now - progress_at > STALL_NS {
                    return self.abandon(total - completed, "timeout", out);
                }
                // Nothing to send and nothing readable: let a server
                // thread have the core if it wants it.
                std::thread::yield_now();
            }
        }
    }

    /// One non-blocking `read` into the connection's buffer; the byte
    /// count, with 0 for a closed peer.
    fn fill(&mut self, c: usize, out: &mut Tally) -> std::io::Result<usize> {
        let conn = &mut self.conns[c];
        if conn.rlen == conn.rbuf.len() {
            conn.rbuf.resize(2 * conn.rlen, 0);
        }
        let got = conn.stream.read(&mut conn.rbuf[conn.rlen..])?;
        conn.rlen += got;
        out.bytes_in += got as u64;
        Ok(got)
    }

    fn abandon(&mut self, remaining: usize, why: &str, out: &mut Tally) {
        out.failed += remaining as u64;
        out.errors
            .push(format!("{remaining} requests abandoned: {why}"));
        for conn in &mut self.conns {
            conn.inflight.clear();
            conn.resend.clear();
        }
    }

    /// After the timed phase: the allocation the server publishes must
    /// be the last acknowledged value of every written pair, and
    /// recovery from the WAL directory must reproduce the live state.
    pub fn check(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        let Some(server) = self.server.take() else {
            return vec!["server already shut down".to_owned()];
        };
        let live = server.current_snapshot();
        for (pair, circuits) in &self.acked {
            if live.allocation.get(pair) != Some(circuits) {
                errors.push(format!(
                    "pair {pair:?}: acknowledged {circuits} circuits, server publishes {:?}",
                    live.allocation.get(pair)
                ));
            }
        }
        let live_crc = live.state_crc();
        self.conns.clear();
        drop(server);
        if let Some(dir) = &self.config.wal_dir {
            match recover_from(&self.region, self.config.cuts, Path::new(dir)) {
                Ok(crc) if crc == live_crc => {}
                Ok(crc) => errors.push(format!(
                    "recovered state crc {crc:08x} differs from live {live_crc:08x}"
                )),
                Err(e) => errors.push(format!("recovery failed: {e}")),
            }
        }
        errors
    }

    /// One traced block of this context's traffic, and the per-layer
    /// readings of the groups asked for: client-side spans, the server's
    /// own counters with the write budget, the generator's lag.
    pub fn traffic_layers(
        &mut self,
        tr: &mut Tracer,
        want: Yields,
    ) -> (Block, Vec<(&'static str, f64)>) {
        let telemetry = iris_telemetry::global();
        let counters = [
            "iris_service_group_commit_batches",
            "iris_service_fsyncs_saved",
            "iris_service_writes_applied_total",
            "iris_service_coalesced_total",
            "iris_service_overloaded_total",
        ];
        let before = counters.map(|n| telemetry.counter(n).get());
        let fsync_h = telemetry.histogram("iris_service_wal_fsync_ms");
        let reconf_h = telemetry.histogram("iris_control_reconfigure_wall_ms");
        let (fsyncs0, reconf0) = (fsync_h.count(), (reconf_h.count(), reconf_h.sum()));
        let spans_before = tr.totals();

        let (block, mut out) = self.run_traffic(Some(tr));

        let mut readings: Vec<(&'static str, f64)> = Vec::new();
        if want.client {
            let totals = tr.totals();
            // Time per item of a span name, over this block only.
            let per_item = |name: &str| {
                let (now, was) = (
                    totals.get(name).copied().unwrap_or_default(),
                    spans_before.get(name).copied().unwrap_or_default(),
                );
                (now.total_ns - was.total_ns) as f64 / (now.items - was.items).max(1) as f64
            };
            let requests = (block.attempted + out.retries) as f64;
            readings.extend([
                (
                    "service.encode_request_ns",
                    per_item("service.encode_request"),
                ),
                (
                    "service.decode_response_ns",
                    per_item("service.decode_response"),
                ),
                (
                    "service.client_write_syscall_ns",
                    per_item("service.client_write_syscall"),
                ),
                (
                    "service.client_read_syscall_ns",
                    per_item("service.client_read_syscall"),
                ),
                (
                    "service.server_wait_us",
                    per_item("service.server_wait") / 1e3,
                ),
                (
                    "service.request_bytes_per_req",
                    out.bytes_out as f64 / requests,
                ),
                (
                    "service.reply_bytes_per_req",
                    out.bytes_in as f64 / requests,
                ),
            ]);
        }
        let p50_p99_us = |sorted: &[f64]| [0.5, 0.99].map(|q| percentile_sorted(sorted, q) * 1e3);
        if want.reads && !out.read_lat_ms.is_empty() {
            out.read_lat_ms.sort_by(f64::total_cmp);
            let [p50, p99] = p50_p99_us(&out.read_lat_ms);
            readings.extend([("service.read_p50_us", p50), ("service.read_p99_us", p99)]);
        }
        if want.writes {
            let delta: Vec<f64> = counters
                .iter()
                .zip(before)
                .map(|(n, b)| (telemetry.counter(n).get() - b) as f64)
                .collect();
            let reconfigs = (reconf_h.count() - reconf0.0).max(1) as f64;
            readings.extend([
                ("service.retries", out.retries as f64),
                ("service.overloaded", delta[4]),
                ("service.writes_per_batch", delta[2] / delta[0].max(1.0)),
                ("service.fsyncs", (fsync_h.count() - fsyncs0) as f64),
                ("service.fsyncs_saved", delta[1]),
                (
                    "service.coalesced_ratio",
                    delta[3] / (delta[2] + delta[3]).max(1.0),
                ),
                (
                    "control.reconfigure_wall_ms",
                    (reconf_h.sum() - reconf0.1) / reconfigs,
                ),
            ]);

            // The program's own per-batch stage spans, from its flight
            // recorder (the newest few thousand batches).
            let dump = iris_telemetry::trace::dump(0);
            let mut staged = 0.0;
            for (metric, stage) in [
                ("service.batch_queue_wait_us", "queue_wait"),
                ("service.batch_apply_us", "apply"),
                ("service.batch_wal_append_us", "wal_append"),
                ("service.batch_wal_fsync_us", "wal_fsync"),
                ("service.batch_publish_us", "publish"),
            ] {
                let mut d: Vec<f64> = dump
                    .events
                    .iter()
                    .filter(|e| !e.modeled && e.stage == stage)
                    .map(|e| e.dur_us as f64)
                    .collect();
                d.sort_by(f64::total_cmp);
                let us = if d.is_empty() {
                    0.0
                } else {
                    percentile_sorted(&d, 0.5)
                };
                staged += us;
                readings.push((metric, us));
            }
            if !out.write_lat_ms.is_empty() {
                out.write_lat_ms.sort_by(f64::total_cmp);
                let [p50, p99] = p50_p99_us(&out.write_lat_ms);
                let window_us = self.config.coalesce_window_ms as f64 * 1e3;
                readings.extend([
                    ("service.write_p50_us", p50),
                    ("service.write_p99_us", p99),
                    ("service.write_unexplained_us", p50 - window_us - staged),
                ]);
            }
        }
        if want.lag && !out.lag_us.is_empty() {
            out.lag_us.sort_by(f64::total_cmp);
            readings.push(("bench.gen_lag_p99_us", percentile_sorted(&out.lag_us, 0.99)));
        }
        (block, readings)
    }

    /// The server's functions timed standalone on this region and on
    /// payloads captured from the traffic above.
    pub fn standalone_layers(&self, tr: &mut Tracer, rep: &mut Report) -> Result<(), String> {
        let goals = DesignGoals::with_cuts(self.config.cuts);
        let region = &self.region;
        let (queries, replies) = (&self.sample_requests, &self.sample_replies);
        if queries.is_empty() || replies.is_empty() {
            return Err("no request or reply payloads captured".to_owned());
        }

        // Codec and framing, 200 passes over the captured payloads.
        let responses: Vec<Response> = replies
            .iter()
            .map(|r| decode_response(Codec::Binary, r).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let (nq, nr) = (queries.len() as u32, replies.len() as u32);
        let mut framed = Vec::new();
        for pass in 0..200u64 {
            let t0 = tr.now_ns();
            for q in queries {
                black_box(decode_request(Codec::Binary, black_box(q)).is_ok());
            }
            let t1 = tr.now_ns();
            for r in &responses {
                black_box(encode_response(Codec::Binary, black_box(r)).is_ok());
            }
            let t2 = tr.now_ns();
            for r in &responses {
                black_box(encode_response(Codec::Json, black_box(r)).is_ok());
            }
            let t3 = tr.now_ns();
            framed.clear();
            for payload in queries.iter().chain(replies) {
                append_frame(&mut framed, payload).map_err(|e| e.to_string())?;
            }
            let t4 = tr.now_ns();
            let mut at = 0;
            while let Some(f) = parse_frame(&framed[at..]).map_err(|e| e.to_string())? {
                at += f.consumed;
                black_box(f.payload);
            }
            let t5 = tr.now_ns();
            tr.leaf("service.decode_request", pass, t0, t1, nq);
            tr.leaf("service.encode_response", pass, t1, t2, nr);
            tr.leaf("service.encode_response_json", pass, t2, t3, nr);
            tr.leaf("wire.append_frame_standalone", pass, t3, t4, nq + nr);
            tr.leaf("wire.parse_frame_standalone", pass, t4, t5, nq + nr);
        }

        // The write path below the socket: apply, append, fsync, compact,
        // read back, recover.
        let plan = plan_iris(region, &goals);
        let controller = Controller::for_region(region, &goals);
        let (mut snap, cuts, _) = recover(
            region,
            &goals,
            &plan.provisioning,
            &controller,
            &DurableState::empty(),
        )
        .map_err(|e| e.to_string())?;
        let dir = self.scratch_dir.join("standalone-wal");
        let (mut wal, _) = Wal::open(&dir).map_err(|e| e.to_string())?;
        let sync = wal.sync_handle().map_err(|e| e.to_string())?;
        let mut machine = ControlMachine::new(
            region,
            &goals,
            &plan.provisioning,
            &controller,
            cuts,
            None,
            0,
        );
        let n_dcs = region.dcs.len() as u64;
        let mut rng = Rng::new(derive(self.seed, "standalone", 0));
        for batch in 0..100u64 {
            let mut updates = BTreeMap::new();
            while updates.len() < 16.min((n_dcs * (n_dcs - 1) / 2) as usize) {
                let a = rng.below(n_dcs) as usize;
                let b = (a + 1 + rng.below(n_dcs - 1) as usize) % n_dcs as usize;
                updates.insert((a.min(b), a.max(b)), 1 + rng.below(MAX_CIRCUITS) as u32);
            }
            let result = tr
                .time("service.apply_batch", batch, || {
                    machine.apply_batch(&snap, &updates, 0, &[])
                })
                .map_err(|e| e.to_string())?;
            let record = result
                .batch
                .ok_or("a batch of updates produced no record")?;
            snap = result
                .snapshot
                .ok_or("a batch of updates produced no snapshot")?;
            tr.time("service.wal_append", batch, || wal.append_nosync(&record))
                .map_err(|e| e.to_string())?;
            tr.time("service.wal_fsync", batch, || sync.sync())
                .map_err(|e| e.to_string())?;
            tr.time("service.state_crc", batch, || black_box(snap.state_crc()));
        }
        let stats = wal.stats();
        rep.set(
            "service.wal_bytes_per_batch",
            stats.bytes as f64 / stats.records.max(1) as f64,
        );
        tr.time("service.read_log", 0, || {
            iris_service::read_log(&dir.join(iris_service::wal::WAL_FILE))
        })
        .map_err(|e| e.to_string())?;
        let live_crc = snap.state_crc();
        drop(machine);
        let t0 = tr.now_ns();
        let recovered = recover_from(region, self.config.cuts, &dir)?;
        tr.leaf("service.recover", 0, t0, tr.now_ns(), 1);
        if recovered != live_crc {
            return Err("standalone recovery does not reproduce the applied state".to_owned());
        }
        tr.time("service.wal_compact", 0, || {
            wal.compact(&PersistedSnapshot::from_state(&snap))
        })
        .map_err(|e| e.to_string())?;
        let boot = tr.time("service.serve_boot", 0, || {
            serve(
                region.clone(),
                &ServiceConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    shards: 1,
                    ..ServiceConfig::default()
                },
            )
        });
        drop(boot.map_err(|e| e.to_string())?);

        let totals = tr.totals();
        let per_item = |name: &str, scale: f64| {
            let t = totals[name];
            t.total_ns as f64 / t.items.max(1) as f64 / scale
        };
        rep.set(
            "service.decode_request_ns",
            per_item("service.decode_request", 1.0),
        );
        rep.set(
            "service.encode_response_ns",
            per_item("service.encode_response", 1.0),
        );
        rep.set(
            "service.encode_response_json_ns",
            per_item("service.encode_response_json", 1.0),
        );
        rep.set(
            "wire.append_frame_ns",
            per_item("wire.append_frame_standalone", 1.0),
        );
        rep.set(
            "wire.parse_frame_ns",
            per_item("wire.parse_frame_standalone", 1.0),
        );
        rep.set(
            "service.apply_batch_us",
            per_item("service.apply_batch", 1e3),
        );
        rep.set("service.wal_append_us", per_item("service.wal_append", 1e3));
        rep.set("service.wal_fsync_us", per_item("service.wal_fsync", 1e3));
        rep.set("service.state_crc_us", per_item("service.state_crc", 1e3));
        rep.set(
            "service.wal_compact_ms",
            per_item("service.wal_compact", 1e6),
        );
        rep.set("service.read_log_ms", per_item("service.read_log", 1e6));
        rep.set("service.recover_ms", per_item("service.recover", 1e6));
        rep.set("service.serve_boot_ms", per_item("service.serve_boot", 1e6));
        Ok(())
    }
}

/// Rebuild the control plane from a WAL directory the way a restarted
/// server does, and return the CRC of the state it would publish.
fn recover_from(region: &Region, cuts: usize, dir: &Path) -> Result<u32, String> {
    let goals = DesignGoals::with_cuts(cuts);
    let plan = plan_iris(region, &goals);
    let controller = Controller::for_region(region, &goals);
    let (_wal, durable) = Wal::open(dir).map_err(|e| e.to_string())?;
    let (snap, _, _) = recover(region, &goals, &plan.provisioning, &controller, &durable)
        .map_err(|e| e.to_string())?;
    Ok(snap.state_crc())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server stand-in that answers every request frame with a canned
    /// reply, optionally refusing the first write once.
    fn stub_server(refuse_first_write: bool) -> (String, std::thread::JoinHandle<u64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let (mut served, mut refused) = (0u64, !refuse_first_write);
            loop {
                let n = match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return served,
                    Ok(n) => n,
                };
                buf.extend_from_slice(&chunk[..n]);
                let mut out = Vec::new();
                while let Some(f) = parse_frame(&buf).unwrap() {
                    buf.drain(..f.consumed);
                    let reply = match decode_request(Codec::Binary, &f.payload).unwrap() {
                        Request::UpdateDemand { .. } if !refused => {
                            refused = true;
                            Response::Error(IrisError::Overloaded { retry_after_ms: 1 })
                        }
                        Request::UpdateDemand { .. } => Response::DemandAccepted {
                            queue_depth: 0,
                            epoch: served,
                        },
                        _ => Response::HelloAck {
                            codec: "binary".to_owned(),
                        },
                    };
                    served += 1;
                    let payload = encode_response(Codec::Binary, &reply).unwrap();
                    append_frame(&mut out, &payload).unwrap();
                }
                stream.write_all(&out).unwrap();
            }
        });
        (addr, handle)
    }

    fn stub_ctx(addr: &str, traffic: Traffic, total: usize) -> ServeCtx {
        let point = iris_bench::sweep_points()[0];
        let region = seeded_region(&point, 1);
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nonblocking(true).unwrap();
        let n = region.dcs.len();
        ServeCtx {
            spec: ServeSpec {
                traffic,
                region: point,
                reads: total,
                writes: total,
                window: 16,
                read_rate: 0.0,
                write_rate: 0.0,
            },
            conns: vec![Conn {
                stream,
                wbuf: Vec::new(),
                rbuf: vec![0; READ_BUFFER],
                rlen: 0,
                inflight: VecDeque::new(),
                resend: VecDeque::new(),
                rng: Rng::new(1),
                pairs: (1..n).map(|b| (0, b)).collect(),
                wrote_at: 0,
            }],
            region,
            server: None,
            config: ServiceConfig::default(),
            seed: 1,
            blocks_run: 0,
            acked: BTreeMap::new(),
            sample_requests: Vec::new(),
            sample_replies: Vec::new(),
            scratch_dir: PathBuf::new(),
            origin: Instant::now(),
        }
    }

    #[test]
    fn sliding_window_completes_every_write_and_resends_a_refused_one() {
        let (addr, server) = stub_server(true);
        let mut ctx = stub_ctx(&addr, Traffic::Write, 200);
        let mut out = Tally::default();
        let shares = ctx.shares();
        ctx.drive(&shares[..1], &mut out, &mut None);
        assert_eq!(out.write_lat_ms.len(), 100);
        assert_eq!((out.failed, out.retries), (0, 1));
        assert!(ctx.conns[0].inflight.is_empty() && ctx.conns[0].resend.is_empty());
        assert!(!ctx.acked.is_empty());
        drop(ctx);
        // 100 accepted writes plus the one that was refused.
        assert_eq!(server.join().unwrap(), 101);
    }

    #[test]
    fn a_reply_of_the_wrong_variant_is_a_failed_op() {
        let (addr, server) = stub_server(false);
        let mut ctx = stub_ctx(&addr, Traffic::Read, 80);
        let mut out = Tally::default();
        let shares = ctx.shares();
        ctx.drive(&shares[..1], &mut out, &mut None);
        // The stub answers reads with `HelloAck`, which no read expects.
        assert_eq!(out.failed, 40);
        assert!(out.read_lat_ms.is_empty());
        assert!(out.errors[0].contains("answered by"));
        drop(ctx);
        assert_eq!(server.join().unwrap(), 40);
    }

    #[test]
    fn a_full_window_drains_in_order() {
        let (addr, server) = stub_server(false);
        let mut ctx = stub_ctx(&addr, Traffic::Write, 50);
        let mut out = Tally::default();
        // Stage by hand what the loop would: the window caps the batch.
        let batch: Vec<Pending> = (0..16).map(|_| ctx.next_request(0, true)).collect();
        ctx.stage(0, batch, &mut out, &mut None);
        assert_eq!(ctx.conns[0].inflight.len(), 16);
        let conn = &mut ctx.conns[0];
        conn.stream.write_all(&conn.wbuf).unwrap();
        conn.wbuf.clear();
        let mut done = 0;
        while done < 16 {
            match ctx.fill(0, &mut out) {
                Ok(n) => assert!(n > 0, "stub closed early"),
                Err(e) => assert_eq!(e.kind(), ErrorKind::WouldBlock),
            }
            done += ctx.absorb(0, &mut out, &mut None);
        }
        assert_eq!(out.write_lat_ms.len(), 16);
        drop(ctx);
        assert_eq!(server.join().unwrap(), 16);
    }
}
