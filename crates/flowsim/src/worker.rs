//! The link-simulation worker: a small TCP server any machine can run.
//!
//! The worker is a [`Handler`] on the workspace's frame server
//! ([`iris_wire::server`]): the same acceptor and shard event loops as
//! the control-plane service, one shard per compute thread. Per
//! connection the protocol is strictly request/reply except that a
//! `RunLink` answer is a *stream* of [`WorkerResponse::LinkChunk`]
//! frames, queued as successive replies to the one request. A link job
//! runs on the shard thread of the connection that asked for it, so a
//! shard's other connections wait behind it — a coordinator holds one
//! connection per worker. Workers are stateless across restarts; the
//! only state is a cache of the last installed [`WorkSpec`]'s
//! decomposition, keyed by content fingerprint, shared by all
//! connections — reconnecting after a crash re-ships the spec and
//! rebuilds it. A spec is [`WorkSpec::check`]ed before the cache sees
//! it, so a malformed one is a typed `InvalidInput` reply, not a
//! panicked shard.

use crate::decompose::Decomposition;
use crate::proto::{
    decode_request, fingerprint, WorkSpec, WorkerRequest, WorkerResponse, CHUNK_FLOWS,
};
use iris_errors::{IrisError, IrisResult};
use iris_simnet::SimTopology;
use iris_wire::{Codec, Handler, Outbox};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, PoisonError};

/// Worker tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerConfig {
    /// Artificial per-job delay, ms — a test hook that widens the
    /// window for kill-mid-job fault injection (CI's kill-9 smoke).
    pub slow_ms: u64,
}

/// The decomposition built from the last installed spec, shared across
/// connections.
#[derive(Debug, Default)]
struct SpecCache {
    entry: Option<(u64, Arc<(SimTopology, Decomposition)>)>,
}

impl SpecCache {
    fn load(&mut self, spec: &WorkSpec) -> (Arc<(SimTopology, Decomposition)>, bool) {
        let fp = fingerprint(spec);
        if let Some((cached_fp, run)) = &self.entry {
            if *cached_fp == fp {
                return (Arc::clone(run), true);
            }
        }
        let trace = spec.trace();
        let dec = Decomposition::build(&spec.topo, &trace);
        let run = Arc::new((spec.topo.clone(), dec));
        self.entry = Some((fp, Arc::clone(&run)));
        (run, false)
    }
}

/// Serve forever on `listener`.
///
/// # Errors
///
/// Returns an error only if the frame server cannot start; a failing
/// `accept` is counted (`iris_flowsim_worker_accept_errors_total`) and
/// retried.
pub fn serve(listener: TcpListener, cfg: WorkerConfig) -> IrisResult<()> {
    let cache = Arc::new(Mutex::new(SpecCache::default()));
    let handlers = (0..iris_planner::thread_count().clamp(1, 8))
        .map(|_| WorkerHandler {
            cache: Arc::clone(&cache),
            cfg,
        })
        .collect();
    let accept_errors = iris_telemetry::global().counter("iris_flowsim_worker_accept_errors_total");
    let never = Arc::new(AtomicBool::new(false));
    // No handler defers, so nothing holds on to the mailbox.
    let (mut server, _) =
        iris_wire::server::spawn(listener, never, handlers, move || accept_errors.inc())?;
    server.join();
    Ok(())
}

/// Bind `127.0.0.1:0`, spawn a detached serving thread, and return the
/// bound address — the in-test worker entry point.
///
/// # Errors
///
/// Returns an error if the bind fails.
pub fn spawn_ephemeral(cfg: WorkerConfig) -> IrisResult<SocketAddr> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| IrisError::Io {
        detail: format!("flowsim worker bind: {e}"),
    })?;
    let addr = listener.local_addr().map_err(|e| IrisError::Io {
        detail: format!("flowsim worker local_addr: {e}"),
    })?;
    std::thread::spawn(move || {
        let _ = serve(listener, cfg);
    });
    Ok(addr)
}

/// One connection's protocol state.
#[derive(Default)]
struct WorkerConn {
    codec: Codec,
    /// The spec installed by this connection's last `LoadSpec`.
    run: Option<Arc<(SimTopology, Decomposition)>>,
}

/// The worker protocol on one shard.
struct WorkerHandler {
    cache: Arc<Mutex<SpecCache>>,
    cfg: WorkerConfig,
}

impl Handler for WorkerHandler {
    type Conn = WorkerConn;
    type Parked = ();
    type Completion = ();

    fn open(&mut self) -> WorkerConn {
        WorkerConn::default()
    }

    fn on_frame(
        &mut self,
        conn: &mut WorkerConn,
        out: &mut Outbox<()>,
        payload: &[u8],
        _trace_id: Option<u64>,
    ) {
        let resp = match decode_request(conn.codec, payload) {
            // Frame boundaries survived; answer typed and continue.
            Err(error) => WorkerResponse::Error { error },
            Ok(WorkerRequest::Hello { codec: name }) => match Codec::from_name(&name) {
                Some(next) => {
                    // Ack in the *old* codec, then switch — mirror of
                    // the service's negotiation.
                    reply(out, conn.codec, &WorkerResponse::HelloOk { codec: name });
                    conn.codec = next;
                    return;
                }
                None => invalid(format!("unknown codec '{name}'")),
            },
            Ok(WorkerRequest::LoadSpec { spec }) => match spec.check() {
                Err(error) => {
                    conn.run = None;
                    WorkerResponse::Error { error }
                }
                Ok(()) => {
                    // `SpecCache::load` replaces its entry only once the
                    // new one is built, so a poisoned cache is still a
                    // valid one.
                    let (installed, cache_hit) = self
                        .cache
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .load(&spec);
                    let telemetry = iris_telemetry::global();
                    telemetry
                        .counter("iris_flowsim_worker_spec_loads_total")
                        .add(1);
                    if cache_hit {
                        telemetry
                            .counter("iris_flowsim_worker_spec_cache_hits_total")
                            .add(1);
                    }
                    let resp = WorkerResponse::SpecLoaded {
                        flows: installed.1.flows.len(),
                        links: installed.1.occupied_links().len(),
                    };
                    conn.run = Some(installed);
                    resp
                }
            },
            Ok(WorkerRequest::RunLink { link }) => match conn.run.as_deref() {
                None => invalid("RunLink before LoadSpec".to_owned()),
                Some((_, dec)) if link >= dec.link_flows.len() => invalid(format!(
                    "link {link} out of range ({} links)",
                    dec.link_flows.len()
                )),
                Some((topo, dec)) => {
                    if self.cfg.slow_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(self.cfg.slow_ms));
                    }
                    let finishes = dec.simulate(topo, link);
                    iris_telemetry::global()
                        .counter("iris_flowsim_worker_jobs_total")
                        .add(1);
                    return stream_chunks(out, conn.codec, link, &finishes);
                }
            },
        };
        reply(out, conn.codec, &resp);
    }

    fn on_bad_frame(&mut self, conn: &mut WorkerConn, out: &mut Outbox<()>, error: IrisError) {
        reply(out, conn.codec, &WorkerResponse::Error { error });
    }
}

fn invalid(detail: String) -> WorkerResponse {
    WorkerResponse::Error {
        error: IrisError::InvalidInput { detail },
    }
}

/// Stream a link result as `LinkChunk` frames (always at least one, so
/// an empty link still yields a `done` frame).
fn stream_chunks(out: &mut Outbox<()>, codec: Codec, link: usize, finishes: &[f64]) {
    let mut offset = 0;
    loop {
        let end = (offset + CHUNK_FLOWS).min(finishes.len());
        let done = end == finishes.len();
        let chunk = WorkerResponse::LinkChunk {
            link,
            offset,
            finish_s: finishes[offset..end].to_vec(),
            done,
        };
        reply(out, codec, &chunk);
        if done {
            return;
        }
        offset = end;
    }
}

/// Queue `resp`; a response that cannot be framed ends the connection
/// (the coordinator requeues the job).
fn reply(out: &mut Outbox<()>, codec: Codec, resp: &WorkerResponse) {
    if out.reply(|buf| codec.encode_into(resp, buf)).is_err() {
        out.close();
    }
}
