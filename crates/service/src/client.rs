//! The control-plane protocol's clients: [`ServiceClient`], one typed
//! connection, and [`RegionRouter`], health-routed access to several
//! regions. Connecting, the `Hello` handshake, deadlines and
//! reconnecting are [`iris_wire::client`]'s; this module adds what is
//! particular to the protocol (trace ids, `Overloaded` retries, routing).

use crate::api::{Request, Response, Service};
use crate::codec::Codec;
use iris_errors::{IrisError, IrisResult};
pub use iris_wire::Backoff;
use iris_wire::{Client, PeerLink};
use std::net::TcpStream;
use std::time::Duration;

/// [`ServiceClient::call`] on a connection out of a [`PeerLink`].
pub(crate) fn call(conn: &mut Client<Service>, req: &Request) -> IrisResult<Response> {
    use iris_telemetry::trace;
    // Propagate the caller's trace context (if any) so the server logs
    // the request under an id the caller can correlate. With the local
    // recorder off no header is sent: the bytes of the untraced format.
    let context = || trace::current_trace().or_else(|| req.is_write().then(trace::mint_trace_id));
    conn.call(req, trace::enabled().then(context).flatten())
}

/// [`ServiceClient::call_retrying`] on a connection out of a [`PeerLink`].
pub(crate) fn call_retrying(
    conn: &mut Client<Service>,
    req: &Request,
    max_retries: u32,
) -> IrisResult<Response> {
    let mut backoff: Option<Backoff> = None;
    for _ in 0..max_retries {
        match call(conn, req)?.into_result() {
            Err(IrisError::Overloaded { retry_after_ms }) => {
                let backoff = backoff.get_or_insert_with(|| {
                    // The vendored rand has no OS entropy source: seed
                    // from the wall clock so concurrent clients draw
                    // different jitter streams.
                    let seed = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map_or(0x9E37_79B9_7F4A_7C15, |d| d.as_nanos() as u64);
                    let base = retry_after_ms.max(1);
                    Backoff::new(base, base.saturating_mul(16), seed)
                });
                std::thread::sleep(Duration::from_millis(backoff.next_delay_ms()));
            }
            settled => return settled,
        }
    }
    call(conn, req)?.into_result()
}

/// One connection to a running service: an [`iris_wire::Client`] of
/// this protocol plus trace ids and `Overloaded` retries.
///
/// # Example
///
/// Boot an in-process server on an ephemeral port, raise one pair's
/// demand, and read back the path its circuits ride:
///
/// ```
/// use iris_fibermap::{synth, MetroParams, PlacementParams};
/// use iris_service::{serve, Request, Response, ServiceClient, ServiceConfig};
///
/// let region = synth::place_dcs(
///     synth::generate_metro(&MetroParams { seed: 7, ..MetroParams::default() }),
///     &PlacementParams { seed: 24, n_dcs: 4, ..PlacementParams::default() },
/// );
/// let mut server = serve(region, &ServiceConfig {
///     addr: "127.0.0.1:0".to_owned(), // port 0 picks a free port
///     ..ServiceConfig::default()
/// })?;
/// let mut client = ServiceClient::connect(&server.local_addr().to_string())?;
///
/// // Pick a reachable DC pair off the topology, then write and read.
/// let Response::Topology(topo) = client.call(&Request::GetTopology)?.into_result()? else {
///     unreachable!("GetTopology answers Topology")
/// };
/// let (a, b) = (topo.allocation[0].a, topo.allocation[0].b);
///
/// let reply = client.call(&Request::UpdateDemand { a, b, circuits: 2 })?;
/// assert!(matches!(reply, Response::DemandAccepted { .. }));
///
/// let Response::Path(path) = client.call(&Request::QueryPath { a, b })?.into_result()? else {
///     unreachable!("allocated pairs have a path")
/// };
/// assert!(path.length_km > 0.0);
/// server.shutdown();
/// # Ok::<(), iris_errors::IrisError>(())
/// ```
#[derive(Debug)]
pub struct ServiceClient {
    conn: Client<Service>,
}

impl ServiceClient {
    /// Connect to `addr`, or fail with [`IrisError::Io`]. The connection
    /// speaks JSON until [`ServiceClient::hello`] negotiates another codec.
    pub fn connect(addr: &str) -> IrisResult<Self> {
        Client::connect(addr).map(|conn| Self { conn })
    }

    /// Bound every subsequent call, as [`Client::set_deadline`] does;
    /// `None` restores unbounded blocking.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) -> IrisResult<()> {
        self.conn.set_deadline(deadline)
    }

    /// Connect, retrying `attempts` times with `delay_ms` between tries —
    /// for racing a server that is still planning its region at startup.
    ///
    /// # Errors
    ///
    /// The last [`IrisError::Io`] if every attempt fails.
    pub fn connect_retry(addr: &str, attempts: u32, delay_ms: u64) -> IrisResult<Self> {
        (1..attempts).fold(Self::connect(addr), |connected, _| {
            connected.or_else(|_| {
                std::thread::sleep(Duration::from_millis(delay_ms));
                Self::connect(addr)
            })
        })
    }

    /// The codec currently in effect on this connection.
    #[must_use]
    pub fn codec(&self) -> Codec {
        self.conn.codec()
    }

    /// Negotiate `codec` for the rest of this connection, as
    /// [`Client::hello`] does; a refusal leaves it usable as it was.
    pub fn hello(&mut self, codec: Codec) -> IrisResult<()> {
        self.conn.hello(codec)
    }

    /// The socket and its negotiated codec — for callers (the load
    /// generator's event loop) that go non-blocking after the handshake.
    #[must_use]
    pub fn into_parts(self) -> (TcpStream, Codec) {
        self.conn.into_parts()
    }

    /// Send one request and wait for its reply, under the caller's
    /// trace id if it has one (a write gets a fresh one while the
    /// recorder is on). `Error` replies are returned as
    /// `Ok(Response::Error(..))` — use [`Response::into_result`] or
    /// [`ServiceClient::call_retrying`] to surface them as typed errors.
    ///
    /// # Errors
    ///
    /// Those of [`Client::call`]: [`IrisError::Io`], [`IrisError::Timeout`]
    /// past the deadline, [`IrisError::Decode`] for a malformed reply.
    pub fn call(&mut self, req: &Request) -> IrisResult<Response> {
        call(&mut self.conn, req)
    }

    /// [`ServiceClient::call`] with an explicit trace context: `Some`
    /// attaches the id as a frame header, `None` sends a legacy frame.
    pub fn call_with_trace(&mut self, req: &Request, trace: Option<u64>) -> IrisResult<Response> {
        self.conn.call(req, trace)
    }

    /// [`ServiceClient::call`], backing off and retrying (up to
    /// `max_retries` times) when the server answers
    /// [`IrisError::Overloaded`]. Delays follow a [`Backoff`] seeded per
    /// call, anchored on the server-suggested `retry_after_ms` and capped
    /// at 16× it, so stampeding clients decorrelate.
    ///
    /// # Errors
    ///
    /// The final [`IrisError`] once retries are exhausted, or any
    /// non-backpressure error immediately.
    pub fn call_retrying(&mut self, req: &Request, max_retries: u32) -> IrisResult<Response> {
        call_retrying(&mut self.conn, req, max_retries)
    }
}

/// One region a [`RegionRouter`] can talk to. The order endpoints are
/// handed to the router is the client's preference order — nearest
/// first — so "nearest healthy" is simply the first healthy entry.
#[derive(Debug, Clone)]
pub struct RegionEndpoint {
    /// Region id (matches the server's `--region-id`).
    pub region: u64,
    /// Server address, `host:port`.
    pub addr: String,
}

/// How many consecutive `Overloaded` replies from one region a router
/// tolerates before failing over to the next healthy region.
pub const OVERLOADED_STREAK_LIMIT: u32 = 3;

/// A health-routed multi-region client: `Health` probes with per-call
/// deadlines, nearest-healthy read selection, failover on probe/call
/// timeouts, disconnects and [`IrisError::Overloaded`] streaks, write
/// routing to the probed primary (following [`IrisError::NotPrimary`]
/// redirects after a promotion), and read-your-writes via
/// [`Request::GetPlanAt`] epoch-waits that redirect to the primary when
/// a follower cannot catch up in time.
///
/// The router remembers every acknowledged demand write (absolute
/// per-pair targets, so re-applying is idempotent): after a primary
/// loss, [`RegionRouter::reassert_acked_writes`] replays them against
/// the newly promoted primary, which is what makes "zero lost
/// acknowledged writes" hold even when the old primary dies before
/// shipping its tail.
pub struct RegionRouter {
    endpoints: Vec<RegionEndpoint>,
    /// One per endpoint; a router fails over rather than wait out a delay.
    links: Vec<PeerLink<Service>>,
    healthy: Vec<bool>,
    primary_flag: Vec<bool>,
    streaks: Vec<u32>,
    current: usize,
    failovers: u64,
    stale_redirects: u64,
    write_epoch: u64,
    acked_writes: std::collections::BTreeMap<(usize, usize), u32>,
}

impl RegionRouter {
    /// A router over `endpoints` (preference order) with one per-call
    /// deadline for every probe and request.
    #[must_use]
    pub fn new(endpoints: Vec<RegionEndpoint>, deadline_ms: u64) -> Self {
        let n = endpoints.len();
        let deadline = Duration::from_millis(deadline_ms.max(1));
        let links = endpoints
            .iter()
            .map(|e| PeerLink::new(&e.addr, Some(deadline), Backoff::new(1, 1, 0)))
            .collect();
        Self {
            endpoints,
            links,
            healthy: vec![false; n],
            primary_flag: vec![false; n],
            streaks: vec![0; n],
            current: 0,
            failovers: 0,
            stale_redirects: 0,
            write_epoch: 0,
            acked_writes: std::collections::BTreeMap::new(),
        }
    }

    /// The configured endpoints, in preference order.
    #[must_use]
    pub fn endpoints(&self) -> &[RegionEndpoint] {
        &self.endpoints
    }

    /// Times the router switched away from a region it considered
    /// healthy (probe/call timeout, disconnect, or overload streak).
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Times an epoch-wait read timed out on a lagging follower and was
    /// redirected to the primary — the router's stale-read counter.
    #[must_use]
    pub fn stale_redirects(&self) -> u64 {
        self.stale_redirects
    }

    /// Highest commit epoch any acknowledged write of ours reported —
    /// the fence [`RegionRouter::read_at_own_writes`] waits for.
    #[must_use]
    pub fn write_epoch(&self) -> u64 {
        self.write_epoch
    }

    /// Region id of the current read target.
    #[must_use]
    pub fn current_region(&self) -> u64 {
        self.endpoints[self.current.min(self.endpoints.len() - 1)].region
    }

    /// Region id of the probed primary, if one is known and healthy.
    #[must_use]
    pub fn primary_region(&self) -> Option<u64> {
        self.primary_idx().map(|i| self.endpoints[i].region)
    }

    /// Probe every endpoint once; returns how many answered `Health`
    /// within the deadline.
    pub fn probe_all(&mut self) -> usize {
        (0..self.endpoints.len())
            .filter(|&idx| self.probe(idx))
            .count()
    }

    /// Probe one endpoint, refreshing its health and role.
    pub fn probe(&mut self, idx: usize) -> bool {
        match self.call_idx(idx, &Request::Health) {
            Ok(Response::Health(h)) => {
                self.healthy[idx] = true;
                self.primary_flag[idx] = h.role == "primary";
                true
            }
            _ => {
                self.mark_down(idx);
                false
            }
        }
    }

    /// Send `Promote` to the endpoint owning `region` and adopt it as
    /// the primary. The chaos harness drives failover with this.
    ///
    /// # Errors
    ///
    /// [`IrisError::InvalidInput`] for an unknown region id; transport
    /// errors from the promote call itself.
    pub fn promote_region(&mut self, region: u64) -> IrisResult<()> {
        let idx = self
            .endpoints
            .iter()
            .position(|e| e.region == region)
            .ok_or_else(|| IrisError::InvalidInput {
                detail: format!("unknown region {region}"),
            })?;
        // A cached connection may be stale (the region could have
        // restarted since the last probe): retry once on a fresh one.
        let resp = match self.call_idx(idx, &Request::Promote) {
            Ok(resp) => resp,
            Err(IrisError::Timeout { .. } | IrisError::Io { .. } | IrisError::Decode { .. }) => {
                self.mark_down(idx);
                self.call_idx(idx, &Request::Promote)?
            }
            Err(e) => return Err(e),
        };
        match resp.into_result()? {
            Response::Health(h) => {
                self.healthy[idx] = true;
                self.primary_flag.fill(false);
                self.primary_flag[idx] = h.role == "primary";
                Ok(())
            }
            other => Err(IrisError::Decode {
                detail: format!("unexpected reply to Promote: {other:?}"),
            }),
        }
    }

    /// Route one read to the nearest healthy region, failing over on
    /// transport errors and `Overloaded` streaks
    /// ([`OVERLOADED_STREAK_LIMIT`]).
    ///
    /// # Errors
    ///
    /// [`IrisError::Unreachable`] when no region stays healthy through
    /// a full probe cycle; any non-failover error verbatim.
    pub fn read(&mut self, req: &Request) -> IrisResult<Response> {
        let mut last = IrisError::Unreachable {
            what: "no healthy region".to_owned(),
        };
        for _ in 0..=self.endpoints.len() {
            let Some(idx) = self.pick_read() else { break };
            match self.call_idx(idx, req) {
                Ok(Response::Error(IrisError::Overloaded { retry_after_ms })) => {
                    self.streaks[idx] += 1;
                    if self.streaks[idx] >= OVERLOADED_STREAK_LIMIT {
                        self.fail_over(idx);
                        last = IrisError::Overloaded { retry_after_ms };
                        continue;
                    }
                    return Ok(Response::Error(IrisError::Overloaded { retry_after_ms }));
                }
                Ok(resp) => {
                    self.streaks[idx] = 0;
                    return Ok(resp);
                }
                Err(
                    e @ (IrisError::Timeout { .. }
                    | IrisError::Io { .. }
                    | IrisError::Decode { .. }),
                ) => {
                    self.fail_over(idx);
                    last = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Route one absolute demand write to the primary, following
    /// `NotPrimary` redirects (a follower answered; re-probe for the
    /// newly promoted primary) and failing over on transport errors.
    /// On acknowledgement, records the write and its commit epoch for
    /// [`RegionRouter::reassert_acked_writes`] /
    /// [`RegionRouter::read_at_own_writes`].
    ///
    /// # Errors
    ///
    /// [`IrisError::Unreachable`] when no primary can be found; any
    /// non-routable error verbatim.
    pub fn update_demand(&mut self, a: usize, b: usize, circuits: u32) -> IrisResult<u64> {
        let req = Request::UpdateDemand { a, b, circuits };
        let mut last = IrisError::Unreachable {
            what: "no primary region".to_owned(),
        };
        for _ in 0..=self.endpoints.len() + 1 {
            let Some(idx) = self.pick_primary() else {
                break;
            };
            match self.call_idx(idx, &req) {
                Ok(resp) => match resp.into_result() {
                    Ok(Response::DemandAccepted { epoch, .. }) => {
                        self.write_epoch = self.write_epoch.max(epoch);
                        self.acked_writes.insert((a, b), circuits);
                        return Ok(epoch);
                    }
                    Ok(other) => {
                        return Err(IrisError::Decode {
                            detail: format!("unexpected reply to UpdateDemand: {other:?}"),
                        })
                    }
                    Err(IrisError::NotPrimary { region }) => {
                        self.primary_flag[idx] = false;
                        self.probe_all();
                        last = IrisError::NotPrimary { region };
                    }
                    Err(IrisError::Overloaded { retry_after_ms }) => {
                        std::thread::sleep(Duration::from_millis(retry_after_ms));
                        last = IrisError::Overloaded { retry_after_ms };
                    }
                    Err(e) => return Err(e),
                },
                Err(
                    e @ (IrisError::Timeout { .. }
                    | IrisError::Io { .. }
                    | IrisError::Decode { .. }),
                ) => {
                    self.fail_over(idx);
                    self.probe_all();
                    last = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Read-your-writes: `GetPlanAt` against the nearest healthy
    /// region, waiting up to `wait_ms` for it to reach `min_epoch`. A
    /// follower that cannot catch up answers a typed `Timeout`; the
    /// router counts it as a stale-read redirect and retries against
    /// the primary, which trivially satisfies its own epochs.
    ///
    /// # Errors
    ///
    /// [`IrisError::Unreachable`] when every region fails; the final
    /// `Timeout` when even the primary cannot satisfy the fence.
    pub fn read_at(&mut self, min_epoch: u64, wait_ms: u64) -> IrisResult<Response> {
        let req = Request::GetPlanAt { min_epoch, wait_ms };
        let mut force: Option<usize> = None;
        let mut last = IrisError::Unreachable {
            what: "no healthy region".to_owned(),
        };
        for _ in 0..=self.endpoints.len() {
            let Some(idx) = force.take().or_else(|| self.pick_read()) else {
                break;
            };
            match self.call_idx(idx, &req) {
                Ok(resp) => match resp.into_result() {
                    Ok(plan) => return Ok(plan),
                    Err(IrisError::Timeout { what, after_ms }) => {
                        // The follower is lagging, not dead: redirect
                        // to the primary instead of failing the region.
                        self.stale_redirects += 1;
                        match self.pick_primary() {
                            Some(p) if p != idx => force = Some(p),
                            _ => return Err(IrisError::Timeout { what, after_ms }),
                        }
                        last = IrisError::Timeout {
                            what: "epoch wait".to_owned(),
                            after_ms,
                        };
                    }
                    Err(e) => return Err(e),
                },
                Err(
                    e @ (IrisError::Timeout { .. }
                    | IrisError::Io { .. }
                    | IrisError::Decode { .. }),
                ) => {
                    self.fail_over(idx);
                    last = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// [`RegionRouter::read_at`] anchored at the router's own highest
    /// acknowledged write epoch.
    ///
    /// # Errors
    ///
    /// Same as [`RegionRouter::read_at`].
    pub fn read_at_own_writes(&mut self, wait_ms: u64) -> IrisResult<Response> {
        self.read_at(self.write_epoch, wait_ms)
    }

    /// The acknowledged-write ledger: every pair the router got a
    /// `DemandAccepted` for, with its last acknowledged circuit count —
    /// the set [`RegionRouter::reassert_acked_writes`] replays and the
    /// chaos harness audits for lost writes.
    #[must_use]
    pub fn acked_pairs(&self) -> Vec<((usize, usize), u32)> {
        self.acked_writes
            .iter()
            .map(|(&pair, &circuits)| (pair, circuits))
            .collect()
    }

    /// Re-apply every acknowledged demand write against the current
    /// primary. Targets are absolute per-pair circuit counts, so
    /// replaying is idempotent; after a primary loss this guarantees
    /// the new primary reflects every write the old one acknowledged,
    /// even ones it never managed to ship. Returns how many writes were
    /// re-asserted.
    ///
    /// # Errors
    ///
    /// Any error from [`RegionRouter::update_demand`].
    pub fn reassert_acked_writes(&mut self) -> IrisResult<usize> {
        let writes = self.acked_pairs();
        for &((a, b), circuits) in &writes {
            self.update_demand(a, b, circuits)?;
        }
        Ok(writes.len())
    }

    /// First healthy endpoint in preference order, probing the fleet
    /// when none is currently marked healthy. Keeps `current` sticky so
    /// repeated reads reuse one connection until it fails.
    fn pick_read(&mut self) -> Option<usize> {
        if self.endpoints.is_empty() {
            return None;
        }
        if self.healthy[self.current] {
            return Some(self.current);
        }
        if let Some(idx) = self.healthy.iter().position(|&h| h) {
            self.current = idx;
            return Some(idx);
        }
        self.probe_all();
        let idx = self.healthy.iter().position(|&h| h)?;
        self.current = idx;
        Some(idx)
    }

    /// First healthy primary, probing the fleet when none is known.
    fn pick_primary(&mut self) -> Option<usize> {
        if self.primary_idx().is_none() {
            self.probe_all();
        }
        self.primary_idx()
    }

    fn primary_idx(&self) -> Option<usize> {
        (0..self.endpoints.len()).find(|&i| self.healthy[i] && self.primary_flag[i])
    }

    /// Mark an endpoint unusable and count the failover.
    fn fail_over(&mut self, idx: usize) {
        self.mark_down(idx);
        self.failovers += 1;
    }

    fn mark_down(&mut self, idx: usize) {
        self.healthy[idx] = false;
        self.links[idx].fail();
        self.streaks[idx] = 0;
    }

    /// One call against endpoint `idx`, over its link's session.
    fn call_idx(&mut self, idx: usize, req: &Request) -> IrisResult<Response> {
        call(self.links[idx].session(|_| Ok(()))?, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_delays_stay_within_the_decorrelated_jitter_bounds() {
        let (base, cap) = (10u64, 400u64);
        let mut backoff = Backoff::new(base, cap, 7);
        let mut prev = base;
        for i in 0..200 {
            let hi = prev.saturating_mul(3).max(base + 1).min(cap);
            let d = backoff.next_delay_ms();
            assert!(d >= base, "delay {d} below base {base} at step {i}");
            assert!(d <= cap, "delay {d} above cap {cap} at step {i}");
            assert!(
                d <= hi,
                "delay {d} above decorrelated bound {hi} at step {i}"
            );
            prev = d;
        }
    }

    #[test]
    fn backoff_sequences_are_seed_deterministic_and_jittered() {
        let collect = |seed: u64| -> Vec<u64> {
            let mut b = Backoff::new(5, 1000, seed);
            (0..32).map(|_| b.next_delay_ms()).collect()
        };
        assert_eq!(collect(42), collect(42), "same seed, same schedule");
        assert_ne!(collect(1), collect(2), "different seeds decorrelate");
        let seq = collect(42);
        assert!(
            seq.iter().collect::<std::collections::BTreeSet<_>>().len() > 1,
            "the schedule must actually jitter: {seq:?}"
        );
    }

    #[test]
    fn backoff_degenerate_config_is_clamped_sane() {
        let mut b = Backoff::new(0, 0, 9);
        for _ in 0..16 {
            let d = b.next_delay_ms();
            assert!(d >= 1, "zero base clamps to 1ms");
            assert!(d <= 1, "cap clamps to the base");
        }
    }
}
