//! `iris-service` — the long-running regional control-plane server.
//!
//! The planner and controller crates answer one-shot questions; this
//! crate keeps a region *live*: a sharded non-blocking TCP server (std
//! only — no async runtime) speaking length-prefixed frames ([`frame`])
//! with a typed request API ([`api`]) in either of two codecs
//! ([`codec`]).
//!
//! The modules: [`server`] wires everything up and holds the protocol
//! (the `Handler` that [`iris_wire::server`] runs on every shard);
//! `commit` is the write path behind it (one mutator thread) and
//! `replicate` the per-peer replication pump; [`state`],
//! [`wal`] and [`recovery`] are what they publish, persist and replay;
//! [`client`] and [`loadgen`] are the other end of the socket. Every
//! outbound connection — a client's, the router's, the pump's — is an
//! [`iris_wire::Client`], re-dialled through an [`iris_wire::PeerLink`].
//!
//! The serving model is the crate's point:
//!
//! * **Connections live on event-loop shards.** The transport is
//!   `iris-wire`'s frame server: one acceptor hands each socket
//!   round-robin to a [`ServiceConfig::shards`]-sized pool of shard
//!   loops, each driving its connections through one
//!   `iris_poll::Poller` with per-connection read/write buffers, and
//!   this crate's handler answers the frames. Clients may pipeline —
//!   any number of request frames in flight, replies strictly FIFO per
//!   connection.
//! * **Codecs are negotiated per connection.** Frames carry JSON until
//!   a `Hello { codec: "binary" }` switches the connection to the
//!   compact binary encoding (and back); the ack travels in the old
//!   codec, and an unknown name is a typed `InvalidInput` that leaves
//!   the connection usable.
//! * **Reads are pre-serialized snapshot reads.** Every `GetPlan` /
//!   `GetTopology` is answered from reply frames serialized once per
//!   epoch, in both codecs, when the snapshot is published — the
//!   per-request cost is a memcpy. `QueryPath` / `Health` read the
//!   immutable `Arc<StateSnapshot>` published beside those frames, in
//!   the same cell; the only synchronization on the read path is an
//!   `Arc` clone.
//! * **Writes are single-threaded, coalesced, and paced by the fsync.**
//!   `UpdateDemand` and `ReportFiberCut` flow through a bounded queue
//!   to one mutator thread, which drains what has queued, keeps only
//!   the last update per DC pair, drives the
//!   [`iris_control::Controller`], fsyncs the batch, publishes it and
//!   acknowledges it. Writes that arrive during the fsync become the
//!   next batch, so one fsync acknowledges all of them.
//! * **Backpressure is typed.** A full queue answers
//!   [`iris_errors::IrisError::Overloaded`] with a suggested
//!   `retry_after_ms` instead of blocking the socket; the client's
//!   retry path adds seeded decorrelated jitter on top.
//!
//! [`loadgen`] is the matching seeded load generator — one poller
//! drives all its connections (the same `iris_wire::FramedConn` the
//! shards use) from one thread, closed-loop (optionally
//! pipelined) or open-loop (seeded Poisson arrivals via
//! `LoadgenConfig::rate`) — and it splits its report into
//! seed-deterministic results (byte-identical JSON across runs, thread
//! counts, codecs, shard counts, and pipeline depths) and wall-clock
//! measurements (printed only).
//!
//! **Durability** is opt-in via [`ServiceConfig::wal_dir`]: every
//! applied write batch is appended + fsync'd to an append-only
//! write-ahead log ([`wal`]) *before* its snapshot is published, and the
//! log is periodically compacted into a JSON snapshot. A restarted
//! server replays WAL-after-snapshot ([`recovery`]) and republishes a
//! byte-identical `Arc<StateSnapshot>` — same epoch, same allocation,
//! same paths, same `last_recovery` — as the process that crashed.
//!
//! **One transition.** [`ControlMachine`] is the only code that changes
//! control-plane state: `restore` (boot seed or persisted snapshot),
//! `replay` (one durable record: validate, apply, seal) and `seal`
//! (append, build the snapshot, compact). Live batches, WAL replay,
//! batches replicated from a primary and adopted snapshots are all
//! compositions of those three. A record from a peer or from disk is
//! validated there before anything is touched, and one that cannot be
//! replayed on this region is a typed
//! [`iris_errors::IrisError::ReplayFailed`]; a client's own write is
//! checked by the shard before it is queued (`InvalidInput`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod api;
pub mod client;
pub mod codec;
mod commit;
pub use iris_wire::frame;
pub mod loadgen;
pub mod recovery;
mod replicate;
pub mod server;
pub mod state;
pub mod wal;

pub use api::{Request, Response, SlowRequestInfo, TraceDumpInfo, TraceEventInfo};
pub use client::{RegionEndpoint, RegionRouter, ServiceClient};
pub use codec::Codec;
pub use frame::{MAX_FRAME_LEN, TRACE_FLAG};
pub use loadgen::{run_loadgen, GeoPopulation, LoadReport, LoadgenConfig};
pub use recovery::{recover, ControlMachine, CutReply, ReplayStats};
pub use server::{serve, ServiceConfig, ServiceHandle};
pub use state::StateSnapshot;
pub use wal::{read_log, read_snapshot, PersistedSnapshot, Salvage, Wal, WalBatch};
