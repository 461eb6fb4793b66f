//! The frame server: one acceptor, `N` shard event loops, and a
//! [`Handler`] per shard that speaks the protocol.
//!
//! The acceptor takes connections off the listener and deals them
//! round-robin to the shards. Each shard is one thread running a
//! level-triggered readiness loop ([`iris_poll`]) over the
//! [`FramedConn`]s pinned to it: no thread ever parks on a single peer,
//! so one shard multiplexes thousands of connections. What arrives in a
//! frame and what goes back is the handler's business — the server
//! knows sockets, frames, reply order and deadlines, not messages.
//!
//! **Reply order.** A client may pipeline; replies leave in request
//! order. The handler answers each frame either at once
//! ([`Outbox::reply`], [`Outbox::reply_framed`]) or later
//! ([`Outbox::defer`] hands out a [`Ticket`]); a reply queued behind a
//! parked ticket waits for it. With nothing parked — the read path — a
//! reply is written straight into the connection's write buffer.
//!
//! **Completions.** Whoever finishes deferred work (another thread,
//! usually) sends the result to the owning shard through the
//! [`Mailbox`]; the shard hands it to [`Handler::on_completion`], which
//! frames the reply and calls [`Conns::fill`]. Connection slots are
//! recycled, so a ticket carries a generation: a fill for a connection
//! that has since gone is dropped.
//!
//! **Deadlines.** After every wake-up the shard calls
//! [`Handler::on_tick`], which expires whatever the handler parked and
//! returns the nearest deadline still pending; the shard sleeps no
//! longer than that.

use crate::conn::FramedConn;
use crate::frame::append_frame_with;
use iris_errors::{IrisError, IrisResult};
use iris_poll::{Event, Interest, Poller, Waker};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token reserved for each shard's cross-thread waker.
const WAKER_TOKEN: usize = usize::MAX;
/// Longest a shard sleeps with no deadline pending — the bound on how
/// late it notices a stop request that came without a wake.
const IDLE_TICK: Duration = Duration::from_millis(50);
/// Ceiling of the acceptor's transient-error back-off, ms.
const ACCEPT_BACKOFF_CAP_MS: u64 = 100;

/// The address of one deferred reply: shard, connection slot, the
/// slot's generation (slots are recycled) and the reply's place in the
/// connection's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// The shard that owns the connection.
    pub shard: usize,
    /// The connection's slot in that shard's table.
    pub token: usize,
    /// The slot's generation when the ticket was issued.
    pub gen: u64,
    /// Which of the connection's deferred replies this is.
    pub seq: u64,
}

/// One protocol, as the frame server sees it. A server runs one handler
/// value per shard, on that shard's thread; handlers share state
/// through whatever they hold (`Arc`s, channels).
pub trait Handler: Send + Sized + 'static {
    /// Per-connection protocol state (a negotiated codec, say).
    type Conn: Send + 'static;
    /// What a deferred reply's slot remembers until it is filled.
    type Parked: Send + 'static;
    /// What arrives through the [`Mailbox`] when deferred work is done.
    type Completion: Send + 'static;

    /// A connection was accepted onto this shard.
    fn open(&mut self) -> Self::Conn;

    /// One request frame arrived. Answer through `out`, now or later.
    fn on_frame(
        &mut self,
        conn: &mut Self::Conn,
        out: &mut Outbox<Self::Parked>,
        payload: &[u8],
        trace_id: Option<u64>,
    );

    /// The connection's framing broke (`err` says how). Whatever is
    /// replied here is flushed, then the connection closes.
    fn on_bad_frame(
        &mut self,
        conn: &mut Self::Conn,
        out: &mut Outbox<Self::Parked>,
        err: IrisError,
    );

    /// A completion for `ticket` arrived through the mailbox.
    fn on_completion(
        &mut self,
        _conns: &mut Conns<Self>,
        _ticket: Ticket,
        _done: Self::Completion,
    ) {
    }

    /// Every [`Mailbox`] handle is gone: no completion will arrive any
    /// more. A handler that defers answers what is still outstanding
    /// ([`Conns::fill_outstanding`]) instead of leaving peers hanging.
    fn on_mailbox_closed(&mut self, _conns: &mut Conns<Self>) {}

    /// Called after every wake-up. Expire parked work that is due and
    /// return the nearest deadline still pending, if any.
    fn on_tick(&mut self, _conns: &mut Conns<Self>, _now: Instant) -> Option<Instant> {
        None
    }
}

/// One reply owed to a connection, in request order.
enum Slot<P> {
    /// Deferred: waiting for its ticket to be filled.
    Parked { seq: u64, parked: P },
    /// Framed, waiting only for the slots in front of it.
    Ready(Vec<u8>),
}

/// One connection's ordered reply queue: where a handler puts the
/// replies to the frame it is looking at.
pub struct Outbox<P> {
    io: FramedConn,
    queue: VecDeque<Slot<P>>,
    /// The ticket the next deferred reply gets.
    next: Ticket,
    /// Stop reading; close once the write buffer and the queue drain.
    closing: bool,
}

impl<P> Outbox<P> {
    /// Reply with bytes that are already a frame (length prefix
    /// included). With nothing parked in front this is one copy into
    /// the write buffer.
    pub fn reply_framed(&mut self, framed: &[u8]) {
        if self.queue.is_empty() {
            self.io.queue(framed);
        } else {
            self.queue.push_back(Slot::Ready(framed.to_vec()));
        }
    }

    /// Reply with one frame whose payload `encode` writes. A handler
    /// may reply any number of times to one request; the frames leave
    /// in the order they were queued.
    ///
    /// # Errors
    ///
    /// Whatever `encode` returns, or
    /// [`IrisError::InvalidInput`] for a payload past
    /// [`crate::frame::MAX_FRAME_LEN`]; nothing is queued on error.
    pub fn reply(&mut self, encode: impl FnOnce(&mut Vec<u8>) -> IrisResult<()>) -> IrisResult<()> {
        if self.queue.is_empty() {
            return self.io.queue_frame(None, encode);
        }
        let mut framed = Vec::new();
        append_frame_with(&mut framed, None, encode)?;
        self.queue.push_back(Slot::Ready(framed));
        Ok(())
    }

    /// Park a reply: later replies on this connection queue behind it
    /// until the returned ticket is filled. `parked` is handed back to
    /// whoever fills it.
    pub fn defer(&mut self, parked: P) -> Ticket {
        let ticket = self.next;
        self.next.seq += 1;
        self.queue.push_back(Slot::Parked {
            seq: ticket.seq,
            parked,
        });
        ticket
    }

    /// Fill a ticket this outbox issued with the frame `frame` builds
    /// from what was parked with it. Returns `false` — and calls
    /// nothing — if the ticket is not (or no longer) parked here.
    pub fn fill(&mut self, ticket: Ticket, frame: impl FnOnce(&P) -> Vec<u8>) -> bool {
        for slot in &mut self.queue {
            if let Slot::Parked { seq, parked } = slot {
                if *seq == ticket.seq {
                    *slot = Slot::Ready(frame(parked));
                    return true;
                }
            }
        }
        false
    }

    /// Flush what is queued, then close the connection.
    pub fn close(&mut self) {
        self.closing = true;
    }

    /// Move every ready reply at the front into the write buffer, flush,
    /// and update the poller registration. Returns whether the
    /// connection stays open.
    fn settle(&mut self, poller: &Poller) -> bool {
        while let Some(Slot::Ready(framed)) = self.queue.front() {
            self.io.queue(framed);
            self.queue.pop_front();
        }
        if self.io.flush().is_err() {
            return false;
        }
        if self.closing && !self.io.wants_write() && self.queue.is_empty() {
            return false;
        }
        self.io
            .reconcile(poller, self.next.token, !self.closing)
            .is_ok()
    }
}

/// One accepted connection.
struct Entry<H: Handler> {
    outbox: Outbox<H::Parked>,
    state: H::Conn,
}

/// A shard's connections: where a handler resolves deferred replies.
pub struct Conns<H: Handler> {
    shard: usize,
    poller: Poller,
    slots: Vec<Option<Entry<H>>>,
    free: Vec<usize>,
    /// Generation of the newest connection. Slots are recycled; a late
    /// fill must not land on a connection that reused one.
    gen: u64,
}

impl<H: Handler> Conns<H> {
    /// Fill `ticket` (see [`Outbox::fill`]). Also `false` when the
    /// connection is gone: its slot is empty or was recycled under a
    /// newer generation.
    pub fn fill(&mut self, ticket: Ticket, frame: impl FnOnce(&H::Parked) -> Vec<u8>) -> bool {
        let slot = self.slots.get_mut(ticket.token);
        let Some(mut entry) = slot.and_then(|s| s.take_if(|e| e.outbox.next.gen == ticket.gen))
        else {
            return false;
        };
        let filled = entry.outbox.fill(ticket, frame);
        self.put_back(entry, true);
        filled
    }

    /// Fill every ticket still parked on this shard.
    pub fn fill_outstanding(&mut self, mut frame: impl FnMut(&H::Parked) -> Vec<u8>) {
        for token in 0..self.slots.len() {
            let Some(mut entry) = self.slots[token].take() else {
                continue;
            };
            for slot in &mut entry.outbox.queue {
                if let Slot::Parked { parked, .. } = slot {
                    *slot = Slot::Ready(frame(parked));
                }
            }
            self.put_back(entry, true);
        }
    }

    fn insert(&mut self, stream: TcpStream, state: H::Conn) {
        let Ok(io) = FramedConn::new(stream) else {
            return;
        };
        self.gen += 1;
        let token = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let next = Ticket {
            shard: self.shard,
            token,
            gen: self.gen,
            seq: 0,
        };
        let outbox = Outbox {
            io,
            queue: VecDeque::new(),
            next,
            closing: false,
        };
        self.put_back(Entry { outbox, state }, true);
    }

    /// Settle `entry` and return it to its slot, or drop it and free
    /// the slot if it is (or turns out to be) finished.
    fn put_back(&mut self, mut entry: Entry<H>, alive: bool) {
        let token = entry.outbox.next.token;
        if alive && entry.outbox.settle(&self.poller) {
            self.slots[token] = Some(entry);
        } else {
            entry.outbox.io.deregister(&self.poller);
            self.free.push(token);
        }
    }
}

/// The sending side of every shard's completion channel. Dropping the
/// last handle tells the shards no completion will ever arrive
/// ([`Handler::on_mailbox_closed`]).
pub struct Mailbox<C> {
    txs: Vec<Sender<(Ticket, C)>>,
    wakers: Vec<Arc<Waker>>,
}

impl<C> Mailbox<C> {
    /// Route each completion to the shard its ticket names, then wake
    /// every shard that received one — or, with `wake_all`, every shard
    /// (something all of them park on has changed).
    pub fn deliver(&self, completions: impl IntoIterator<Item = (Ticket, C)>, wake_all: bool) {
        let mut touched = vec![wake_all; self.txs.len()];
        for (ticket, done) in completions {
            if let Some(tx) = self.txs.get(ticket.shard) {
                touched[ticket.shard] |= tx.send((ticket, done)).is_ok();
            }
        }
        for (waker, wake) in self.wakers.iter().zip(touched) {
            if wake {
                waker.wake();
            }
        }
    }
}

/// A running frame server.
pub struct FrameServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    threads: Vec<JoinHandle<()>>,
}

impl FrameServer {
    /// The bound listen address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Raise the stop flag, unblock the acceptor and every shard, and
    /// join them.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The acceptor blocks in `accept`; a throwaway connection gets
        // it to look at the flag.
        let _ = TcpStream::connect(self.local_addr);
        for waker in &self.wakers {
            waker.wake();
        }
        self.join();
    }

    /// Wait for the acceptor and the shards to exit.
    pub fn join(&mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Start serving `listener` with one shard per handler.
///
/// `stop` is the flag that ends the server: shards look at it after
/// every wake-up, the acceptor after every connection (see
/// [`FrameServer::shutdown`]). `on_accept_error` is called for every
/// failed `accept`; the acceptor then backs off and keeps accepting.
///
/// # Errors
///
/// [`IrisError::Io`] if the listener's address cannot be read or a
/// shard's poller or waker cannot be created. No thread has started
/// when this fails.
///
/// # Panics
///
/// If `handlers` is empty.
pub fn spawn<H: Handler>(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    handlers: Vec<H>,
    mut on_accept_error: impl FnMut() + Send + 'static,
) -> IrisResult<(FrameServer, Mailbox<H::Completion>)> {
    assert!(!handlers.is_empty(), "a frame server needs a shard");
    let io_err = |what: &str, e: std::io::Error| IrisError::Io {
        detail: format!("cannot create shard {what}: {e}"),
    };
    let local_addr = listener
        .local_addr()
        .map_err(|e| io_err("listen address", e))?;
    let mut shards = Vec::with_capacity(handlers.len());
    let mut intakes = Vec::with_capacity(handlers.len());
    let mut txs = Vec::with_capacity(handlers.len());
    let mut wakers = Vec::with_capacity(handlers.len());
    for (id, handler) in handlers.into_iter().enumerate() {
        let poller = Poller::new().map_err(|e| io_err("poller", e))?;
        let waker = Arc::new(Waker::new().map_err(|e| io_err("waker", e))?);
        poller
            .register(waker.fd(), WAKER_TOKEN, Interest::READ)
            .map_err(|e| io_err("waker registration", e))?;
        let (intake_tx, intake) = mpsc::channel();
        let (tx, mailbox) = mpsc::channel();
        intakes.push(intake_tx);
        txs.push(tx);
        wakers.push(Arc::clone(&waker));
        shards.push(Shard {
            handler,
            conns: Conns {
                shard: id,
                poller,
                slots: Vec::new(),
                free: Vec::new(),
                gen: 0,
            },
            waker,
            intake,
            mailbox: Some(mailbox),
            stop: Arc::clone(&stop),
        });
    }

    let mut threads: Vec<JoinHandle<()>> = shards
        .into_iter()
        .map(|shard| std::thread::spawn(move || shard.run()))
        .collect();
    let acceptor = {
        let stop = Arc::clone(&stop);
        let wakers = wakers.clone();
        std::thread::spawn(move || {
            let mut next = 0usize;
            let mut backoff_ms = 1u64;
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else {
                    // Transient accept failures (EMFILE, ECONNABORTED,
                    // EINTR, ...) must not tear down the listener:
                    // count them and back off so an fd-exhausted
                    // process does not spin, then keep accepting.
                    on_accept_error();
                    std::thread::sleep(Duration::from_millis(backoff_ms));
                    backoff_ms = (backoff_ms * 2).min(ACCEPT_BACKOFF_CAP_MS);
                    continue;
                };
                backoff_ms = 1;
                let shard = next % intakes.len();
                next += 1;
                if intakes[shard].send(stream).is_err() {
                    break;
                }
                wakers[shard].wake();
            }
        })
    };
    threads.push(acceptor);

    let server = FrameServer {
        local_addr,
        stop,
        wakers: wakers.clone(),
        threads,
    };
    Ok((server, Mailbox { txs, wakers }))
}

/// One shard's event loop.
struct Shard<H: Handler> {
    handler: H,
    conns: Conns<H>,
    waker: Arc<Waker>,
    intake: Receiver<TcpStream>,
    /// `None` once every [`Mailbox`] handle is gone.
    mailbox: Option<Receiver<(Ticket, H::Completion)>>,
    stop: Arc<AtomicBool>,
}

impl<H: Handler> Shard<H> {
    fn run(mut self) {
        let mut events = Vec::new();
        let mut timeout = IDLE_TICK;
        loop {
            if self.conns.poller.wait(&mut events, Some(timeout)).is_err() {
                std::thread::sleep(timeout);
            }
            self.waker.drain();
            while let Ok(stream) = self.intake.try_recv() {
                self.conns.insert(stream, self.handler.open());
            }
            self.drain_mailbox();
            for ev in events.iter().filter(|ev| ev.token != WAKER_TOKEN) {
                self.on_event(ev);
            }
            let now = Instant::now();
            let due = self.handler.on_tick(&mut self.conns, now);
            timeout = due.map_or(IDLE_TICK, |due| {
                due.saturating_duration_since(now).min(IDLE_TICK)
            });
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
        }
    }

    fn drain_mailbox(&mut self) {
        while let Some(mailbox) = &self.mailbox {
            match mailbox.try_recv() {
                Ok((ticket, done)) => self.handler.on_completion(&mut self.conns, ticket, done),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.mailbox = None;
                    self.handler.on_mailbox_closed(&mut self.conns);
                }
            }
        }
    }

    /// Read what the socket has and hand every complete frame to the
    /// handler; then flush whatever is owed (this is also what a
    /// writable event is for).
    fn on_event(&mut self, ev: &Event) {
        let Some(mut entry) = self.conns.slots.get_mut(ev.token).and_then(Option::take) else {
            return;
        };
        let Entry { outbox, state } = &mut entry;
        let mut alive = !ev.error;
        if alive && ev.readable && !outbox.closing {
            alive = outbox.io.fill().is_ok();
            while alive && !outbox.closing {
                match outbox.io.next_frame() {
                    Ok(Some(frame)) => {
                        self.handler
                            .on_frame(state, outbox, &frame.payload, frame.trace_id);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        self.handler.on_bad_frame(state, outbox, e);
                        outbox.close();
                    }
                }
            }
            // The peer finished sending: what it sent in full has been
            // served, a trailing partial frame never will be.
            outbox.closing |= outbox.io.is_eof();
        }
        self.conns.put_back(entry, alive);
    }
}
