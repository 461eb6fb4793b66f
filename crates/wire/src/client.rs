//! The client half of the transport: [`Client`], the one blocking
//! framed connection, and [`PeerLink`], the one way a peer is
//! re-dialled, both generic over a [`Protocol`]. Neither sleeps, counts
//! or traces: a caller takes the delay [`PeerLink::fail`] returns,
//! waits it out its own way (or not at all) and keeps its own counters.
//! [`recv_frame`] is the one blocking read loop, over any byte stream:
//! `Client` runs it on its socket, a test on a `Cursor` or its own end
//! of a connection.

use crate::bin::Wire;
use crate::frame::{append_frame_with, parse_frame, truncated, ParsedFrame};
use crate::{Backoff, Codec};
use iris_errors::{IrisError, IrisResult};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::io::{ErrorKind, Read, Write as _};
use std::marker::PhantomData;
use std::net::TcpStream;
use std::time::Duration;

/// What the transport has to know about the messages it carries.
pub trait Protocol {
    /// What this side sends.
    type Request: Wire + Serialize;
    /// What the peer answers.
    type Response: Wire + Deserialize + Debug;
    /// The reply type's name in decode errors.
    const REPLY: &'static str;

    /// The request that asks the peer to switch to `codec`.
    fn hello(codec: Codec) -> Self::Request;
    /// The codec name `reply` acknowledges, if it answers a `Hello`.
    fn hello_ack(reply: &Self::Response) -> Option<&str>;
    /// `reply`, or the typed error it carries if it is an error reply.
    fn into_result(reply: Self::Response) -> IrisResult<Self::Response>;
    /// A request's name, for the text of a timeout.
    fn op(req: &Self::Request) -> &'static str;
}

/// One blocking connection: a request frame out, reply frames in. It
/// speaks JSON until [`Client::hello`] negotiates another codec.
#[derive(Debug)]
pub struct Client<P: Protocol> {
    stream: TcpStream,
    /// What the socket returned beyond the last reply taken.
    rbuf: Vec<u8>,
    /// The request frame being sent; kept for its capacity.
    wbuf: Vec<u8>,
    codec: Codec,
    /// Per-reply deadline; `None` blocks for as long as it takes.
    deadline: Option<Duration>,
    /// The request last sent: what a timeout was waiting on.
    pending: &'static str,
    protocol: PhantomData<P>,
}

impl<P: Protocol> Client<P> {
    /// Connect to `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// [`IrisError::Io`] if that fails.
    pub fn connect(addr: &str) -> IrisResult<Self> {
        let stream = TcpStream::connect(addr).map_err(|e| IrisError::Io {
            detail: format!("cannot connect to {addr}: {e}"),
        })?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            codec: Codec::Json,
            deadline: None,
            pending: "unsent",
            protocol: PhantomData,
        })
    }

    /// Bound every later reply: when the peer sends nothing for
    /// `deadline`, before or in the middle of a reply, [`Client::recv`]
    /// fails with [`IrisError::Timeout`] instead of stalling on a hung
    /// or partitioned peer.
    ///
    /// # Errors
    ///
    /// [`IrisError::Io`] if the socket rejects the timeout.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) -> IrisResult<()> {
        let io_err = |e: std::io::Error| IrisError::Io {
            detail: format!("cannot set socket deadline: {e}"),
        };
        self.stream.set_read_timeout(deadline).map_err(io_err)?;
        self.stream.set_write_timeout(deadline).map_err(io_err)?;
        self.deadline = deadline;
        Ok(())
    }

    /// The codec currently in effect.
    #[must_use]
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// The socket and its codec, for a caller that goes non-blocking.
    /// Call it between exchanges, with every reply received: bytes the
    /// client has read and not yet handed out do not come along.
    #[must_use]
    pub fn into_parts(self) -> (TcpStream, Codec) {
        debug_assert!(self.rbuf.is_empty(), "into_parts in mid-reply");
        (self.stream, self.codec)
    }

    /// Negotiate `codec`. The `Hello` and its acknowledgement travel in
    /// the current codec; the connection then switches to the codec the
    /// peer *acknowledged*. A refusal leaves it usable as it was.
    ///
    /// # Errors
    ///
    /// The peer's typed refusal; [`IrisError::Decode`] for any other
    /// reply or an unknown acknowledged name; those of [`Client::call`].
    pub fn hello(&mut self, codec: Codec) -> IrisResult<()> {
        let reply = P::into_result(self.call(&P::hello(codec), None)?)?;
        let name = P::hello_ack(&reply).ok_or_else(|| IrisError::Decode {
            detail: format!("unexpected reply to Hello: {reply:?}"),
        })?;
        self.codec = Codec::from_name(name).ok_or_else(|| IrisError::Decode {
            detail: format!("peer acknowledged unknown codec {name:?}"),
        })?;
        Ok(())
    }

    /// Send one request frame, with `trace` in its header if `Some`.
    ///
    /// # Errors
    ///
    /// [`IrisError::Io`] on socket failure, [`IrisError::InvalidInput`]
    /// for a request larger than a frame.
    pub fn send(&mut self, req: &P::Request, trace: Option<u64>) -> IrisResult<()> {
        let codec = self.codec;
        self.wbuf.clear();
        append_frame_with(&mut self.wbuf, trace, |buf| codec.encode_into(req, buf))?;
        self.pending = P::op(req);
        self.stream
            .write_all(&self.wbuf)
            .map_err(|e| IrisError::Io {
                detail: format!("frame write failed: {e}"),
            })
    }

    /// Wait for the next reply frame. A request answered with several
    /// frames is one [`Client::send`] and as many `recv`s.
    ///
    /// # Errors
    ///
    /// [`IrisError::Timeout`] naming the pending request when the
    /// deadline passes, [`IrisError::Io`] when the peer closes instead
    /// of replying, [`IrisError::Decode`] for a malformed or oversized
    /// frame (refused before it is allocated).
    pub fn recv(&mut self) -> IrisResult<P::Response> {
        match recv_frame(&mut self.stream, &mut self.rbuf) {
            Ok(Some(frame)) => self.codec.decode(&frame.payload, P::REPLY),
            Ok(None) => Err(IrisError::Io {
                detail: "peer closed the connection before replying".to_owned(),
            }),
            Err(IrisError::Timeout { .. }) => Err(IrisError::Timeout {
                what: format!("{} call", self.pending),
                after_ms: self.deadline.map_or(0, |d| d.as_millis() as u64),
            }),
            Err(e) => Err(e),
        }
    }

    /// [`Client::send`], then one [`Client::recv`]. An error reply is
    /// `Ok`; [`Protocol::into_result`] surfaces it.
    pub fn call(&mut self, req: &P::Request, trace: Option<u64>) -> IrisResult<P::Response> {
        self.send(req, trace)?;
        self.recv()
    }
}

/// Bytes one `read` of [`recv_frame`] asks for.
const RECV_CHUNK: usize = 16 * 1024;

/// Block on `r` until `buf` starts with a complete frame, and take it
/// out of `buf`. `buf` belongs to the stream: it holds whatever arrived
/// behind the frame until the next call. `Ok(None)` is the peer closing
/// between frames.
///
/// The buffer grows by what the stream delivered, never by what a
/// prefix announced. A `read` that times out fails the call even with a
/// frame half arrived (the timeout is per `read`, so a long frame that
/// keeps arriving is not cut short); the stream is then mid-frame and
/// of no further use.
///
/// # Errors
///
/// [`IrisError::Decode`] for an oversized announced length or a stream
/// that ends inside a frame; [`IrisError::Timeout`] (`after_ms` 0: the
/// stream's owner knows its timeout) for a `read` that timed out;
/// [`IrisError::Io`] for any other failure.
pub fn recv_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> IrisResult<Option<ParsedFrame>> {
    let mut chunk = [0u8; RECV_CHUNK];
    loop {
        if let Some(frame) = parse_frame(buf)? {
            buf.drain(..frame.consumed);
            return Ok(Some(frame));
        }
        match r.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return Ok(None),
            Ok(0) => return Err(truncated(buf)),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(IrisError::Timeout {
                    what: "frame read".to_owned(),
                    after_ms: 0,
                })
            }
            Err(e) => {
                return Err(IrisError::Io {
                    detail: format!("frame read failed: {e}"),
                })
            }
        }
    }
}

/// One peer: its address, the reconnect schedule, and a [`Client`] that
/// [`PeerLink::session`] opens when needed and [`PeerLink::fail`] drops.
#[derive(Debug)]
pub struct PeerLink<P: Protocol> {
    addr: String,
    deadline: Option<Duration>,
    backoff: Backoff,
    client: Option<Client<P>>,
}

impl<P: Protocol> PeerLink<P> {
    /// A link to `addr`, not yet connected. Every connection it opens
    /// gets `deadline` and the binary codec; `backoff` spaces failures.
    #[must_use]
    pub fn new(addr: &str, deadline: Option<Duration>, backoff: Backoff) -> Self {
        Self {
            addr: addr.to_owned(),
            deadline,
            backoff,
            client: None,
        }
    }

    /// The live connection; when there is none: connect, arm the
    /// deadline, negotiate binary, run `resume` (what the caller does
    /// first in a session), and only then keep the connection and start
    /// the schedule over from its base.
    ///
    /// # Errors
    ///
    /// The first failure of those steps; the socket is already closed.
    pub fn session(
        &mut self,
        resume: impl FnOnce(&mut Client<P>) -> IrisResult<()>,
    ) -> IrisResult<&mut Client<P>> {
        let client = match self.client.take() {
            Some(live) => live,
            None => {
                let mut fresh = Client::connect(&self.addr)?;
                fresh.set_deadline(self.deadline)?;
                fresh.hello(Codec::Binary)?;
                resume(&mut fresh)?;
                self.backoff.reset();
                fresh
            }
        };
        Ok(self.client.insert(client))
    }

    /// The session failed (or never started): close the connection, if
    /// any, and return the milliseconds to leave before the next one.
    pub fn fail(&mut self) -> u64 {
        self.client = None;
        self.backoff.next_delay_ms()
    }
}
