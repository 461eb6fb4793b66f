//! One framed connection on a non-blocking socket.
//!
//! [`FramedConn`] owns the socket, a read buffer that accumulates
//! partial frames and a write buffer that drains as the peer reads. It
//! is the only place in the workspace that loops a socket until
//! `WouldBlock` (in either direction) or reconciles a poller
//! registration with what the connection currently needs; the frame
//! server's shards and the service's load generator both sit on it.

use crate::frame::{append_frame_with, parse_frame, ParsedFrame};
use iris_errors::IrisResult;
use iris_poll::{Interest, Poller};
use std::io::{self, ErrorKind, Read as _, Write as _};
use std::net::TcpStream;
use std::os::fd::AsRawFd;

/// Read-buffer growth increment, and the consumed-prefix size past
/// which a partly flushed write buffer is compacted.
const CHUNK: usize = 64 * 1024;
/// Bytes one [`FramedConn::fill`] call reads at most; a firehose
/// connection yields to its siblings after this many (level-triggered
/// readiness re-reports the rest immediately).
const READ_BUDGET: usize = 256 * 1024;

/// A non-blocking socket with its frame buffers.
#[derive(Debug)]
pub struct FramedConn {
    stream: TcpStream,
    /// Unparsed input is `rbuf[rpos..rlen]`.
    rbuf: Vec<u8>,
    rpos: usize,
    rlen: usize,
    /// Unsent output is `wbuf[wpos..]`.
    wbuf: Vec<u8>,
    wpos: usize,
    /// The peer finished sending. Reading stops; parsing what already
    /// arrived does not.
    eof: bool,
    /// What the poller currently watches this socket for.
    registered: Option<Interest>,
}

impl FramedConn {
    /// Wrap `stream`, switching it to non-blocking mode.
    ///
    /// # Errors
    ///
    /// The OS error if the socket cannot be made non-blocking.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        // Small request/reply frames: without NODELAY they sit out
        // Nagle + delayed-ACK (~40 ms per call).
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            rlen: 0,
            wbuf: Vec::new(),
            wpos: 0,
            eof: false,
            registered: None,
        })
    }

    /// Read until the socket would block, the peer's EOF, or the
    /// per-call budget. Frames already buffered stay parseable after an
    /// EOF: a peer that sends requests and half-closes is still owed
    /// its replies.
    ///
    /// # Errors
    ///
    /// The OS error of a failed read (reset, ...).
    pub fn fill(&mut self) -> io::Result<()> {
        self.rbuf.copy_within(self.rpos..self.rlen, 0);
        self.rlen -= self.rpos;
        self.rpos = 0;
        let mut budget = READ_BUDGET;
        while !self.eof && budget > 0 {
            if self.rbuf.len() < self.rlen + 4096 {
                self.rbuf.resize(self.rlen + CHUNK, 0);
            }
            match self.stream.read(&mut self.rbuf[self.rlen..]) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.rlen += n;
                    budget = budget.saturating_sub(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Whether the peer has finished sending. Once every buffered frame
    /// is parsed, whatever is left is a truncated frame nobody will
    /// complete.
    #[must_use]
    pub fn is_eof(&self) -> bool {
        self.eof
    }

    /// The next complete frame buffered by [`FramedConn::fill`], or
    /// `None` while the front of the buffer is still a partial frame.
    ///
    /// # Errors
    ///
    /// [`iris_errors::IrisError::Decode`] for an announced length past
    /// [`crate::frame::MAX_FRAME_LEN`]; the stream's framing is lost
    /// and the caller should answer once and close.
    pub fn next_frame(&mut self) -> IrisResult<Option<ParsedFrame>> {
        let frame = parse_frame(&self.rbuf[self.rpos..self.rlen])?;
        if let Some(frame) = &frame {
            self.rpos += frame.consumed;
        }
        Ok(frame)
    }

    /// Queue already-framed bytes behind whatever is still unsent.
    pub fn queue(&mut self, framed: &[u8]) {
        self.wbuf.extend_from_slice(framed);
    }

    /// Queue one frame whose payload `encode` writes straight into the
    /// write buffer, with `trace` in its header if `Some`.
    ///
    /// # Errors
    ///
    /// As [`append_frame_with`]; nothing is queued on error.
    pub fn queue_frame(
        &mut self,
        trace: Option<u64>,
        encode: impl FnOnce(&mut Vec<u8>) -> IrisResult<()>,
    ) -> IrisResult<()> {
        append_frame_with(&mut self.wbuf, trace, encode)
    }

    /// Write queued bytes until the socket would block.
    ///
    /// # Errors
    ///
    /// The OS error of a failed write; [`ErrorKind::WriteZero`] if the
    /// peer stopped accepting bytes.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > CHUNK {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }

    /// Whether queued bytes are still waiting for the socket.
    #[must_use]
    pub fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Bring the poller registration in line with what the connection
    /// needs now: readable while `read` is set and the peer has not
    /// finished sending, writable while bytes are queued, nothing at
    /// all when neither holds.
    ///
    /// # Errors
    ///
    /// The OS error of the poller call.
    pub fn reconcile(&mut self, poller: &Poller, token: usize, read: bool) -> io::Result<()> {
        let desired = match (read && !self.eof, self.wants_write()) {
            (true, false) => Some(Interest::READ),
            (false, true) => Some(Interest::WRITE),
            (true, true) => Some(Interest::READ_WRITE),
            (false, false) => None,
        };
        self.set_interest(poller, token, desired)
    }

    /// Stop watching the socket (before dropping the connection).
    pub fn deregister(&mut self, poller: &Poller) {
        let _ = self.set_interest(poller, 0, None);
    }

    fn set_interest(
        &mut self,
        poller: &Poller,
        token: usize,
        desired: Option<Interest>,
    ) -> io::Result<()> {
        let fd = self.stream.as_raw_fd();
        match (self.registered, desired) {
            (was, now) if was == now => return Ok(()),
            (None, Some(interest)) => poller.register(fd, token, interest)?,
            (Some(_), Some(interest)) => poller.modify(fd, token, interest)?,
            (_, None) => poller.deregister(fd)?,
        }
        self.registered = desired;
        Ok(())
    }
}
