//! `iris-wire` — the protocol layer shared by every Iris TCP peer.
//!
//! The control-plane server ([`iris-service`]), its clients and load
//! generator, and the federation's replicators all speak the same wire
//! discipline: length-prefixed frames ([`frame`]) whose payloads
//! are encoded in one of two negotiated codecs ([`Codec`]) — JSON for
//! debuggability, or a compact tag-prefixed binary format whose value
//! encodings, [`bin::Wire`] trait and layout-declaration macros live
//! in [`bin`] — and reconnect on one seeded schedule ([`Backoff`]). This
//! crate holds exactly the pieces that are protocol- but not
//! API-specific; each peer defines its own request/response enums on
//! top and declares their layout once.
//!
//! It is also the workspace's one transport. [`FramedConn`] is a
//! non-blocking socket with its read and write buffers; [`server`] runs
//! an acceptor and `N` shard event loops over such connections and
//! hands every frame to a [`Handler`]; the control-plane server is one.
//! [`client`] is the other end: one blocking connection ([`Client`])
//! and one way to re-dial a peer ([`PeerLink`]), generic over a
//! [`Protocol`]; the control-plane client, router and replicator sit
//! on it.
//!
//! # Writing a handler
//!
//! A handler is the protocol: it gets each request frame's payload and
//! an [`Outbox`] for that connection's replies. This one echoes.
//!
//! ```
//! use iris_errors::IrisError;
//! use iris_wire::frame::append_frame;
//! use iris_wire::{recv_frame, server, Handler, Outbox};
//! use std::io::Write as _;
//! use std::net::{TcpListener, TcpStream};
//! use std::sync::{atomic::AtomicBool, Arc};
//!
//! struct Echo;
//!
//! impl Handler for Echo {
//!     type Conn = (); // no per-connection state
//!     type Parked = (); // never defers,
//!     type Completion = (); // so nothing ever completes
//!
//!     fn open(&mut self) {}
//!
//!     fn on_frame(&mut self, _: &mut (), out: &mut Outbox<()>, payload: &[u8], _: Option<u64>) {
//!         let sent = out.reply(|buf| {
//!             buf.extend_from_slice(payload);
//!             Ok(())
//!         });
//!         if sent.is_err() {
//!             out.close();
//!         }
//!     }
//!
//!     fn on_bad_frame(&mut self, _: &mut (), out: &mut Outbox<()>, err: IrisError) {
//!         let _ = out.reply(|buf| {
//!             buf.extend_from_slice(err.to_string().as_bytes());
//!             Ok(())
//!         });
//!     }
//! }
//!
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let stop = Arc::new(AtomicBool::new(false));
//! let (mut server, _mailbox) = server::spawn(listener, stop, vec![Echo, Echo], || {}).unwrap();
//!
//! let mut peer = TcpStream::connect(server.local_addr()).unwrap();
//! let (mut ping, mut unread) = (Vec::new(), Vec::new());
//! append_frame(&mut ping, b"ping").unwrap();
//! peer.write_all(&ping).unwrap();
//! let echo = recv_frame(&mut peer, &mut unread).unwrap().expect("a frame");
//! assert_eq!(echo.payload, b"ping");
//! server.shutdown();
//! ```
//!
//! A handler that cannot answer at once calls [`Outbox::defer`], ships
//! the [`Ticket`] with the work, and fills it from
//! [`Handler::on_completion`] when the result comes back through the
//! [`Mailbox`]; see [`server`] for reply order, generations and
//! deadlines.
//!
//! # Writing a client
//!
//! A [`Protocol`] names the two message types and says how to build a
//! `Hello`, read its acknowledgement and find an error reply. With
//! that, [`Client`] is a connection (`connect`, `hello`, `call`, or
//! `send` once and `recv` per frame of a streamed reply) and
//! [`PeerLink`] is a peer that may go away and come back:
//!
//! ```no_run
//! # use iris_wire::{Backoff, PeerLink, Protocol};
//! # fn run<P: Protocol>(request: P::Request) -> iris_errors::IrisResult<()> {
//! let mut link = PeerLink::<P>::new("10.0.0.7:7400", None, Backoff::new(5, 500, 1));
//! loop {
//!     // The live connection, or a fresh one: connected, switched to
//!     // binary, and resumed by the closure (a probe, a spec to load).
//!     let outcome = link
//!         .session(|_fresh| Ok(()))
//!         .and_then(|client| client.call(&request, None));
//!     match outcome {
//!         Ok(_reply) => return Ok(()),
//!         // Any failure: drop the socket, wait, start a new session.
//!         Err(_) => std::thread::sleep(std::time::Duration::from_millis(link.fail())),
//!     }
//! }
//! # }
//! ```
//!
//! The link never sleeps and counts nothing: the caller decides how to
//! wait out the delay and what a failure means. A session that opened
//! starts the schedule over from its base.
//!
//! [`iris-service`]: ../iris_service/index.html

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod backoff;
pub mod bin;
pub mod client;
mod conn;
pub mod frame;
pub mod server;

pub use backoff::Backoff;
pub use client::{recv_frame, Client, PeerLink, Protocol};
pub use conn::FramedConn;
pub use server::{Conns, FrameServer, Handler, Mailbox, Outbox, Ticket};

use bin::{Reader, Wire};
use iris_errors::{IrisError, IrisResult};
use serde::{Deserialize, Serialize};

/// A negotiated wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Externally-tagged JSON — the boot-time default of every
    /// connection.
    #[default]
    Json,
    /// The compact little-endian binary encoding of [`bin`]; each
    /// message type's `wire_enum!`/`wire_struct!` declaration is its
    /// layout.
    Binary,
}

impl Codec {
    /// Stable wire name, as carried in `Hello` / `HelloAck`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Codec::Json => "json",
            Codec::Binary => "binary",
        }
    }

    /// Parse a wire name. Unknown names return `None`; servers turn
    /// that into a typed `InvalidInput` and stay on the current codec.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Codec> {
        match name {
            "json" => Some(Codec::Json),
            "binary" => Some(Codec::Binary),
            _ => None,
        }
    }

    /// Serialize `value` in this codec, appending to `buf` (an event
    /// loop's per-connection write buffer, say) without an
    /// intermediate allocation on the binary path.
    ///
    /// # Errors
    ///
    /// [`IrisError::Decode`] if JSON serialization fails. `buf` may
    /// hold a partial encoding after an error; callers truncate back
    /// to the length they recorded before the call.
    pub fn encode_into<T: Wire + Serialize>(self, value: &T, buf: &mut Vec<u8>) -> IrisResult<()> {
        match self {
            Codec::Json => {
                let text = serde_json::to_string(value).map_err(|e| IrisError::Decode {
                    detail: format!("cannot encode message: {e}"),
                })?;
                buf.extend_from_slice(text.as_bytes());
            }
            Codec::Binary => value.put(buf),
        }
        Ok(())
    }

    /// Parse a whole payload in this codec; `what` names the message
    /// kind in error text.
    ///
    /// # Errors
    ///
    /// [`IrisError::Decode`] for malformed payloads: invalid UTF-8 or
    /// JSON of the wrong shape; a bad tag, truncated field, over-long
    /// length header or trailing bytes in binary.
    pub fn decode<T: Wire + Deserialize>(self, payload: &[u8], what: &str) -> IrisResult<T> {
        match self {
            Codec::Json => {
                let text = std::str::from_utf8(payload).map_err(|e| IrisError::Decode {
                    detail: format!("{what} frame is not UTF-8: {e}"),
                })?;
                serde_json::from_str(text).map_err(|e| IrisError::Decode {
                    detail: format!("invalid {what}: {e}"),
                })
            }
            Codec::Binary => {
                let mut rd = Reader::new(payload);
                let value = T::get(&mut rd, what)?;
                rd.finish(what)?;
                Ok(value)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_names_round_trip() {
        for codec in [Codec::Json, Codec::Binary] {
            assert_eq!(Codec::from_name(codec.name()), Some(codec));
        }
        assert_eq!(Codec::from_name("msgpack"), None);
        assert_eq!(Codec::default(), Codec::Json);
    }

    #[test]
    fn both_codecs_append_and_round_trip() {
        let value = IrisError::Overloaded { retry_after_ms: 25 };
        for codec in [Codec::Json, Codec::Binary] {
            let mut buf = vec![0xAA, 0xBB];
            codec.encode_into(&value, &mut buf).unwrap();
            assert_eq!(&buf[..2], &[0xAA, 0xBB], "appends without clobbering");
            let back: IrisError = codec.decode(&buf[2..], "error").unwrap();
            assert_eq!(back, value);
            // The whole payload must be one value, in either codec.
            buf.push(b'}');
            let err = codec.decode::<IrisError>(&buf[2..], "error").unwrap_err();
            assert_eq!(err.code(), "decode", "{codec:?}");
        }
        let err = Codec::Json
            .decode::<IrisError>(b"\xff\xfe", "error")
            .unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }
}
