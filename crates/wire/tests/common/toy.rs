//! The toy protocol the transport's tests run against, shared by the
//! server-half (`transport.rs`) and client-half (`client.rs`) suites;
//! each uses its own subset of the rig.
#![allow(dead_code)]

use iris_errors::{IrisError, IrisResult};
use iris_wire::frame::{append_frame, ParsedFrame, MAX_FRAME_LEN};
use iris_wire::{recv_frame, server, Conns, FrameServer, Handler, Mailbox, Outbox, Ticket};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Payload bytes of a `B` reply: the largest frame there is.
pub const BIG: usize = MAX_FRAME_LEN;

/// The toy protocol, by the first payload byte: `P` parks the reply and
/// hands the ticket to the test, `D<ms>` parks it until a deadline, `M`
/// answers with one frame per remaining byte, `B` answers with [`BIG`]
/// bytes, anything else is echoed.
struct Toy {
    parked: Sender<(Ticket, Vec<u8>)>,
    delayed: Vec<(Instant, Ticket)>,
    opened: Arc<AtomicUsize>,
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    append_frame(&mut out, payload).expect("small payload");
    out
}

fn send(out: &mut Outbox<()>, payload: &[u8]) {
    let sent = out.reply(|buf| {
        buf.extend_from_slice(payload);
        Ok(())
    });
    sent.expect("payload fits a frame");
}

impl Handler for Toy {
    type Conn = ();
    type Parked = ();
    type Completion = Vec<u8>;

    fn open(&mut self) {
        self.opened.fetch_add(1, Ordering::SeqCst);
    }

    fn on_frame(&mut self, (): &mut (), out: &mut Outbox<()>, payload: &[u8], _: Option<u64>) {
        match payload.split_first() {
            Some((b'P', rest)) => {
                let ticket = out.defer(());
                self.parked
                    .send((ticket, rest.to_vec()))
                    .expect("test alive");
            }
            Some((b'D', ms)) => {
                let ms: u64 = std::str::from_utf8(ms).unwrap().parse().unwrap();
                let due = Instant::now() + Duration::from_millis(ms);
                self.delayed.push((due, out.defer(())));
            }
            Some((b'M', rest)) => rest.chunks(1).for_each(|part| send(out, part)),
            Some((b'B', _)) => send(out, &vec![b'x'; BIG]),
            _ => send(out, payload),
        }
    }

    fn on_bad_frame(&mut self, (): &mut (), out: &mut Outbox<()>, err: IrisError) {
        send(out, format!("bad frame: {}", err.code()).as_bytes());
    }

    fn on_completion(&mut self, conns: &mut Conns<Self>, ticket: Ticket, body: Vec<u8>) {
        conns.fill(ticket, |()| framed(&body));
    }

    fn on_mailbox_closed(&mut self, conns: &mut Conns<Self>) {
        conns.fill_outstanding(|()| framed(b"mailbox closed"));
    }

    fn on_tick(&mut self, conns: &mut Conns<Self>, now: Instant) -> Option<Instant> {
        self.delayed.retain(|&(due, ticket)| {
            if now < due {
                return true;
            }
            conns.fill(ticket, |()| framed(b"due"));
            false
        });
        self.delayed.iter().map(|&(due, _)| due).min()
    }
}

pub struct Rig {
    pub server: FrameServer,
    pub mailbox: Option<Mailbox<Vec<u8>>>,
    parked: Receiver<(Ticket, Vec<u8>)>,
    opened: Arc<AtomicUsize>,
}

impl Rig {
    pub fn start() -> Self {
        Self::start_on(TcpListener::bind("127.0.0.1:0").expect("bind"))
    }

    /// One shard, so connection slots are reused predictably.
    pub fn start_on(listener: TcpListener) -> Self {
        let (tx, parked) = mpsc::channel();
        let opened = Arc::new(AtomicUsize::new(0));
        let toy = Toy {
            parked: tx,
            delayed: Vec::new(),
            opened: Arc::clone(&opened),
        };
        let stop = Arc::new(AtomicBool::new(false));
        let (server, mailbox) = server::spawn(listener, stop, vec![toy], || {}).expect("spawn");
        Self {
            server,
            mailbox: Some(mailbox),
            parked,
            opened,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Connections the server has accepted so far.
    pub fn opened(&self) -> usize {
        self.opened.load(Ordering::SeqCst)
    }

    pub fn connect(&self) -> Peer {
        let sock = TcpStream::connect(self.server.local_addr()).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Peer::new(sock)
    }

    pub fn next_parked(&self) -> (Ticket, Vec<u8>) {
        self.parked
            .recv_timeout(Duration::from_secs(10))
            .expect("a parked request")
    }

    pub fn complete(&self, ticket: Ticket, body: &[u8]) {
        let mailbox = self.mailbox.as_ref().expect("mailbox open");
        mailbox.deliver([(ticket, body.to_vec())], false);
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

/// A test's own end of a connection, speaking raw frames: a blocking
/// socket and what it has read beyond the last frame taken.
pub struct Peer {
    pub sock: TcpStream,
    unread: Vec<u8>,
}

impl Peer {
    pub fn new(sock: TcpStream) -> Self {
        let unread = Vec::new();
        Self { sock, unread }
    }

    /// Write `payload` as one frame.
    pub fn send(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.sock.write_all(&framed(payload))
    }

    /// Write `bytes` as they are.
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.sock
            .write_all(bytes)
            .expect("a socket that takes bytes");
    }

    /// The next frame, or `None` once the other side has closed.
    pub fn try_recv(&mut self) -> IrisResult<Option<ParsedFrame>> {
        recv_frame(&mut self.sock, &mut self.unread)
    }

    /// The next frame's payload.
    pub fn recv(&mut self) -> Vec<u8> {
        let frame = self.try_recv().expect("a frame");
        frame.expect("a frame, not a close").payload
    }
}
