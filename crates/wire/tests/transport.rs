//! The frame server and `FramedConn` against a toy protocol — no
//! control plane, no codec: what is pinned here is reply order, ticket
//! generations, back-pressure, framing errors, half-close, the mailbox
//! and deadlines.

#[path = "common/toy.rs"]
mod toy;

use iris_poll::Poller;
use iris_wire::frame::{append_frame, append_frame_with, MAX_FRAME_LEN};
use iris_wire::{FramedConn, Ticket};
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};
use toy::{Peer, Rig, BIG};

fn expect_eof(peer: &mut Peer) {
    assert!(
        matches!(peer.try_recv(), Ok(None) | Err(_)),
        "the server should have closed this connection"
    );
}

#[test]
fn pipelined_replies_keep_request_order_when_filled_out_of_order() {
    let rig = Rig::start();
    let mut peer = rig.connect();
    for req in [&b"Pa"[..], b"Pb", b"echo", b"Pc"] {
        peer.send(req).unwrap();
    }
    let tickets: Vec<Ticket> = (0..3).map(|_| rig.next_parked().0).collect();
    // Newest first: nothing may leave before the oldest is filled.
    rig.complete(tickets[2], b"C");
    rig.complete(tickets[1], b"B");
    rig.complete(tickets[0], b"A");
    let got: Vec<Vec<u8>> = (0..4).map(|_| peer.recv()).collect();
    assert_eq!(got, [&b"A"[..], b"B", b"echo", b"C"]);
    // Filling a ticket twice changes nothing.
    rig.complete(tickets[0], b"again");
    peer.send(b"after").unwrap();
    assert_eq!(peer.recv(), b"after");
}

#[test]
fn a_fill_for_a_recycled_slot_is_dropped() {
    let rig = Rig::start();
    let mut first = rig.connect();
    first.send(b"P").unwrap();
    first.sock.shutdown(Shutdown::Write).unwrap();
    let (stale, _) = rig.next_parked();
    rig.complete(stale, b"first");
    assert_eq!(first.recv(), b"first");
    expect_eof(&mut first); // the slot is free from here on

    let mut second = rig.connect();
    second.send(b"P").unwrap();
    let (fresh, _) = rig.next_parked();
    assert_eq!(
        (fresh.token, fresh.seq),
        (stale.token, stale.seq),
        "slot reused"
    );
    assert!(fresh.gen > stale.gen, "under a new generation");
    rig.complete(stale, b"for the connection that left");
    rig.complete(fresh, b"second");
    assert_eq!(second.recv(), b"second");
    second.send(b"after").unwrap();
    assert_eq!(second.recv(), b"after");
}

#[test]
fn a_slow_reader_loses_nothing_and_stalls_nobody() {
    let rig = Rig::start();
    let mut slow = rig.connect();
    for _ in 0..8 {
        slow.send(b"B").unwrap();
    }
    slow.send(b"tail").unwrap();
    // 8 MiB are now owed to a peer that is not reading; the shard
    // still serves its other connections.
    let mut other = rig.connect();
    other.send(b"hello").unwrap();
    assert_eq!(other.recv(), b"hello");
    for _ in 0..8 {
        let big = slow.recv();
        assert_eq!(big.len(), BIG);
        assert!(big.iter().all(|&b| b == b'x'));
    }
    assert_eq!(slow.recv(), b"tail");
}

#[test]
fn an_oversized_prefix_gets_one_error_frame_and_closes_that_connection_only() {
    let rig = Rig::start();
    let mut good = rig.connect();
    let mut hostile = rig.connect();
    let prefix = u32::try_from(MAX_FRAME_LEN + 1).unwrap().to_be_bytes();
    hostile.send_raw(&prefix);
    assert_eq!(hostile.recv(), b"bad frame: decode");
    expect_eof(&mut hostile);
    good.send(b"still here").unwrap();
    assert_eq!(good.recv(), b"still here");
}

#[test]
fn frames_sent_before_a_half_close_are_answered() {
    let rig = Rig::start();
    for _ in 0..20 {
        let mut peer = rig.connect();
        let mut bytes = Vec::new();
        for req in [&b"one"[..], b"two", b"three"] {
            append_frame(&mut bytes, req).unwrap();
        }
        // A frame the peer never finishes is dropped without a reply.
        bytes.extend_from_slice(&100u32.to_be_bytes());
        bytes.extend_from_slice(b"partial");
        peer.send_raw(&bytes);
        peer.sock.shutdown(Shutdown::Write).unwrap();
        for want in [&b"one"[..], b"two", b"three"] {
            assert_eq!(peer.recv(), want);
        }
        expect_eof(&mut peer);
    }
}

#[test]
fn a_closed_mailbox_fails_outstanding_tickets_with_the_handlers_error() {
    let mut rig = Rig::start();
    let mut peer = rig.connect();
    for req in [&b"Pa"[..], b"echo", b"Pb"] {
        peer.send(req).unwrap();
    }
    rig.next_parked();
    rig.next_parked();
    rig.mailbox = None;
    let got: Vec<Vec<u8>> = (0..3).map(|_| peer.recv()).collect();
    assert_eq!(got, [&b"mailbox closed"[..], b"echo", b"mailbox closed"]);
    peer.send(b"after").unwrap();
    assert_eq!(peer.recv(), b"after");
}

#[test]
fn one_request_may_be_answered_with_several_frames() {
    let rig = Rig::start();
    let mut peer = rig.connect();
    // Behind a parked reply the frames queue; with nothing parked they
    // go straight to the write buffer. Same order either way.
    for req in [&b"P"[..], b"Mabc", b"end"] {
        peer.send(req).unwrap();
    }
    rig.complete(rig.next_parked().0, b"first");
    peer.send(b"Mxy").unwrap();
    let got: Vec<Vec<u8>> = (0..7).map(|_| peer.recv()).collect();
    assert_eq!(got, [&b"first"[..], b"a", b"b", b"c", b"end", b"x", b"y"]);
}

#[test]
fn a_parked_deadline_sets_the_shards_sleep() {
    let rig = Rig::start();
    let mut peer = rig.connect();
    // Were the shard to sleep its idle tick (50 ms) regardless, every
    // reply would come 40 ms late.
    let lateness = (0..5).map(|_| {
        let sent = Instant::now();
        peer.send(b"D10").unwrap();
        assert_eq!(peer.recv(), b"due");
        let took = sent.elapsed();
        assert!(
            took >= Duration::from_millis(10),
            "answered early: {took:?}"
        );
        took - Duration::from_millis(10)
    });
    let best = lateness.min().unwrap();
    assert!(best < Duration::from_millis(30), "late by {best:?}");
}

fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (far, _) = listener.accept().unwrap();
    (near, far)
}

fn wait_ready(poller: &Poller, timeout_ms: u64) -> Vec<iris_poll::Event> {
    let mut events = Vec::new();
    poller
        .wait(&mut events, Some(Duration::from_millis(timeout_ms)))
        .unwrap();
    events
}

#[test]
fn next_frame_waits_on_every_prefix_fed_a_byte_at_a_time() {
    let mut wire = Vec::new();
    append_frame_with(&mut wire, Some(0x0102_0304_0506_0708), |buf| {
        buf.extend_from_slice(b"first");
        Ok(())
    })
    .unwrap();
    let first_len = wire.len();
    append_frame(&mut wire, b"second frame").unwrap();

    let (mut writer, reader) = socket_pair();
    let mut conn = FramedConn::new(reader).unwrap();
    let poller = Poller::new().unwrap();
    conn.reconcile(&poller, 0, true).unwrap();
    let mut frames = Vec::new();
    for (sent, byte) in wire.iter().enumerate() {
        writer.write_all(&[*byte]).unwrap();
        assert!(
            !wait_ready(&poller, 5000).is_empty(),
            "byte {sent} never arrived"
        );
        conn.fill().unwrap();
        while let Some(frame) = conn.next_frame().expect("valid bytes never error") {
            frames.push(frame);
        }
        let complete = usize::from(sent + 1 >= first_len) + usize::from(sent + 1 == wire.len());
        assert_eq!(frames.len(), complete, "after {} bytes", sent + 1);
    }
    assert_eq!(frames[0].payload, b"first");
    assert_eq!(frames[0].trace_id, Some(0x0102_0304_0506_0708));
    assert_eq!(frames[1].payload, b"second frame");
    assert_eq!(frames[1].trace_id, None);
    assert!(!conn.is_eof());
    drop(writer);
    assert!(!wait_ready(&poller, 5000).is_empty());
    conn.fill().unwrap();
    assert!(conn.is_eof());
    assert!(conn.next_frame().unwrap().is_none());
}

#[test]
fn write_interest_is_registered_while_bytes_wait_and_cleared_after() {
    let (near, mut far) = socket_pair();
    let mut conn = FramedConn::new(near).unwrap();
    let poller = Poller::new().unwrap();
    conn.reconcile(&poller, 7, true).unwrap();
    assert!(
        wait_ready(&poller, 20).is_empty(),
        "idle: read interest only"
    );

    let body: Vec<u8> = (0..8 * BIG).map(|i| (i % 251) as u8).collect();
    conn.queue(&body);
    conn.flush().unwrap();
    assert!(conn.wants_write(), "8 MiB do not fit a socket buffer");
    conn.reconcile(&poller, 7, true).unwrap();

    let total = body.len();
    let reader = std::thread::spawn(move || {
        let mut got = vec![0u8; total];
        far.read_exact(&mut got).map(|()| (far, got))
    });
    // Each time the peer has made room the poller says so, and the
    // flush continues where it stopped.
    while conn.wants_write() {
        let events = wait_ready(&poller, 10_000);
        assert!(events.iter().any(|ev| ev.token == 7 && ev.writable));
        conn.flush().unwrap();
        conn.reconcile(&poller, 7, true).unwrap();
    }
    let (_far, got) = reader.join().unwrap().expect("the peer reads everything");
    assert!(got == body, "every byte, in order");
    assert!(
        wait_ready(&poller, 20).is_empty(),
        "drained: write interest is gone again"
    );
}
