//! The client half of the transport — `Client` and `PeerLink` — against
//! the toy server of `transport.rs` and against scripted peers that
//! misbehave on purpose: codec negotiation, deadlines, a peer that goes
//! away, hostile lengths, streamed replies, and how a link re-dials.

#[path = "common/counting.rs"]
mod counting;
#[path = "common/toy.rs"]
mod toy;

use iris_errors::{IrisError, IrisResult};
use iris_wire::frame::MAX_FRAME_LEN;
use iris_wire::{wire_enum, Backoff, Client, Codec, PeerLink, Protocol};
use serde::{Deserialize, Serialize};
use std::net::TcpListener;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use toy::{Peer, Rig};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// Requests and replies alike: the toy server echoes, so a `Hello` comes
/// back as its own acknowledgement. In the binary codec a message's tag
/// is its first byte, which is what the toy server acts on: `P` parks
/// the request for good, `M` answers with one frame per further byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Msg {
    Hello { codec: String },
    Text { text: String },
    Park,
    Spell { a: u8, b: u8, c: u8 },
    One,
    Two,
    Three,
}

wire_enum!(Msg: "toy message" {
    b'H' => Hello { codec: String },
    b'T' => Text { text: String },
    b'P' => Park,
    b'M' => Spell { a: u8, b: u8, c: u8 },
    1 => One,
    2 => Two,
    3 => Three,
});

#[derive(Debug)]
struct Toy;

impl Protocol for Toy {
    type Request = Msg;
    type Response = Msg;
    const REPLY: &'static str = "toy reply";

    fn hello(codec: Codec) -> Msg {
        Msg::Hello {
            codec: codec.name().to_owned(),
        }
    }

    fn hello_ack(reply: &Msg) -> Option<&str> {
        match reply {
            Msg::Hello { codec } => Some(codec),
            _ => None,
        }
    }

    fn into_result(reply: Msg) -> IrisResult<Msg> {
        Ok(reply)
    }

    fn op(req: &Msg) -> &'static str {
        match req {
            Msg::Park => "park",
            _ => "other",
        }
    }
}

fn text(text: &str) -> Msg {
    Msg::Text {
        text: text.to_owned(),
    }
}

fn link_to(addr: &str, deadline_ms: u64, backoff: Backoff) -> PeerLink<Toy> {
    PeerLink::new(addr, Some(Duration::from_millis(deadline_ms)), backoff)
}

/// A peer that is a script: it accepts one connection and runs `script`
/// on it. Joining the handle re-raises the script's assertions.
fn scripted(script: impl FnOnce(Peer) + Send + 'static) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let peer = std::thread::spawn(move || script(Peer::new(listener.accept().expect("accept").0)));
    (addr, peer)
}

#[test]
fn the_codec_switches_after_the_ack_and_survives_a_switch_back() {
    // Against the echo server: every message comes back whole, whatever
    // the codec in force.
    let rig = Rig::start();
    let mut client = Client::<Toy>::connect(&rig.addr().to_string()).unwrap();
    for codec in [Codec::Json, Codec::Binary, Codec::Json, Codec::Binary] {
        client.hello(codec).unwrap();
        assert_eq!(client.codec(), codec);
        assert_eq!(client.call(&text("héllo"), None).unwrap(), text("héllo"));
    }

    // Against a script that looks at the bytes: each `Hello` travels in
    // the codec it replaces.
    let (addr, peer) = scripted(|mut sock| {
        for first_byte in [b'{', b'T', b'H', b'{'] {
            let frame = sock.recv();
            assert_eq!(
                frame[0],
                first_byte,
                "{:?}",
                String::from_utf8_lossy(&frame)
            );
            sock.send(&frame).unwrap();
        }
    });
    let mut client = Client::<Toy>::connect(&addr).unwrap();
    client.hello(Codec::Binary).unwrap();
    client.call(&text("binary"), None).unwrap();
    client.hello(Codec::Json).unwrap();
    client.call(&text("json"), None).unwrap();
    peer.join().unwrap();
}

#[test]
fn hello_adopts_the_codec_the_peer_acknowledged_not_the_one_requested() {
    let (addr, peer) = scripted(|mut sock| {
        sock.recv();
        sock.send(br#"{"Hello":{"codec":"json"}}"#).unwrap();
        sock.recv();
        sock.send(br#"{"Hello":{"codec":"morse"}}"#).unwrap();
        sock.recv();
        sock.send(br#"{"Text":{"text":"not an ack"}}"#).unwrap();
    });
    let mut client = Client::<Toy>::connect(&addr).unwrap();
    client.hello(Codec::Binary).unwrap();
    assert_eq!(client.codec(), Codec::Json, "the peer said json");
    for refused in ["unknown codec", "unexpected reply"] {
        let err = client.hello(Codec::Binary).unwrap_err();
        assert_eq!(err.code(), "decode");
        assert!(err.to_string().contains(refused), "{err}");
        assert_eq!(
            client.codec(),
            Codec::Json,
            "a failed Hello switches nothing"
        );
    }
    peer.join().unwrap();
}

#[test]
fn a_silent_peer_is_a_timeout_naming_the_call() {
    let rig = Rig::start();
    let mut client = Client::<Toy>::connect(&rig.addr().to_string()).unwrap();
    client.hello(Codec::Binary).unwrap();
    client
        .set_deadline(Some(Duration::from_millis(40)))
        .unwrap();
    match client.call(&Msg::Park, None).unwrap_err() {
        IrisError::Timeout { what, after_ms } => {
            assert_eq!((what.as_str(), after_ms), ("park call", 40));
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
}

#[test]
fn a_reply_that_starts_and_stalls_is_a_timeout_naming_the_call() {
    let (addr, peer) = scripted(|mut sock| {
        sock.recv();
        sock.send_raw(&100u32.to_be_bytes());
        sock.send_raw(b"ten bytes.");
        // Neither the rest nor a close: wait for the client to give up.
        let _ = sock.try_recv();
    });
    // The call runs on a thread of its own so that a client which waits
    // for the other 90 bytes fails this test instead of blocking it.
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let mut client = Client::<Toy>::connect(&addr).unwrap();
        client
            .set_deadline(Some(Duration::from_millis(250)))
            .unwrap();
        let started = Instant::now();
        let result = client.call(&Msg::Park, None);
        let _ = done.send((result, started.elapsed()));
    });
    let (result, took) = outcome
        .recv_timeout(Duration::from_secs(5))
        .expect("the call outlived its deadline twenty times over");
    match result.unwrap_err() {
        IrisError::Timeout { what, after_ms } => {
            assert_eq!((what.as_str(), after_ms), ("park call", 250));
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
    assert!(took < Duration::from_millis(500), "gave up after {took:?}");
    peer.join().unwrap();
}

#[test]
fn a_peer_that_leaves_mid_reply_is_an_io_error() {
    // One frame of a three-frame reply, then a clean close.
    let (addr, peer) = scripted(|mut sock| {
        sock.recv();
        sock.send(br#""One""#).unwrap();
    });
    let mut client = Client::<Toy>::connect(&addr).unwrap();
    client.send(&Msg::Spell { a: 1, b: 2, c: 3 }, None).unwrap();
    assert_eq!(client.recv().unwrap(), Msg::One);
    let err = client.recv().unwrap_err();
    assert_eq!(err.code(), "io", "{err}");
    peer.join().unwrap();

    // A close in the middle of a frame is the frame layer's typed error.
    let (addr, peer) = scripted(|mut sock| {
        sock.recv();
        sock.send_raw(&100u32.to_be_bytes());
        sock.send_raw(b"ten bytes.");
    });
    let mut client = Client::<Toy>::connect(&addr).unwrap();
    let err = client.call(&text("anyone?"), None).unwrap_err();
    assert_eq!(err.code(), "decode", "{err}");
    assert!(err.to_string().contains("wanted 100"), "{err}");
    peer.join().unwrap();
}

#[test]
fn an_oversized_reply_prefix_is_refused_before_anything_is_allocated() {
    let (addr, peer) = scripted(|mut sock| {
        sock.recv();
        let prefix = u32::try_from(MAX_FRAME_LEN + 1).unwrap().to_be_bytes();
        sock.send_raw(&prefix);
        // Stay until the client has made up its mind and hung up.
        let _ = sock.try_recv();
    });
    let mut client = Client::<Toy>::connect(&addr).unwrap();
    client.send(&text("how big?"), None).unwrap();
    counting::reset_largest();
    let err = client.recv().unwrap_err();
    let largest = counting::largest();
    assert_eq!(err.code(), "decode", "{err}");
    assert!(err.to_string().contains("exceeds"), "{err}");
    assert!(
        largest < 1024,
        "a 4-byte prefix drove a {largest}-byte allocation"
    );
    drop(client);
    peer.join().unwrap();
}

#[test]
fn one_send_and_three_recvs_reassemble_a_streamed_reply() {
    let rig = Rig::start();
    let mut client = Client::<Toy>::connect(&rig.addr().to_string()).unwrap();
    client.hello(Codec::Binary).unwrap();
    client.send(&Msg::Spell { a: 1, b: 2, c: 3 }, None).unwrap();
    let chunks: Vec<Msg> = (0..3).map(|_| client.recv().unwrap()).collect();
    assert_eq!(chunks, [Msg::One, Msg::Two, Msg::Three]);
    // Nothing is left over: the next call gets its own reply.
    assert_eq!(client.call(&text("next"), None).unwrap(), text("next"));
}

#[test]
fn a_session_is_reused_call_after_call() {
    let rig = Rig::start();
    let mut link = link_to(&rig.addr().to_string(), 5000, Backoff::new(1, 10, 1));
    let mut resumed = 0;
    for i in 0..10 {
        let client = link
            .session(|fresh| {
                resumed += 1;
                assert_eq!(fresh.codec(), Codec::Binary, "negotiated before resuming");
                Ok(())
            })
            .unwrap();
        let said = text(&format!("call {i}"));
        assert_eq!(client.call(&said, None).unwrap(), said);
    }
    assert_eq!((rig.opened(), resumed), (1, 1), "one accept for ten calls");
}

#[test]
fn a_link_finds_its_way_back_to_a_server_that_restarted_on_the_same_port() {
    let rig = Rig::start();
    let addr = rig.addr();
    let mut link = link_to(&addr.to_string(), 5000, Backoff::new(1, 10, 1));
    let ping = text("ping");
    let call = |link: &mut PeerLink<Toy>| link.session(|_| Ok(()))?.call(&ping, None);
    assert_eq!(call(&mut link).unwrap(), ping);

    drop(rig);
    assert!(call(&mut link).is_err(), "the live connection died");
    link.fail();
    let err = call(&mut link).unwrap_err();
    assert_eq!(err.code(), "io", "nobody is listening: {err}");
    link.fail();

    let rig = Rig::start_on(TcpListener::bind(addr).expect("the port is free again"));
    assert_eq!(call(&mut link).unwrap(), ping);
    assert_eq!(call(&mut link).unwrap(), ping);
    assert_eq!(rig.opened(), 1);
}

#[test]
fn a_failed_resume_leaves_no_connection_behind() {
    let rig = Rig::start();
    let mut link = link_to(&rig.addr().to_string(), 5000, Backoff::new(1, 10, 1));
    let refuse = IrisError::InvalidInput {
        detail: "not this time".to_owned(),
    };
    let err = link.session(|_| Err(refuse.clone())).unwrap_err();
    assert_eq!(err, refuse, "the hook's own error comes back");
    assert_eq!(rig.opened(), 1);
    // Had the first socket been kept, this would reuse it unresumed.
    let mut resumed = false;
    link.session(|_| {
        resumed = true;
        Ok(())
    })
    .unwrap();
    assert!(resumed);
    assert_eq!(rig.opened(), 2, "a fresh socket");
}

#[test]
fn a_healthy_session_starts_the_schedule_over_from_its_base() {
    let rig = Rig::start();
    let (base, cap) = (10, 10_000);
    let mut link = link_to(&rig.addr().to_string(), 5000, Backoff::new(base, cap, 7));
    let down = || IrisError::Unreachable {
        what: "resume".to_owned(),
    };
    let grown = (0..32).map(|_| {
        link.session(|_| Err(down())).unwrap_err();
        link.fail()
    });
    let grown = grown.max().expect("32 delays");
    assert!(grown > 3 * base, "the schedule never grew: {grown}");

    link.session(|_| Ok(())).unwrap();
    let after = link.fail();
    assert!(
        (base..=3 * base).contains(&after),
        "after a healthy session the first delay is {after} ms"
    );
}

#[test]
fn a_late_hello_ack_is_a_failed_session_and_is_never_seen_again() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let peer = std::thread::spawn(move || {
        // First connection: the ack comes 600 ms late, to whoever is
        // still there.
        let mut slow = Peer::new(listener.accept().expect("first accept").0);
        let hello = slow.recv();
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(600));
            let _ = slow.send(&hello);
        });
        // Second connection: a prompt echo.
        let mut prompt = Peer::new(listener.accept().expect("second accept").0);
        while let Ok(Some(frame)) = prompt.try_recv() {
            prompt.send(&frame.payload).unwrap();
        }
        late.join().unwrap();
    });

    let mut link = link_to(&addr, 150, Backoff::new(1, 10, 1));
    match link.session(|_| Ok(())).unwrap_err() {
        IrisError::Timeout { what, after_ms } => {
            assert_eq!((what.as_str(), after_ms), ("other call", 150));
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
    // Nothing was kept: this is a second socket, and what comes back on
    // it is the reply to this call, not the first socket's stale ack.
    let client = link.session(|_| Ok(())).unwrap();
    assert_eq!(client.call(&text("fresh"), None).unwrap(), text("fresh"));
    drop(link);
    peer.join().unwrap();
}
