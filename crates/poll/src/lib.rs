//! `iris-poll` — a thin, std-only readiness-polling abstraction.
//!
//! The crates with event loops (`iris-wire`'s transport, the service's
//! load generator) forbid `unsafe` outright, so the few lines of kernel
//! interface an event loop needs live here instead: a
//! [`Poller`] wrapping epoll on Linux (`poll(2)` elsewhere on Unix),
//! plus a [`Waker`] that lets any thread interrupt a blocked
//! [`Poller::wait`]. Nothing here spawns threads, allocates per event
//! beyond the caller's buffer, or depends on an async runtime — the
//! workspace's vendored crates are offline stubs, so the FFI is
//! declared directly against the C library that is already linked into
//! every Rust binary.
//!
//! The surface is deliberately tiny:
//!
//! * [`Poller::register`] / [`Poller::modify`] / [`Poller::deregister`]
//!   associate a raw file descriptor with a caller-chosen `token` and an
//!   [`Interest`] (read, write, or both). Registration is level
//!   triggered: a readable socket keeps reporting readable until it is
//!   drained, which lets loops process a bounded amount per tick without
//!   losing events.
//! * [`Poller::wait`] blocks until something is ready (or a timeout),
//!   filling the caller's [`Event`] buffer.
//! * [`Waker`] is a loopback datagram socket the owning loop registers
//!   like any other fd; [`Waker::wake`] makes it readable from any
//!   thread, and the loop calls [`Waker::drain`] when its token fires.

#![deny(missing_docs)]

use std::io;
use std::net::UdpSocket;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Which readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Readable only — the steady state of a request/reply connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions — used while a reply is queued behind a full
    /// socket buffer.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Whether read readiness is requested.
    #[must_use]
    pub fn is_readable(self) -> bool {
        self.readable
    }

    /// Whether write readiness is requested.
    #[must_use]
    pub fn is_writable(self) -> bool {
        self.writable
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// The fd can be read without blocking (includes EOF/hangup, which
    /// a read then observes as `Ok(0)`).
    pub readable: bool,
    /// The fd can be written without blocking.
    pub writable: bool,
    /// The kernel flagged an error or hangup condition; callers should
    /// attempt I/O (to surface the real error) and close.
    pub error: bool,
}

/// A readiness poller over raw file descriptors.
#[derive(Debug)]
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// Create a poller.
    ///
    /// # Errors
    ///
    /// The OS error if the underlying polling instance cannot be
    /// created (fd exhaustion, essentially).
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            inner: sys::Poller::new()?,
        })
    }

    /// Start watching `fd` with `token` and `interest` (level
    /// triggered). The token — not the fd — comes back in [`Event`]s,
    /// so callers index straight into their own connection tables.
    ///
    /// # Errors
    ///
    /// The OS error (bad fd, duplicate registration).
    pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    /// Change an existing registration's token or interest.
    ///
    /// # Errors
    ///
    /// The OS error (fd was never registered).
    pub fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Stop watching `fd`. Safe to call right before closing it.
    ///
    /// # Errors
    ///
    /// The OS error (fd was never registered).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// Block until at least one registered fd is ready or `timeout`
    /// expires (`None` blocks indefinitely). `events` is cleared and
    /// refilled; an empty buffer after return means the wait timed out
    /// or was interrupted by a signal — both are normal, callers just
    /// loop.
    ///
    /// # Errors
    ///
    /// The OS error for anything other than an interrupted wait.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.wait(events, timeout)
    }
}

/// Cross-thread wakeup for a blocked [`Poller::wait`].
///
/// Implemented as a connected loopback UDP socket rather than an
/// `eventfd`, so the same code works on every Unix and stays inside
/// `std`: `wake` sends a one-byte datagram to the socket itself, which
/// makes its fd readable to the poller it is registered with. Wakes
/// coalesce naturally — once the socket buffer holds a pending
/// datagram, further wakes are free no-ops.
#[derive(Debug)]
pub struct Waker {
    sock: UdpSocket,
}

impl Waker {
    /// Create a waker. Register [`Waker::fd`] with the owning poller
    /// under a token of the loop's choosing.
    ///
    /// # Errors
    ///
    /// The OS error if the loopback socket cannot be bound.
    pub fn new() -> io::Result<Self> {
        let sock = UdpSocket::bind(("127.0.0.1", 0))?;
        sock.connect(sock.local_addr()?)?;
        sock.set_nonblocking(true)?;
        Ok(Self { sock })
    }

    /// The fd to register (readable interest) with the poller.
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.sock.as_raw_fd()
    }

    /// Make the waker's fd readable. Callable from any thread;
    /// best-effort (a full socket buffer means a wake is already
    /// pending, which is exactly the desired state).
    pub fn wake(&self) {
        let _ = self.sock.send(&[1u8]);
    }

    /// Consume pending wake datagrams. The owning loop calls this when
    /// the waker's token fires, then checks whatever queues the wake
    /// was announcing.
    pub fn drain(&self) {
        let mut buf = [0u8; 16];
        while let Ok(n) = self.sock.recv(&mut buf) {
            if n == 0 {
                break;
            }
        }
    }
}

/// How many events one [`Poller::wait`] call can report.
const MAX_EVENTS: usize = 256;

#[cfg(target_os = "linux")]
mod sys {
    //! Linux backend: epoll, declared directly against the linked libc.

    use super::{Event, Interest, MAX_EVENTS};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    #[allow(non_camel_case_types)]
    type c_int = i32;

    // The kernel ABI packs epoll_event on x86 so the 64-bit data field
    // sits right after the 32-bit mask; other architectures use natural
    // alignment.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CLOEXEC: c_int = 0o200_0000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    #[derive(Debug)]
    pub(super) struct Poller {
        epfd: RawFd,
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0u32;
        if interest.is_readable() {
            m |= EPOLLIN;
        }
        if interest.is_writable() {
            m |= EPOLLOUT;
        }
        m
    }

    fn check(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    impl Poller {
        pub(super) fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes a flags int and returns an fd
            // or -1; no pointers are involved.
            let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Self { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token as u64,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            check(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub(super) fn register(
            &self,
            fd: RawFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub(super) fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub(super) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            // Pre-2.6.9 kernels demanded a non-null event even for DEL;
            // passing one is harmless everywhere.
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl`.
            check(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        pub(super) fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let timeout_ms: c_int = match timeout {
                None => -1,
                // Round up so a 100µs timeout still sleeps instead of
                // spinning.
                Some(d) => c_int::try_from(d.as_millis().max(u128::from(u32::from(!d.is_zero()))))
                    .unwrap_or(c_int::MAX),
            };
            let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            // SAFETY: `buf` is MAX_EVENTS entries and the kernel writes
            // at most `maxevents` of them.
            let n = match check(unsafe {
                epoll_wait(self.epfd, buf.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms)
            }) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in buf.iter().take(n.max(0) as usize) {
                // Copy fields out by value: the struct may be packed, so
                // references into it are not allowed.
                let bits = { ev.events };
                let data = { ev.data };
                events.push(Event {
                    token: data as usize,
                    readable: bits & (EPOLLIN | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: closing an fd we own exactly once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    //! Portable Unix fallback: `poll(2)` over a registration table.
    //! Slower than epoll (O(fds) per wait) but the service's loops only
    //! hit this path on non-Linux development machines.

    use super::{Event, Interest, MAX_EVENTS};
    use std::collections::BTreeMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    #[allow(non_camel_case_types)]
    type c_int = i32;
    #[allow(non_camel_case_types)]
    type c_short = i16;
    #[allow(non_camel_case_types)]
    type nfds_t = u64;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: nfds_t, timeout: c_int) -> c_int;
    }

    #[derive(Debug)]
    pub(super) struct Poller {
        table: Mutex<BTreeMap<RawFd, (usize, Interest)>>,
    }

    impl Poller {
        pub(super) fn new() -> io::Result<Self> {
            Ok(Self {
                table: Mutex::new(BTreeMap::new()),
            })
        }

        pub(super) fn register(
            &self,
            fd: RawFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.table
                .lock()
                .expect("poll table lock")
                .insert(fd, (token, interest));
            Ok(())
        }

        pub(super) fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.register(fd, token, interest)
        }

        pub(super) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.table.lock().expect("poll table lock").remove(&fd);
            Ok(())
        }

        pub(super) fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let mut fds: Vec<PollFd> = {
                let table = self.table.lock().expect("poll table lock");
                table
                    .iter()
                    .map(|(&fd, &(_, interest))| PollFd {
                        fd,
                        events: if interest.is_readable() { POLLIN } else { 0 }
                            | if interest.is_writable() { POLLOUT } else { 0 },
                        revents: 0,
                    })
                    .collect()
            };
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => c_int::try_from(d.as_millis().max(1)).unwrap_or(c_int::MAX),
            };
            // SAFETY: `fds` is a live mutable slice for the duration of
            // the call; the kernel writes only `revents`.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as nfds_t, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            let table = self.table.lock().expect("poll table lock");
            for pfd in fds.iter().filter(|p| p.revents != 0) {
                if events.len() >= MAX_EVENTS {
                    break;
                }
                let Some(&(token, _)) = table.get(&pfd.fd) else {
                    continue;
                };
                events.push(Event {
                    token,
                    readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    error: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(not(unix))]
compile_error!("iris-poll supports Unix targets only (epoll on Linux, poll(2) elsewhere)");

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn readable_after_peer_writes() {
        let (mut a, b) = tcp_pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().expect("poller");
        poller
            .register(b.as_raw_fd(), 7, Interest::READ)
            .expect("register");

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        assert!(events.is_empty(), "nothing written yet");

        a.write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn level_triggered_until_drained() {
        let (mut a, mut b) = tcp_pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().expect("poller");
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        a.write_all(b"data").unwrap();

        let mut events = Vec::new();
        for _ in 0..2 {
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert_eq!(events.len(), 1, "still readable until drained");
        }
        let mut buf = [0u8; 16];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"data");
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "drained socket is quiet");
    }

    #[test]
    fn write_interest_and_modify() {
        let (a, _b) = tcp_pair();
        a.set_nonblocking(true).unwrap();
        let poller = Poller::new().expect("poller");
        // An idle socket with an empty send buffer is immediately
        // writable.
        poller
            .register(a.as_raw_fd(), 3, Interest::READ_WRITE)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));

        // Dropping write interest silences it again.
        poller.modify(a.as_raw_fd(), 3, Interest::READ).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());

        poller.deregister(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let poller = Poller::new().expect("poller");
        let waker = Waker::new().expect("waker");
        poller.register(waker.fd(), 42, Interest::READ).unwrap();

        let waker_fd_events = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                waker.wake();
                waker.wake(); // coalesces with the first
            });
            let mut events = Vec::new();
            let start = Instant::now();
            poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .expect("wait");
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "wake should interrupt long before the timeout"
            );
            events
        });
        assert_eq!(waker_fd_events.len(), 1);
        assert_eq!(waker_fd_events[0].token, 42);
        waker.drain();

        // Drained waker is quiet again.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn timeout_returns_empty() {
        let poller = Poller::new().expect("poller");
        let mut events = vec![Event {
            token: 0,
            readable: false,
            writable: false,
            error: false,
        }];
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .expect("wait");
        assert!(events.is_empty(), "buffer is cleared on timeout");
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn peer_close_reports_readable() {
        let (a, b) = tcp_pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().expect("poller");
        poller.register(b.as_raw_fd(), 9, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(
            events[0].readable,
            "EOF surfaces as readable so a read sees Ok(0)"
        );
    }
}
