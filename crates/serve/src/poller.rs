//! Zero-dependency readiness polling over raw file descriptors.
//!
//! Linux gets an epoll(7) backend — O(ready) wakeups regardless of how many
//! connections are registered, which is what lets one process hold 10k+
//! sockets. Every other unix gets poll(2): O(registered) per wakeup but
//! fully portable; [`Poller::with_backend`] picks it on Linux too, so tests
//! exercise both. Both are reached through direct `extern "C"` declarations —
//! std already links libc, so no crate dependency is needed.
//!
//! The API is deliberately tiny: register/modify/deregister a fd with an
//! [`Interest`] and a `u64` token, then [`Poller::wait`] for [`Event`]s.
//! Readiness is level-triggered on both backends, so a handler that leaves
//! bytes unconsumed is re-notified on the next wait — the event-loop shards
//! lean on this for fairness (bounded work per connection per iteration).
//!
//! Cross-thread wakeups use a nonblocking `UnixStream` pair ([`wake_pair`]):
//! the waker writes one byte, the loop registers the read end under a
//! reserved token and drains it. A full pipe means a wakeup is already
//! pending, which is exactly the semantics a waker needs.

use std::io::{self, Read, Write};
use std::os::unix::io::RawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Which readiness classes a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write readiness only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Registered but silent (kept in the set, no wakeups) — used while a
    /// connection waits on in-flight worker results with nothing to flush.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Reading will not block (data, EOF, or a pending error to harvest).
    pub readable: bool,
    /// Writing will not block.
    pub writable: bool,
}

/// Which syscall family backs a [`Poller`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// epoll(7) — Linux only, O(ready) wakeups.
    #[cfg(target_os = "linux")]
    Epoll,
    /// poll(2) — portable fallback, O(registered) wakeups.
    Poll,
}

/// A readiness poller over raw fds.
pub enum Poller {
    /// epoll(7)-backed (Linux).
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    /// poll(2)-backed (portable).
    Poll(pollfd::PollSet),
}

impl Poller {
    /// The platform-preferred backend: epoll on Linux, poll(2) elsewhere.
    pub fn new() -> io::Result<Poller> {
        Poller::with_backend(Poller::default_backend())
    }

    /// The backend [`Poller::new`] picks.
    pub fn default_backend() -> Backend {
        #[cfg(target_os = "linux")]
        {
            Backend::Epoll
        }
        #[cfg(not(target_os = "linux"))]
        {
            Backend::Poll
        }
    }

    /// Construct a poller on an explicit backend (tests exercise both).
    pub fn with_backend(backend: Backend) -> io::Result<Poller> {
        match backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll => Ok(Poller::Epoll(epoll::Epoll::new()?)),
            Backend::Poll => Ok(Poller::Poll(pollfd::PollSet::new())),
        }
    }

    /// Which backend this poller runs on.
    pub fn backend(&self) -> Backend {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => Backend::Epoll,
            Poller::Poll(_) => Backend::Poll,
        }
    }

    /// Start watching `fd` under `token`. The fd must stay open until
    /// [`Poller::deregister`]; tokens are caller-chosen and not deduplicated.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.register(fd, token, interest),
            Poller::Poll(p) => p.register(fd, token, interest),
        }
    }

    /// Change the interest set of an already-registered fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.modify(fd, token, interest),
            Poller::Poll(p) => p.modify(fd, interest),
        }
    }

    /// Stop watching `fd`. Must be called before the fd is closed.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.deregister(fd),
            Poller::Poll(p) => p.deregister(fd),
        }
    }

    /// Block until at least one registered fd is ready (or `timeout`
    /// expires), appending readiness into `events` (cleared first). A
    /// signal-interrupted wait returns cleanly with zero events.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs timeout does not busy-spin at 0ms.
            Some(d) => d.as_millis().saturating_add(1).min(i32::MAX as u128) as i32,
        };
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.wait(events, timeout_ms),
            Poller::Poll(p) => p.wait(events, timeout_ms),
        }
    }
}

/// Cross-thread wakeup handle for a [`Poller`] loop; see [`wake_pair`].
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Nudge the loop: write one byte into the pipe. A full pipe (WouldBlock)
    /// means a wakeup is already pending — that is success, not failure.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// Build a waker and the read end its loop must register (level-triggered,
/// [`Interest::READ`]) under a reserved token. Drain the read end with
/// [`drain_wake`] on every wakeup so the level-triggered readiness clears.
pub fn wake_pair() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Arc::new(tx) }, rx))
}

/// Drain all pending wakeup bytes from the read end of a [`wake_pair`].
pub fn drain_wake(rx: &UnixStream) {
    let mut r: &UnixStream = rx;
    let mut buf = [0u8; 64];
    while matches!(r.read(&mut buf), Ok(n) if n > 0) {}
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{Event, Interest};
    use std::ffi::c_int;
    use std::io;
    use std::os::unix::io::RawFd;

    // epoll event mask bits (linux/eventpoll.h).
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0x80000;

    // The kernel ABI packs this struct on x86-64 (12 bytes); other
    // architectures use natural alignment. Fields must be copied by value —
    // taking a reference into a packed struct is undefined behavior.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

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

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    /// An epoll instance plus its reusable event buffer.
    pub struct Epoll {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                // A signal interrupting the wait is not an error: report
                // zero events and let the loop re-enter.
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for slot in &self.buf[..n as usize] {
                // Copy out of the (possibly packed) struct before use.
                let bits = slot.events;
                let token = slot.data;
                events.push(Event {
                    token,
                    // Errors and hangups surface as readable so the handler's
                    // next read() harvests the real io::Error or EOF.
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

mod pollfd {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::ffi::{c_int, c_ulong};
    use std::io;
    use std::os::unix::io::RawFd;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    fn mask(interest: Interest) -> i16 {
        let mut m = 0;
        if interest.readable {
            m |= POLLIN;
        }
        if interest.writable {
            m |= POLLOUT;
        }
        m
    }

    /// A poll(2) fd set: parallel fd/token arrays plus an index for O(1)
    /// modify/deregister (deregister swap-removes, so order is not stable).
    pub struct PollSet {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
        index: HashMap<RawFd, usize>,
    }

    impl PollSet {
        pub fn new() -> PollSet {
            PollSet {
                fds: Vec::new(),
                tokens: Vec::new(),
                index: HashMap::new(),
            }
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if self.index.contains_key(&fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.index.insert(fd, self.fds.len());
            self.fds.push(PollFd {
                fd,
                events: mask(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, interest: Interest) -> io::Result<()> {
            let &i = self
                .index
                .get(&fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds[i].events = mask(interest);
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self
                .index
                .remove(&fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            if i < self.fds.len() {
                self.index.insert(self.fds[i].fd, i);
            }
            Ok(())
        }

        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            if self.fds.is_empty() {
                // poll(2) with zero fds still honors the timeout, but an
                // empty set with an infinite timeout would hang forever;
                // the event loops always keep their wake pipe registered.
                if timeout_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(timeout_ms as u64));
                }
                return Ok(());
            }
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (slot, &token) in self.fds.iter_mut().zip(&self.tokens) {
                let bits = slot.revents;
                slot.revents = 0;
                if bits == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: bits & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: bits & (POLLOUT | POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn backends() -> Vec<Backend> {
        #[cfg(target_os = "linux")]
        {
            vec![Backend::Epoll, Backend::Poll]
        }
        #[cfg(not(target_os = "linux"))]
        {
            vec![Backend::Poll]
        }
    }

    #[test]
    fn readable_event_fires_and_clears() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
            let mut events = Vec::new();
            // Nothing pending: times out with no events.
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: spurious event");
            // One byte written: readable under the registered token.
            (&a).write_all(&[9]).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 7 && e.readable),
                "{backend:?}: missing readable event"
            );
            // Drain, and the level-triggered readiness clears.
            let mut buf = [0u8; 8];
            let _ = (&b).read(&mut buf).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: readiness failed to clear");
            poller.deregister(b.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn modify_gates_write_interest() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (a, _b) = UnixStream::pair().unwrap();
            a.set_nonblocking(true).unwrap();
            poller.register(a.as_raw_fd(), 1, Interest::READ).unwrap();
            let mut events = Vec::new();
            // Read interest only: an idle writable socket stays silent.
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: writable leaked through");
            poller.modify(a.as_raw_fd(), 1, Interest::BOTH).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 1 && e.writable),
                "{backend:?}: missing writable event"
            );
            poller.deregister(a.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn waker_wakes_a_blocked_loop() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (waker, rx) = wake_pair().unwrap();
            poller
                .register(rx.as_raw_fd(), u64::MAX, Interest::READ)
                .unwrap();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                waker.wake();
                waker.wake(); // coalesces, must not block
                waker // keep the write end open: dropping it would HUP rx
            });
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == u64::MAX && e.readable),
                "{backend:?}: wakeup missed"
            );
            // Both wake bytes are in flight only once the writer has exited;
            // drain after the join or the second byte re-arms the fd.
            let _waker = handle.join().unwrap();
            drain_wake(&rx);
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: wake byte not drained");
        }
    }

    #[test]
    fn deregistered_fd_stops_reporting() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).unwrap();
            let (a, b) = UnixStream::pair().unwrap();
            poller.register(b.as_raw_fd(), 3, Interest::READ).unwrap();
            (&a).write_all(&[1]).unwrap();
            poller.deregister(b.as_raw_fd()).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: zombie registration");
        }
    }
}
