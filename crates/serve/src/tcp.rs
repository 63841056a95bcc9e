//! TCP front-end: a readiness-driven event loop speaking the `LSBP` binary
//! protocol of [`crate::proto`], forwarding each request to a
//! [`ServeHandle`].
//!
//! One blocking acceptor thread sets `TCP_NODELAY`, flips the socket
//! nonblocking, and round-robins it to one of N event-loop **shards**
//! (the private `evloop` module); each shard multiplexes thousands of
//! connections over a [`crate::poller::Poller`] (epoll on Linux, poll(2)
//! fallback), answers cache hits and other inline outcomes in place, and
//! hands the rest of its decoded rank requests to the worker pool without
//! blocking — connection count no longer costs a thread apiece, and a
//! single process holds 10k+ concurrent connections.
//!
//! ## Failure containment
//!
//! A torn or malformed frame poisons exactly one connection: the handler
//! replies with a typed error where it still can (garbage inside a
//! well-formed frame), or closes that connection (no hello, corrupt length
//! prefix, mid-frame EOF) — the accept loop and every other connection are
//! untouched. [`TcpRankClient`] is the other half of the story: it
//! reconnects on transport failures (a failed hello included) with capped,
//! jittered exponential backoff and resends the (idempotent) request under
//! the same id, within an optional overall deadline.

use crate::evloop::{self, Inbound, Mailbox};
use crate::poller::{wake_pair, Backend};
use crate::proto::{self, read_frame, AdminCommand, FrameError, MAX_FRAME};
use crate::server::{RankRequest, RankResponse, ServeError, ServeHandle};
use ls_fault::{Backoff, Injector, NoFaults};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the event-loop front-end. The defaults suit tests and
/// small machines; `LS_EVLOOP_SHARDS` overrides the shard count without a
/// code change.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Event-loop shard (thread) count, minimum 1.
    pub shards: usize,
    /// Poller backend; `None` picks the platform default (epoll on Linux,
    /// poll(2) elsewhere).
    pub backend: Option<Backend>,
    /// Per-connection unsent-bytes bound above which reading pauses
    /// (write backpressure).
    pub high_water: usize,
    /// Resume reading once the unsent backlog drains below this.
    pub low_water: usize,
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        let shards = std::env::var("LS_EVLOOP_SHARDS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(1)
                    .min(4)
            })
            .max(1);
        TcpOptions {
            shards,
            backend: None,
            high_water: 1 << 20,
            low_water: 64 << 10,
        }
    }
}

/// A running TCP front-end.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    mailboxes: Vec<Arc<Mailbox>>,
}

impl TcpServer {
    /// Bind `bind` (e.g. `"127.0.0.1:0"`) and start accepting connections,
    /// forwarding requests to `handle`.
    pub fn start(handle: ServeHandle, bind: impl ToSocketAddrs) -> io::Result<TcpServer> {
        TcpServer::start_with(handle, bind, Arc::new(NoFaults))
    }

    /// [`TcpServer::start`] with a fault injector wrapped around every
    /// connection's reads (`serve.tcp.read`) and writes (`serve.tcp.write`).
    /// Production passes [`NoFaults`]; chaos tests inject torn frames and
    /// I/O errors on the server side of the wire.
    pub fn start_with(
        handle: ServeHandle,
        bind: impl ToSocketAddrs,
        injector: Arc<dyn Injector>,
    ) -> io::Result<TcpServer> {
        TcpServer::start_opts(handle, bind, injector, TcpOptions::default())
    }

    /// Full-control constructor: explicit shard count, poller backend, and
    /// backpressure watermarks.
    pub fn start_opts(
        handle: ServeHandle,
        bind: impl ToSocketAddrs,
        injector: Arc<dyn Injector>,
        opts: TcpOptions,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut shards = Vec::new();
        let mut mailboxes = Vec::new();
        for shard in 0..opts.shards.max(1) {
            let (waker, wake_rx) = wake_pair()?;
            let mailbox = Arc::new(Mailbox::new(waker));
            mailboxes.push(mailbox.clone());
            let handle = handle.clone();
            let injector = injector.clone();
            let stop = stop.clone();
            let opts = opts.clone();
            shards.push(
                std::thread::Builder::new()
                    .name(format!("ls-serve-loop-{shard}"))
                    .spawn(move || {
                        evloop::shard_loop(shard, handle, injector, mailbox, wake_rx, stop, opts)
                    })?,
            );
        }
        let acceptor = {
            let stop = stop.clone();
            let mailboxes = mailboxes.clone();
            std::thread::Builder::new()
                .name("ls-serve-accept".into())
                .spawn(move || accept_loop(listener, &mailboxes, &stop))?
        };
        Ok(TcpServer {
            addr,
            stop,
            acceptor: Some(acceptor),
            shards,
            mailboxes,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake every shard, and join all front-end threads.
    /// Responses already being computed by the worker pool are dropped at
    /// the wire (their connections close); pair with
    /// [`crate::Server::shutdown`] to drain the pipeline itself.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for mb in &self.mailboxes {
            mb.wake();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
    }
}

fn accept_loop(listener: TcpListener, mailboxes: &[Arc<Mailbox>], stop: &AtomicBool) {
    let mut rr = 0usize;
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        ls_obs::counter("serve.tcp.connections").incr();
        // NODELAY before the socket ever carries a frame: request/response
        // frames are far smaller than an MTU, and Nagle would otherwise
        // serialize them behind delayed ACKs on a real network.
        let _ = stream.set_nodelay(true);
        mailboxes[rr % mailboxes.len()].push(Inbound::Conn(stream));
        rr = rr.wrapping_add(1);
    }
}

/// Reconnect-and-resend policy for [`TcpRankClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call, connect included (minimum 1).
    pub attempts: u32,
    /// Delay schedule between attempts (capped exponential, jittered).
    pub backoff: Backoff,
    /// Overall per-call budget: once it would be exceeded (sleep included),
    /// remaining attempts are abandoned. `None` = attempts alone bound the
    /// call.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            backoff: Backoff::new(Duration::from_millis(10), Duration::from_millis(500), 0),
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — the pre-resilience client behavior.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// A blocking client for the binary protocol, with transparent reconnect.
///
/// Ranking requests are idempotent (same input, same bit-identical answer),
/// so a transport failure — connection refused, failed hello, torn frame,
/// server restart — is handled by reconnecting and resending the same
/// request under the same id, per the configured [`RetryPolicy`]. Typed
/// server answers (including server-side errors like `Overloaded`) are
/// final and never retried here: backpressure decisions belong to the
/// caller. Every connection, the first and each reconnect, opens with the
/// hello ([`proto::negotiate`]).
pub struct TcpRankClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
    next_id: u64,
}

impl TcpRankClient {
    /// Connect to a [`TcpServer`] with no retries (fail-fast).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpRankClient> {
        TcpRankClient::connect_with(addr, RetryPolicy::none())
    }

    /// Connect with an explicit retry policy. The initial connection and
    /// hello are attempted eagerly so misconfiguration fails at
    /// construction.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> io::Result<TcpRankClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let mut client = TcpRankClient {
            addr,
            policy,
            conn: None,
            next_id: 1,
        };
        client.ensure_conn()?;
        Ok(client)
    }

    fn ensure_conn(&mut self) -> io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        proto::negotiate(&mut stream)?;
        let reader = BufReader::new(stream.try_clone()?);
        self.conn = Some((reader, stream));
        ls_obs::counter("serve.client.connects").incr();
        Ok(())
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// One wire round trip: write an encoded frame, read the reply, decode
    /// it and check it answers `id`. Any `Err` leaves the connection state
    /// suspect, so it is dropped and the next call starts on a fresh socket
    /// (no stale frames possible).
    fn exchange<T>(
        &mut self,
        id: u64,
        frame: &[u8],
        decode: impl Fn(&[u8]) -> Result<(u64, T), FrameError>,
    ) -> io::Result<T> {
        let result = self.try_exchange(id, frame, decode);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn try_exchange<T>(
        &mut self,
        id: u64,
        frame: &[u8],
        decode: impl Fn(&[u8]) -> Result<(u64, T), FrameError>,
    ) -> io::Result<T> {
        self.ensure_conn()?;
        let (reader, writer) = self.conn.as_mut().expect("connection just established");
        writer.write_all(frame)?;
        let payload = read_frame(reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection")
        })?;
        let (resp_id, value) =
            decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if resp_id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {resp_id} does not match request id {id}"),
            ));
        }
        Ok(value)
    }

    /// Send one request and block for its response, reconnecting and
    /// resending on transport failures per the [`RetryPolicy`]. A request
    /// whose frame would exceed [`MAX_FRAME`] fails `BadRequest` before any
    /// byte is written.
    pub fn rank(&mut self, req: &RankRequest) -> Result<RankResponse, ServeError> {
        let id = self.take_id();
        // Propagate the caller's ambient trace, or mint a fresh root when
        // telemetry is on and no trace is active — the id the server echoes
        // into its spans and exemplars either way. Untraced when obs is off,
        // keeping the wire bytes identical to the pre-tracing protocol.
        let trace = ls_obs::TraceContext::current()
            .or_else(|| ls_obs::enabled().then(ls_obs::TraceContext::root));
        let _guard = trace.as_ref().map(ls_obs::TraceContext::attach);
        let _span = trace
            .is_some()
            .then(|| ls_obs::span("serve.client.request"));
        let frame = within_cap(proto::encode_binary_request(id, req, trace.as_ref()))?;
        let started = Instant::now();
        let attempts = self.policy.attempts.max(1);
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let delay = self.policy.backoff.delay(attempt - 1);
                if let Some(budget) = self.policy.deadline {
                    // Deadline-aware: a sleep that lands past the budget is
                    // wasted latency — give up with the last error instead.
                    if started.elapsed() + delay >= budget {
                        break;
                    }
                }
                std::thread::sleep(delay);
                ls_obs::counter("serve.client.retries").incr();
            }
            match self.exchange(id, &frame, proto::decode_binary_response) {
                Ok(result) => return result,
                Err(e) => last_err = Some(e),
            }
        }
        let detail = last_err.map_or_else(|| "no attempts made".to_string(), |e| e.to_string());
        Err(ServeError::Transport(format!(
            "gave up after {attempts} attempt(s): {detail}"
        )))
    }

    /// Submit one feedback record to the server's online-learning WAL and
    /// block for its crash-durable log sequence number. Feedback frames are
    /// answered inline by the connection handler and are not retried here:
    /// unlike rank traffic, a resend after a transport failure could append
    /// the record twice (the ack may have been lost, not the append).
    pub fn feedback(&mut self, rec: &ls_core::FeedbackRecord) -> Result<u64, ServeError> {
        let id = self.take_id();
        let frame = within_cap(proto::encode_binary_feedback_request(id, rec))?;
        self.exchange(id, &frame, proto::decode_binary_feedback_response)
            .map_err(|e| ServeError::Transport(e.to_string()))?
    }

    /// Run one admin introspection query (metrics, state, traces, recorder)
    /// against the server and return the decoded `data` payload. Admin
    /// queries are served inline by the connection handler — they never
    /// enter the ranking pipeline — and are not retried.
    pub fn admin(&mut self, cmd: AdminCommand) -> Result<ls_obs::Json, ServeError> {
        let id = self.take_id();
        let frame = proto::encode_binary_admin_request(id, cmd);
        self.exchange(id, &frame, proto::decode_binary_admin_response)
            .map_err(|e| ServeError::Transport(e.to_string()))
    }
}

/// Refuse, before a byte hits the wire, a frame the server would tear the
/// connection over: its payload exceeds [`MAX_FRAME`].
fn within_cap(frame: Vec<u8>) -> Result<Vec<u8>, ServeError> {
    let len = (frame.len() - 4) as u64;
    if len > u64::from(MAX_FRAME) {
        let e = FrameError::TooLarge {
            len,
            cap: MAX_FRAME,
        };
        return Err(ServeError::BadRequest(e.to_string()));
    }
    Ok(frame)
}
