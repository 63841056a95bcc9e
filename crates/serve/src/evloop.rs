//! Readiness-driven connection shards for the TCP front-end.
//!
//! Each shard is one thread owning a [`Poller`] and a slab of nonblocking
//! connections. The blocking acceptor round-robins new sockets to shards
//! through a [`Mailbox`]. A decoded rank request goes to the serving engine
//! without blocking the shard: an answer that is ready at once — a cache
//! hit, an admission or validation error, a tiered answer, a job that
//! finished before its callback was registered — is encoded and appended
//! to the connection's write buffer, while a queued job's answer is encoded
//! on the pipeline thread that finishes it and comes back through the
//! mailbox.
//! The mailbox thus carries only cross-thread traffic: new sockets and
//! worker completions. The shard thread never blocks on scoring — it only
//! parses frames, runs the per-connection state machines, and moves bytes.
//!
//! ## Connection state machine
//!
//! ```text
//!   greeting ──LSBP hello──▶ frames ─▶ dispatch ─▶ outbuf
//!      │ (any other first 4 bytes)
//!      └──▶ torn
//! ```
//!
//! Partial frames resume across wakeups (`inbuf` + consumed offset).
//!
//! ## Write path
//!
//! A connection is written once per readiness event: every answer that the
//! event's frames produced sits in `outbuf`, and one flush at the end of the
//! event sends them together, so a pipelined burst of k cache hits read in
//! one pass leaves in one `write(2)`, not k. A worker completion is flushed
//! as the mailbox drain appends it. Bytes the socket does not take wait for
//! `EPOLLOUT`-style write readiness. When a connection buffers
//! more than `high_water` unsent bytes its read interest is dropped — write
//! backpressure propagates to the peer's TCP window instead of growing the
//! heap — and reading resumes below `low_water`.
//!
//! ## Failure containment (unchanged from the thread-per-connection era)
//!
//! Garbage *inside* a well-formed frame answers a typed error and keeps
//! the connection (the framing layer is still in sync). A missing hello or
//! a torn framing layer — oversized length prefix, EOF mid-frame, injected
//! I/O fault — poisons exactly that connection: it is deregistered and
//! dropped, the listener and every other connection keep serving. The
//! `ls-fault` injector seams sit where they always did: every read passes
//! `serve.tcp.read`, every write `serve.tcp.write`.

use crate::poller::{drain_wake, Event, Interest, Poller, Waker};
use crate::proto::{self, AdminCommand, Frame, BINARY_VERSION, HELLO_LEN, MAGIC};
use crate::server::{RankRequest, RankResponse, ServeError, ServeHandle};
use crate::tcp::TcpOptions;
use ls_fault::{lock_safe, FaultyRead, FaultyWrite, Injector};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Reserved token for the shard's wakeup pipe.
const WAKE_TOKEN: u64 = u64::MAX;
/// Bytes read per connection per wakeup before yielding to other
/// connections (level-triggered readiness re-notifies on leftovers).
const READ_BUDGET: usize = 256 * 1024;
/// One read() granule.
const READ_CHUNK: usize = 16 * 1024;

/// Work arriving at a shard from other threads.
pub(crate) enum Inbound {
    /// A freshly accepted socket (nodelay already set by the acceptor).
    Conn(TcpStream),
    /// Encoded response bytes for connection `token`, valid only while the
    /// slot's generation still matches (a late completion for a closed
    /// connection must never reach the slot's next tenant).
    Done {
        token: u64,
        gen: u32,
        bytes: Vec<u8>,
    },
}

/// A shard's inbox plus the waker that unblocks its poller. Only other
/// threads push: the shard answers its own inline work in place.
pub(crate) struct Mailbox {
    q: Mutex<VecDeque<Inbound>>,
    waker: Waker,
}

impl Mailbox {
    pub(crate) fn new(waker: Waker) -> Mailbox {
        Mailbox {
            q: Mutex::new(VecDeque::new()),
            waker,
        }
    }

    pub(crate) fn push(&self, msg: Inbound) {
        lock_safe(&self.q).push_back(msg);
        self.waker.wake();
    }

    pub(crate) fn wake(&self) {
        self.waker.wake();
    }
}

/// Why a connection is being closed.
enum Close {
    /// Peer finished cleanly at a frame boundary with nothing in flight.
    Clean,
    /// No hello, or framing torn: oversized prefix, EOF mid-frame, I/O
    /// error.
    Torn,
}

/// A cloneable view of one socket that costs no extra file descriptor.
/// `try_clone` would dup(2) the fd — three descriptors per connection sinks
/// a 10k-connection process straight into the rlimit — so the read and
/// write halves share the one fd through an `Arc` instead.
struct SharedStream(Arc<TcpStream>);

impl Read for SharedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self.0).read(buf)
    }
}

impl Write for SharedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self.0).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        (&*self.0).flush()
    }
}

struct Conn {
    /// The registered fd, shared (not dup'd) with the fault-seamed halves.
    stream: Arc<TcpStream>,
    rd: FaultyRead<SharedStream>,
    wr: FaultyWrite<SharedStream>,
    /// The hello has been consumed and acked.
    greeted: bool,
    gen: u32,
    inbuf: Vec<u8>,
    /// Bytes of `inbuf` already consumed by the frame parser.
    in_off: usize,
    outbuf: Vec<u8>,
    /// Bytes of `outbuf` already written to the socket.
    out_off: usize,
    /// Queued rank jobs whose answers will come back through the mailbox.
    pending: u32,
    read_closed: bool,
    /// Backpressured: read interest dropped until the outbuf drains.
    paused: bool,
    registered: Interest,
}

impl Conn {
    fn buffered(&self) -> usize {
        self.outbuf.len() - self.out_off
    }

    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.read_closed && !self.paused,
            writable: self.buffered() > 0,
        }
    }
}

struct ShardCtx {
    handle: ServeHandle,
    injector: Arc<dyn Injector>,
    mailbox: Arc<Mailbox>,
    high_water: usize,
    low_water: usize,
    /// `serve.tcp.frames`, interned once rather than looked up per frame.
    frames: &'static ls_obs::Counter,
}

/// Everything a completion callback needs to route encoded bytes back to
/// the right connection — and nothing that borrows the shard.
struct Completion {
    mailbox: Arc<Mailbox>,
    token: u64,
    gen: u32,
    id: u64,
    trace_id: u64,
}

fn leaked_name(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Run one shard's event loop until `stop` is set. Panics are confined to
/// the shard thread by the caller's `JoinHandle`.
pub(crate) fn shard_loop(
    shard: usize,
    handle: ServeHandle,
    injector: Arc<dyn Injector>,
    mailbox: Arc<Mailbox>,
    wake_rx: UnixStream,
    stop: Arc<AtomicBool>,
    opts: TcpOptions,
) {
    let backend = opts.backend.unwrap_or_else(Poller::default_backend);
    let Ok(mut poller) = Poller::with_backend(backend) else {
        return;
    };
    if poller
        .register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)
        .is_err()
    {
        return;
    }
    // Per-shard gauge names are interned once per shard lifetime (the obs
    // registry requires 'static names); shard counts are small and fixed.
    let registered_gauge = ls_obs::gauge(leaked_name(format!("serve.evloop.{shard}.registered")));
    let accept_gauge = ls_obs::gauge(leaked_name(format!("serve.evloop.{shard}.accept_queue")));
    let ready_hist = ls_obs::histogram("serve.evloop.ready_per_wake");

    let ctx = ShardCtx {
        handle,
        injector,
        mailbox: mailbox.clone(),
        high_water: opts.high_water,
        low_water: opts.low_water,
        frames: ls_obs::counter("serve.tcp.frames"),
    };
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut gens: Vec<u32> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<Event> = Vec::new();

    loop {
        if poller.wait(&mut events, None).is_err() {
            break;
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if ls_obs::enabled() {
            ready_hist.record(events.len() as f64);
        }
        for &ev in &events {
            if ev.token == WAKE_TOKEN {
                drain_wake(&wake_rx);
                continue;
            }
            let slot = ev.token as usize;
            let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            let verdict = handle_event(conn, ev, &ctx, slot);
            settle(
                verdict,
                slot,
                &mut conns,
                &mut free,
                &mut gens,
                &mut poller,
                registered_gauge,
            );
        }
        // Drain the mailbox once: new connections and worker completions.
        // Every sender is another thread and wakes the poller, so anything
        // pushed after this take is seen on the next pass.
        let inbox = std::mem::take(&mut *lock_safe(&ctx.mailbox.q));
        if !inbox.is_empty() {
            accept_gauge.set(inbox.len() as f64);
        }
        for msg in inbox {
            match msg {
                Inbound::Conn(stream) => {
                    if let Some(slot) =
                        install_conn(stream, &ctx, &mut conns, &mut free, &mut gens, &mut poller)
                    {
                        registered_gauge.set(gens.len() as f64 - free.len() as f64);
                        // The peer may already have sent bytes before we
                        // registered: process them now rather than waiting
                        // for the next readiness edge.
                        let conn = conns[slot].as_mut().expect("just installed");
                        let ev = Event {
                            token: slot as u64,
                            readable: true,
                            writable: false,
                        };
                        let verdict = handle_event(conn, ev, &ctx, slot);
                        settle(
                            verdict,
                            slot,
                            &mut conns,
                            &mut free,
                            &mut gens,
                            &mut poller,
                            registered_gauge,
                        );
                    }
                }
                Inbound::Done { token, gen, bytes } => {
                    let slot = token as usize;
                    let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                        continue; // connection closed while the job ran
                    };
                    if conn.gen != gen {
                        continue; // slot reused: response belongs to a ghost
                    }
                    conn.pending -= 1;
                    conn.outbuf.extend_from_slice(&bytes);
                    let verdict = after_io(conn, &ctx);
                    settle(
                        verdict,
                        slot,
                        &mut conns,
                        &mut free,
                        &mut gens,
                        &mut poller,
                        registered_gauge,
                    );
                }
            }
        }
        accept_gauge.set(0.0);
    }
}

/// Register a freshly accepted socket into the slab.
fn install_conn(
    stream: TcpStream,
    ctx: &ShardCtx,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    gens: &mut Vec<u32>,
    poller: &mut Poller,
) -> Option<usize> {
    if stream.set_nonblocking(true).is_err() {
        return None;
    }
    let stream = Arc::new(stream);
    let slot = free.pop().unwrap_or_else(|| {
        conns.push(None);
        gens.push(0);
        conns.len() - 1
    });
    if poller
        .register(stream.as_raw_fd(), slot as u64, Interest::READ)
        .is_err()
    {
        free.push(slot);
        return None;
    }
    conns[slot] = Some(Conn {
        rd: FaultyRead::new(
            SharedStream(stream.clone()),
            ctx.injector.clone(),
            "serve.tcp",
        ),
        wr: FaultyWrite::new(
            SharedStream(stream.clone()),
            ctx.injector.clone(),
            "serve.tcp",
        ),
        stream,
        greeted: false,
        gen: gens[slot],
        inbuf: Vec::new(),
        in_off: 0,
        outbuf: Vec::new(),
        out_off: 0,
        pending: 0,
        read_closed: false,
        paused: false,
        registered: Interest::READ,
    });
    Some(slot)
}

/// Apply a connection verdict: keep it registered with the right interest,
/// or deregister, count, and drop it.
fn settle(
    verdict: Result<(), Close>,
    slot: usize,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    gens: &mut [u32],
    poller: &mut Poller,
    registered_gauge: &'static ls_obs::Gauge,
) {
    let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
        return;
    };
    match verdict {
        Ok(()) => {
            let want = conn.desired_interest();
            if want != conn.registered {
                // A fully idle connection (half-closed, waiting only on
                // in-flight worker results) is deregistered outright:
                // poll(2)/epoll report HUP regardless of the interest mask,
                // and a permanently-ready fd would spin the loop.
                let fd = conn.stream.as_raw_fd();
                let ok = if want == Interest::NONE {
                    poller.deregister(fd).is_ok()
                } else if conn.registered == Interest::NONE {
                    poller.register(fd, slot as u64, want).is_ok()
                } else {
                    poller.modify(fd, slot as u64, want).is_ok()
                };
                if ok {
                    conn.registered = want;
                }
            }
        }
        Err(close) => {
            if matches!(close, Close::Torn) {
                ls_obs::counter("serve.tcp.torn_connections").incr();
            }
            if conn.registered != Interest::NONE {
                let _ = poller.deregister(conn.stream.as_raw_fd());
            }
            conns[slot] = None;
            // Invalidate in-flight completions addressed to this slot.
            gens[slot] = gens[slot].wrapping_add(1);
            free.push(slot);
            registered_gauge.set(gens.len() as f64 - free.len() as f64);
        }
    }
}

/// React to one readiness event on a live connection: read and dispatch
/// what arrived, then flush everything buffered — the answers this event
/// produced and any backlog the socket can now take — in one pass.
fn handle_event(conn: &mut Conn, ev: Event, ctx: &ShardCtx, slot: usize) -> Result<(), Close> {
    if ev.readable && !conn.read_closed && !conn.paused {
        on_readable(conn, ctx, slot)?;
    }
    after_io(conn, ctx)
}

/// Drain the socket (bounded), then parse and dispatch completed frames.
fn on_readable(conn: &mut Conn, ctx: &ShardCtx, slot: usize) -> Result<(), Close> {
    let mut total = 0;
    loop {
        let filled = conn.inbuf.len();
        conn.inbuf.resize(filled + READ_CHUNK, 0);
        match conn.rd.read(&mut conn.inbuf[filled..]) {
            Ok(0) => {
                conn.inbuf.truncate(filled);
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.inbuf.truncate(filled + n);
                total += n;
                if total >= READ_BUDGET {
                    break; // fairness: level-triggered readiness re-fires
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.inbuf.truncate(filled);
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                conn.inbuf.truncate(filled);
            }
            Err(_) => {
                conn.inbuf.truncate(filled);
                return Err(Close::Torn);
            }
        }
    }
    process_frames(conn, ctx, slot)
}

/// Parse every complete frame in `inbuf`, leaving partial bytes for the
/// next wakeup.
fn process_frames(conn: &mut Conn, ctx: &ShardCtx, slot: usize) -> Result<(), Close> {
    if !conn.greeted && !greet(conn)? {
        return Ok(()); // hello arrives in pieces: resume later
    }
    loop {
        let avail = &conn.inbuf[conn.in_off..];
        if avail.len() < 4 {
            break;
        }
        let prefix = avail[..4].try_into().expect("sized slice");
        let Ok(len) = proto::frame_len(prefix) else {
            // Corrupt or hostile prefix: never allocate it, tear this
            // connection only.
            return Err(Close::Torn);
        };
        if avail.len() < 4 + len {
            break; // partial frame: resume when more bytes land
        }
        let start = conn.in_off + 4;
        conn.in_off = start + len;
        ctx.frames.incr();
        dispatch_frame(conn, start..start + len, ctx, slot);
    }
    // Compact consumed bytes once they dominate the buffer (cheap amortized
    // memmove; tiny offsets ride along until the buffer clears).
    if conn.in_off == conn.inbuf.len() {
        conn.inbuf.clear();
        conn.in_off = 0;
    } else if conn.in_off >= 64 * 1024 {
        conn.inbuf.drain(..conn.in_off);
        conn.in_off = 0;
    }
    Ok(())
}

/// Consume the mandatory hello and queue the ack. `Ok(false)` while the
/// hello is still incomplete; a connection whose first four bytes are not
/// the magic — an old JSON client's length prefix, say — is torn unanswered.
fn greet(conn: &mut Conn) -> Result<bool, Close> {
    let avail = &conn.inbuf[conn.in_off..];
    if avail.len() >= MAGIC.len() && avail[..MAGIC.len()] != MAGIC {
        return Err(Close::Torn);
    }
    let Some(hello) = avail.get(..HELLO_LEN) else {
        return Ok(false);
    };
    let Ok(peer_version) = proto::decode_hello(hello.try_into().expect("sized slice")) else {
        return Err(Close::Torn); // magic right, version 0
    };
    conn.in_off += HELLO_LEN;
    conn.greeted = true;
    // Ack with the highest version both sides speak.
    let chosen = peer_version.min(BINARY_VERSION);
    conn.outbuf.extend_from_slice(&proto::encode_hello(chosen));
    Ok(true)
}

/// Decode and act on one frame whose payload sits at `range` in `inbuf`.
/// Every answer ready now is appended to `outbuf`.
fn dispatch_frame(conn: &mut Conn, range: Range<usize>, ctx: &ShardCtx, slot: usize) {
    match proto::decode_binary_frame(&conn.inbuf[range]) {
        Ok(Frame::Rank(id, req, trace)) => submit_rank(conn, ctx, slot, id, req, trace),
        Ok(Frame::Admin(id, cmd)) => {
            let data = admin_payload(&ctx.handle, cmd);
            conn.outbuf
                .extend_from_slice(&proto::encode_binary_admin_response(id, &data));
        }
        Ok(Frame::Feedback(id, rec)) => {
            // Answered inline once the record is crash-durable in the WAL.
            // The fsync runs on the shard thread by design: feedback acks
            // promise durability, and the append-latency histogram
            // (`serve.feedback.append`) keeps the cost honest.
            let result = ctx.handle.feedback(&rec);
            conn.outbuf
                .extend_from_slice(&proto::encode_binary_feedback_response(id, &result));
        }
        Err(fe) => {
            // Garbage inside a well-formed frame: the framing layer is still
            // in sync, so answer typed under id 0 and keep the connection.
            ls_obs::counter("serve.tcp.bad_frames").incr();
            let err = ServeError::BadRequest(fe.to_string());
            conn.outbuf
                .extend_from_slice(&proto::encode_binary_response(0, &Err(err)));
        }
    }
}

/// Hand a rank request to the serving engine without blocking the shard.
/// An answer ready now is encoded and appended to `outbuf`; a queued job's
/// answer comes back through the mailbox.
fn submit_rank(
    conn: &mut Conn,
    ctx: &ShardCtx,
    slot: usize,
    id: u64,
    req: RankRequest,
    trace: Option<ls_obs::TraceContext>,
) {
    // Adopt the client's wire trace for the submission path so admission
    // spans and stage samples stitch into the client's trace.
    let _wire = trace.as_ref().map(ls_obs::TraceContext::attach);
    let _span = ls_obs::enabled().then(|| ls_obs::span("serve.tcp.request"));
    let trace_id = trace.as_ref().map_or(0, |c| c.trace_id);
    let gen = conn.gen;
    let now = ctx.handle.rank_or_notify(req, || {
        let c = Completion {
            mailbox: ctx.mailbox.clone(),
            token: slot as u64,
            gen,
            id,
            trace_id,
        };
        Box::new(move |result| deliver(c, result))
    });
    match now {
        Some(result) => conn
            .outbuf
            .extend_from_slice(&encode_answer(id, &result, trace_id)),
        None => conn.pending += 1,
    }
}

/// Completion callback of a queued job: encode on the pipeline thread that
/// finished it, then route the bytes to the owning shard.
fn deliver(c: Completion, result: Result<RankResponse, ServeError>) {
    let bytes = encode_answer(c.id, &result, c.trace_id);
    c.mailbox.push(Inbound::Done {
        token: c.token,
        gen: c.gen,
        bytes,
    });
}

/// Encode one rank answer's frame, timed into `serve.stage.serialize` while
/// telemetry is on.
fn encode_answer(id: u64, result: &Result<RankResponse, ServeError>, trace_id: u64) -> Vec<u8> {
    let t0 = ls_obs::enabled().then(Instant::now);
    let bytes = proto::encode_binary_response(id, result);
    if let Some(t0) = t0 {
        // The serialize stage runs after the response object exists, so it
        // lands in the histogram only — the breakdown inside the frame
        // cannot include it.
        crate::server::stage_hists()
            .serialize
            .record_traced(t0.elapsed().as_secs_f64(), trace_id);
    }
    bytes
}

/// Answer one admin query from live server state.
pub(crate) fn admin_payload(handle: &ServeHandle, cmd: AdminCommand) -> String {
    ls_obs::counter("serve.tcp.admin_frames").incr();
    match cmd {
        AdminCommand::Metrics => ls_obs::metrics_json(),
        AdminCommand::State => handle.state_json(),
        AdminCommand::Traces => handle.traces_json(),
        AdminCommand::Recorder => ls_obs::recorder::dump_json(),
    }
}

/// Opportunistic flush, backpressure bookkeeping, and close decisions —
/// runs after every piece of work on a connection.
fn after_io(conn: &mut Conn, ctx: &ShardCtx) -> Result<(), Close> {
    if conn.buffered() > 0 {
        flush_some(conn)?;
    }
    let buffered = conn.buffered();
    if buffered > ctx.high_water {
        if !conn.paused {
            ls_obs::counter("serve.tcp.paused").incr();
        }
        conn.paused = true;
    } else if conn.paused && buffered <= ctx.low_water {
        conn.paused = false;
    }
    if conn.read_closed {
        if conn.inbuf.len() > conn.in_off {
            // EOF with a partial frame buffered — the peer vanished
            // mid-frame. Same poison the blocking server applied.
            return Err(Close::Torn);
        }
        if conn.pending == 0 && buffered == 0 {
            return Err(Close::Clean);
        }
        // Half-closed: finish in-flight responses, then close.
    }
    Ok(())
}

/// Write as much of `outbuf` as the socket accepts right now.
fn flush_some(conn: &mut Conn) -> Result<(), Close> {
    while conn.out_off < conn.outbuf.len() {
        match conn.wr.write(&conn.outbuf[conn.out_off..]) {
            Ok(0) => return Err(Close::Torn),
            Ok(n) => conn.out_off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(Close::Torn),
        }
    }
    if conn.out_off == conn.outbuf.len() {
        conn.outbuf.clear();
        conn.out_off = 0;
    } else if conn.out_off >= 256 * 1024 {
        conn.outbuf.drain(..conn.out_off);
        conn.out_off = 0;
    }
    Ok(())
}
