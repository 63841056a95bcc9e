//! The wire-side [`Target`]: pipelined binary-protocol connections driven by
//! the generator thread itself.
//!
//! All connections are nonblocking and multiplexed with `ppoll(2)`, whose
//! nanosecond timeout lets the generator wake exactly at the next due time
//! (epoll's millisecond timeout would round every open-loop gap up to a
//! whole millisecond).

use crate::pacer::{RunClock, Target};
use ls_core::FeedbackRecord;
use ls_serve::{proto, FrameError, RankRequest, RankResponse, ServeError};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::Instant;

/// What the workload asks the wire to carry for one request index.
pub enum Outgoing<'a> {
    Rank(&'a RankRequest),
    Feedback(&'a FeedbackRecord),
}

/// The decoded answer plus the client-side cost of carrying it.
pub struct WireResp {
    pub answer: Answer,
    /// Client time spent in `encode_binary_*` and `decode_binary_*` for
    /// this request.
    pub encode_s: f64,
    pub decode_s: f64,
    pub bytes_out: usize,
    pub bytes_in: usize,
}

pub enum Answer {
    Rank(Result<RankResponse, ServeError>),
    Feedback(Result<u64, ServeError>),
    /// The connection failed or sent a frame that does not decode.
    Broken(String),
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_off: usize,
    inbuf: Vec<u8>,
}

struct Pending {
    op: u64,
    feedback: bool,
    encode_s: f64,
    bytes_out: usize,
}

/// Pipelined binary connections; operation `op` goes out on connection
/// `op % connections`.
pub struct WireTarget<'a> {
    clock: RunClock,
    conns: Vec<Conn>,
    /// frame id -> request in flight.
    pending: HashMap<u64, Pending>,
    next_id: u64,
    request: Box<dyn Fn(usize) -> Outgoing<'a> + 'a>,
}

impl<'a> WireTarget<'a> {
    /// Open `connections` sockets to `addr` and negotiate the binary
    /// protocol on each.
    pub fn connect(
        clock: RunClock,
        addr: SocketAddr,
        connections: usize,
        request: impl Fn(usize) -> Outgoing<'a> + 'a,
    ) -> io::Result<WireTarget<'a>> {
        let mut conns = Vec::new();
        for _ in 0..connections {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.write_all(&proto::encode_hello(proto::BINARY_VERSION))?;
            let mut ack = [0u8; proto::HELLO_LEN];
            stream.read_exact(&mut ack)?;
            let version = proto::decode_hello(&ack)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if version != proto::BINARY_VERSION {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("server negotiated binary version {version}"),
                ));
            }
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                out: Vec::new(),
                out_off: 0,
                inbuf: Vec::new(),
            });
        }
        Ok(WireTarget {
            clock,
            conns,
            pending: HashMap::new(),
            next_id: 1,
            request: Box::new(request),
        })
    }

    /// Write as much queued output as the socket takes.
    fn flush(conn: &mut Conn) -> io::Result<()> {
        while conn.out_off < conn.out.len() {
            match (&conn.stream).write(&conn.out[conn.out_off..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer closed")),
                Ok(n) => conn.out_off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if conn.out_off == conn.out.len() {
            conn.out.clear();
            conn.out_off = 0;
        }
        Ok(())
    }

    /// Fail every request in flight: the connection state is unknown.
    fn break_all(&mut self, why: &str, out: &mut Vec<(u64, f64, WireResp)>) {
        let at = crate::pacer::Clock::now(&self.clock);
        for (_, p) in self.pending.drain() {
            out.push((
                p.op,
                at,
                WireResp {
                    answer: Answer::Broken(why.to_string()),
                    encode_s: p.encode_s,
                    decode_s: 0.0,
                    bytes_out: p.bytes_out,
                    bytes_in: 0,
                },
            ));
        }
    }

    /// Read what is available on connection `i` and decode every whole frame.
    fn read(&mut self, i: usize, out: &mut Vec<(u64, f64, WireResp)>) -> io::Result<()> {
        let conn = &mut self.conns[i];
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
                Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let mut off = 0;
        while conn.inbuf.len() - off >= 4 {
            let len = u32::from_le_bytes(conn.inbuf[off..off + 4].try_into().expect("4 bytes"));
            let end = off + 4 + len as usize;
            if conn.inbuf.len() < end {
                break;
            }
            let payload = &conn.inbuf[off + 4..end];
            let t0 = Instant::now();
            let (id, answer) = match proto::decode_binary_response(payload) {
                Ok((id, r)) => (id, Answer::Rank(r)),
                Err(FrameError::UnsupportedKind(_)) => {
                    match proto::decode_binary_feedback_response(payload) {
                        Ok((id, r)) => (id, Answer::Feedback(r)),
                        Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
                    }
                }
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            };
            let decode_s = t0.elapsed().as_secs_f64();
            let Some(p) = self.pending.remove(&id) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response for unknown id {id}"),
                ));
            };
            let answer = match answer {
                Answer::Rank(_) if p.feedback => Answer::Broken("rank frame for feedback".into()),
                Answer::Feedback(_) if !p.feedback => {
                    Answer::Broken("feedback frame for rank".into())
                }
                a => a,
            };
            // Completion is stamped once the answer is decoded: decoding is
            // part of what the client waits for.
            let at = crate::pacer::Clock::now(&self.clock);
            out.push((
                p.op,
                at,
                WireResp {
                    answer,
                    encode_s: p.encode_s,
                    decode_s,
                    bytes_out: p.bytes_out,
                    bytes_in: 4 + len as usize,
                },
            ));
            off = end;
        }
        conn.inbuf.drain(..off);
        Ok(())
    }
}

impl Target for WireTarget<'_> {
    type Resp = WireResp;

    fn send(&mut self, op: u64, req: usize, trace: Option<ls_obs::TraceContext>) {
        let id = self.next_id;
        self.next_id += 1;
        let t0 = Instant::now();
        let (frame, feedback) = match (self.request)(req) {
            Outgoing::Rank(r) => (proto::encode_binary_request(id, r, trace.as_ref()), false),
            Outgoing::Feedback(f) => (proto::encode_binary_feedback_request(id, f), true),
        };
        let encode_s = t0.elapsed().as_secs_f64();
        self.pending.insert(
            id,
            Pending {
                op,
                feedback,
                encode_s,
                bytes_out: frame.len(),
            },
        );
        let n = self.conns.len();
        let conn = &mut self.conns[(op % n as u64) as usize];
        conn.out.extend_from_slice(&frame);
        // A write error surfaces as a read error on the next wait.
        let _ = Self::flush(conn);
    }

    fn wait(&mut self, until: f64, out: &mut Vec<(u64, f64, WireResp)>) {
        let before = out.len();
        loop {
            let mut fds: Vec<PollFd> = self
                .conns
                .iter()
                .map(|c| PollFd {
                    fd: c.stream.as_raw_fd(),
                    events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                    revents: 0,
                })
                .collect();
            let left = self.clock.until(until);
            if let Err(e) = ppoll_fds(&mut fds, left) {
                self.break_all(&format!("ppoll: {e}"), out);
                return;
            }
            for (i, fd) in fds.iter().enumerate() {
                if fd.revents & POLLOUT != 0 {
                    if let Err(e) = Self::flush(&mut self.conns[i]) {
                        self.break_all(&format!("write: {e}"), out);
                        return;
                    }
                }
                if fd.revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                    if let Err(e) = self.read(i, out) {
                        self.break_all(&format!("read: {e}"), out);
                        return;
                    }
                }
            }
            if out.len() > before || left.is_zero() {
                return;
            }
        }
    }
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    fn gettid() -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}

fn ppoll_fds(fds: &mut [PollFd], timeout: std::time::Duration) -> io::Result<()> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // pollfd structs whose length is passed alongside it; `ts` outlives the
    // call; a null sigmask means "leave the signal mask alone".
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Make the calling thread an open-loop load generator that the system
/// under test cannot slow down, or (`false`) an ordinary thread again.
///
/// It stands for users on other machines: timed waits wake within a
/// microsecond of their deadline instead of after the default 50 µs timer
/// slack, and the thread is scheduled real-time
/// (`SCHED_FIFO`, falling back to nice -10 without the privilege) so that
/// server threads busy on every core do not delay its wakeups. Its
/// lateness is still measured and reported. Threads it starts meanwhile
/// are reset to normal scheduling.
pub fn generator_priority(high: bool) {
    const PR_SET_TIMERSLACK: i32 = 29;
    const PRIO_PROCESS: i32 = 0;
    const SCHED_OTHER: i32 = 0;
    const SCHED_FIFO: i32 = 1;
    const SCHED_RESET_ON_FORK: i32 = 0x4000_0000;
    // SAFETY: each call only changes the calling thread's own scheduling:
    // PR_SET_TIMERSLACK takes one unsigned long (0 restores the default),
    // `sched_setscheduler(0, ..)` targets the calling thread and reads one
    // live `SchedParam`, and `setpriority` targets our own thread id.
    // Failures leave the thread as it was, which the reported generator
    // lag then shows.
    unsafe {
        let tid = gettid() as u32;
        if high {
            prctl(PR_SET_TIMERSLACK, 1000u64);
            let fifo = SchedParam { priority: 1 };
            if sched_setscheduler(0, SCHED_FIFO | SCHED_RESET_ON_FORK, &fifo) != 0 {
                setpriority(PRIO_PROCESS, tid, -10);
            }
        } else {
            prctl(PR_SET_TIMERSLACK, 0u64);
            sched_setscheduler(0, SCHED_OTHER, &SchedParam { priority: 0 });
            setpriority(PRIO_PROCESS, tid, 0);
        }
    }
}
