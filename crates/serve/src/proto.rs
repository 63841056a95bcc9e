//! The `LSBP` binary wire protocol of the TCP front-end.
//!
//! A connection opens with a 6-byte **hello**: the magic `LSBP` followed by
//! the client's highest supported version (`u16` LE). The server answers
//! with the magic and the version it chose. The hello is mandatory — a
//! connection whose first four bytes are not the magic is torn without a
//! reply — and [`negotiate`] is the client half of the round trip.
//!
//! After the hello every message is a **frame**: a little-endian `u32` byte
//! length followed by that many payload bytes. Frames above [`MAX_FRAME`]
//! bytes are rejected (a corrupt length prefix must not make the server
//! allocate 4 GiB). Payload byte 0 names the frame kind; the rest is
//! little-endian fixed-width fields and `u32`-length-prefixed UTF-8
//! strings, the same idiom as the `ls-circuit` `LSCS` store. See
//! [`decode_binary_frame`] and DESIGN.md §4j for the frame layouts.
//!
//! Scores travel as raw `f64` bits and feedback targets as raw `f32` bits,
//! so the floats a TCP client receives are bit-identical to the in-process
//! [`crate::RankResponse`] by construction, NaN payloads included — the
//! determinism invariant survives the wire. Admin replies carry the
//! handlers' JSON documents as one string.

use crate::server::{RankRequest, RankResponse, ServeError, StageBreakdown};
use ls_circuit::Tier;
use ls_core::FeedbackRecord;
use ls_obs::{Json, TraceContext};
use ls_relational::{FactId, Monomial, OutputTuple, Value};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Upper bound on a single frame's payload (16 MiB).
pub const MAX_FRAME: u32 = 16 << 20;

/// A typed framing or binary-decoding failure. Carried as the payload of an
/// `io::Error` where it must survive `io::Result` plumbing; recover it with
/// [`frame_error`]. The binary decoder returns it directly — hostile bytes
/// always yield one of these, never a panic or oversized allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The declared payload length exceeds [`MAX_FRAME`] — a corrupt or
    /// hostile length prefix must not drive a multi-gigabyte allocation.
    TooLarge {
        /// The length the frame header declared.
        len: u64,
        /// The cap it exceeded ([`MAX_FRAME`]).
        cap: u32,
    },
    /// A binary payload ended before a field it declared; `need` more bytes
    /// were required, `have` remained. Counts are validated against the
    /// remaining bytes *before* any allocation, so a hostile count field
    /// costs nothing.
    Truncated {
        /// Bytes the next field required.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// A binary payload was structurally invalid (bad tag, non-UTF-8
    /// string, trailing bytes, …). The label names the offending field.
    Malformed(&'static str),
    /// The leading frame-kind byte is not one this peer understands.
    UnsupportedKind(u8),
    /// A hello carried a protocol version this peer cannot speak.
    UnsupportedVersion(u16),
    /// The connection preamble did not start with the `LSBP` magic.
    BadMagic([u8; 4]),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len, cap } => {
                write!(f, "frame length {len} exceeds cap {cap}")
            }
            FrameError::Truncated { need, have } => {
                write!(
                    f,
                    "binary payload truncated: need {need} bytes, have {have}"
                )
            }
            FrameError::Malformed(what) => write!(f, "malformed binary payload: {what}"),
            FrameError::UnsupportedKind(k) => write!(f, "unsupported frame kind {k}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadMagic(m) => write!(f, "bad protocol magic {m:02x?}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Recover the typed [`FrameError`] from an `io::Error`, if it carries one.
pub fn frame_error(e: &io::Error) -> Option<&FrameError> {
    e.get_ref().and_then(|inner| inner.downcast_ref())
}

/// Read one length-prefixed frame. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer hung up between requests).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof inside frame header",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::TooLarge {
                len: len as u64,
                cap: MAX_FRAME,
            },
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// An introspection query carried on the same TCP port as rank traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminCommand {
    /// Full metrics snapshot (counters, gauges, histograms + exemplars).
    Metrics,
    /// Queue/pool/cache/breaker operational state.
    State,
    /// Active traced requests and their stage progress.
    Traces,
    /// Flight-recorder ring contents.
    Recorder,
}

impl AdminCommand {
    /// Parse a command keyword (`metrics`, `state`, `traces`, `recorder`).
    pub fn from_keyword(s: &str) -> Option<AdminCommand> {
        match s {
            "metrics" => Some(AdminCommand::Metrics),
            "state" => Some(AdminCommand::State),
            "traces" => Some(AdminCommand::Traces),
            "recorder" => Some(AdminCommand::Recorder),
            _ => None,
        }
    }
}

/// One decoded inbound frame: rank traffic (with its optional client trace),
/// an admin introspection query, or an online-learning feedback record —
/// multiplexed by the frame-kind byte.
#[derive(Debug)]
pub enum Frame {
    /// A ranking request and the trace context it carried, if any.
    Rank(u64, RankRequest, Option<TraceContext>),
    /// An admin query.
    Admin(u64, AdminCommand),
    /// A feedback record for the online-learning WAL.
    Feedback(u64, FeedbackRecord),
}

/// The connection magic that opens every hello. Read as a little-endian
/// `u32` length prefix it is `0x5042_534C` ≈ 1.25 GiB — far above
/// [`MAX_FRAME`] — so no legal frame can be mistaken for a hello, and a
/// peer that skips the hello is always torn rather than misread.
pub const MAGIC: [u8; 4] = *b"LSBP";

/// Highest binary protocol version this build speaks.
pub const BINARY_VERSION: u16 = 1;

/// Byte length of a hello / hello-ack preamble (magic + `u16` version).
pub const HELLO_LEN: usize = 6;

/// Encode a hello (client) or hello-ack (server) preamble.
pub fn encode_hello(version: u16) -> [u8; HELLO_LEN] {
    let mut out = [0u8; HELLO_LEN];
    out[..4].copy_from_slice(&MAGIC);
    out[4..].copy_from_slice(&version.to_le_bytes());
    out
}

/// Parse a hello / hello-ack preamble, returning the peer's version.
pub fn decode_hello(bytes: &[u8; HELLO_LEN]) -> Result<u16, FrameError> {
    if bytes[..4] != MAGIC {
        return Err(FrameError::BadMagic([
            bytes[0], bytes[1], bytes[2], bytes[3],
        ]));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version == 0 {
        return Err(FrameError::UnsupportedVersion(0));
    }
    Ok(version)
}

/// The client half of the hello: send ours, then require a well-formed ack
/// at [`BINARY_VERSION`]. A reset, a short or foreign ack, and any other
/// version are all plain `io::Error`s (the last two carry a
/// [`FrameError`]), so a retrying caller treats a failed hello like any
/// other transport failure.
pub fn negotiate(stream: &mut (impl Read + Write)) -> io::Result<()> {
    stream.write_all(&encode_hello(BINARY_VERSION))?;
    let mut ack = [0u8; HELLO_LEN];
    stream.read_exact(&mut ack)?;
    let version = decode_hello(&ack).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if version != BINARY_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::UnsupportedVersion(version),
        ));
    }
    Ok(())
}

// Frame-kind bytes (payload byte 0).
const BK_RANK_REQ: u8 = 1;
const BK_RANK_OK: u8 = 2;
const BK_RANK_ERR: u8 = 3;
const BK_FEEDBACK_REQ: u8 = 4;
const BK_FEEDBACK_OK: u8 = 5;
const BK_FEEDBACK_ERR: u8 = 6;
const BK_ADMIN_REQ: u8 = 7;
const BK_ADMIN_OK: u8 = 8;
const BK_ADMIN_ERR: u8 = 9;

/// Start a binary frame: a 4-byte length hole the encoder backfills in
/// [`seal_frame`], so encoders build prefix+payload in one allocation and
/// the writer sends it with one `write_all` — no second copy.
fn frame_shell() -> Vec<u8> {
    vec![0u8; 4]
}

/// Backfill the length prefix. An oversized payload keeps a prefix above
/// [`MAX_FRAME`] (saturating past `u32`), so a peer that receives it tears
/// the connection instead of misframing; `TcpRankClient` refuses to send
/// such a frame at all.
fn seal_frame(mut buf: Vec<u8>) -> Vec<u8> {
    let len = u32::try_from(buf.len() - 4).unwrap_or(u32::MAX);
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn error_code(e: &ServeError) -> (u8, &str) {
    match e {
        ServeError::Overloaded => (1, ""),
        ServeError::DeadlineExceeded => (2, ""),
        ServeError::ShuttingDown => (3, ""),
        ServeError::BadRequest(d) => (4, d),
        ServeError::Transport(d) => (5, d),
        ServeError::Internal(d) => (6, d),
    }
}

fn error_from_code(code: u8, detail: &str) -> Result<ServeError, FrameError> {
    Ok(match code {
        1 => ServeError::Overloaded,
        2 => ServeError::DeadlineExceeded,
        3 => ServeError::ShuttingDown,
        4 => ServeError::BadRequest(detail.to_string()),
        5 => ServeError::Transport(detail.to_string()),
        6 => ServeError::Internal(detail.to_string()),
        _ => return Err(FrameError::Malformed("unknown error code")),
    })
}

fn tier_code(t: Tier) -> u8 {
    match t {
        Tier::Exact => 0,
        Tier::Learned => 1,
        Tier::Sampled => 2,
    }
}

fn tier_from_code(code: u8) -> Result<Tier, FrameError> {
    Ok(match code {
        0 => Tier::Exact,
        1 => Tier::Learned,
        2 => Tier::Sampled,
        _ => return Err(FrameError::Malformed("unknown tier code")),
    })
}

/// Encode a binary rank request as a complete frame (length prefix
/// included).
pub fn encode_binary_request(id: u64, req: &RankRequest, trace: Option<&TraceContext>) -> Vec<u8> {
    let mut buf = frame_shell();
    buf.push(BK_RANK_REQ);
    buf.extend_from_slice(&id.to_le_bytes());
    let mut flags = 0u8;
    if trace.is_some() {
        flags |= 1;
    }
    if req.deadline.is_some() {
        flags |= 2;
    }
    if req.slo.is_some() {
        flags |= 4;
    }
    buf.push(flags);
    if let Some(ctx) = trace {
        buf.extend_from_slice(&ctx.trace_id.to_le_bytes());
        buf.extend_from_slice(&ctx.span_id.to_le_bytes());
    }
    if let Some(d) = req.deadline {
        buf.extend_from_slice(&(d.as_micros().min(u64::MAX as u128) as u64).to_le_bytes());
    }
    if let Some(slo) = req.slo {
        buf.extend_from_slice(&(slo.as_micros().min(u64::MAX as u128) as u64).to_le_bytes());
    }
    put_str(&mut buf, &req.query_sql);
    buf.extend_from_slice(&(req.tuple.values.len() as u16).to_le_bytes());
    for v in &req.tuple.values {
        match v {
            Value::Int(n) => {
                buf.push(0);
                buf.extend_from_slice(&n.to_le_bytes());
            }
            Value::Str(s) => {
                buf.push(1);
                put_str(&mut buf, s);
            }
        }
    }
    buf.extend_from_slice(&(req.lineage.len() as u32).to_le_bytes());
    for f in &req.lineage {
        buf.extend_from_slice(&f.0.to_le_bytes());
    }
    buf.extend_from_slice(&(req.tuple.derivations.len() as u32).to_le_bytes());
    for m in &req.tuple.derivations {
        let facts = m.facts();
        buf.extend_from_slice(&(facts.len() as u32).to_le_bytes());
        for f in facts {
            buf.extend_from_slice(&f.0.to_le_bytes());
        }
    }
    seal_frame(buf)
}

fn encode_binary_error(buf: &mut Vec<u8>, kind: u8, id: u64, e: &ServeError) {
    buf.push(kind);
    buf.extend_from_slice(&id.to_le_bytes());
    let (code, detail) = error_code(e);
    buf.push(code);
    put_str(buf, detail);
}

/// Encode a binary rank response as a complete frame. Scores travel as raw
/// `f64` bits, so wire responses are trivially bit-identical to in-process
/// ones — no formatting or parsing on the hot path.
pub fn encode_binary_response(id: u64, result: &Result<RankResponse, ServeError>) -> Vec<u8> {
    let mut buf = frame_shell();
    match result {
        Ok(resp) => {
            buf.push(BK_RANK_OK);
            buf.extend_from_slice(&id.to_le_bytes());
            let mut flags = 0u8;
            if resp.cached {
                flags |= 1;
            }
            if resp.degraded {
                flags |= 2;
            }
            if resp.stages.is_some() {
                flags |= 4;
            }
            if resp.tier.is_some() {
                flags |= 8;
            }
            buf.push(flags);
            buf.extend_from_slice(&(resp.scores.len() as u32).to_le_bytes());
            for s in &resp.scores {
                buf.extend_from_slice(&s.to_bits().to_le_bytes());
            }
            buf.extend_from_slice(&(resp.ranking.len() as u32).to_le_bytes());
            for f in &resp.ranking {
                buf.extend_from_slice(&f.0.to_le_bytes());
            }
            if let Some(b) = &resp.stages {
                for v in [
                    b.probe_us, b.queue_us, b.batch_us, b.score_us, b.other_us, b.total_us,
                ] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            if let Some(t) = resp.tier {
                buf.push(tier_code(t));
            }
        }
        Err(e) => encode_binary_error(&mut buf, BK_RANK_ERR, id, e),
    }
    seal_frame(buf)
}

/// Encode a binary feedback request as a complete frame (`target` as raw
/// `f32` bits).
pub fn encode_binary_feedback_request(id: u64, rec: &FeedbackRecord) -> Vec<u8> {
    let mut buf = frame_shell();
    buf.push(BK_FEEDBACK_REQ);
    buf.extend_from_slice(&id.to_le_bytes());
    put_str(&mut buf, &rec.query_sql);
    put_str(&mut buf, &rec.tuple_fact);
    buf.extend_from_slice(&rec.target.to_bits().to_le_bytes());
    seal_frame(buf)
}

/// Encode a binary feedback response as a complete frame: on success the
/// record's crash-durable log sequence number, on failure the typed error.
pub fn encode_binary_feedback_response(id: u64, result: &Result<u64, ServeError>) -> Vec<u8> {
    let mut buf = frame_shell();
    match result {
        Ok(lsn) => {
            buf.push(BK_FEEDBACK_OK);
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&lsn.to_le_bytes());
        }
        Err(e) => encode_binary_error(&mut buf, BK_FEEDBACK_ERR, id, e),
    }
    seal_frame(buf)
}

/// Encode a binary admin request as a complete frame.
pub fn encode_binary_admin_request(id: u64, cmd: AdminCommand) -> Vec<u8> {
    let mut buf = frame_shell();
    buf.push(BK_ADMIN_REQ);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.push(match cmd {
        AdminCommand::Metrics => 0,
        AdminCommand::State => 1,
        AdminCommand::Traces => 2,
        AdminCommand::Recorder => 3,
    });
    seal_frame(buf)
}

/// Encode a binary admin response as a complete frame. `data` is the
/// handler's serialized JSON document, carried as one length-prefixed
/// string for `obsctl` to parse.
pub fn encode_binary_admin_response(id: u64, data: &str) -> Vec<u8> {
    let mut buf = frame_shell();
    buf.push(BK_ADMIN_OK);
    buf.extend_from_slice(&id.to_le_bytes());
    put_str(&mut buf, data);
    seal_frame(buf)
}

/// Bounds-checked little-endian cursor over a binary payload. Every read
/// verifies `need ≤ have` first — hostile byte soups yield a typed
/// [`FrameError`], never a panic, and counts are checked against the bytes
/// that would carry them before anything is allocated.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn have(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.have() < n {
            return Err(FrameError::Truncated {
                need: n,
                have: self.have(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn i64(&mut self) -> Result<i64, FrameError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// A count of `n` items, each at least `width` bytes — rejected up
    /// front unless the remaining payload could actually hold them.
    fn count(&mut self, width: usize) -> Result<usize, FrameError> {
        let n = self.u32()? as usize;
        let need = n.saturating_mul(width);
        if self.have() < need {
            return Err(FrameError::Truncated {
                need,
                have: self.have(),
            });
        }
        Ok(n)
    }

    fn str_(&mut self) -> Result<&'a str, FrameError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| FrameError::Malformed("string not UTF-8"))
    }

    fn finish(&self) -> Result<(), FrameError> {
        if self.have() != 0 {
            return Err(FrameError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

fn decode_binary_rank_req(c: &mut Cur<'_>) -> Result<Frame, FrameError> {
    let id = c.u64()?;
    let flags = c.u8()?;
    let trace = if flags & 1 != 0 {
        let trace_id = c.u64()?;
        let span_id = c.u64()?;
        // Trace id 0 means "untraced" everywhere in ls-obs; a context
        // carrying it would stitch spans into a trace that does not exist.
        (trace_id != 0).then_some(TraceContext {
            trace_id,
            span_id,
            parent: 0,
        })
    } else {
        None
    };
    let deadline = if flags & 2 != 0 {
        Some(Duration::from_micros(c.u64()?))
    } else {
        None
    };
    let slo = if flags & 4 != 0 {
        Some(Duration::from_micros(c.u64()?))
    } else {
        None
    };
    let query_sql = c.str_()?.to_string();
    let n_values = c.u16()? as usize;
    let mut values = Vec::with_capacity(n_values.min(1024));
    for _ in 0..n_values {
        match c.u8()? {
            0 => values.push(Value::Int(c.i64()?)),
            1 => values.push(Value::Str(c.str_()?.to_string())),
            _ => return Err(FrameError::Malformed("unknown value tag")),
        }
    }
    let n_lineage = c.count(4)?;
    let mut lineage = Vec::with_capacity(n_lineage);
    for _ in 0..n_lineage {
        lineage.push(FactId(c.u32()?));
    }
    let n_derivations = c.count(4)?;
    let mut derivations = Vec::with_capacity(n_derivations);
    for _ in 0..n_derivations {
        let n_facts = c.count(4)?;
        let mut facts = Vec::with_capacity(n_facts);
        for _ in 0..n_facts {
            facts.push(FactId(c.u32()?));
        }
        derivations.push(Monomial::from_facts(facts));
    }
    c.finish()?;
    Ok(Frame::Rank(
        id,
        RankRequest {
            query_sql,
            tuple: OutputTuple {
                values,
                derivations,
            },
            lineage,
            deadline,
            slo,
        },
        trace,
    ))
}

/// Decode any inbound binary frame (rank, feedback, or admin request).
/// Total: the decoder never panics and never allocates more than the
/// payload itself could describe — arbitrary bytes yield `Ok` or a typed
/// [`FrameError`] (the proptest fuzz suite in `tests/wire.rs` pins this).
pub fn decode_binary_frame(payload: &[u8]) -> Result<Frame, FrameError> {
    let mut c = Cur::new(payload);
    match c.u8()? {
        BK_RANK_REQ => decode_binary_rank_req(&mut c),
        BK_FEEDBACK_REQ => {
            let id = c.u64()?;
            let query_sql = c.str_()?.to_string();
            let tuple_fact = c.str_()?.to_string();
            let target = f32::from_bits(c.u32()?);
            c.finish()?;
            Ok(Frame::Feedback(
                id,
                FeedbackRecord {
                    query_sql,
                    tuple_fact,
                    target,
                },
            ))
        }
        BK_ADMIN_REQ => {
            let id = c.u64()?;
            let cmd = match c.u8()? {
                0 => AdminCommand::Metrics,
                1 => AdminCommand::State,
                2 => AdminCommand::Traces,
                3 => AdminCommand::Recorder,
                _ => return Err(FrameError::Malformed("unknown admin command")),
            };
            c.finish()?;
            Ok(Frame::Admin(id, cmd))
        }
        other => Err(FrameError::UnsupportedKind(other)),
    }
}

/// Decode a binary rank response payload into `(id, result)`.
pub fn decode_binary_response(
    payload: &[u8],
) -> Result<(u64, Result<RankResponse, ServeError>), FrameError> {
    let mut c = Cur::new(payload);
    match c.u8()? {
        BK_RANK_OK => {
            let id = c.u64()?;
            let flags = c.u8()?;
            let n_scores = c.count(8)?;
            let mut scores = Vec::with_capacity(n_scores);
            for _ in 0..n_scores {
                scores.push(f64::from_bits(c.u64()?));
            }
            let n_ranking = c.count(4)?;
            let mut ranking = Vec::with_capacity(n_ranking);
            for _ in 0..n_ranking {
                ranking.push(FactId(c.u32()?));
            }
            let stages = if flags & 4 != 0 {
                Some(StageBreakdown {
                    probe_us: c.u64()?,
                    queue_us: c.u64()?,
                    batch_us: c.u64()?,
                    score_us: c.u64()?,
                    other_us: c.u64()?,
                    total_us: c.u64()?,
                })
            } else {
                None
            };
            let tier = if flags & 8 != 0 {
                Some(tier_from_code(c.u8()?)?)
            } else {
                None
            };
            c.finish()?;
            Ok((
                id,
                Ok(RankResponse {
                    scores,
                    ranking,
                    cached: flags & 1 != 0,
                    degraded: flags & 2 != 0,
                    stages,
                    tier,
                }),
            ))
        }
        BK_RANK_ERR => {
            let (id, err) = decode_binary_err(&mut c)?;
            Ok((id, Err(err)))
        }
        other => Err(FrameError::UnsupportedKind(other)),
    }
}

fn decode_binary_err(c: &mut Cur<'_>) -> Result<(u64, ServeError), FrameError> {
    let id = c.u64()?;
    let code = c.u8()?;
    let detail = c.str_()?;
    let err = error_from_code(code, detail)?;
    c.finish()?;
    Ok((id, err))
}

/// Decode a binary feedback response payload into `(id, result)`.
pub fn decode_binary_feedback_response(
    payload: &[u8],
) -> Result<(u64, Result<u64, ServeError>), FrameError> {
    let mut c = Cur::new(payload);
    match c.u8()? {
        BK_FEEDBACK_OK => {
            let id = c.u64()?;
            let lsn = c.u64()?;
            c.finish()?;
            Ok((id, Ok(lsn)))
        }
        BK_FEEDBACK_ERR => {
            let (id, err) = decode_binary_err(&mut c)?;
            Ok((id, Err(err)))
        }
        other => Err(FrameError::UnsupportedKind(other)),
    }
}

/// Decode a binary admin response payload into `(id, data)`.
pub fn decode_binary_admin_response(payload: &[u8]) -> Result<(u64, Json), FrameError> {
    let mut c = Cur::new(payload);
    match c.u8()? {
        BK_ADMIN_OK => {
            let id = c.u64()?;
            let data = c.str_()?;
            c.finish()?;
            let doc =
                ls_obs::parse_json(data).map_err(|_| FrameError::Malformed("admin data JSON"))?;
            Ok((id, doc))
        }
        BK_ADMIN_ERR => {
            let (_, err) = decode_binary_err(&mut c)?;
            Err(FrameError::Malformed(match err {
                ServeError::BadRequest(_) => "admin query rejected",
                _ => "admin query failed",
            }))
        }
        other => Err(FrameError::UnsupportedKind(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> RankRequest {
        RankRequest {
            query_sql: "SELECT name FROM movies WHERE year > 1999".into(),
            tuple: OutputTuple {
                values: vec![Value::Str("Memento \"2000\"\n".into()), Value::Int(-3)],
                derivations: Vec::new(),
            },
            lineage: vec![FactId(5), FactId(0), FactId(123456)],
            deadline: Some(Duration::from_millis(250)),
            slo: None,
        }
    }

    #[test]
    fn frame_round_trip_and_eof() {
        let mut buf = Vec::new();
        for payload in [&b"hello"[..], b""] {
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(payload);
        }
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_rejected_with_typed_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(buf);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(
            frame_error(&err),
            Some(&FrameError::TooLarge {
                len: (MAX_FRAME + 1) as u64,
                cap: MAX_FRAME,
            })
        );
        // The declared length was never allocated or read.
        assert_eq!(cursor.position(), 4);
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(b"abc"); // 3 of 10 payload bytes
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    /// Strip the length prefix off an encoded binary frame and check it.
    fn unframe(frame: &[u8]) -> &[u8] {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4, "length prefix disagrees with frame");
        &frame[4..]
    }

    #[test]
    fn hello_magic_can_never_be_a_frame_length() {
        // A peer that skips the hello is torn on its first four bytes; this
        // inequality is what guarantees it is never misread as greeting.
        assert!(u32::from_le_bytes(MAGIC) > MAX_FRAME);
        let hello = encode_hello(BINARY_VERSION);
        assert_eq!(decode_hello(&hello), Ok(BINARY_VERSION));
        assert_eq!(
            decode_hello(b"LSBQ\x01\x00"),
            Err(FrameError::BadMagic(*b"LSBQ"))
        );
        assert_eq!(
            decode_hello(&encode_hello(0)),
            Err(FrameError::UnsupportedVersion(0))
        );
    }

    #[test]
    fn binary_request_round_trips_with_every_optional_field() {
        let mut r = req();
        r.slo = Some(Duration::from_micros(750));
        r.tuple.derivations = vec![
            Monomial::from_facts(vec![FactId(5), FactId(123456)]),
            Monomial::from_facts(vec![FactId(0)]),
        ];
        let ctx = TraceContext {
            trace_id: u64::MAX - 17,
            span_id: (1 << 63) | 5,
            parent: 0,
        };
        let frame = encode_binary_request(42, &r, Some(&ctx));
        match decode_binary_frame(unframe(&frame)).unwrap() {
            Frame::Rank(id, back, Some(trace)) => {
                assert_eq!(id, 42);
                assert_eq!(back.query_sql, r.query_sql);
                assert_eq!(back.tuple.values, r.tuple.values);
                assert_eq!(back.tuple.derivations, r.tuple.derivations);
                assert_eq!(back.lineage, r.lineage);
                assert_eq!(back.deadline, r.deadline);
                assert_eq!(back.slo, r.slo);
                assert_eq!(trace.trace_id, ctx.trace_id);
                assert_eq!(trace.span_id, ctx.span_id);
            }
            other => panic!("expected traced rank frame, got {other:?}"),
        }
        // And without the optional fields.
        let frame = encode_binary_request(7, &req(), None);
        match decode_binary_frame(unframe(&frame)).unwrap() {
            Frame::Rank(7, back, None) => {
                assert!(back.slo.is_none());
                assert!(back.tuple.derivations.is_empty());
            }
            other => panic!("expected bare rank frame, got {other:?}"),
        }
    }

    #[test]
    fn trace_id_zero_decodes_as_untraced() {
        let ctx = TraceContext {
            trace_id: 0,
            span_id: 9,
            parent: 0,
        };
        let frame = encode_binary_request(3, &req(), Some(&ctx));
        match decode_binary_frame(unframe(&frame)).unwrap() {
            Frame::Rank(3, _, None) => {}
            other => panic!("trace id 0 must decode as untraced, got {other:?}"),
        }
    }

    #[test]
    fn binary_response_round_trip_is_bit_identical() {
        let stages = StageBreakdown {
            probe_us: 3,
            queue_us: 120,
            batch_us: 40,
            score_us: 900,
            other_us: 7,
            total_us: 1070,
        };
        // Every tier tag, and each optional part both present and absent.
        for (i, tier) in [
            None,
            Some(Tier::Exact),
            Some(Tier::Learned),
            Some(Tier::Sampled),
        ]
        .into_iter()
        .enumerate()
        {
            let on = i % 2 == 1;
            let resp = RankResponse {
                scores: vec![0.1 + 0.2, -0.0, 1e-310, f64::NAN, 0.123_456_789_012_345_68],
                ranking: vec![FactId(2), FactId(0), FactId(1), FactId(3)],
                cached: on,
                degraded: !on,
                stages: on.then_some(stages),
                tier,
            };
            let frame = encode_binary_response(9, &Ok(resp.clone()));
            let (id, back) = decode_binary_response(unframe(&frame)).unwrap();
            assert_eq!(id, 9);
            let back = back.unwrap();
            assert_eq!((back.cached, back.degraded), (resp.cached, resp.degraded));
            assert_eq!(back.ranking, resp.ranking);
            assert_eq!(back.stages, resp.stages);
            assert_eq!(back.tier, resp.tier);
            for (a, b) in resp.scores.iter().zip(&back.scores) {
                // Raw-bits transport: even NaN payloads survive.
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn binary_errors_round_trip_typed() {
        for e in [
            ServeError::Overloaded,
            ServeError::DeadlineExceeded,
            ServeError::ShuttingDown,
            ServeError::BadRequest("unknown fact id 9".into()),
            ServeError::Transport("torn".into()),
            ServeError::Internal("worker panicked while scoring".into()),
        ] {
            let frame = encode_binary_response(1, &Err(e.clone()));
            let (_, back) = decode_binary_response(unframe(&frame)).unwrap();
            assert_eq!(back, Err(e));
        }
    }

    #[test]
    fn binary_feedback_and_admin_round_trip() {
        let rec = FeedbackRecord {
            query_sql: "SELECT \"name\"\nFROM movies".into(),
            tuple_fact: "(Memento) | movies(12, 'Memento', 2000)".into(),
            target: 0.123_456_79_f32,
        };
        match decode_binary_frame(unframe(&encode_binary_feedback_request(11, &rec))).unwrap() {
            Frame::Feedback(11, back) => {
                assert_eq!(back.query_sql, rec.query_sql);
                assert_eq!(back.tuple_fact, rec.tuple_fact);
                assert_eq!(back.target.to_bits(), rec.target.to_bits());
            }
            other => panic!("expected feedback frame, got {other:?}"),
        }
        let frame = encode_binary_feedback_response(11, &Ok(42));
        assert_eq!(
            decode_binary_feedback_response(unframe(&frame)).unwrap(),
            (11, Ok(42))
        );
        let err = Err(ServeError::BadRequest(
            "online learning is not enabled on this server".into(),
        ));
        let frame = encode_binary_feedback_response(12, &err);
        assert_eq!(
            decode_binary_feedback_response(unframe(&frame)).unwrap(),
            (12, err)
        );
        for cmd in [
            AdminCommand::Metrics,
            AdminCommand::State,
            AdminCommand::Traces,
            AdminCommand::Recorder,
        ] {
            match decode_binary_frame(unframe(&encode_binary_admin_request(9, cmd))).unwrap() {
                Frame::Admin(9, back) => assert_eq!(back, cmd),
                other => panic!("expected admin frame, got {other:?}"),
            }
        }
        let frame = encode_binary_admin_response(9, r#"{"inflight":3,"breaker":"closed"}"#);
        let (id, data) = decode_binary_admin_response(unframe(&frame)).unwrap();
        assert_eq!(id, 9);
        assert_eq!(data.get("inflight").and_then(Json::as_u64), Some(3));
        assert_eq!(data.get("breaker").and_then(Json::as_str), Some("closed"));
    }

    #[test]
    fn binary_decoder_rejects_hostile_counts_without_allocating() {
        // A rank-ok frame claiming u32::MAX scores in a 32-byte payload:
        // the count is checked against the remaining bytes first.
        let mut buf = vec![BK_RANK_OK];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(0); // flags
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        match decode_binary_response(&buf) {
            Err(FrameError::Truncated { need, have }) => {
                assert!(need > have, "need {need} have {have}");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Trailing junk after a well-formed payload is typed, too.
        let mut frame = encode_binary_admin_request(3, AdminCommand::State);
        frame.push(0xFF);
        match decode_binary_frame(&frame[4..]) {
            Err(FrameError::Malformed(msg)) => {
                assert_eq!(msg, "trailing bytes after payload");
            }
            other => panic!("expected Malformed, got {:?}", other.map(|_| ())),
        }
    }
}
