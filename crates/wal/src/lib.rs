//! # ls-wal — crash-atomic, segment-rotating write-ahead log
//!
//! The durability substrate of the online-learning loop: ranking feedback
//! records are appended here first, fsynced, and only then acknowledged to
//! the client; the trainer consumes the log and can be replayed bit-
//! identically after any crash.
//!
//! ## On-disk format
//!
//! A WAL is a directory of segment files:
//!
//! ```text
//! wal-0000000000000000.lsw        sealed segment (immutable, fully fsynced)
//! wal-0000000000000001.lsw        sealed segment
//! wal-0000000000000002.lsw.open   active segment (appends go here)
//! ```
//!
//! Each segment starts with a 16-byte header — magic `"LSWL"`, format
//! version `u32`, first LSN `u64` (all little-endian) — followed by frames:
//!
//! ```text
//! | len: u32 | crc32(payload): u32 | payload: len bytes |
//! ```
//!
//! The CRC is [`ls_fault::crc32`] — the same single implementation that
//! seals model snapshots, training checkpoints, and compiled-circuit store
//! entries.
//!
//! ## Crash contract
//!
//! * A record is **acked** once the append *and its covering fsync* have
//!   returned `Ok` (with `fsync_every == 1`, every successful [`Wal::append`]
//!   is acked; otherwise [`Wal::sync`] advances [`Wal::durable_lsn`]).
//! * Rotation seals a segment only after fsyncing it, then renames
//!   `*.lsw.open → *.lsw` — so a sealed segment is never torn.
//! * On open, a malformed suffix of the **last** segment (partial header,
//!   short frame, CRC mismatch — the states a kill mid-write can produce) is
//!   truncated away and counted in `wal.truncated_tail_bytes`; recovery
//!   yields exactly a prefix of the appended records that includes every
//!   acked one.
//! * Malformed bytes anywhere **before** the tail cannot be produced by a
//!   crash (they were covered by a successful fsync) and surface as a typed
//!   [`WalError::Corrupt`] — never as silently missing or garbled records.
//!
//! Every I/O step runs behind an [`Injector`] seam so seeded fault plans
//! can kill the log at any byte: `wal.append.write`, `wal.sync.fsync`,
//! `wal.rotate.rename`, `wal.open.read`. After an injected (or real) I/O
//! error the writer is **poisoned** — further appends fail typed with
//! [`WalError::Poisoned`] until the log is reopened through recovery, which
//! is exactly what a crashed process would have to do.

#![warn(missing_docs)]

use ls_fault::{
    crc32, fsync_with, rename_with, Cursor, FaultyRead, FaultyWrite, Injector, NoFaults, Put,
};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Segment header magic.
pub const SEGMENT_MAGIC: &[u8; 4] = b"LSWL";
/// On-disk format version.
pub const VERSION: u32 = 1;
/// Segment header length: magic (4) + version (4) + first LSN (8).
pub const HEADER_LEN: usize = 16;
/// Frame header length: payload length (4) + CRC32 (4).
pub const FRAME_HEADER_LEN: usize = 8;
/// Largest accepted record payload (matches the serve wire frame cap).
pub const MAX_RECORD: usize = 16 * 1024 * 1024;

/// Typed failure modes of the log. Every malformed on-disk variant maps to
/// a distinct, inspectable error — corruption never surfaces as a panic or
/// as silently wrong data.
#[derive(Debug)]
pub enum WalError {
    /// An underlying I/O operation failed (possibly injected).
    Io(io::Error),
    /// A segment's first four bytes are not [`SEGMENT_MAGIC`].
    BadMagic {
        /// Offending segment file.
        segment: PathBuf,
    },
    /// A segment was written by an unknown format version.
    BadVersion {
        /// Offending segment file.
        segment: PathBuf,
        /// The version found on disk.
        found: u32,
    },
    /// Malformed bytes before the recoverable tail: a frame that a crash
    /// cannot explain (it was covered by a successful fsync) failed its
    /// length or checksum validation.
    Corrupt {
        /// Offending segment file.
        segment: PathBuf,
        /// Byte offset of the malformed frame within the segment.
        offset: u64,
        /// What failed to validate.
        reason: &'static str,
    },
    /// The record payload exceeds [`MAX_RECORD`].
    TooLarge {
        /// The rejected payload length.
        len: usize,
    },
    /// A previous append/sync/rotate failed; the writer refuses further
    /// work until the log is reopened (recovery re-establishes a clean
    /// tail).
    Poisoned,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::BadMagic { segment } => {
                write!(f, "bad segment magic in {}", segment.display())
            }
            WalError::BadVersion { segment, found } => {
                write!(
                    f,
                    "unsupported wal version {found} in {}",
                    segment.display()
                )
            }
            WalError::Corrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "corrupt frame at {}+{offset}: {reason}",
                segment.display()
            ),
            WalError::TooLarge { len } => {
                write!(f, "record of {len} bytes exceeds the {MAX_RECORD} cap")
            }
            WalError::Poisoned => write!(f, "wal poisoned by an earlier write failure; reopen"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Writer knobs.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the active one reaches this size.
    pub segment_bytes: u64,
    /// Fsync after this many appends (1 = every append is durable before it
    /// returns; larger values batch fsyncs and [`Wal::sync`] forces one).
    pub fsync_every: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 1 << 20,
            fsync_every: 1,
        }
    }
}

/// What recovery found (and repaired) while opening the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments present after recovery (active included).
    pub segments: usize,
    /// Intact records recovered across all segments (for a [`replay`],
    /// those it returned: the records at its `from` LSN and beyond).
    pub records: u64,
    /// Bytes cut from the torn tail of the last segment (0 on clean open).
    pub truncated_tail_bytes: u64,
    /// The LSN the next append will receive.
    pub next_lsn: u64,
}

fn sealed_name(seq: u64) -> String {
    format!("wal-{seq:016x}.lsw")
}

fn open_name(seq: u64) -> String {
    format!("wal-{seq:016x}.lsw.open")
}

fn parse_name(name: &str) -> Option<(u64, bool)> {
    let rest = name.strip_prefix("wal-")?;
    if let Some(hex) = rest.strip_suffix(".lsw.open") {
        return u64::from_str_radix(hex, 16).ok().map(|s| (s, true));
    }
    let hex = rest.strip_suffix(".lsw")?;
    u64::from_str_radix(hex, 16).ok().map(|s| (s, false))
}

/// Best-effort directory fsync (Unix): persist renames/creates themselves.
fn sync_dir(dir: &Path) {
    #[cfg(unix)]
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    #[cfg(not(unix))]
    let _ = dir;
}

/// One segment discovered on disk, in sequence order.
#[derive(Debug)]
struct SegmentFile {
    seq: u64,
    path: PathBuf,
    open: bool,
}

fn list_segments(dir: &Path) -> Result<Vec<SegmentFile>, WalError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((seq, open)) = parse_name(name) {
            out.push(SegmentFile {
                seq,
                path: entry.path(),
                open,
            });
        }
    }
    out.sort_by_key(|s| s.seq);
    for pair in out.windows(2) {
        if pair[0].seq == pair[1].seq {
            return Err(WalError::Corrupt {
                segment: pair[1].path.clone(),
                offset: 0,
                reason: "duplicate segment sequence",
            });
        }
        if pair[1].seq != pair[0].seq + 1 {
            return Err(WalError::Corrupt {
                segment: pair[1].path.clone(),
                offset: 0,
                reason: "segment sequence gap",
            });
        }
    }
    if let Some(bad) = out.iter().rev().skip(1).find(|s| s.open) {
        return Err(WalError::Corrupt {
            segment: bad.path.clone(),
            offset: 0,
            reason: "open segment is not the last",
        });
    }
    Ok(out)
}

/// Parse the frames of one segment body (header already stripped), the
/// first of which has LSN `lsn`. Hands each intact record at LSN `from` and
/// beyond to `visit`, and returns the LSN after the last intact frame and,
/// if the suffix is malformed, the byte offset (relative to the body) where
/// it starts plus the reason.
fn parse_frames(
    body: &[u8],
    mut lsn: u64,
    from: u64,
    visit: &mut dyn FnMut(u64, &[u8]),
) -> (u64, Option<(usize, &'static str)>) {
    let mut c = Cursor::new(body);
    while c.remaining() > 0 {
        let off = body.len() - c.remaining();
        match next_frame(&mut c) {
            Ok(payload) => {
                if lsn >= from {
                    visit(lsn, payload);
                }
                lsn += 1;
            }
            Err(reason) => return (lsn, Some((off, reason))),
        }
    }
    (lsn, None)
}

/// One `len | crc32 | payload` frame off the front of `c`, or why the bytes
/// from here on are not one.
fn next_frame<'a>(c: &mut Cursor<'a>) -> Result<&'a [u8], &'static str> {
    let (Ok(len), Ok(crc)) = (c.u32(), c.u32()) else {
        return Err("partial frame header");
    };
    if len as usize > MAX_RECORD {
        return Err("frame length exceeds record cap");
    }
    let payload = c
        .take(len as usize)
        .map_err(|_| "frame shorter than its declared length")?;
    if crc32(payload) != crc {
        return Err("frame checksum mismatch");
    }
    Ok(payload)
}

struct Scan {
    report: RecoveryReport,
    /// Sequence and current length of the segment appends continue into
    /// (`None` when the directory holds no usable active segment).
    active: Option<(u64, u64)>,
    next_seq: u64,
}

/// The first LSN in `seg`'s header, or `None` if the header is cut short
/// (a segment the writer is still creating).
fn first_lsn_of(seg: &SegmentFile, injector: &Arc<dyn Injector>) -> Result<Option<u64>, WalError> {
    let file = File::open(&seg.path)?;
    let mut head = Vec::with_capacity(HEADER_LEN);
    FaultyRead::new(file, injector.clone(), "wal.open")
        .take(HEADER_LEN as u64)
        .read_to_end(&mut head)?;
    parse_header(&head, seg)
}

/// The first LSN the header at the front of `bytes` declares, once its
/// magic and version check out; `None` if `bytes` are shorter than a
/// header.
fn parse_header(bytes: &[u8], seg: &SegmentFile) -> Result<Option<u64>, WalError> {
    let mut c = Cursor::new(bytes);
    let (Ok(magic), Ok(version), Ok(first_lsn)) = (c.take(4), c.u32(), c.u64()) else {
        return Ok(None);
    };
    if magic != SEGMENT_MAGIC {
        return Err(WalError::BadMagic {
            segment: seg.path.clone(),
        });
    }
    if version != VERSION {
        return Err(WalError::BadVersion {
            segment: seg.path.clone(),
            found: version,
        });
    }
    Ok(Some(first_lsn))
}

/// Walk the segments, validating headers, LSN continuity, and every frame,
/// and hand each intact record at LSN `from` and beyond to `visit` (the
/// report counts them). A sealed segment whose successor's header starts at
/// or below `from` holds no such record and is passed by unread. `repair`
/// truncates the torn tail of the last segment (writer recovery, always
/// from LSN 0, which only counts the records); read-only replay tolerates
/// the same tail without touching the files.
fn scan(
    dir: &Path,
    injector: &Arc<dyn Injector>,
    repair: bool,
    from: u64,
    visit: &mut dyn FnMut(u64, &[u8]),
) -> Result<Scan, WalError> {
    let segments = list_segments(dir)?;
    let mut records = 0u64;
    let mut truncated = 0u64;
    let mut next_lsn = 0u64;
    let mut active = None;
    let mut next_seq = 0u64;
    let last = segments.len().saturating_sub(1);
    // The last segment is always read: it may be open, or torn.
    let mut skipped = 0usize;
    while from > 0 && skipped < last {
        match first_lsn_of(&segments[skipped + 1], injector)? {
            Some(start) if start <= from => skipped += 1,
            _ => break,
        }
    }
    let mut kept_segments = skipped;
    for (i, seg) in segments.iter().enumerate().skip(skipped) {
        let is_last = i == last;
        let mut bytes = Vec::new();
        {
            let file = File::open(&seg.path)?;
            let mut reader = FaultyRead::new(file, injector.clone(), "wal.open");
            reader.read_to_end(&mut bytes)?;
        }
        let Some(first_lsn) = parse_header(&bytes, seg)? else {
            // Only a crash during segment creation can leave a short
            // header, and that can only be the last segment: drop it and
            // let the writer recreate it.
            if !is_last {
                return Err(WalError::Corrupt {
                    segment: seg.path.clone(),
                    offset: 0,
                    reason: "segment shorter than its header",
                });
            }
            truncated += bytes.len() as u64;
            if repair {
                fs::remove_file(&seg.path)?;
                sync_dir(dir);
            }
            next_seq = seg.seq;
            break;
        };
        if i == skipped {
            next_lsn = first_lsn;
        } else if first_lsn != next_lsn {
            return Err(WalError::Corrupt {
                segment: seg.path.clone(),
                offset: 8,
                reason: "segment first-LSN does not continue the chain",
            });
        }
        let (end_lsn, torn) =
            parse_frames(&bytes[HEADER_LEN..], next_lsn, from, &mut |lsn, payload| {
                records += 1;
                visit(lsn, payload);
            });
        next_lsn = end_lsn;
        if let Some((off, reason)) = torn {
            let abs = (HEADER_LEN + off) as u64;
            if !is_last {
                return Err(WalError::Corrupt {
                    segment: seg.path.clone(),
                    offset: abs,
                    reason,
                });
            }
            truncated += bytes.len() as u64 - abs;
            if repair {
                let f = OpenOptions::new().write(true).open(&seg.path)?;
                f.set_len(abs)?;
                f.sync_all()?;
            }
            bytes.truncate(abs as usize);
        }
        kept_segments += 1;
        if is_last && seg.open {
            active = Some((seg.seq, bytes.len() as u64));
        }
        next_seq = seg.seq + 1;
    }
    Ok(Scan {
        report: RecoveryReport {
            segments: kept_segments,
            records,
            truncated_tail_bytes: truncated,
            next_lsn,
        },
        active,
        next_seq,
    })
}

/// What [`replay`] yields: the intact `(lsn, payload)` records in LSN order
/// plus the recovery report from the scan.
pub type ReplayOutcome = (Vec<(u64, Vec<u8>)>, RecoveryReport);

/// Read the intact records of the log at LSN `from` and beyond, in LSN
/// order, without mutating the directory — safe to run concurrently with a
/// live writer (the writer's in-flight tail parses as torn and is simply
/// not yet visible). `from = 0` reads the whole log. A consumer that polls
/// passes its watermark: sealed segments wholly below it are not read, and
/// no payload below it is copied, so a poll costs what is new plus the
/// segment the watermark falls in.
pub fn replay(dir: &Path, from: u64) -> Result<ReplayOutcome, WalError> {
    if !dir.exists() {
        return Ok((Vec::new(), RecoveryReport::default()));
    }
    let injector: Arc<dyn Injector> = Arc::new(NoFaults);
    let mut records = Vec::new();
    let scan = scan(dir, &injector, false, from, &mut |lsn, payload| {
        records.push((lsn, payload.to_vec()))
    })?;
    Ok((records, scan.report))
}

/// A write handle onto a WAL directory. Single-writer: wrap in a mutex to
/// share; reads ([`replay`]) need no coordination.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    injector: Arc<dyn Injector>,
    active: File,
    active_path: PathBuf,
    active_seq: u64,
    active_len: u64,
    /// Frames in the active segment (rotation never strands an empty one).
    active_frames: u64,
    next_lsn: u64,
    durable_lsn: u64,
    pending: usize,
    poisoned: bool,
    report: RecoveryReport,
}

impl Wal {
    /// Open (or create) the log at `dir` with default options and no faults.
    pub fn open(dir: &Path) -> Result<Wal, WalError> {
        Wal::open_with(dir, WalOptions::default(), Arc::new(NoFaults))
    }

    /// Open (or create) the log, running recovery: validate every segment,
    /// truncate the torn tail of the last one, and position the writer
    /// after the final intact record. Recovery counts the records; it
    /// copies no payload.
    pub fn open_with(
        dir: &Path,
        opts: WalOptions,
        injector: Arc<dyn Injector>,
    ) -> Result<Wal, WalError> {
        fs::create_dir_all(dir)?;
        let scan = scan(dir, &injector, true, 0, &mut |_, _| {})?;
        if scan.report.truncated_tail_bytes > 0 {
            ls_obs::counter("wal.truncated_tail_bytes").add(scan.report.truncated_tail_bytes);
        }
        ls_obs::counter("wal.recovered_records").add(scan.report.records);
        let mut wal = match scan.active {
            Some((seq, len)) => {
                let active_path = dir.join(open_name(seq));
                let active = OpenOptions::new().append(true).open(&active_path)?;
                Wal {
                    dir: dir.to_path_buf(),
                    opts,
                    injector,
                    active,
                    active_path,
                    active_seq: seq,
                    active_len: len,
                    active_frames: 0, // conservatively allow rotation
                    next_lsn: scan.report.next_lsn,
                    durable_lsn: scan.report.next_lsn,
                    pending: 0,
                    poisoned: false,
                    report: scan.report,
                }
            }
            None => {
                // No usable active segment (fresh dir, or the last one was
                // sealed / torn away): start a new one.
                let mut wal = Wal {
                    dir: dir.to_path_buf(),
                    opts,
                    injector,
                    active: File::create(dir.join(open_name(scan.next_seq)))?,
                    active_path: dir.join(open_name(scan.next_seq)),
                    active_seq: scan.next_seq,
                    active_len: 0,
                    active_frames: 0,
                    next_lsn: scan.report.next_lsn,
                    durable_lsn: scan.report.next_lsn,
                    pending: 0,
                    poisoned: false,
                    report: scan.report,
                };
                wal.report.segments += 1;
                wal.write_header()?;
                wal
            }
        };
        wal.report.next_lsn = wal.next_lsn;
        Ok(wal)
    }

    /// The recovery outcome of this open.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.report
    }

    /// LSN the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Exclusive upper bound of the acked (fsync-covered) records.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// Segments on disk (active included).
    pub fn segment_count(&self) -> usize {
        (self.active_seq + 1) as usize
    }

    fn check(&self) -> Result<(), WalError> {
        if self.poisoned {
            Err(WalError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Write `bytes` through the `wal.append.write` fault seam, poisoning
    /// the writer on failure.
    fn write_through(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let mut w = FaultyWrite::new(&mut self.active, self.injector.clone(), "wal.append");
        if let Err(e) = w.write_all(bytes).and_then(|()| w.flush()) {
            self.poisoned = true;
            return Err(WalError::Io(e));
        }
        Ok(())
    }

    fn write_header(&mut self) -> Result<(), WalError> {
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.put_bytes(SEGMENT_MAGIC);
        header.put_u32(VERSION);
        header.put_u64(self.next_lsn);
        self.write_through(&header)?;
        self.active_len = HEADER_LEN as u64;
        self.active_frames = 0;
        if let Err(e) = fsync_with(&self.active, self.injector.as_ref(), "wal.sync.fsync") {
            self.poisoned = true;
            return Err(WalError::Io(e));
        }
        sync_dir(&self.dir);
        Ok(())
    }

    /// Append one record. The returned LSN is **acked** (crash-durable)
    /// once covered by an fsync — immediately with `fsync_every == 1`,
    /// otherwise at the next batched or explicit [`Wal::sync`].
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        self.check()?;
        if payload.len() > MAX_RECORD {
            return Err(WalError::TooLarge { len: payload.len() });
        }
        if self.active_len >= self.opts.segment_bytes && self.active_frames > 0 {
            self.rotate()?;
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.put_u32(payload.len() as u32);
        frame.put_u32(crc32(payload));
        frame.put_bytes(payload);
        self.write_through(&frame)?;
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.active_len += frame.len() as u64;
        self.active_frames += 1;
        self.pending += 1;
        ls_obs::counter("wal.appends").incr();
        if self.pending >= self.opts.fsync_every.max(1) {
            self.sync()?;
        }
        Ok(lsn)
    }

    /// Force an fsync of the active segment, acking everything appended so
    /// far. No-op when nothing is pending.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.check()?;
        if self.pending == 0 {
            return Ok(());
        }
        if let Err(e) = fsync_with(&self.active, self.injector.as_ref(), "wal.sync.fsync") {
            self.poisoned = true;
            return Err(WalError::Io(e));
        }
        self.pending = 0;
        self.durable_lsn = self.next_lsn;
        ls_obs::counter("wal.fsyncs").incr();
        Ok(())
    }

    /// Seal the active segment (fsync → rename, in that order — a sealed
    /// segment is by construction never torn) and start the next one.
    fn rotate(&mut self) -> Result<(), WalError> {
        // Everything in the outgoing segment must be durable before the
        // rename makes it immutable.
        self.pending += 1; // force the fsync even if batching already ran
        self.sync()?;
        let sealed = self.dir.join(sealed_name(self.active_seq));
        if let Err(e) = rename_with(
            &self.active_path,
            &sealed,
            self.injector.as_ref(),
            "wal.rotate.rename",
        ) {
            self.poisoned = true;
            return Err(WalError::Io(e));
        }
        sync_dir(&self.dir);
        ls_obs::counter("wal.rotations").incr();
        self.active_seq += 1;
        self.active_path = self.dir.join(open_name(self.active_seq));
        self.active = File::create(&self.active_path)?;
        self.write_header()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_fault::{FaultKind, FaultPlan, FaultRule, FaultSpec};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ls-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("record-{i}-{}", "x".repeat(i % 17)).into_bytes())
            .collect()
    }

    #[test]
    fn roundtrip_and_reopen_continue_lsns() {
        let dir = temp_dir("roundtrip");
        let recs = payloads(10);
        {
            let mut wal = Wal::open(&dir).unwrap();
            for (i, p) in recs.iter().enumerate() {
                assert_eq!(wal.append(p).unwrap(), i as u64);
            }
            assert_eq!(wal.durable_lsn(), 10);
        }
        let (got, report) = replay(&dir, 0).unwrap();
        assert_eq!(report.records, 10);
        assert_eq!(report.truncated_tail_bytes, 0);
        for (i, (lsn, p)) in got.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(p, &recs[i]);
        }
        // Reopen: appends continue the LSN chain.
        let mut wal = Wal::open(&dir).unwrap();
        assert_eq!(wal.recovery().records, 10);
        assert_eq!(wal.append(b"after-reopen").unwrap(), 10);
        let (got, _) = replay(&dir, 0).unwrap();
        assert_eq!(got.len(), 11);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_segments_and_replay_spans_them() {
        let dir = temp_dir("rotate");
        let opts = WalOptions {
            segment_bytes: 64,
            fsync_every: 1,
        };
        let mut wal = Wal::open_with(&dir, opts, Arc::new(NoFaults)).unwrap();
        for i in 0..30u32 {
            wal.append(format!("payload-{i:04}").as_bytes()).unwrap();
        }
        assert!(wal.segment_count() > 1, "tiny segments must rotate");
        let sealed = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .to_str()
                    .unwrap()
                    .ends_with(".lsw")
            })
            .count();
        assert!(sealed >= 1, "rotation leaves sealed segments behind");
        let (got, report) = replay(&dir, 0).unwrap();
        assert_eq!(got.len(), 30);
        assert!(report.segments > 1);
        for (i, (lsn, p)) in got.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(p, format!("payload-{i:04}").as_bytes());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = temp_dir("torn");
        {
            let mut wal = Wal::open(&dir).unwrap();
            for p in payloads(5) {
                wal.append(&p).unwrap();
            }
        }
        // Tear the tail: append garbage half-frame bytes to the active file.
        let open_file = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.to_str().unwrap().ends_with(".open"))
            .unwrap();
        let mut f = OpenOptions::new().append(true).open(&open_file).unwrap();
        f.write_all(&[0x77, 0x13, 0x00]).unwrap();
        drop(f);
        let wal = Wal::open(&dir).unwrap();
        assert_eq!(wal.recovery().records, 5, "intact prefix survives");
        assert_eq!(wal.recovery().truncated_tail_bytes, 3);
        // The repair is durable: a second open sees a clean tail.
        drop(wal);
        let wal = Wal::open(&dir).unwrap();
        assert_eq!(wal.recovery().truncated_tail_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let dir = temp_dir("midlog");
        let opts = WalOptions {
            segment_bytes: 64,
            fsync_every: 1,
        };
        {
            let mut wal = Wal::open_with(&dir, opts, Arc::new(NoFaults)).unwrap();
            for i in 0..30u32 {
                wal.append(format!("payload-{i:04}").as_bytes()).unwrap();
            }
        }
        // Flip a payload byte inside the FIRST (sealed, fsynced) segment: a
        // crash cannot produce this, so recovery must refuse, typed.
        let sealed = dir.join(sealed_name(0));
        let mut bytes = fs::read(&sealed).unwrap();
        let n = bytes.len();
        bytes[HEADER_LEN + FRAME_HEADER_LEN + 2] ^= 0x01;
        fs::write(&sealed, &bytes[..n]).unwrap();
        match Wal::open(&dir) {
            Err(WalError::Corrupt { reason, .. }) => {
                assert_eq!(reason, "frame checksum mismatch")
            }
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected Corrupt, got a clean open"),
        }
        match replay(&dir, 0) {
            Err(WalError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let dir = temp_dir("magic");
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.append(b"one").unwrap();
        }
        let seg = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .next()
            .unwrap();
        let orig = fs::read(&seg).unwrap();
        let mut bad = orig.clone();
        bad[0] = b'X';
        fs::write(&seg, &bad).unwrap();
        assert!(matches!(Wal::open(&dir), Err(WalError::BadMagic { .. })));
        let mut bad = orig.clone();
        bad[4] = 99;
        fs::write(&seg, &bad).unwrap();
        assert!(matches!(
            Wal::open(&dir),
            Err(WalError::BadVersion { found: 99, .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_record_rejected_without_poisoning() {
        let dir = temp_dir("toolarge");
        let mut wal = Wal::open(&dir).unwrap();
        let huge = vec![0u8; MAX_RECORD + 1];
        assert!(matches!(
            wal.append(&huge),
            Err(WalError::TooLarge { len }) if len == MAX_RECORD + 1
        ));
        assert_eq!(wal.append(b"still fine").unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_batching_defers_the_ack_watermark() {
        let dir = temp_dir("batch");
        let opts = WalOptions {
            segment_bytes: 1 << 20,
            fsync_every: 4,
        };
        let mut wal = Wal::open_with(&dir, opts, Arc::new(NoFaults)).unwrap();
        for _ in 0..3 {
            wal.append(b"r").unwrap();
        }
        assert_eq!(wal.durable_lsn(), 0, "no fsync yet: nothing acked");
        wal.append(b"r").unwrap(); // 4th append triggers the batched fsync
        assert_eq!(wal.durable_lsn(), 4);
        wal.append(b"r").unwrap();
        assert_eq!(wal.durable_lsn(), 4);
        wal.sync().unwrap();
        assert_eq!(wal.durable_lsn(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_fault_poisons_until_reopen() {
        let dir = temp_dir("poison");
        let spec = FaultSpec::new().rule(FaultRule::at("wal.append.write", FaultKind::Error, &[2]));
        let plan: Arc<dyn Injector> = Arc::new(FaultPlan::compile(7, &spec));
        let mut wal = Wal::open_with(&dir, WalOptions::default(), plan).unwrap();
        // Hit 0 is the fresh segment header; hits 1,2 are appends.
        wal.append(b"a").unwrap();
        assert!(matches!(wal.append(b"b"), Err(WalError::Io(_))));
        assert!(matches!(wal.append(b"c"), Err(WalError::Poisoned)));
        assert!(matches!(wal.sync(), Err(WalError::Poisoned)));
        // Reopen recovers the acked prefix and serves again.
        let mut wal = Wal::open(&dir).unwrap();
        assert_eq!(wal.recovery().records, 1);
        wal.append(b"b2").unwrap();
        let (got, _) = replay(&dir, 0).unwrap();
        assert_eq!(got.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_of_missing_dir_is_empty() {
        let dir = temp_dir("missing");
        let (recs, report) = replay(&dir, 0).unwrap();
        assert!(recs.is_empty());
        assert_eq!(report, RecoveryReport::default());
    }

    /// A replay from a watermark returns exactly the records at and past
    /// it, and never reads the sealed segments below it: bit rot planted in
    /// the first segment fails a full replay but not one that starts past
    /// that segment.
    #[test]
    fn replay_from_a_watermark_skips_sealed_segments_below_it() {
        let dir = temp_dir("watermark");
        let opts = WalOptions {
            segment_bytes: 64,
            fsync_every: 1,
        };
        let mut wal = Wal::open_with(&dir, opts, Arc::new(NoFaults)).unwrap();
        for i in 0..30u32 {
            wal.append(format!("payload-{i:04}").as_bytes()).unwrap();
        }
        drop(wal);
        let (all, full) = replay(&dir, 0).unwrap();
        assert_eq!(all.len(), 30);
        for from in [1u64, 5, 17, 29, 30, 31] {
            let (got, report) = replay(&dir, from).unwrap();
            assert_eq!(got, all[(from as usize).min(30)..], "from {from}");
            assert_eq!(report.next_lsn, 30, "from {from}");
            assert_eq!(report.segments, full.segments, "from {from}");
        }

        let mut segments = list_segments(&dir).unwrap();
        let second = segments.remove(1);
        let start = u64::from_le_bytes(fs::read(&second.path).unwrap()[8..16].try_into().unwrap());
        let first = &segments[0].path;
        let mut bytes = fs::read(first).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs::write(first, bytes).unwrap();
        assert!(matches!(replay(&dir, 0), Err(WalError::Corrupt { .. })));
        let (got, _) = replay(&dir, start).unwrap();
        assert_eq!(got, all[start as usize..]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_crc_is_the_shared_ls_fault_crc32() {
        // Satellite pin: the WAL frame checksum, the persist footer, and the
        // published vector all come from the ONE crc32 in ls-fault.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let dir = temp_dir("crc");
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.append(b"123456789").unwrap();
        }
        let seg = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .next()
            .unwrap();
        let bytes = fs::read(&seg).unwrap();
        let stored = u32::from_le_bytes(
            bytes[HEADER_LEN + 4..HEADER_LEN + FRAME_HEADER_LEN]
                .try_into()
                .unwrap(),
        );
        assert_eq!(stored, 0xCBF4_3926, "frame crc must be ls_fault::crc32");
        // And the sealed-file footer uses the same implementation.
        let sealed = ls_fault::seal(b"123456789".to_vec());
        let footer_crc = u32::from_le_bytes(sealed[sealed.len() - 4..].try_into().unwrap());
        assert_eq!(footer_crc, 0xCBF4_3926);
        let _ = fs::remove_dir_all(&dir);
    }
}
