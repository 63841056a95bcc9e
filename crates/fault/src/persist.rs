//! Crash-atomic, checksum-sealed file persistence.
//!
//! The generic half of the repo's persistence story, shared by model
//! snapshots (`ls_core::persist`), training checkpoints, and the compiled
//! circuit store (`ls-circuit`). Formats differ per consumer; what they all
//! share is the durability contract:
//!
//! * writes are **crash-atomic** ([`write_atomic`]): temp sibling → fsync →
//!   rename → directory fsync, so readers observe either the old file or the
//!   new one, never a torn hybrid;
//! * files are **CRC32-sealed** ([`write_sealed`] / [`read_verified`]): a
//!   footer `"LSFT" | body_len u64 | crc32 u32` over the body, verified
//!   before a single payload field is parsed, so silent truncation or bit
//!   rot surfaces as a typed `InvalidData` error.
//!
//! It lives in `ls-fault` (rather than `ls-core`) because durability under
//! crashes and corruption *is* fault tolerance — and because low-level
//! consumers like the circuit store cannot depend on `ls-core` without a
//! dependency cycle. Bodies and the footer alike are laid out by
//! [`crate::codec`].

use crate::codec::{Cursor, Put};
use crate::crc::crc32;
use crate::io::INJECTED_ERROR_MSG;
use crate::plan::{FaultAction, Injector};
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Footer magic marking a CRC-sealed file.
pub const FOOTER_MAGIC: &[u8; 4] = b"LSFT";
/// Footer layout: magic (4) + body length (8) + crc32 (4).
pub const FOOTER_LEN: usize = 16;

/// Append the checksum footer to `body` bytes.
pub fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    let len = body.len() as u64;
    body.put_bytes(FOOTER_MAGIC);
    body.put_u64(len);
    body.put_u32(crc);
    body
}

/// Verify and strip the checksum footer, returning the body slice.
pub fn unseal(bytes: &[u8]) -> io::Result<&[u8]> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if bytes.len() < FOOTER_LEN {
        return Err(bad("file shorter than checksum footer"));
    }
    let (body, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
    let mut footer = Cursor::new(footer);
    if footer.take(4)? != FOOTER_MAGIC {
        return Err(bad("missing checksum footer (truncated or pre-v2 file)"));
    }
    if footer.u64()? != body.len() as u64 {
        return Err(bad("footer length does not match file length"));
    }
    if footer.u32()? != crc32(body) {
        return Err(bad("checksum mismatch: snapshot is corrupt"));
    }
    Ok(body)
}

/// Write `bytes` to `path` crash-atomically: temp sibling → fsync → rename
/// → directory fsync (Unix). Readers never observe a partial file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    #[cfg(unix)]
    if let Some(dir) = dir {
        // Persist the rename itself; without this a crash can forget the
        // directory entry even though the inode was flushed.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// [`write_atomic`] with a checksum footer appended; pair with
/// [`read_verified`].
pub fn write_sealed(path: &Path, body: Vec<u8>) -> io::Result<()> {
    write_atomic(path, &seal(body))
}

/// Read `path` fully and verify its checksum footer, returning the body.
pub fn read_verified(path: &Path) -> io::Result<Vec<u8>> {
    let bytes = fs::read(path)?;
    let body_len = unseal(&bytes)?.len();
    let mut body = bytes;
    body.truncate(body_len);
    Ok(body)
}

/// `File::sync_all` behind a fault-injection seam: `site` is consulted
/// before the real fsync, so crash schedules can deny durability exactly
/// where they say. `Error`/`Truncate`/`Corrupt` all surface as an injected
/// I/O error (an fsync has no payload to tear or flip); `Delay` sleeps and
/// then syncs for real.
pub fn fsync_with(file: &fs::File, injector: &dyn Injector, site: &str) -> io::Result<()> {
    match injector.decide(site) {
        FaultAction::None => file.sync_all(),
        FaultAction::Panic => panic!("injected fsync panic at {site}"),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            file.sync_all()
        }
        _ => Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            INJECTED_ERROR_MSG,
        )),
    }
}

/// `fs::rename` behind a fault-injection seam, with the same action mapping
/// as [`fsync_with`]: an injected fault means the rename never happened
/// (both paths are untouched), which is exactly the crash-before-rename
/// state recovery code must tolerate.
pub fn rename_with(from: &Path, to: &Path, injector: &dyn Injector, site: &str) -> io::Result<()> {
    match injector.decide(site) {
        FaultAction::None => fs::rename(from, to),
        FaultAction::Panic => panic!("injected rename panic at {site}"),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            fs::rename(from, to)
        }
        _ => Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            INJECTED_ERROR_MSG,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_round_trip() {
        let body = b"compiled circuit bytes".to_vec();
        let sealed = seal(body.clone());
        assert_eq!(unseal(&sealed).unwrap(), &body[..]);
    }

    #[test]
    fn unseal_rejects_truncation_and_bitrot() {
        let sealed = seal(b"payload".to_vec());
        assert!(unseal(&sealed[..sealed.len() - 1]).is_err());
        let mut flipped = sealed.clone();
        flipped[2] ^= 0x40;
        let err = unseal(&flipped).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        assert!(unseal(b"x").is_err(), "shorter than the footer");
    }

    #[test]
    fn write_sealed_read_verified_round_trip() {
        let path = std::env::temp_dir().join("ls_fault_persist_rt.bin");
        write_sealed(&path, vec![1, 2, 3, 250]).unwrap();
        assert_eq!(read_verified(&path).unwrap(), vec![1, 2, 3, 250]);
        let _ = fs::remove_file(&path);
    }
}
