//! The one byte codec behind every persisted and wire format.
//!
//! Every format in the workspace lays out its fields the same way:
//!
//! * integers are fixed-width little-endian;
//! * floats travel as their raw IEEE-754 bits, so `-0.0` and NaN payloads
//!   round-trip exactly;
//! * strings are a `u32` byte length followed by that many UTF-8 bytes;
//! * a declared count is checked against the bytes left before anything is
//!   allocated for it ([`Cursor::count`]), so a hostile count costs nothing;
//! * a message is read whole, and bytes after its last field are refused
//!   ([`Cursor::finish`]).
//!
//! Files add the `LSFT` checksum seal of [`crate::persist`] on top.
//! Writers append to a `Vec<u8>` through [`Put`], which cannot fail;
//! readers walk a [`Cursor`], whose every read returns one allocation-free
//! [`DecodeError`]. Each format maps that error into its own public error
//! type at its boundary.

use std::fmt;
use std::io;

/// Why bytes did not decode. `Copy` and allocation-free: refusing hostile
/// input costs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a field it declared: `need` bytes were
    /// required, `have` remained.
    Truncated {
        /// Bytes the next field required.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The bytes are structurally invalid; the label names what failed.
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { need, have } => {
                write!(f, "truncated: need {need} bytes, have {have}")
            }
            DecodeError::Malformed(what) => write!(f, "malformed: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Formats read through `std::io` report a decode failure as
/// `InvalidData`, carrying the [`DecodeError`] as its payload.
impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

macro_rules! put_le {
    ($($name:ident: $t:ty),*) => {$(
        #[doc = concat!("Append a little-endian `", stringify!($t), "`.")]
        #[inline]
        fn $name(&mut self, v: $t) {
            self.put_bytes(&v.to_le_bytes());
        }
    )*};
}

/// The writer half: appends fields to a `Vec<u8>` in the layout above.
pub trait Put {
    /// Append raw bytes (a magic, or an already-encoded body).
    fn put_bytes(&mut self, bytes: &[u8]);

    put_le!(put_u8: u8, put_u16: u16, put_u32: u32, put_u64: u64, put_i64: i64);
    put_le!(put_f32: f32, put_f64: f64);

    /// Append a `u32` byte length, then the UTF-8 bytes of `s`.
    #[inline]
    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.put_bytes(s.as_bytes());
    }

    /// Append each `f32` of `v` (no length prefix).
    #[inline]
    fn put_f32s(&mut self, v: &[f32]) {
        v.iter().for_each(|&x| self.put_f32(x));
    }
}

impl Put for Vec<u8> {
    #[inline]
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

macro_rules! get_le {
    ($($name:ident: $t:ty),*) => {$(
        #[doc = concat!("Read a little-endian `", stringify!($t), "`.")]
        #[inline]
        pub fn $name(&mut self) -> Result<$t, DecodeError> {
            Ok(<$t>::from_le_bytes(self.array()?))
        }
    )*};
}

/// The reader half: a bounds-checked cursor over a byte slice. Every read
/// checks the bytes left first, so no input can make it panic or allocate
/// more than the input itself could describe.
#[derive(Debug)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { rest: bytes }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.rest.len() {
            return Err(DecodeError::Truncated {
                need: n,
                have: self.rest.len(),
            });
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    get_le!(u8: u8, u16: u16, u32: u32, u64: u64, i64: i64, f32: f32, f64: f64);

    /// A `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| DecodeError::Malformed("string not UTF-8"))
    }

    /// A `u32` count of items that each take at least `width` bytes,
    /// refused unless the bytes left could hold them — check it before
    /// allocating for the items.
    #[inline]
    pub fn count(&mut self, width: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        let need = n.saturating_mul(width);
        if need > self.rest.len() {
            return Err(DecodeError::Truncated {
                need,
                have: self.rest.len(),
            });
        }
        Ok(n)
    }

    /// `n` consecutive `f32`s, bounds-checked as one block before the
    /// vector is allocated.
    #[inline]
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, DecodeError> {
        let bytes = self.take(n.saturating_mul(4))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Refuse bytes after the last field of a message.
    #[inline]
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes after payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_in_the_documented_layout() {
        let mut w = Vec::new();
        w.put_bytes(b"MAGC");
        w.put_u8(7);
        w.put_u16(0x0102);
        w.put_u32(0x0304_0506);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-3);
        w.put_f32(-0.0);
        w.put_f64(f64::from_bits(0x7ff8_0000_0000_0001)); // a NaN payload
        w.put_str("héllo");
        w.put_f32s(&[1.5, -2.25]);
        assert_eq!(&w[4..7], &[7, 0x02, 0x01], "little-endian");
        assert_eq!(&w[w.len() - 18..w.len() - 8], b"\x06\0\0\0h\xc3\xa9llo");

        let mut c = Cursor::new(&w);
        assert_eq!(c.take(4).unwrap(), b"MAGC");
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.u16().unwrap(), 0x0102);
        assert_eq!(c.u32().unwrap(), 0x0304_0506);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.i64().unwrap(), -3);
        assert_eq!(c.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(c.f64().unwrap().to_bits(), 0x7ff8_0000_0000_0001);
        assert_eq!(c.str().unwrap(), "héllo");
        assert_eq!(c.f32s(2).unwrap(), vec![1.5, -2.25]);
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.finish(), Ok(()));
    }

    #[test]
    fn short_reads_are_truncated_and_consume_nothing() {
        let mut c = Cursor::new(&[1, 2, 3]);
        assert_eq!(c.u32(), Err(DecodeError::Truncated { need: 4, have: 3 }));
        assert_eq!(c.remaining(), 3);
        assert_eq!(c.u16().unwrap(), 0x0201);
        assert_eq!(
            c.finish(),
            Err(DecodeError::Malformed("trailing bytes after payload"))
        );
    }

    #[test]
    fn hostile_counts_and_lengths_are_refused_before_allocating() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 12]);
        assert_eq!(
            Cursor::new(&bytes).count(1),
            Err(DecodeError::Truncated {
                need: u32::MAX as usize,
                have: 12
            })
        );
        assert!(Cursor::new(&bytes).str().is_err());
        assert_eq!(Cursor::new(&bytes[4..]).f32s(usize::MAX).unwrap_err(), {
            DecodeError::Truncated {
                need: usize::MAX,
                have: 12,
            }
        });
        // Exactly what is left is fine.
        let mut c = Cursor::new(&[3, 0, 0, 0, 1, 2, 3]);
        assert_eq!(c.count(1), Ok(3));
        assert_eq!(c.take(3).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn non_utf8_strings_are_malformed() {
        let mut w = Vec::new();
        w.put_u32(2);
        w.put_bytes(&[0xff, 0xfe]);
        assert_eq!(
            Cursor::new(&w).str(),
            Err(DecodeError::Malformed("string not UTF-8"))
        );
    }

    #[test]
    fn decode_errors_become_invalid_data() {
        let e: io::Error = DecodeError::Malformed("bad tag").into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("bad tag"), "{e}");
    }
}
