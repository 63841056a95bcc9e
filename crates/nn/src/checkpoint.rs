//! Checkpointing: snapshot and restore the parameters of a module tree.
//!
//! The paper selects checkpoints by dev-set score after pre-training and
//! fine-tuning; these helpers give the training loops cheap in-memory
//! snapshots and an optional little-endian binary file format (magic +
//! per-parameter shape + data), with no external serialization crate.

use crate::param::Visit;
use std::io::{self, Read, Write};

/// An in-memory snapshot of a module's parameters (visitation order).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    tensors: Vec<(usize, usize, Vec<f32>)>,
}

impl Snapshot {
    /// Capture the current parameter values.
    pub fn capture(module: &mut dyn Visit) -> Self {
        let mut tensors = Vec::new();
        module.visit(&mut |p| {
            tensors.push((p.v.rows, p.v.cols, p.v.data.clone()));
        });
        Snapshot { tensors }
    }

    /// Restore captured values into a module of the same architecture.
    ///
    /// # Panics
    /// Panics if the module's parameter shapes do not match the snapshot.
    pub fn restore(&self, module: &mut dyn Visit) {
        let mut idx = 0usize;
        module.visit(&mut |p| {
            let (rows, cols, data) = &self.tensors[idx];
            assert_eq!(
                (p.v.rows, p.v.cols),
                (*rows, *cols),
                "parameter {idx} shape mismatch"
            );
            p.v.data.copy_from_slice(data);
            idx += 1;
        });
        assert_eq!(idx, self.tensors.len(), "parameter count mismatch");
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Serialize to a writer (magic, tensor count, then rows/cols/data per
    /// tensor; all little-endian).
    pub fn write_to(&self, w: &mut dyn Write) -> io::Result<()> {
        w.write_all(b"LSCK")?;
        w.write_all(&(self.tensors.len() as u32).to_le_bytes())?;
        for (rows, cols, data) in &self.tensors {
            w.write_all(&(*rows as u32).to_le_bytes())?;
            w.write_all(&(*cols as u32).to_le_bytes())?;
            for v in data {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Shapes `(rows, cols)` of the captured tensors, in visitation order.
    pub fn shapes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.tensors.iter().map(|(rows, cols, _)| (*rows, *cols))
    }

    /// Deserialize from the front of `r`, advancing it past the snapshot.
    /// The tensor count and every `rows × cols` are checked against the
    /// bytes left before anything is allocated, so an inconsistent header
    /// is an `InvalidData` error, never an oversized allocation.
    pub fn read_from(r: &mut &[u8]) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != b"LSCK" {
            return Err(bad("bad checkpoint magic"));
        }
        let read_u32 = |r: &mut &[u8]| -> io::Result<usize> {
            let mut buf = [0u8; 4];
            r.read_exact(&mut buf)?;
            Ok(u32::from_le_bytes(buf) as usize)
        };
        let count = read_u32(r)?;
        // Every tensor takes at least its 8-byte shape.
        if count > r.len() / 8 {
            return Err(bad("tensor count exceeds the bytes left"));
        }
        let mut tensors = Vec::with_capacity(count);
        for _ in 0..count {
            let rows = read_u32(r)?;
            let cols = read_u32(r)?;
            let len = rows
                .checked_mul(cols)
                .filter(|&n| n <= r.len() / 4)
                .ok_or_else(|| bad("tensor data exceeds the bytes left"))?;
            let (bytes, rest) = r.split_at(4 * len);
            let data = bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            *r = rest;
            tensors.push((rows, cols, data));
        }
        Ok(Snapshot { tensors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn capture_restore_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut layer = Linear::new(3, 2, &mut rng);
        let snap = Snapshot::capture(&mut layer);
        let original = layer.w.v.clone();
        // Perturb, then restore.
        layer.w.v.scale(5.0);
        layer.b.v.data[0] = 42.0;
        snap.restore(&mut layer);
        assert_eq!(layer.w.v, original);
        assert_eq!(layer.b.v.data[0], 0.0);
    }

    #[test]
    fn binary_roundtrip() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut layer = Linear::new(4, 3, &mut rng);
        let snap = Snapshot::capture(&mut layer);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let loaded = Snapshot::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(snap, loaded);
        assert_eq!(loaded.len(), 2);
        assert!(!loaded.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = b"XXXX\x00\x00\x00\x00".to_vec();
        let err = Snapshot::read_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn restoring_into_wrong_shape_panics() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut a = Linear::new(3, 2, &mut rng);
        let mut b = Linear::new(2, 2, &mut rng);
        let snap = Snapshot::capture(&mut a);
        snap.restore(&mut b);
    }

    #[test]
    fn oversized_counts_are_invalid_data_before_allocating() {
        let header = |count: u32, shape: Option<(u32, u32)>| {
            let mut b = b"LSCK".to_vec();
            b.extend_from_slice(&count.to_le_bytes());
            if let Some((rows, cols)) = shape {
                b.extend_from_slice(&rows.to_le_bytes());
                b.extend_from_slice(&cols.to_le_bytes());
            }
            b.extend_from_slice(&[0u8; 64]);
            b
        };
        for (what, bytes) in [
            ("count", header(u32::MAX, None)),
            ("rows*cols", header(1, Some((u32::MAX, u32::MAX)))),
            ("one past the data", header(1, Some((1, 17)))),
        ] {
            let err = Snapshot::read_from(&mut bytes.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        }
        // Exactly the bytes there are is fine, and the reader stops there.
        let bytes = header(1, Some((4, 4)));
        let mut r = bytes.as_slice();
        let snap = Snapshot::read_from(&mut r).unwrap();
        assert_eq!(snap.shapes().collect::<Vec<_>>(), vec![(4, 4)]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_stream_errors() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut layer = Linear::new(2, 2, &mut rng);
        let snap = Snapshot::capture(&mut layer);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 3);
        assert!(Snapshot::read_from(&mut bytes.as_slice()).is_err());
        let _ = Tensor::zeros(1, 1);
    }
}
