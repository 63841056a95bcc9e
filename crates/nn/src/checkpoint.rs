//! Checkpointing: snapshot and restore the parameters of a module tree.
//!
//! The paper selects checkpoints by dev-set score after pre-training and
//! fine-tuning; these helpers give the training loops cheap in-memory
//! snapshots and an optional little-endian binary file format (magic +
//! per-parameter shape + data), with no external serialization crate.

use crate::param::Visit;
use ls_fault::{Cursor, DecodeError, Put};
use std::io;

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

    /// Append the binary form to `w`: magic, tensor count, then
    /// rows/cols/data per tensor (all little-endian).
    pub fn write_to(&self, w: &mut Vec<u8>) {
        w.put_bytes(b"LSCK");
        w.put_u32(self.tensors.len() as u32);
        for (rows, cols, data) in &self.tensors {
            w.put_u32(*rows as u32);
            w.put_u32(*cols as u32);
            w.put_f32s(data);
        }
    }

    /// Shapes `(rows, cols)` of the captured tensors, in visitation order.
    pub fn shapes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.tensors.iter().map(|(rows, cols, _)| (*rows, *cols))
    }

    /// Deserialize from `c`, leaving it just past the snapshot. The tensor
    /// count and every `rows × cols` are checked against the bytes left
    /// before anything is allocated, so an inconsistent header is an
    /// `InvalidData` error, never an oversized allocation.
    pub fn read_from(c: &mut Cursor<'_>) -> io::Result<Self> {
        if c.take(4)? != b"LSCK" {
            return Err(DecodeError::Malformed("bad checkpoint magic").into());
        }
        // Every tensor takes at least its 8-byte shape.
        let count = c.count(8)?;
        let mut tensors = Vec::with_capacity(count);
        for _ in 0..count {
            let rows = c.u32()? as usize;
            let cols = c.u32()? as usize;
            tensors.push((rows, cols, c.f32s(rows.saturating_mul(cols))?));
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
        snap.write_to(&mut bytes);
        let loaded = Snapshot::read_from(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(snap, loaded);
        assert_eq!(loaded.len(), 2);
        assert!(!loaded.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = b"XXXX\x00\x00\x00\x00".to_vec();
        let err = Snapshot::read_from(&mut Cursor::new(&bytes)).unwrap_err();
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
            let err = Snapshot::read_from(&mut Cursor::new(&bytes)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        }
        // Exactly the bytes there are is fine, and the reader stops there.
        let bytes = header(1, Some((4, 4)));
        let mut r = Cursor::new(&bytes);
        let snap = Snapshot::read_from(&mut r).unwrap();
        assert_eq!(snap.shapes().collect::<Vec<_>>(), vec![(4, 4)]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_stream_errors() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut layer = Linear::new(2, 2, &mut rng);
        let snap = Snapshot::capture(&mut layer);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes);
        bytes.truncate(bytes.len() - 3);
        assert!(Snapshot::read_from(&mut Cursor::new(&bytes)).is_err());
        let _ = Tensor::zeros(1, 1);
    }
}
