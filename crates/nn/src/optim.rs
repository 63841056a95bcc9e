//! Adam optimizer with decoupled weight decay (AdamW).

use crate::param::{Param, Visit};
use ls_fault::{Cursor, DecodeError, Put};
use std::io;

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    /// Decoupled weight decay (0 disables).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
        }
    }
}

/// Adam state for one module tree. Moment buffers are laid out in the
/// module's parameter-visitation order, so one optimizer must stay paired
/// with one module.
#[derive(Debug, Clone)]
pub struct Adam {
    cfg: AdamConfig,
    step: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Fresh optimizer for a module.
    pub fn new(module: &mut dyn Visit, cfg: AdamConfig) -> Self {
        let mut m = Vec::new();
        let mut v = Vec::new();
        module.visit(&mut |p: &mut Param| {
            m.push(vec![0.0; p.len()]);
            v.push(vec![0.0; p.len()]);
        });
        Adam { cfg, step: 0, m, v }
    }

    /// Apply one update from the accumulated gradients, then zero them.
    ///
    /// `grad_scale` divides gradients before the update (use `1/batch` for
    /// mean-reduced losses accumulated per-example).
    pub fn step(&mut self, module: &mut dyn Visit, grad_scale: f32) {
        self.step += 1;
        let t = self.step as f64;
        let bc1 = 1.0 - (self.cfg.beta1 as f64).powf(t);
        let bc2 = 1.0 - (self.cfg.beta2 as f64).powf(t);
        let lr_t = self.cfg.lr * (bc2.sqrt() / bc1) as f32;
        let (b1, b2, eps, wd) = (
            self.cfg.beta1,
            self.cfg.beta2,
            self.cfg.eps,
            self.cfg.weight_decay,
        );
        let mut idx = 0usize;
        let m = &mut self.m;
        let v = &mut self.v;
        module.visit(&mut |p: &mut Param| {
            let mbuf = &mut m[idx];
            let vbuf = &mut v[idx];
            for i in 0..p.len() {
                let g = p.g.data[i] * grad_scale;
                mbuf[i] = b1 * mbuf[i] + (1.0 - b1) * g;
                vbuf[i] = b2 * vbuf[i] + (1.0 - b2) * g * g;
                let update = lr_t * mbuf[i] / (vbuf[i].sqrt() + eps);
                p.v.data[i] -= update + self.cfg.lr * wd * p.v.data[i];
            }
            p.zero_grad();
            idx += 1;
        });
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// The optimizer's hyper-parameters.
    pub fn config(&self) -> AdamConfig {
        self.cfg
    }

    /// Length of each moment buffer, in parameter-visitation order.
    pub fn buffer_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.m.iter().map(Vec::len)
    }

    /// Serialize the full optimizer state (hyper-parameters, step count,
    /// both moment buffers) little-endian. Moments are written as exact
    /// `f32` bit patterns, so a round trip restores the optimizer
    /// bit-identically — resumed training steps match uninterrupted ones.
    pub fn write_state(&self, w: &mut Vec<u8>) {
        w.put_bytes(b"LSAD");
        for v in [
            self.cfg.lr,
            self.cfg.beta1,
            self.cfg.beta2,
            self.cfg.eps,
            self.cfg.weight_decay,
        ] {
            w.put_f32(v);
        }
        w.put_u64(self.step);
        w.put_u32(self.m.len() as u32);
        for (mbuf, vbuf) in self.m.iter().zip(&self.v) {
            w.put_u32(mbuf.len() as u32);
            w.put_f32s(mbuf);
            w.put_f32s(vbuf);
        }
    }

    /// Deserialize one optimizer state written by [`Adam::write_state`].
    /// The buffer count and every buffer length are checked against the
    /// bytes left before anything is allocated, so a hostile state is an
    /// `InvalidData` error. The moment-buffer layout must match the module
    /// the optimizer will be paired with (same parameter visitation order).
    pub fn read_state(bytes: &[u8]) -> io::Result<Adam> {
        let mut c = Cursor::new(bytes);
        if c.take(4)? != b"LSAD" {
            return Err(DecodeError::Malformed("bad optimizer-state magic").into());
        }
        let cfg = AdamConfig {
            lr: c.f32()?,
            beta1: c.f32()?,
            beta2: c.f32()?,
            eps: c.f32()?,
            weight_decay: c.f32()?,
        };
        let step = c.u64()?;
        // Every buffer pair takes at least its 4-byte length.
        let count = c.count(4)?;
        let mut m = Vec::with_capacity(count);
        let mut v = Vec::with_capacity(count);
        for _ in 0..count {
            // Each element is one f32 in each of the two moment buffers.
            let len = c.count(8)?;
            m.push(c.f32s(len)?);
            v.push(c.f32s(len)?);
        }
        c.finish()?;
        Ok(Adam { cfg, step, m, v })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Minimize ‖x·W + b − y‖² on a fixed tiny dataset; loss must fall.
    #[test]
    fn adam_fits_linear_regression() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Linear::new(2, 1, &mut rng);
        let cfg = AdamConfig {
            lr: 0.05,
            weight_decay: 0.0,
            ..Default::default()
        };
        let mut opt = Adam::new(&mut layer, cfg);
        // Target function: y = 3x₁ − 2x₂ + 1.
        let xs = [
            [0.0f32, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
            [0.5, -0.5],
            [-1.0, 0.3],
        ];
        let ys: Vec<f32> = xs.iter().map(|x| 3.0 * x[0] - 2.0 * x[1] + 1.0).collect();
        let loss_of = |layer: &mut Linear| -> f32 {
            let mut total = 0.0;
            for (x, &y) in xs.iter().zip(&ys) {
                let out = layer.forward(&Tensor::from_vec(1, 2, x.to_vec()));
                total += (out.data[0] - y).powi(2);
            }
            total / xs.len() as f32
        };
        let initial = loss_of(&mut layer);
        for _ in 0..400 {
            for (x, &y) in xs.iter().zip(&ys) {
                let x = Tensor::from_vec(1, 2, x.to_vec());
                let out = layer.forward(&x);
                let d = 2.0 * (out.data[0] - y);
                layer.backward(&x, &Tensor::from_vec(1, 1, vec![d]));
            }
            opt.step(&mut layer, 1.0 / xs.len() as f32);
        }
        let final_loss = loss_of(&mut layer);
        assert!(final_loss < initial * 0.01, "loss {initial} → {final_loss}");
        assert!((layer.w.v.data[0] - 3.0).abs() < 0.1);
        assert!((layer.w.v.data[1] + 2.0).abs() < 0.1);
        assert!((layer.b.v.data[0] - 1.0).abs() < 0.1);
        assert_eq!(opt.steps(), 400);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Linear::new(2, 2, &mut rng);
        let mut opt = Adam::new(&mut layer, AdamConfig::default());
        layer.backward(
            &Tensor::from_vec(1, 2, vec![1.0, 2.0]),
            &Tensor::from_vec(1, 2, vec![1.0, 1.0]),
        );
        assert!(layer.w.g.norm() > 0.0);
        opt.step(&mut layer, 1.0);
        assert_eq!(layer.w.g.norm(), 0.0);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(4, 4, &mut rng);
        let cfg = AdamConfig {
            lr: 0.01,
            weight_decay: 0.5,
            ..Default::default()
        };
        let mut opt = Adam::new(&mut layer, cfg);
        let before = layer.w.v.norm();
        for _ in 0..50 {
            // No data gradient at all: only decay acts.
            opt.step(&mut layer, 1.0);
        }
        assert!(layer.w.v.norm() < before * 0.9);
    }

    /// Serialize mid-training, deserialize, continue on both copies: the
    /// trajectories must stay bit-identical (moments, step count, and the
    /// bias-correction schedule all round-trip exactly).
    #[test]
    fn state_roundtrip_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Linear::new(3, 2, &mut rng);
        let mut opt = Adam::new(&mut layer, AdamConfig::default());
        let step_once = |layer: &mut Linear, opt: &mut Adam| {
            layer.backward(
                &Tensor::from_vec(1, 3, vec![0.3, -0.7, 1.1]),
                &Tensor::from_vec(1, 2, vec![0.5, -0.25]),
            );
            opt.step(layer, 1.0);
        };
        for _ in 0..7 {
            step_once(&mut layer, &mut opt);
        }
        let mut bytes = Vec::new();
        opt.write_state(&mut bytes);
        let mut restored = Adam::read_state(&bytes).unwrap();
        assert_eq!(restored.steps(), 7);
        assert_eq!(restored.config().lr, opt.config().lr);
        // Clone the module and advance both optimizer copies in lockstep.
        let snap = crate::checkpoint::Snapshot::capture(&mut layer);
        let mut layer2 = Linear::new(3, 2, &mut rng);
        snap.restore(&mut layer2);
        for _ in 0..5 {
            step_once(&mut layer, &mut opt);
            step_once(&mut layer2, &mut restored);
        }
        for (a, b) in layer.w.v.data.iter().zip(&layer2.w.v.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in layer.b.v.data.iter().zip(&layer2.b.v.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// A buffer count or a buffer length larger than the bytes left is
    /// refused before anything is allocated for it, not a process abort.
    #[test]
    fn hostile_state_counts_are_invalid_data() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = Linear::new(1, 1, &mut rng);
        let mut state = Vec::new();
        Adam::new(&mut layer, AdamConfig::default()).write_state(&mut state);
        // Magic, five f32 hyper-parameters and the u64 step precede the
        // buffer count.
        let header = &state[..4 + 5 * 4 + 8];
        let count = [header, &u32::MAX.to_le_bytes()].concat(); // 36 bytes
        let len = [header, &1u32.to_le_bytes(), &u32::MAX.to_le_bytes()].concat(); // 40 bytes
        for (what, bytes) in [("buffer count", count), ("buffer length", len)] {
            let err = Adam::read_state(&bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn state_with_bad_magic_rejected() {
        assert!(Adam::read_state(b"XXXX").is_err());
    }

    #[test]
    fn lr_can_be_scheduled() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Linear::new(1, 1, &mut rng);
        let mut opt = Adam::new(
            &mut layer,
            AdamConfig {
                lr: 0.5,
                ..Default::default()
            },
        );
        layer.backward(
            &Tensor::from_vec(1, 1, vec![1.0]),
            &Tensor::from_vec(1, 1, vec![1.0]),
        );
        let before = layer.w.v.data[0];
        opt.step(&mut layer, 1.0);
        assert!((layer.w.v.data[0] - before).abs() > 0.1);
    }
}
