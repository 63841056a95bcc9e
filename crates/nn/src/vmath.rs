//! Bit-exact `tanhf` and `expf`, and lane-wise GELU and softmax-`exp`
//! kernels built on them.
//!
//! The encoder calls two transcendental functions per element: `tanh`
//! inside GELU (every feed-forward activation, forward and backward) and
//! `exp` inside softmax (every attention score). Through `f32::tanh` and
//! `f32::exp` those are one libm call per element, and which bits come back
//! depends on the C library the process happens to load: glibc's `expf`
//! alone has an SSE2 and an FMA variant chosen at load time by IFUNC.
//!
//! This module owns both functions instead:
//!
//! * `tanhf` and its `expm1f` are scalar ports of the fdlibm routines
//!   glibc 2.36 ships for `float` (`s_tanhf.c`, `s_expm1f.c`), operation
//!   for operation, in `f32`.
//! * `expf` is a scalar port of glibc's `e_expf.c` (Szabolcs Nagy's
//!   table-driven algorithm) as its FMA variant `__expf_fma` computes it:
//!   double-precision internals with a 32-entry `2^(i/32)` table, where the
//!   compiler fused `InvLn2N·x + SHIFT`, `InvLn2N·x − kd` and the three
//!   polynomial steps into fused multiply-adds. The port calls
//!   [`f64::mul_add`] at exactly those five places and nowhere else; Rust
//!   never contracts `a * b + c` on its own.
//! * [`gelu`], [`gelu_grad`] and `exp` map a slice in place in chunks of
//!   16 lanes. Each lane performs the same IEEE operations as the scalar
//!   port, with the port's branches turned into selects, so the chunk loop
//!   is straight-line code over fixed-size arrays that LLVM vectorizes. The
//!   rare lanes the selects do not cover — non-finite inputs, and
//!   `|x| ≥ 88` for `exp` — are recomputed with the scalar port.
//!
//! The constants and the `__exp2f_data` table are glibc 2.36's, as
//! `objdump` shows them in `libm-2.36.a`. `tests::ports_match_libm_on_every_f32`
//! (ignored by default; about a minute per function in release) compares
//! each port with `f32::tanh`, `f32::exp_m1` and `f32::exp` on all 2³²
//! inputs against a glibc 2.36 libm, and the tier-1 tests compare every
//! lane kernel with its port. See DESIGN.md §4k.

/// Lane count of the slice kernels: 16 `f32`, one 512-bit or two 256-bit
/// vectors.
const LANES: usize = 16;

// ---------------------------------------------------------------------
// expm1f / tanhf (fdlibm, single precision)
// ---------------------------------------------------------------------

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// `e^x − 1`, bit-identical to glibc 2.36's `expm1f` (fdlibm).
pub(crate) fn expm1f(x: f32) -> f32 {
    let neg = x.is_sign_negative();
    let hx = x.to_bits() & 0x7fff_ffff;

    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        // |x| >= 27·ln2
        if hx >= 0x42b1_7218 {
            // |x| >= 88.721…
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if neg { -1.0 } else { x };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE; // overflow
            }
        }
        if neg {
            return TINY - 1.0;
        }
    }

    // Argument reduction: x = k·ln2 + (hi − lo), with c the rounding
    // error of hi − lo.
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // and |x| < 1.5·ln2
            if neg {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INVLN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25: glibc returns x − (t − (huge + x)) with t = huge + x.
        return x;
    } else {
        (x, 0.0, 0)
    };

    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = x * (e - c) - c - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    let scale = (k as u32) << 23; // adds k to the exponent
    if k <= -2 || k > 56 {
        let y = 1.0 - (e - x);
        return f32::from_bits(y.to_bits().wrapping_add(scale)) - 1.0;
    }
    let y = if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 − 2^-k
        t - (e - x)
    } else {
        let t = f32::from_bits(((0x7f - k) as u32) << 23); // 2^-k
        x - (e + t) + 1.0
    };
    f32::from_bits(y.to_bits().wrapping_add(scale))
}

/// Hyperbolic tangent, bit-identical to glibc 2.36's `tanhf` (fdlibm).
pub(crate) fn tanhf(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if x.is_sign_negative() {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2^-55
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1f(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 // 1 − 1e-30, which rounds to 1
    };
    if x.is_sign_negative() {
        -z
    } else {
        z
    }
}

/// One lane of [`tanhf`] for finite `u`: both `expm1f` reductions tanhf
/// can reach are one select-driven evaluation, and every branch's result is
/// computed and selected. The `expm1f` part covers exactly the arguments
/// `tanhf` passes: `2|u|` in `[2, 44)` and `−2|u|` in `(−2, −2^-54]`.
#[inline(always)]
fn tanh_lane(u: f32) -> f32 {
    let iu = u.to_bits() & 0x7fff_ffff;
    let a = f32::from_bits(iu);
    let big = iu >= 0x3f80_0000;
    let x = if big { 2.0 * a } else { -2.0 * a };

    // expm1f(x), reduced with k = 0, −1 or round(x/ln2) by the same
    // formulas as the scalar port (k·ln2_hi with k = 0 or −1 is exact).
    let hx = x.to_bits() & 0x7fff_ffff;
    let kr = (INVLN2 * x + if big { 0.5 } else { -0.5 }) as i32;
    let k = if hx <= 0x3eb1_7218 {
        0
    } else if hx < 0x3f85_1592 {
        -1
    } else {
        kr
    };
    let kf = k as f32;
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e0 = hxs * ((r1 - t) / (6.0 - r * t));
    let e = r * (e0 - c) - c - hxs;
    let scale = (k as u32) << 23;
    let y_k0 = r - (r * e0 - hxs);
    let y_km1 = 0.5 * (r - e) - 0.5;
    let y_far = f32::from_bits((1.0 - (e - r)).to_bits().wrapping_add(scale)) - 1.0;
    let t_lo = f32::from_bits(0x3f80_0000 - 0x0100_0000u32.wrapping_shr(k as u32));
    let y_lo = f32::from_bits((t_lo - (e - r)).to_bits().wrapping_add(scale));
    let t_hi = f32::from_bits((0x7f_i32.wrapping_sub(k) as u32) << 23);
    let y_hi = f32::from_bits((r - (e + t_hi) + 1.0).to_bits().wrapping_add(scale));
    let em1 = if hx < 0x3300_0000 {
        x
    } else if k == 0 {
        y_k0
    } else if k == -1 {
        y_km1
    } else if k <= -2 || k > 56 {
        y_far
    } else if k < 23 {
        y_lo
    } else {
        y_hi
    };

    let z_big = 1.0 - 2.0 / (em1 + 2.0);
    let z_small = -em1 / (em1 + 2.0);
    let z = if iu >= 0x41b0_0000 {
        1.0
    } else if big {
        z_big
    } else {
        z_small
    };
    let z = if u.is_sign_negative() { -z } else { z };
    // |u| < 2^-55 (zero included): u·(1 + u), which is ±0 for ±0.
    if iu < 0x2400_0000 {
        u * (1.0 + u)
    } else {
        z
    }
}

// ---------------------------------------------------------------------
// expf (glibc e_expf.c, FMA variant)
// ---------------------------------------------------------------------

/// `__exp2f_data.tab`: `tab[i] = bits(2^(i/32)) − (i << 47)`.
const EXP2F_TAB: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];
/// `__exp2f_data.invln2_scaled`: 32 / ln 2.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `__exp2f_data.shift`: 0x1.8p52, rounds `z + SHIFT` to an integer.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `__exp2f_data.poly_scaled`: `2^(r/32) ≈ C0·r³ + C1·r² + C2·r + 1`.
const EXP_C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];

/// Whether `x` leaves `expf`'s main path: `|x| ≥ 88`, infinite or NaN.
#[inline(always)]
fn exp_special(x: f32) -> bool {
    (x.to_bits() >> 20) & 0x7ff >= 0x42b
}

/// `expf`'s main path (`|x| < 88`): branch-free, so it is also the lane
/// body of [`exp`].
#[inline(always)]
fn exp_main(x: f32) -> f32 {
    let xd = f64::from(x);
    // x·32/ln2 = k + r with r in [−1/2, 1/2] and integer k.
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    // e^x = 2^(k/32) · 2^(r/32) ≈ s · (C0·r³ + C1·r² + C2·r + 1).
    let s = f64::from_bits(EXP2F_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXP_C[0].mul_add(r, EXP_C[1]);
    let r2 = r * r;
    let y = EXP_C[2].mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// `e^x`, bit-identical to glibc 2.36's `expf` as its FMA variant
/// computes it.
pub(crate) fn expf(x: f32) -> f32 {
    if exp_special(x) {
        if x.to_bits() == f32::NEG_INFINITY.to_bits() {
            return 0.0;
        }
        if x.to_bits() & 0x7fff_ffff >= 0x7f80_0000 {
            return x + x; // +inf or NaN
        }
        if x > f32::from_bits(0x42b1_7217) {
            // x > ln(2^128): overflow
            let y = f32::from_bits(0x7000_0000); // 0x1p97
            return y * y;
        }
        if x < f32::from_bits(0xc2cf_f1b4) {
            // x < ln(2^-150): underflow to 0
            let y = f32::from_bits(0x1000_0000); // 0x1p-95
            return y * y;
        }
        if x < f32::from_bits(0xc2ce_8ecf) {
            // x < ln(2^-149): may underflow
            let y = f32::from_bits(0x1a20_0000); // 0x1.4p-75
            return y * y;
        }
    }
    exp_main(x)
}

// ---------------------------------------------------------------------
// GELU (tanh approximation)
// ---------------------------------------------------------------------

/// `√(2/π)`.
const GELU_C: f32 = 0.797_884_6;

/// GELU's `tanh` argument, `√(2/π)·(x + 0.044715·x³)`.
#[inline(always)]
fn gelu_inner(x: f32) -> f32 {
    GELU_C * (x + 0.044715 * x * x * x)
}

/// GELU from `x` and `t = tanh(gelu_inner(x))`.
#[inline(always)]
fn gelu_from(x: f32, t: f32) -> f32 {
    0.5 * x * (1.0 + t)
}

/// GELU's derivative from `x` and `t = tanh(gelu_inner(x))`.
#[inline(always)]
fn gelu_grad_from(x: f32, t: f32) -> f32 {
    let dinner = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

/// GELU (tanh approximation) of one value: the scalar reference of
/// [`gelu`].
fn gelu_scalar(x: f32) -> f32 {
    gelu_from(x, tanhf(gelu_inner(x)))
}

/// Derivative of the tanh-approximated GELU at one value: the scalar
/// reference of [`gelu_grad`].
fn gelu_grad_scalar(x: f32) -> f32 {
    gelu_grad_from(x, tanhf(gelu_inner(x)))
}

// ---------------------------------------------------------------------
// Slice kernels
// ---------------------------------------------------------------------

/// Map `xs` in place, [`LANES`] elements at a time. `lane` returns the
/// lane's value and whether it must be recomputed by `scalar`; the tail is
/// padded with zeros to a full chunk, so it runs the same lane code.
#[inline(always)]
fn map_lanes(xs: &mut [f32], lane: impl Fn(f32) -> (f32, bool), scalar: impl Fn(f32) -> f32) {
    let chunk = |c: &mut [f32; LANES]| {
        let mut out = [0.0f32; LANES];
        let mut special = [false; LANES];
        for i in 0..LANES {
            (out[i], special[i]) = lane(c[i]);
        }
        if special.contains(&true) {
            for i in 0..LANES {
                if special[i] {
                    out[i] = scalar(c[i]);
                }
            }
        }
        *c = out;
    };
    let mut chunks = xs.chunks_exact_mut(LANES);
    for c in &mut chunks {
        chunk(c.try_into().expect("chunk of LANES"));
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let mut buf = [0.0f32; LANES];
        buf[..tail.len()].copy_from_slice(tail);
        chunk(&mut buf);
        tail.copy_from_slice(&buf[..tail.len()]);
    }
}

/// `xs[i] = gelu(xs[i])` (tanh approximation), bit-identical per element
/// to the scalar formula evaluated with glibc 2.36's `tanhf`.
pub fn gelu(xs: &mut [f32]) {
    map_lanes(
        xs,
        |x| {
            let u = gelu_inner(x);
            (gelu_from(x, tanh_lane(u)), !u.is_finite())
        },
        gelu_scalar,
    );
}

/// `xs[i] = gelu'(xs[i])`, the derivative of [`gelu`], bit-identical per
/// element to the scalar formula evaluated with glibc 2.36's `tanhf`.
pub fn gelu_grad(xs: &mut [f32]) {
    map_lanes(
        xs,
        |x| {
            let u = gelu_inner(x);
            (gelu_grad_from(x, tanh_lane(u)), !u.is_finite())
        },
        gelu_grad_scalar,
    );
}

/// `xs[i] = e^xs[i]`, bit-identical to [`expf`] per element.
pub(crate) fn exp(xs: &mut [f32]) {
    map_lanes(xs, |x| (exp_main(x), exp_special(x)), expf);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same value, or both NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Every `step`-th bit pattern (offset by 7), plus the values at and
    /// around every branch threshold of the three ports.
    fn probes(step: u32) -> Vec<f32> {
        let mut bits: Vec<u32> = (0..=u32::MAX / step)
            .map(|i| (i * step).wrapping_add(7))
            .collect();
        let thresholds: [u32; 16] = [
            0x0000_0000, // ±0
            0x0000_0001, // smallest subnormal
            0x007f_ffff, // largest subnormal
            0x2400_0000, // tanh: 2^-55
            0x3300_0000, // expm1: 2^-25
            0x3eb1_7218, // expm1: 0.5·ln2
            0x3f80_0000, // tanh: 1
            0x3f85_1592, // expm1: 1.5·ln2
            0x4195_b844, // expm1: 27·ln2
            0x41b0_0000, // tanh: 22
            0x42b0_0000, // exp: 88
            0x42b1_7180, // expm1: o_threshold
            0x42b1_7217, // exp: ln(2^128)
            0x42ce_8ecf, // exp: −ln(2^-149), as |x|
            0x42cf_f1b4, // exp: −ln(2^-150), as |x|
            0x7f80_0000, // inf
        ];
        for t in thresholds {
            for b in [t.wrapping_sub(1), t, t + 1] {
                bits.extend([b, b | 0x8000_0000]);
            }
        }
        // NaNs, quiet and signalling.
        bits.extend([0x7fc0_0000, 0xffc0_0000, 0x7f80_0001, 0x7fff_ffff]);
        // Where tanh's expm1 reduction switches k: 2|u| = (k + 1/2)·ln2.
        for k in -3i32..=64 {
            let u = (k as f32 + 0.5) * std::f32::consts::LN_2 / 2.0;
            for b in [u.to_bits() - 1, u.to_bits(), u.to_bits() + 1] {
                bits.extend([b, b | 0x8000_0000]);
            }
        }
        bits.into_iter().map(f32::from_bits).collect()
    }

    /// Run `kernel` over `xs` as one slice and as slices of every length up
    /// to three chunks, and check each element against `scalar`.
    fn check_kernel(name: &str, xs: &[f32], kernel: fn(&mut [f32]), scalar: fn(f32) -> f32) {
        let mut got = xs.to_vec();
        kernel(&mut got);
        for (&x, &y) in xs.iter().zip(&got) {
            let want = scalar(x);
            assert!(
                same(y, want),
                "{name}({x:e} = {:#010x}): lane {y:e} vs scalar {want:e}",
                x.to_bits()
            );
        }
        for len in 0..=3 * LANES {
            let mut part = xs[..len].to_vec();
            kernel(&mut part);
            for (y, g) in part.iter().zip(&got) {
                assert!(same(*y, *g), "{name}: slice length {len} disagrees");
            }
        }
    }

    #[test]
    fn lane_kernels_match_their_scalar_ports() {
        let xs = probes(4099);
        check_kernel("gelu", &xs, gelu, gelu_scalar);
        check_kernel("gelu_grad", &xs, gelu_grad, gelu_grad_scalar);
        check_kernel("exp", &xs, exp, expf);
        // GELU reaches tanh through its inner polynomial; also hand the
        // tanh lane itself every probe (non-finite ones stay scalar).
        for &x in xs.iter().filter(|x| x.is_finite()) {
            let (lane, want) = (tanh_lane(x), tanhf(x));
            assert!(
                same(lane, want),
                "tanh({x:e}): lane {lane:e} vs scalar {want:e}"
            );
        }
    }

    #[test]
    fn gelu_properties() {
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!(gelu_scalar(3.0) > 2.9); // ≈ identity for large positive
        assert!(gelu_scalar(-5.0).abs() < 1e-3); // ≈ 0 for large negative
        for &x in &[-2.0f32, -0.5, 0.0, 0.7, 2.5] {
            let eps = 1e-3;
            let numeric = (gelu_scalar(x + eps) - gelu_scalar(x - eps)) / (2.0 * eps);
            assert!((numeric - gelu_grad_scalar(x)).abs() < 1e-2, "x={x}");
        }
    }

    /// Compare each scalar port with the host libm on every `f32` bit
    /// pattern. Run in release:
    /// `cargo test --release -p ls-nn --lib vmath -- --ignored --nocapture`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; about a minute per function in release"]
    fn ports_match_libm_on_every_f32() {
        type Pair = (&'static str, fn(f32) -> f32, fn(f32) -> f32);
        let pairs: [Pair; 3] = [
            ("tanhf", tanhf, f32::tanh),
            ("expm1f", expm1f, f32::exp_m1),
            ("expf", expf, f32::exp),
        ];
        for (name, port, libm) in pairs {
            let t0 = std::time::Instant::now();
            let halves: Vec<(u64, Option<u32>)> = std::thread::scope(|s| {
                let handles: Vec<_> = [0u32, 0x8000_0000]
                    .into_iter()
                    .map(|base| {
                        s.spawn(move || {
                            let mut bad = 0u64;
                            let mut first = None;
                            for low in 0..=0x7fff_ffffu32 {
                                let x = f32::from_bits(base | low);
                                if !same(port(x), libm(x)) {
                                    bad += 1;
                                    first.get_or_insert(base | low);
                                }
                            }
                            (bad, first)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let bad: u64 = halves.iter().map(|h| h.0).sum();
            let first = halves.iter().find_map(|h| h.1);
            println!(
                "{name}: 2^32 inputs, {bad} mismatches, {:.1} s",
                t0.elapsed().as_secs_f64()
            );
            assert_eq!(bad, 0, "{name}: first mismatch at {first:#010x?}");
        }
    }
}
