//! Arbitrary-precision unsigned integers for exact model counting.
//!
//! Counting satisfying assignments of a lineage with `n` facts can reach
//! `2^n`, which overflows machine integers for the lineage sizes DBShap
//! contains (up to 200+ facts). This module provides the minimal big-natural
//! arithmetic the Shapley pipeline needs: addition, subtraction,
//! multiplication, comparison, and lossy conversion to `f64` / natural log.
//!
//! Numbers are little-endian vectors of `u64` limbs with no leading zero limb.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BigNat {
    /// Little-endian limbs; empty means zero; no trailing zero limb otherwise.
    limbs: Vec<u64>,
}

impl BigNat {
    /// Zero.
    pub fn zero() -> Self {
        BigNat { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigNat { limbs: vec![1] }
    }

    /// From a machine integer.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigNat { limbs: vec![v] }
        }
    }

    /// From a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigNat {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }

    /// `2^k`.
    pub fn pow2(k: usize) -> Self {
        let mut limbs = vec![0u64; k / 64 + 1];
        limbs[k / 64] = 1u64 << (k % 64);
        let mut n = BigNat { limbs };
        n.normalize();
        n
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// The little-endian limbs (empty for zero, no trailing zero limb) —
    /// the canonical wire representation for bit-exact serialization.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Rebuild from little-endian limbs (trailing zeros tolerated).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = BigNat { limbs };
        n.normalize();
        n
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    #[allow(clippy::needless_range_loop)]
    pub fn add(&self, other: &BigNat) -> BigNat {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let a = long[i];
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigNat { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`.
    ///
    /// # Panics
    /// Panics if `other > self`; the counting pipeline only subtracts counts
    /// that are provably smaller (monotonicity), so underflow is a bug.
    pub fn sub(&self, other: &BigNat) -> BigNat {
        self.checked_sub(other)
            .unwrap_or_else(|| panic!("BigNat underflow: {self} - {other}"))
    }

    /// `self - other`, or `None` if `other > self`.
    pub fn checked_sub(&self, other: &BigNat) -> Option<BigNat> {
        if self.cmp(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigNat { limbs: out };
        n.normalize();
        Some(n)
    }

    /// `self * other` (schoolbook; operand sizes here are tiny).
    pub fn mul(&self, other: &BigNat) -> BigNat {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigNat { limbs: out };
        n.normalize();
        n
    }

    /// Total-order comparison.
    #[allow(clippy::should_implement_trait)]
    pub fn cmp(&self, other: &BigNat) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Lossy conversion to `f64` (may be `inf` beyond ~2^1024).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            acc = acc * 1.8446744073709552e19 + limb as f64;
        }
        acc
    }

    /// Natural log; `-inf` for zero. Exact to ~1 ulp even for huge values
    /// (uses the top two limbs plus a power-of-two exponent).
    pub fn ln(&self) -> f64 {
        if self.is_zero() {
            return f64::NEG_INFINITY;
        }
        let top = self.limbs.len() - 1;
        let hi = self.limbs[top] as f64;
        let lo = if top > 0 {
            self.limbs[top - 1] as f64
        } else {
            0.0
        };
        let mantissa = hi + lo / 1.8446744073709552e19;
        mantissa.ln() + (top as f64) * 64.0 * std::f64::consts::LN_2
    }

    /// Convert to `u128`, if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }
}

impl fmt::Display for BigNat {
    /// Decimal rendering (repeated division by 10^19; fine for test-sized
    /// values and diagnostics).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut limbs = self.limbs.clone();
        let mut chunks: Vec<u64> = Vec::new();
        const CHUNK: u64 = 10_000_000_000_000_000_000; // 10^19
        while !limbs.is_empty() {
            let mut rem: u128 = 0;
            for limb in limbs.iter_mut().rev() {
                let cur = (rem << 64) | *limb as u128;
                *limb = (cur / CHUNK as u128) as u64;
                rem = cur % CHUNK as u128;
            }
            while limbs.last() == Some(&0) {
                limbs.pop();
            }
            chunks.push(rem as u64);
        }
        write!(f, "{}", chunks.last().unwrap())?;
        for c in chunks.iter().rev().skip(1) {
            write!(f, "{c:019}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        let a = BigNat::from_u64(123);
        let b = BigNat::from_u64(456);
        assert_eq!(a.add(&b), BigNat::from_u64(579));
        assert_eq!(b.sub(&a), BigNat::from_u64(333));
        assert_eq!(a.mul(&b), BigNat::from_u64(123 * 456));
        assert_eq!(a.mul(&BigNat::from_u64(2)), BigNat::from_u64(246));
    }

    #[test]
    fn zero_identities() {
        let z = BigNat::zero();
        let a = BigNat::from_u64(7);
        assert!(z.is_zero());
        assert_eq!(z.add(&a), a);
        assert_eq!(a.sub(&a), z);
        assert_eq!(z.mul(&a), z);
        assert_eq!(BigNat::from_u64(0), z);
    }

    #[test]
    fn carry_propagation() {
        let max = BigNat::from_u64(u64::MAX);
        let two = max.add(&BigNat::one());
        assert_eq!(two.to_u128(), Some(1u128 << 64));
        let sq = max.mul(&max);
        assert_eq!(sq.to_u128(), Some((u64::MAX as u128) * (u64::MAX as u128)));
        assert_eq!(sq.add(&BigNat::one()).sub(&BigNat::one()), sq);
    }

    #[test]
    fn from_u128_roundtrip() {
        for v in [
            0u128,
            1,
            u64::MAX as u128,
            (u64::MAX as u128) + 5,
            u128::MAX,
        ] {
            assert_eq!(BigNat::from_u128(v).to_u128(), Some(v));
        }
    }

    #[test]
    fn pow2_values() {
        assert_eq!(BigNat::pow2(0), BigNat::one());
        assert_eq!(BigNat::pow2(10), BigNat::from_u64(1024));
        assert_eq!(BigNat::pow2(64).to_u128(), Some(1u128 << 64));
        assert_eq!(BigNat::pow2(127).to_u128(), Some(1u128 << 127));
        assert_eq!(BigNat::pow2(200).to_u128(), None);
    }

    #[test]
    fn comparison() {
        let a = BigNat::pow2(100);
        let b = BigNat::pow2(99);
        assert_eq!(a.cmp(&b), Ordering::Greater);
        assert_eq!(b.cmp(&a), Ordering::Less);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        BigNat::from_u64(1).sub(&BigNat::from_u64(2));
    }

    #[test]
    fn checked_subtraction_refuses_underflow() {
        assert_eq!(BigNat::from_u64(1).checked_sub(&BigNat::from_u64(2)), None);
        assert_eq!(
            BigNat::pow2(70).checked_sub(&BigNat::one()),
            Some(BigNat::from_u128((1u128 << 70) - 1))
        );
    }

    #[test]
    fn f64_conversion() {
        assert_eq!(BigNat::from_u64(1000).to_f64(), 1000.0);
        let big = BigNat::pow2(100);
        let rel = (big.to_f64() - 2f64.powi(100)).abs() / 2f64.powi(100);
        assert!(rel < 1e-12);
    }

    #[test]
    fn ln_accuracy() {
        assert_eq!(BigNat::zero().ln(), f64::NEG_INFINITY);
        assert!((BigNat::one().ln() - 0.0).abs() < 1e-12);
        let big = BigNat::pow2(500);
        let expected = 500.0 * std::f64::consts::LN_2;
        assert!((big.ln() - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn decimal_display() {
        assert_eq!(BigNat::zero().to_string(), "0");
        assert_eq!(BigNat::from_u64(12345).to_string(), "12345");
        // 2^64 = 18446744073709551616
        assert_eq!(BigNat::pow2(64).to_string(), "18446744073709551616");
        // 2^128 = 340282366920938463463374607431768211456
        assert_eq!(
            BigNat::pow2(128).to_string(),
            "340282366920938463463374607431768211456"
        );
    }

    #[test]
    fn factorial_like_products() {
        // 25! computed limb-wise matches the known value.
        let mut f = BigNat::one();
        for i in 1..=25u64 {
            f = f.mul(&BigNat::from_u64(i));
        }
        assert_eq!(f.to_string(), "15511210043330985984000000");
    }
}
