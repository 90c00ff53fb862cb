//! The lane vocabulary every temporal steady state is written against.
//!
//! The paper's point is that the steady state needs a fixed, tiny set of
//! vector operations whatever the vector length, stencil order or
//! dimension: splat, multiply, fused multiply-add, the finished top lane,
//! one rotate-plus-blend ([`Lanes::shift_up_insert`]) and moving packs in
//! and out of memory; the integer kernels (Life, LCS) add lane-wise
//! add/max, a compare-and-select and a bit test. [`Lanes`] is exactly that set, so a
//! steady state is written **once** as a [`LaneFn`] and instantiated per
//! lane implementation:
//!
//! * [`Pack<T, N>`] — the portable model, at any element type and lane
//!   count;
//! * the AVX2 registers in [`crate::arch`] (`f64×4` in `__m256d`,
//!   `i32×8` in `__m256i`), reachable only through
//!   [`crate::arch::run_avx2`], which compiles the instantiation with
//!   `avx2,fma` enabled.
//!
//! Every implementation is lane-wise bit-identical to the [`Scalar`]
//! operations, so an instantiation never changes results — only the
//! instructions that produce them.

use crate::pack::{Pack, Scalar};

/// A vector of `Elem` lanes with the operations of the temporal steady
/// states. Lane `0` is the bottom lane, the last lane the top lane (see
/// [`crate::pack`]).
pub trait Lanes: Copy {
    /// The element type of one lane.
    type Elem: Scalar;
    /// The memory form the vector is loaded from and stored to (a
    /// 32-byte aligned [`Pack`]).
    type Mem: Copy;

    /// Every lane equal to `v`.
    fn splat(v: Self::Elem) -> Self;
    /// Load a vector from its memory form.
    fn load(m: Self::Mem) -> Self;
    /// Store the vector to its memory form.
    fn store(self) -> Self::Mem;
    /// The top lane (the finished value of a temporal output vector).
    fn top(self) -> Self::Elem;
    /// Shift every lane one step up, dropping the top lane, and insert
    /// `bottom` into lane 0: the paper's one rotate plus one blend.
    fn shift_up_insert(self, bottom: Self::Elem) -> Self;
    /// Lane-wise `self + rhs` (wrapping for integers).
    fn add(self, rhs: Self) -> Self;
    /// Lane-wise `self * rhs` (wrapping for integers).
    fn mul(self, rhs: Self) -> Self;
    /// Lane-wise `self * m + a`, fused for floats (see
    /// [`Scalar::mul_add_s`]).
    fn mul_add(self, m: Self, a: Self) -> Self;
    /// Lane-wise maximum (see [`Scalar::max_s`]).
    fn max(self, rhs: Self) -> Self;
    /// Lane `i` is `if_eq[i]` where `self[i] == rhs[i]`, else
    /// `otherwise[i]`.
    fn select_eq(self, rhs: Self, if_eq: Self, otherwise: Self) -> Self;
    /// Lane-wise bit test `(self >> index) & 1` (see [`Scalar::bit_s`]):
    /// the rule-table lookup of Life.
    fn bit(self, index: Self) -> Self;
    /// Strided byte gather: lane `i` is `src[base + i·stride]` widened to
    /// `Elem` (the paper's `vloadset` of the LCS characters).
    ///
    /// # Panics
    /// Panics if any gathered index is out of bounds.
    fn gather_bytes(src: &[u8], base: usize, stride: isize) -> Self;
}

/// A computation written once over any lane implementation of
/// `Pack<T, N>` — in practice one steady-state loop. [`LaneFn::call`]
/// is generic over the implementation, so the same source is
/// instantiated for the portable packs and for the AVX2 registers.
pub trait LaneFn<T: Scalar, const N: usize> {
    /// What the computation returns.
    type Output;
    /// Run the computation with lane implementation `L`.
    fn call<L: Lanes<Elem = T, Mem = Pack<T, N>>>(self) -> Self::Output;
}

impl<T: Scalar, const N: usize> Lanes for Pack<T, N> {
    type Elem = T;
    type Mem = Self;

    #[inline(always)]
    fn splat(v: T) -> Self {
        Pack::splat(v)
    }
    #[inline(always)]
    fn load(m: Self) -> Self {
        m
    }
    #[inline(always)]
    fn store(self) -> Self {
        self
    }
    #[inline(always)]
    fn top(self) -> T {
        Pack::top(self)
    }
    #[inline(always)]
    fn shift_up_insert(self, bottom: T) -> Self {
        Pack::shift_up_insert(self, bottom)
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline(always)]
    fn mul_add(self, m: Self, a: Self) -> Self {
        Pack::mul_add(self, m, a)
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Pack::max(self, rhs)
    }
    #[inline(always)]
    fn select_eq(self, rhs: Self, if_eq: Self, otherwise: Self) -> Self {
        // One lane-parallel expression (no `[bool; N]` mask array), which
        // LLVM lowers to compare/blend vector code.
        Pack::from_fn(|i| T::select_s(self.0[i] == rhs.0[i], if_eq.0[i], otherwise.0[i]))
    }
    #[inline(always)]
    fn bit(self, index: Self) -> Self {
        Pack::from_fn(|i| self.0[i].bit_s(index.0[i]))
    }
    #[inline(always)]
    fn gather_bytes(src: &[u8], base: usize, stride: isize) -> Self {
        Pack::from_fn(|i| {
            let idx = base as isize + i as isize * stride;
            T::from_index(usize::from(src[idx as usize]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{F64x4, I32x8};

    /// A short steady-state-like chain, written once over `Lanes`.
    struct Chain(f64);

    impl LaneFn<f64, 4> for Chain {
        type Output = F64x4;
        fn call<L: Lanes<Elem = f64, Mem = F64x4>>(self) -> F64x4 {
            let v = L::load(F64x4::from_fn(|i| i as f64));
            let o = v.mul_add(L::splat(self.0), v.mul(L::splat(0.5)));
            o.shift_up_insert(o.top()).store()
        }
    }

    #[test]
    fn pack_lanes_match_inherent_ops() {
        let got = Chain(3.0).call::<F64x4>();
        let v = F64x4::from_fn(|i| i as f64);
        let o = v.mul_add(F64x4::splat(3.0), v * F64x4::splat(0.5));
        assert_eq!(got, o.shift_up_insert(o.top()));

        let a = I32x8::from_fn(|i| i as i32 % 3);
        let b = I32x8::from_fn(|i| i as i32 % 2);
        let t = I32x8::splat(7);
        let f = I32x8::from_fn(|i| -(i as i32));
        assert_eq!(
            Lanes::select_eq(a, b, t, f),
            Pack::select(a.eq_mask(b), t, f)
        );
        let bytes = [5u8, 6, 7, 8, 9, 10, 11, 12, 13];
        let g = <I32x8 as Lanes>::gather_bytes(&bytes, 8, -1);
        assert_eq!(g, I32x8::from_fn(|i| 13 - i as i32));
    }
}
