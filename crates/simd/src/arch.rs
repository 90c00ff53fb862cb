//! Hand-rolled `std::arch` implementations of the hot pack operations.
//!
//! The portable [`crate::pack::Pack`] model compiles to good vector code
//! under `-C target-cpu=native`, but the paper's cost analysis (§3.3) is
//! stated in terms of *specific* AVX instructions — `vpermpd` for the
//! lane-crossing rotate, `vblendpd` for the bottom-element blend,
//! `vunpcklpd`/`vperm2f128` for the 4×4 transpose. This module pins those
//! choices down explicitly for x86-64 so that the measured kernels execute
//! the instruction mix the paper reasons about, and so the repository
//! demonstrates the `std::arch` path end to end.
//!
//! The register twins of `Pack<f64, 4>` and `Pack<i32, 8>` implement
//! [`Lanes`](crate::Lanes), so every temporal steady state — written once as a
//! [`LaneFn`] — is instantiated on them by [`run_avx2`]. They are private:
//! a value of either can only be created inside a [`run_avx2`] call,
//! behind the capability probe its contract requires.
//!
//! Everything here is equivalence-tested against the portable model (see
//! the tests at the bottom; they run on any x86-64 host with AVX2+FMA and
//! are skipped elsewhere).

use crate::lane::LaneFn;
use crate::pack::Scalar;
use core::any::TypeId;

/// Returns true when the running CPU supports the AVX2+FMA fast paths.
///
/// On non-x86-64 targets this is always `false` and the portable pack
/// implementation is used everywhere.
pub fn avx2_available() -> bool {
    // Miri interprets portable Rust only — it cannot execute the
    // `std::arch` intrinsics. Reporting "no AVX2" here routes every
    // engine::Select dispatch in the workspace onto the portable packs,
    // which is exactly the path `cargo miri test` is meant to check.
    #[cfg(any(miri, not(target_arch = "x86_64")))]
    {
        false
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
}

/// True when `Pack<T, N>` has an AVX2 register twin — `f64×4` in a
/// `__m256d` or `i32×8` in a `__m256i` — and the running CPU supports
/// AVX2+FMA ([`avx2_available`]). This is the capability
/// [`run_avx2`] requires.
pub fn avx2_lanes<T: Scalar, const N: usize>() -> bool {
    has_avx2_twin::<T, N>() && avx2_available()
}

fn has_avx2_twin<T: Scalar, const N: usize>() -> bool {
    (is::<T, f64>() && N == 4) || (is::<T, i32>() && N == 8)
}

/// True when `A` and `B` are the same type.
fn is<A: 'static, B: 'static>() -> bool {
    TypeId::of::<A>() == TypeId::of::<B>()
}

/// Run `f` with the AVX2 register twin of `Pack<T, N>` as its lane
/// implementation, compiled with `avx2,fma` enabled: the one
/// `#[target_feature]` boundary every AVX2 steady state crosses. The
/// instantiation is the same source as the portable `f.call::<Pack<T, N>>()`.
///
/// # Safety
/// [`avx2_lanes::<T, N>()`](avx2_lanes) must be true; it includes the
/// [`avx2_available`] probe.
///
/// # Panics
/// Panics if `Pack<T, N>` has no AVX2 twin.
pub unsafe fn run_avx2<T: Scalar, const N: usize, F: LaneFn<T, N>>(f: F) -> F::Output {
    assert!(
        has_avx2_twin::<T, N>(),
        "no AVX2 register holds {N} lanes of this element type"
    );
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the caller guarantees `avx2_lanes::<T, N>()`, which
        // includes the AVX2+FMA probe `avx2::run` requires.
        unsafe { avx2::run(f) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = f;
        unreachable!("avx2_lanes() is false off x86-64")
    }
}

/// AVX2 `__m256d` kernels (x86-64 only).
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::is;
    use crate::lane::{LaneFn, Lanes};
    use crate::pack::{F64x4, Pack, Scalar};
    use core::arch::x86_64::*;
    use core::marker::PhantomData;

    // Re-exported so downstream engines can name the register types
    // without importing `core::arch` themselves (`cargo xtask audit`
    // bans raw `core::arch` use outside this module).
    pub use core::arch::x86_64::{__m256d, __m256i};

    /// Bit-cast a portable pack to `__m256d`.
    ///
    /// `F64x4` is `#[repr(C, align(32))]` over `[f64; 4]`, so an aligned
    /// vector load from its address is always valid.
    #[inline(always)]
    pub fn from_pack(p: F64x4) -> __m256d {
        // SAFETY: F64x4 is 32 bytes, 32-byte aligned, and lane i is at
        // offset 8*i, exactly the __m256d memory layout.
        unsafe { _mm256_load_pd(p.0.as_ptr()) }
    }

    /// Bit-cast an `__m256d` back to a portable pack.
    #[inline(always)]
    pub fn to_pack(v: __m256d) -> F64x4 {
        let mut out = F64x4::splat(0.0);
        // SAFETY: same layout argument as `from_pack`.
        unsafe { _mm256_store_pd(out.0.as_mut_ptr(), v) };
        out
    }

    /// Unaligned vector load of 4 doubles starting at `src[at]`.
    ///
    /// # Safety
    /// `at + 4 <= src.len()` must hold (checked by `debug_assert!`).
    #[inline(always)]
    pub unsafe fn loadu(src: &[f64], at: usize) -> __m256d {
        debug_assert!(at + 4 <= src.len());
        // SAFETY: caller guarantees `at + 4 <= src.len()`, so the pointer
        // offset stays inside the slice allocation and the 32-byte
        // unaligned read covers in-bounds, initialized f64 lanes only.
        unsafe { _mm256_loadu_pd(src.as_ptr().add(at)) }
    }

    /// Unaligned vector store of 4 doubles into `dst[at..at+4]`.
    ///
    /// # Safety
    /// `at + 4 <= dst.len()` must hold (checked by `debug_assert!`).
    #[inline(always)]
    pub unsafe fn storeu(v: __m256d, dst: &mut [f64], at: usize) {
        debug_assert!(at + 4 <= dst.len());
        // SAFETY: caller guarantees `at + 4 <= dst.len()`, so the pointer
        // offset stays inside the exclusive borrow and the 32-byte
        // unaligned write lands on in-bounds f64 lanes only.
        unsafe { _mm256_storeu_pd(dst.as_mut_ptr().add(at), v) }
    }

    /// Broadcast a scalar to all four lanes.
    #[inline(always)]
    pub fn splat(v: f64) -> __m256d {
        // SAFETY: no memory access; plain register broadcast.
        unsafe { _mm256_set1_pd(v) }
    }

    /// Fused multiply-add `a*b + c` (`vfmadd`).
    ///
    /// # Safety
    /// Requires AVX2+FMA (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn fmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
        _mm256_fmadd_pd(a, b, c)
    }

    /// Lane-wise multiply `a*b` (`vmulpd`) — the unfused tail of every
    /// kernel's `mul_add` chain.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn mul(a: __m256d, b: __m256d) -> __m256d {
        _mm256_mul_pd(a, b)
    }

    /// The paper's `vrotate` (Algorithm 3 line 13): lane `j` of the result
    /// is lane `(j+3) % 4` of the input — a single lane-crossing `vpermpd`.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn rotate_up(v: __m256d) -> __m256d {
        // Output lane selectors (2 bits each, lane 0 in the low bits):
        // out0 <- in3, out1 <- in0, out2 <- in1, out3 <- in2.
        _mm256_permute4x64_pd::<0b10_01_00_11>(v)
    }

    /// The paper's `vblend` (Algorithm 3 line 14): replace lane 0 with the
    /// new bottom element — an in-lane `vblendpd` against a broadcast.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn blend_bottom(v: __m256d, bottom: f64) -> __m256d {
        _mm256_blend_pd::<0b0001>(v, _mm256_set1_pd(bottom))
    }

    /// Steady-state input-vector production (`rotate_up` then
    /// `blend_bottom` fused): shift lanes up one step, dropping the top
    /// lane, and insert `bottom` into lane 0.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn shift_up_insert(v: __m256d, bottom: f64) -> __m256d {
        // SAFETY: both callees require exactly AVX2, which this fn's own
        // `#[target_feature]` contract already obliges the caller to prove.
        unsafe { blend_bottom(rotate_up(v), bottom) }
    }

    /// Extract the top lane (lane 3).
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn extract_top(v: __m256d) -> f64 {
        let hi = _mm256_extractf128_pd::<1>(v);
        _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi))
    }

    /// Strided gather of 4 doubles: lane `i` reads
    /// `src[(base + i*stride) as usize]` (the paper's `vloadset`).
    ///
    /// # Safety
    /// All four indices must be in bounds (checked by `debug_assert!`).
    #[inline(always)]
    pub unsafe fn gather(src: &[f64], base: usize, stride: isize) -> __m256d {
        let i = |k: isize| -> f64 {
            let idx = base as isize + k * stride;
            debug_assert!(idx >= 0 && (idx as usize) < src.len());
            // SAFETY: caller guarantees all four gathered indices
            // `base + k*stride` (k = 0..4) are in bounds for `src`.
            unsafe { *src.get_unchecked(idx as usize) }
        };
        // SAFETY: `_mm256_set_pd` touches no memory; it is only gated on
        // AVX, which this fn's caller-proved feature set implies.
        unsafe { _mm256_set_pd(i(3), i(2), i(1), i(0)) }
    }

    /// In-register 4×4 transpose using `vunpcklpd`/`vunpckhpd` plus two
    /// lane-crossing `vperm2f128` — the instruction sequence used for the
    /// temporal scheme's initial input-vector loading (§3.3) and the DLT
    /// baseline's block transpose.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn transpose4(
        r0: &mut __m256d,
        r1: &mut __m256d,
        r2: &mut __m256d,
        r3: &mut __m256d,
    ) {
        let t0 = _mm256_unpacklo_pd(*r0, *r1); // a0 b0 a2 b2
        let t1 = _mm256_unpackhi_pd(*r0, *r1); // a1 b1 a3 b3
        let t2 = _mm256_unpacklo_pd(*r2, *r3); // c0 d0 c2 d2
        let t3 = _mm256_unpackhi_pd(*r2, *r3); // c1 d1 c3 d3
        *r0 = _mm256_permute2f128_pd::<0x20>(t0, t2); // a0 b0 c0 d0
        *r1 = _mm256_permute2f128_pd::<0x20>(t1, t3); // a1 b1 c1 d1
        *r2 = _mm256_permute2f128_pd::<0x31>(t0, t2); // a2 b2 c2 d2
        *r3 = _mm256_permute2f128_pd::<0x31>(t1, t3); // a3 b3 c3 d3
    }

    // -----------------------------------------------------------------
    // epi32 vocabulary (`__m256i`, 8 × i32 lanes) — the integer steady
    // states (Life, LCS) run the same rotate-and-blend schedule as the
    // f64 kernels, at the paper's `vl = 8` integer width.
    // -----------------------------------------------------------------

    use crate::pack::I32x8;

    /// Bit-cast a portable 8-lane i32 pack to `__m256i`.
    ///
    /// `I32x8` is `#[repr(C, align(32))]` over `[i32; 8]`, so an aligned
    /// vector load from its address is always valid.
    #[inline(always)]
    pub fn from_pack_i32(p: I32x8) -> __m256i {
        // SAFETY: I32x8 is 32 bytes, 32-byte aligned, lane i at offset
        // 4*i — exactly the __m256i memory layout.
        unsafe { _mm256_load_si256(p.0.as_ptr() as *const __m256i) }
    }

    /// Bit-cast an `__m256i` back to a portable 8-lane i32 pack.
    #[inline(always)]
    pub fn to_pack_i32(v: __m256i) -> I32x8 {
        let mut out = I32x8::splat(0);
        // SAFETY: same layout argument as `from_pack_i32`.
        unsafe { _mm256_store_si256(out.0.as_mut_ptr() as *mut __m256i, v) };
        out
    }

    /// Broadcast a scalar to all eight lanes.
    #[inline(always)]
    pub fn splat_i32(v: i32) -> __m256i {
        // SAFETY: no memory access; plain register broadcast.
        unsafe { _mm256_set1_epi32(v) }
    }

    /// Lane-wise wrapping add (`vpaddd`) — the Life neighbour-sum tree.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn add_i32(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi32(a, b)
    }

    /// Lane-wise wrapping multiply (`vpmulld`) — the Life rule-mask
    /// select `birth + cur·(survive - birth)`.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn mullo_i32(a: __m256i, b: __m256i) -> __m256i {
        _mm256_mullo_epi32(a, b)
    }

    /// Lane-wise signed maximum (`vpmaxsd`) — the LCS `max(up, left)`.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn max_i32(a: __m256i, b: __m256i) -> __m256i {
        _mm256_max_epi32(a, b)
    }

    /// Lane-wise equality (`vpcmpeqd`): all-ones lanes where `a == b`,
    /// zero lanes elsewhere — the LCS character-equality mask.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn cmpeq_i32(a: __m256i, b: __m256i) -> __m256i {
        _mm256_cmpeq_epi32(a, b)
    }

    /// Mask select (`vpblendvb`): lane `i` of the result is `a[i]` where
    /// the mask lane is all-ones and `b[i]` where it is zero. With masks
    /// from [`cmpeq_i32`] every mask byte within a lane agrees, so the
    /// byte-granular blend is exact — the paper's "blend instruction with
    /// a mask vector of equalities".
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn blendv_i32(b: __m256i, a: __m256i, mask: __m256i) -> __m256i {
        _mm256_blendv_epi8(b, a, mask)
    }

    /// Lane-wise arithmetic right shift by per-lane counts (`vpsravd`) —
    /// the Life rule-table bit test `(mask >> sum) & 1`.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn srav_i32(v: __m256i, counts: __m256i) -> __m256i {
        _mm256_srav_epi32(v, counts)
    }

    /// Lane-wise bitwise AND (`vpand`).
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn and_i32(a: __m256i, b: __m256i) -> __m256i {
        _mm256_and_si256(a, b)
    }

    /// The paper's `vrotate` at 8 integer lanes: lane `j` of the result
    /// is lane `(j+7) % 8` of the input — a single lane-crossing
    /// `vpermd`.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn rotate_up_i32(v: __m256i) -> __m256i {
        // Per-output-lane source indices, lane 0 first.
        let idx = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
        _mm256_permutevar8x32_epi32(v, idx)
    }

    /// The paper's `vblend` at 8 integer lanes: replace lane 0 with the
    /// new bottom element — an in-lane `vpblendd` against a broadcast.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn blend_bottom_i32(v: __m256i, bottom: i32) -> __m256i {
        _mm256_blend_epi32::<0b0000_0001>(v, _mm256_set1_epi32(bottom))
    }

    /// Steady-state input-vector production ([`rotate_up_i32`] then
    /// [`blend_bottom_i32`] fused): shift lanes up one step, dropping the
    /// top lane, and insert `bottom` into lane 0.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn shift_up_insert_i32(v: __m256i, bottom: i32) -> __m256i {
        // SAFETY: both callees require exactly AVX2, which this fn's own
        // `#[target_feature]` contract already obliges the caller to prove.
        unsafe { blend_bottom_i32(rotate_up_i32(v), bottom) }
    }

    /// Extract the top lane (lane 7).
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn extract_top_i32(v: __m256i) -> i32 {
        _mm256_extract_epi32::<7>(v)
    }

    /// Strided gather of 8 bytes widened to `i32` lanes: lane `i` reads
    /// `src[(base + i*stride) as usize] as i32` — the paper's `vloadset`
    /// at the integer width, used by the LCS steady state's per-iteration
    /// load of the `B`-sequence characters (the "variable coefficient"
    /// of §3.4).
    ///
    /// # Safety
    /// All eight indices must be in bounds (checked by `debug_assert!`).
    #[inline(always)]
    pub unsafe fn gather_u8_i32(src: &[u8], base: usize, stride: isize) -> __m256i {
        let i = |k: isize| -> i32 {
            let idx = base as isize + k * stride;
            debug_assert!(idx >= 0 && (idx as usize) < src.len());
            // SAFETY: caller guarantees all eight gathered indices
            // `base + k*stride` (k = 0..8) are in bounds for `src`.
            unsafe { *src.get_unchecked(idx as usize) as i32 }
        };
        // SAFETY: `_mm256_setr_epi32` touches no memory; it is only gated
        // on AVX, which this fn's caller-proved feature set implies.
        unsafe { _mm256_setr_epi32(i(0), i(1), i(2), i(3), i(4), i(5), i(6), i(7)) }
    }

    // -----------------------------------------------------------------
    // The register twins as a `Lanes` implementation
    // -----------------------------------------------------------------

    /// Instantiate `f` on the register twin of `Pack<T, N>` with
    /// `avx2,fma` enabled, so every vocabulary call of the steady state
    /// inlines to a single instruction.
    ///
    /// # Safety
    /// `Pack<T, N>` must be `f64×4` or `i32×8`, and the CPU must support
    /// AVX2+FMA (`super::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn run<T: Scalar, const N: usize, F: LaneFn<T, N>>(f: F) -> F::Output {
        f.call::<Reg<T, N>>()
    }

    /// The 256 bits of a `Pack<T, N>` in one AVX2 register. Private: a
    /// value can only be created inside [`run`], whose contract
    /// guarantees both AVX2+FMA and that `Pack<T, N>` is `f64×4` or
    /// `i32×8`, so every method below may execute AVX2/FMA instructions.
    #[derive(Clone, Copy)]
    struct Reg<T, const N: usize>(__m256i, PhantomData<T>);

    /// Reinterpret a value as the same type under another name.
    #[inline(always)]
    fn same<A: 'static + Copy, B: 'static + Copy>(a: A) -> B {
        assert!(is::<A, B>(), "element type mismatch");
        // SAFETY: `A` and `B` are the same type (checked above).
        unsafe { core::mem::transmute_copy(&a) }
    }

    impl<T: Scalar, const N: usize> Reg<T, N> {
        #[inline(always)]
        fn f64(self) -> bool {
            is::<T, f64>()
        }
        #[inline(always)]
        fn pd(self) -> __m256d {
            // SAFETY: a `Reg` exists only once `run` was entered (AVX2 available);
            // the cast is a register reinterpretation.
            unsafe { _mm256_castsi256_pd(self.0) }
        }
        #[inline(always)]
        fn from_pd(v: __m256d) -> Self {
            // SAFETY: as in `pd`.
            Reg(unsafe { _mm256_castpd_si256(v) }, PhantomData)
        }
        #[inline(always)]
        fn from_si(v: __m256i) -> Self {
            Reg(v, PhantomData)
        }
    }

    impl<T: Scalar, const N: usize> Lanes for Reg<T, N> {
        type Elem = T;
        type Mem = Pack<T, N>;

        #[inline(always)]
        fn splat(v: T) -> Self {
            if is::<T, f64>() {
                Self::from_pd(splat(same(v)))
            } else {
                Self::from_si(splat_i32(same(v)))
            }
        }
        #[inline(always)]
        fn load(m: Pack<T, N>) -> Self {
            assert_eq!(core::mem::size_of::<Pack<T, N>>(), 32);
            // SAFETY: `Pack` is 32-byte aligned and (asserted) 32 bytes
            // long, so the aligned 256-bit load reads exactly `m`; AVX2
            // is available once `run` was entered.
            Self::from_si(unsafe { _mm256_load_si256(&m as *const Pack<T, N> as *const __m256i) })
        }
        #[inline(always)]
        fn store(self) -> Pack<T, N> {
            assert_eq!(core::mem::size_of::<Pack<T, N>>(), 32);
            let mut out = Pack::splat(T::ZERO);
            // SAFETY: as in `load`, for the aligned 256-bit store.
            unsafe { _mm256_store_si256(&mut out as *mut Pack<T, N> as *mut __m256i, self.0) };
            out
        }
        #[inline(always)]
        fn top(self) -> T {
            // SAFETY: a `Reg` exists only once `run` was entered (AVX2 available).
            unsafe {
                if self.f64() {
                    same(extract_top(self.pd()))
                } else {
                    same(extract_top_i32(self.0))
                }
            }
        }
        #[inline(always)]
        fn shift_up_insert(self, bottom: T) -> Self {
            // SAFETY: a `Reg` exists only once `run` was entered (AVX2 available).
            unsafe {
                if self.f64() {
                    Self::from_pd(shift_up_insert(self.pd(), same(bottom)))
                } else {
                    Self::from_si(shift_up_insert_i32(self.0, same(bottom)))
                }
            }
        }
        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            // SAFETY: a `Reg` exists only once `run` was entered (AVX2 available).
            unsafe {
                if self.f64() {
                    Self::from_pd(_mm256_add_pd(self.pd(), rhs.pd()))
                } else {
                    Self::from_si(add_i32(self.0, rhs.0))
                }
            }
        }
        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            // SAFETY: a `Reg` exists only once `run` was entered (AVX2 available).
            unsafe {
                if self.f64() {
                    Self::from_pd(mul(self.pd(), rhs.pd()))
                } else {
                    Self::from_si(mullo_i32(self.0, rhs.0))
                }
            }
        }
        #[inline(always)]
        fn mul_add(self, m: Self, a: Self) -> Self {
            // SAFETY: a `Reg` exists only once `run` was entered (AVX2+FMA available).
            unsafe {
                if self.f64() {
                    Self::from_pd(fmadd(self.pd(), m.pd(), a.pd()))
                } else {
                    Self::from_si(add_i32(mullo_i32(self.0, m.0), a.0))
                }
            }
        }
        #[inline(always)]
        fn max(self, rhs: Self) -> Self {
            if self.f64() {
                Self::load(Lanes::max(self.store(), rhs.store()))
            } else {
                // SAFETY: a `Reg` exists only once `run` was entered (AVX2 available).
                Self::from_si(unsafe { max_i32(self.0, rhs.0) })
            }
        }
        #[inline(always)]
        fn select_eq(self, rhs: Self, if_eq: Self, otherwise: Self) -> Self {
            if self.f64() {
                let (a, b, t, f) = (self.store(), rhs.store(), if_eq.store(), otherwise.store());
                Self::load(a.select_eq(b, t, f))
            } else {
                // SAFETY: AVX2 is available once `run` was entered; `cmpeq_i32`
                // masks are whole-lane, as `blendv_i32` requires.
                Self::from_si(unsafe { blendv_i32(otherwise.0, if_eq.0, cmpeq_i32(self.0, rhs.0)) })
            }
        }
        #[inline(always)]
        fn bit(self, index: Self) -> Self {
            if self.f64() {
                Self::load(Lanes::bit(self.store(), index.store()))
            } else {
                // SAFETY: a `Reg` exists only once `run` was entered (AVX2 available).
                Self::from_si(unsafe { and_i32(srav_i32(self.0, index.0), splat_i32(1)) })
            }
        }
        #[inline(always)]
        fn gather_bytes(src: &[u8], base: usize, stride: isize) -> Self {
            if is::<T, f64>() {
                return Self::load(Pack::gather_bytes(src, base, stride));
            }
            // The indices are affine in the lane, so the two end lanes
            // bound them all.
            let last = base as isize + (N as isize - 1) * stride;
            assert!(
                base < src.len() && last >= 0 && (last as usize) < src.len(),
                "byte gather out of bounds"
            );
            // SAFETY: every index lies between `base` and `last`, both
            // checked in bounds above; AVX2 is available once `run` was entered.
            Self::from_si(unsafe { gather_u8_i32(src, base, stride) })
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
// Justification: every test early-returns unless `avx2_available()`, and
// each unsafe op is a vocabulary call whose only precondition is that
// probe — a per-block SAFETY comment would repeat the same sentence
// dozens of times without adding information.
#[allow(clippy::undocumented_unsafe_blocks)]
mod tests {
    use super::avx2::*;
    use super::{avx2_available, run_avx2};
    use crate::lane::{LaneFn, Lanes};
    use crate::pack::{transpose, F64x4, I32x8, Pack, Scalar};

    fn p(a: f64, b: f64, c: f64, d: f64) -> F64x4 {
        Pack([a, b, c, d])
    }

    #[test]
    fn pack_roundtrip() {
        if !avx2_available() {
            return;
        }
        let x = p(1.0, 2.0, 3.0, 4.0);
        assert_eq!(to_pack(from_pack(x)), x);
    }

    #[test]
    fn rotate_matches_portable() {
        if !avx2_available() {
            return;
        }
        let x = p(1.0, 2.0, 3.0, 4.0);
        let r = unsafe { rotate_up(from_pack(x)) };
        assert_eq!(to_pack(r), x.rotate_up());
    }

    #[test]
    fn blend_and_shift_match_portable() {
        if !avx2_available() {
            return;
        }
        let x = p(1.0, 2.0, 3.0, 4.0);
        let b = unsafe { blend_bottom(from_pack(x), 9.0) };
        assert_eq!(to_pack(b), x.replace(0, 9.0));
        let s = unsafe { shift_up_insert(from_pack(x), 9.0) };
        assert_eq!(to_pack(s), x.shift_up_insert(9.0));
    }

    #[test]
    fn fmadd_matches_portable_mul_add() {
        if !avx2_available() {
            return;
        }
        let a = p(1.5, -2.0, 3.25, 0.125);
        let b = p(2.0, 4.0, -1.0, 8.0);
        let c = p(0.1, 0.2, 0.3, 0.4);
        let r = unsafe { fmadd(from_pack(a), from_pack(b), from_pack(c)) };
        assert_eq!(to_pack(r), a.mul_add(b, c));
    }

    #[test]
    fn extract_top_is_lane3() {
        if !avx2_available() {
            return;
        }
        let x = p(1.0, 2.0, 3.0, 42.0);
        assert_eq!(unsafe { extract_top(from_pack(x)) }, 42.0);
    }

    #[test]
    fn gather_matches_portable() {
        if !avx2_available() {
            return;
        }
        let src: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
        for &(base, stride) in &[(0usize, 7isize), (21, -7), (5, 3), (63, -9)] {
            let g = unsafe { gather(&src, base, stride) };
            assert_eq!(to_pack(g), F64x4::gather(&src, base, stride));
        }
    }

    #[test]
    fn loadu_storeu_roundtrip() {
        if !avx2_available() {
            return;
        }
        let src: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let mut dst = vec![0.0; 16];
        for at in 0..=12 {
            // SAFETY: at + 4 <= 16.
            unsafe { storeu(loadu(&src, at), &mut dst, at) };
        }
        assert_eq!(src, dst);
    }

    #[test]
    fn epi32_roundtrip_splat_extract() {
        if !avx2_available() {
            return;
        }
        let x = I32x8::from_fn(|i| i as i32 * 3 - 7);
        assert_eq!(to_pack_i32(from_pack_i32(x)), x);
        assert_eq!(to_pack_i32(splat_i32(-9)), I32x8::splat(-9));
        assert_eq!(unsafe { extract_top_i32(from_pack_i32(x)) }, x.top());
    }

    #[test]
    fn epi32_arithmetic_matches_portable() {
        if !avx2_available() {
            return;
        }
        let a = I32x8::from_fn(|i| (i as i32) * 5 - 13);
        let b = I32x8::from_fn(|i| 17 - (i as i32) * 3);
        let (va, vb) = (from_pack_i32(a), from_pack_i32(b));
        assert_eq!(to_pack_i32(unsafe { add_i32(va, vb) }), a + b);
        assert_eq!(to_pack_i32(unsafe { mullo_i32(va, vb) }), a * b);
        assert_eq!(to_pack_i32(unsafe { max_i32(va, vb) }), a.max(b));
        // Wrapping semantics match the portable Scalar contract.
        let big = I32x8::splat(i32::MAX);
        let one = I32x8::splat(1);
        assert_eq!(
            to_pack_i32(unsafe { add_i32(from_pack_i32(big), from_pack_i32(one)) }),
            big + one
        );
    }

    #[test]
    fn epi32_cmpeq_blendv_matches_portable_select() {
        if !avx2_available() {
            return;
        }
        let a = I32x8::from_fn(|i| (i % 3) as i32);
        let b = I32x8::from_fn(|i| (i % 2) as i32);
        let take = I32x8::from_fn(|i| 100 + i as i32);
        let other = I32x8::from_fn(|i| -(i as i32));
        let mask = unsafe { cmpeq_i32(from_pack_i32(a), from_pack_i32(b)) };
        let r = unsafe { blendv_i32(from_pack_i32(other), from_pack_i32(take), mask) };
        let gold = I32x8::select(a.eq_mask(b), take, other);
        assert_eq!(to_pack_i32(r), gold);
    }

    #[test]
    fn epi32_variable_shift_matches_scalar_rule_test() {
        if !avx2_available() {
            return;
        }
        // The Life rule test: (mask >> sum) & 1 for sums 0..=7 in lanes.
        let mask = I32x8::splat(0b1100);
        let sums = I32x8::from_fn(|i| i as i32);
        let r = unsafe {
            and_i32(
                srav_i32(from_pack_i32(mask), from_pack_i32(sums)),
                splat_i32(1),
            )
        };
        let gold = I32x8::from_fn(|i| (mask[i] >> sums[i]) & 1);
        assert_eq!(to_pack_i32(r), gold);
    }

    #[test]
    fn epi32_rotate_blend_identity_matches_portable() {
        if !avx2_available() {
            return;
        }
        // The steady state's input production: rotate + blend equals the
        // portable shift_up_insert, and fused == two-step.
        let x = I32x8::from_fn(|i| 10 * i as i32 + 1);
        let r = unsafe { rotate_up_i32(from_pack_i32(x)) };
        assert_eq!(to_pack_i32(r), x.rotate_up());
        let bl = unsafe { blend_bottom_i32(from_pack_i32(x), 99) };
        assert_eq!(to_pack_i32(bl), x.replace(0, 99));
        let fused = unsafe { shift_up_insert_i32(from_pack_i32(x), 99) };
        assert_eq!(to_pack_i32(fused), x.shift_up_insert(99));
        let two_step = unsafe { blend_bottom_i32(rotate_up_i32(from_pack_i32(x)), 99) };
        assert_eq!(to_pack_i32(two_step), x.rotate_up().replace(0, 99));
    }

    #[test]
    fn epi32_gathers_match_portable() {
        if !avx2_available() {
            return;
        }
        let bytes: Vec<u8> = (0..64).map(|i| (i * 7 % 251) as u8).collect();
        for &(base, stride) in &[(0usize, 1isize), (20, -2), (7, 8), (63, -9)] {
            let g = unsafe { gather_u8_i32(&bytes, base, stride) };
            let gold =
                I32x8::from_fn(|i| bytes[(base as isize + i as isize * stride) as usize] as i32);
            assert_eq!(to_pack_i32(g), gold, "base={base} stride={stride}");
        }
    }

    /// Every `Lanes` operation, applied to fixed operands; returns the
    /// stored results and the top lanes.
    struct AllOps<T: Scalar, const N: usize>([Pack<T, N>; 4]);

    impl<T: Scalar, const N: usize> LaneFn<T, N> for AllOps<T, N> {
        type Output = (Vec<Pack<T, N>>, Vec<T>);
        fn call<L: Lanes<Elem = T, Mem = Pack<T, N>>>(self) -> Self::Output {
            let [a, b, c, d] = self.0.map(L::load);
            let bytes: Vec<u8> = (0..64).map(|i| (i * 7 % 13) as u8).collect();
            let out = [
                L::splat(T::from_index(3)),
                a.shift_up_insert(T::from_index(9)),
                a.add(b),
                a.mul(b),
                a.mul_add(b, c),
                a.max(b),
                a.select_eq(d, b, c),
                d.bit(b),
                L::gather_bytes(&bytes, 40, -5),
                L::gather_bytes(&bytes, 3, 1),
            ];
            (
                out.iter().map(|v| v.store()).collect(),
                out.iter().map(|v| v.top()).collect(),
            )
        }
    }

    #[test]
    fn lane_twins_match_portable_packs() {
        if !avx2_available() {
            return;
        }
        let f = AllOps([
            F64x4::from_fn(|i| i as f64 * 1.5 - 2.0),
            F64x4::from_fn(|i| 3.0 - i as f64),
            F64x4::from_fn(|i| 0.25 * i as f64),
            F64x4::from_fn(|i| (i % 2) as f64 * 1.5 - 2.0),
        ]);
        let portable = AllOps(f.0).call::<F64x4>();
        // SAFETY: AVX2+FMA checked above; f64×4 has a register twin.
        assert_eq!(unsafe { run_avx2(f) }, portable);
        let g = AllOps([
            I32x8::from_fn(|i| i as i32 * 5 - 13),
            I32x8::from_fn(|i| i as i32 % 4),
            I32x8::from_fn(|i| 17 - i as i32),
            I32x8::from_fn(|i| (i as i32 * 5 - 13) * (i % 2) as i32 + 0b1_0110_1100),
        ]);
        let portable = AllOps(g.0).call::<I32x8>();
        // SAFETY: AVX2 checked above; i32×8 has a register twin.
        assert_eq!(unsafe { run_avx2(g) }, portable);
        assert!(!super::avx2_lanes::<f64, 8>() && !super::avx2_lanes::<i32, 4>());
    }

    #[test]
    fn transpose4_matches_portable() {
        if !avx2_available() {
            return;
        }
        let rows: [F64x4; 4] = core::array::from_fn(|i| F64x4::from_fn(|j| (i * 10 + j) as f64));
        let mut expect = rows;
        transpose(&mut expect);

        let mut r0 = from_pack(rows[0]);
        let mut r1 = from_pack(rows[1]);
        let mut r2 = from_pack(rows[2]);
        let mut r3 = from_pack(rows[3]);
        unsafe { transpose4(&mut r0, &mut r1, &mut r2, &mut r3) };
        assert_eq!(to_pack(r0), expect[0]);
        assert_eq!(to_pack(r1), expect[1]);
        assert_eq!(to_pack(r2), expect[2]);
        assert_eq!(to_pack(r3), expect[3]);
    }
}
