//! # tempora-core — temporal vectorization engines
//!
//! The primary contribution of the reproduced paper ("Temporal
//! Vectorization for Stencils", SC'21): engines that vectorize stencils in
//! the *iteration space*, packing `VL` consecutive time levels into each
//! SIMD register and paying a constant reorganization cost per produced
//! vector regardless of vector length, stencil order and dimensionality.
//!
//! | module | contents |
//! |---|---|
//! | [`engine`] | engine selection (`Select`, `TEMPORA_ENGINE`) and [`engine::Engine::run`] |
//! | [`t1d`] | 1-D Jacobi and Gauss-Seidel engines (Algorithm 3), phase API |
//! | [`t1d_band`] | skewed (parallelogram) 1-D Gauss-Seidel bands (§3.4) |
//! | [`t2d`] | 2-D outer-loop engine: Heat-2D, 2D9P, Life (`i32×8`), GS-2D |
//! | [`t2d_band`] / [`t3d_band`] | skewed 2-D/3-D Gauss-Seidel bands |
//! | [`t3d`] | 3-D outer-loop engine: Heat-3D, GS-3D |
//! | [`lcs`] | the LCS dynamic program as a temporal 1-D stencil (`i32×8`) |
//! | [`kernels`] | operand-convention adapters between stencils and engines |
//!
//! Each schedule's steady state is written once, over the lane
//! vocabulary of [`tempora_simd::Lanes`], and instantiated twice: on the
//! portable packs and on the AVX2+FMA registers ([`engine::Engine::run`]).
//! The prologue / steady-state / epilogue split of every engine keeps the
//! boundary machinery shared as well, so both instantiations stay
//! bit-identical to the scalar oracle.
//!
//! Convenience entry points for the 1-D benchmarks live at the crate
//! root ([`temporal1d_jacobi`] etc.); they resolve the engine from the
//! `TEMPORA_ENGINE` environment variable.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod kernels;
pub mod lcs;
pub mod t1d;
pub mod t1d_band;
pub mod t2d;
pub mod t2d_band;
pub mod t3d;
pub mod t3d_band;

use tempora_grid::Grid1;
use tempora_stencil::{Gs1dCoeffs, Heat1dCoeffs};

/// Run `steps` time steps of the 1D3P Jacobi (Heat-1D) stencil with the
/// temporal scheme at vector length 4 and space stride `s` (the paper uses
/// `s = 7`) on the best engine for this CPU (respecting
/// `TEMPORA_ENGINE`). Bit-identical to `tempora_stencil::reference::heat1d`.
pub fn temporal1d_jacobi(g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize, s: usize) -> Grid1<f64> {
    run1d(g, &kernels::JacobiKern1d(c), steps, s)
}

/// Run `steps` time steps of the 1D3P Gauss-Seidel stencil with the
/// temporal scheme at vector length 4 and space stride `s` on the best
/// engine for this CPU (respecting `TEMPORA_ENGINE`).
/// Bit-identical to `tempora_stencil::reference::gs1d`.
pub fn temporal1d_gs(g: &Grid1<f64>, c: Gs1dCoeffs, steps: usize, s: usize) -> Grid1<f64> {
    run1d(g, &kernels::GsKern1d(c), steps, s)
}

fn run1d<K: kernels::Kernel1d>(g: &Grid1<f64>, kern: &K, steps: usize, s: usize) -> Grid1<f64> {
    let engine = engine::Select::from_env().resolve_shape::<f64, 4>(g.n(), steps, s);
    t1d::run_on::<4, K>(engine, g, kern, steps, s)
}
