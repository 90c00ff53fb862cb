//! Object-safe executors behind [`crate::Plan`].
//!
//! Each executor owns its kernel, schedule constants and **all scratch it
//! will ever need** — temporal rings, remainder row/plane buffers,
//! multi-load ping-pong grids, tiling workspaces — so repeated
//! [`Exec::run`] calls on fresh states are allocation-free (the two
//! documented exceptions are the one-shot reorg/DLT baselines, which
//! build their transposed layouts per call by design).
//!
//! All paths reuse the engine/tiling layers' own tile primitives and are
//! bit-identical to the corresponding one-shot free functions and the
//! scalar references.

use crate::{PlanError, State};
use tempora_baseline::{dlt, reorg};
use tempora_core::engine::Engine;
use tempora_core::kernels::{Kernel1d, Kernel2d, Kernel3d};
use tempora_core::{lcs, t1d, t2d, t3d};
use tempora_grid::{Grid1, Grid2, Grid3};
use tempora_parallel::Pool;
use tempora_simd::Scalar;
use tempora_stencil::Heat1dCoeffs;
use tempora_tiling::ghost::{auto_step_1d, auto_step_2d, auto_step_3d};
use tempora_tiling::{
    GhostJacobi1d, GhostJacobi2d, GhostJacobi3d, LcsRect, SkewGs1d, SkewGs2d, SkewGs3d,
};

/// One compiled execution path: advance a [`State`] by the plan's time
/// extent. Object-safe so [`crate::Plan`] can hold any workload behind
/// one pointer; `Send` so a plan can be cached in a pool and dispatched
/// across request threads.
pub(crate) trait Exec: Send {
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError>;

    /// First-touch the executor's arenas through `pool` so each page is
    /// faulted in by the worker that will later advance it (the tiled
    /// workspaces reuse `advance`'s owner map). Sequential executors
    /// have nothing to place, so the default is a no-op.
    fn fault_in(&mut self, _pool: &Pool) {}
}

fn mismatch(expected: &'static str, state: &State) -> PlanError {
    PlanError::StateMismatch {
        expected,
        got: state.variant_name(),
    }
}

/// Extract the concrete grid a generic executor runs on.
pub(crate) trait StateGrid: Sized {
    fn from_state(state: &mut State) -> Result<&mut Self, PlanError>;
}

impl StateGrid for Grid1<f64> {
    fn from_state(state: &mut State) -> Result<&mut Self, PlanError> {
        match state {
            State::Grid1(g) => Ok(g),
            other => Err(mismatch("Grid1", other)),
        }
    }
}

impl StateGrid for Grid2<f64> {
    fn from_state(state: &mut State) -> Result<&mut Self, PlanError> {
        match state {
            State::Grid2(g) => Ok(g),
            other => Err(mismatch("Grid2", other)),
        }
    }
}

impl StateGrid for Grid2<i32> {
    fn from_state(state: &mut State) -> Result<&mut Self, PlanError> {
        match state {
            State::Grid2i(g) => Ok(g),
            other => Err(mismatch("Grid2i", other)),
        }
    }
}

impl StateGrid for Grid3<f64> {
    fn from_state(state: &mut State) -> Result<&mut Self, PlanError> {
        match state {
            State::Grid3(g) => Ok(g),
            other => Err(mismatch("Grid3", other)),
        }
    }
}

// ---------------------------------------------------------------------
// Sequential 1-D
// ---------------------------------------------------------------------

/// Sequential temporal 1-D engine (portable or AVX2 steady state, fixed
/// at plan time), scratch reused across runs.
pub(crate) struct Temporal1d<K: Kernel1d> {
    pub kern: K,
    pub steps: usize,
    pub s: usize,
    pub engine: Engine,
    pub counted: bool,
    pub scratch: t1d::Scratch1d<4>,
}

impl<K: Kernel1d + Send> Exec for Temporal1d<K> {
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = <Grid1<f64> as StateGrid>::from_state(state)?;
        let n = g.n();
        let a = g.data_mut();
        for _ in 0..self.steps / 4 {
            if self.counted {
                t1d::tile::<4, true, K>(self.engine, a, n, &self.kern, self.s, &mut self.scratch);
            } else {
                t1d::tile::<4, false, K>(self.engine, a, n, &self.kern, self.s, &mut self.scratch);
            }
        }
        for _ in 0..self.steps % 4 {
            t1d::scalar_step_inplace(a, n, &self.kern);
        }
        Ok(())
    }
}

/// Sequential scalar 1-D sweep (the paper's Algorithm 1, in place).
pub(crate) struct Scalar1d<K: Kernel1d> {
    pub kern: K,
    pub steps: usize,
}

impl<K: Kernel1d + Send> Exec for Scalar1d<K> {
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = <Grid1<f64> as StateGrid>::from_state(state)?;
        let n = g.n();
        let a = g.data_mut();
        for _ in 0..self.steps {
            t1d::scalar_step_inplace(a, n, &self.kern);
        }
        Ok(())
    }
}

/// Sequential multi-load (spatially vectorized) 1-D sweep, ping-ponging a
/// plan-owned buffer.
pub(crate) struct Multiload1d<K: Kernel1d> {
    pub kern: K,
    pub steps: usize,
    pub tmp: Vec<f64>,
}

impl<K: Kernel1d + Send> Exec for Multiload1d<K> {
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = <Grid1<f64> as StateGrid>::from_state(state)?;
        let n = g.n();
        let a = g.data_mut();
        let tmp = &mut self.tmp[..n + 2];
        tmp.copy_from_slice(&a[..n + 2]);
        for step in 0..self.steps {
            if step % 2 == 0 {
                auto_step_1d(a, tmp, n, &self.kern);
            } else {
                auto_step_1d(tmp, a, n, &self.kern);
            }
        }
        if self.steps % 2 == 1 {
            a[..n + 2].copy_from_slice(tmp);
        }
        Ok(())
    }
}

/// Data-reorganization baseline (§2.2), Heat-1D only. One-shot by design:
/// the scheme's transposed layout is rebuilt per call, so this executor
/// allocates per run (documented in [`crate::PlanBuilder::method`]).
pub(crate) struct Reorg1d {
    pub coeffs: Heat1dCoeffs,
    pub steps: usize,
    pub counted: bool,
}

impl Exec for Reorg1d {
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = <Grid1<f64> as StateGrid>::from_state(state)?;
        let out = if self.counted {
            reorg::heat1d_counted(g, self.coeffs, self.steps)
        } else {
            reorg::heat1d(g, self.coeffs, self.steps)
        };
        *g = out;
        Ok(())
    }
}

/// Dimension-lifted-transpose baseline (§2.2), Heat-1D only. One-shot by
/// design (see [`Reorg1d`]).
pub(crate) struct Dlt1d {
    pub coeffs: Heat1dCoeffs,
    pub steps: usize,
}

impl Exec for Dlt1d {
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = <Grid1<f64> as StateGrid>::from_state(state)?;
        *g = dlt::heat1d(g, self.coeffs, self.steps);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Sequential 2-D
// ---------------------------------------------------------------------

/// Sequential temporal 2-D engine (portable or AVX2 instantiation of the
/// steady state, fixed at plan time), scratch and remainder rows reused
/// across runs.
pub(crate) struct Temporal2d<T: Scalar, const VL: usize, K: Kernel2d<T>> {
    pub kern: K,
    pub steps: usize,
    pub s: usize,
    pub engine: Engine,
    pub scratch: t2d::Scratch2d<T, VL>,
    pub rem_rows: (Vec<T>, Vec<T>),
}

impl<T: Scalar, const VL: usize, K: Kernel2d<T> + Send> Exec for Temporal2d<T, VL, K>
where
    Grid2<T>: StateGrid,
{
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = <Grid2<T> as StateGrid>::from_state(state)?;
        for _ in 0..self.steps / VL {
            t2d::tile::<T, VL, K>(self.engine, g, &self.kern, self.s, &mut self.scratch);
        }
        let rem = self.steps % VL;
        if rem > 0 {
            let (ra, rb) = &mut self.rem_rows;
            for _ in 0..rem {
                t2d::scalar_step_inplace(g, &self.kern, ra, rb);
            }
        }
        Ok(())
    }
}

/// Sequential scalar 2-D sweep (in place, plan-owned row buffers).
pub(crate) struct Scalar2d<T: Scalar, K: Kernel2d<T>> {
    pub kern: K,
    pub steps: usize,
    pub rows: (Vec<T>, Vec<T>),
}

impl<T: Scalar, K: Kernel2d<T> + Send> Exec for Scalar2d<T, K>
where
    Grid2<T>: StateGrid,
{
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = <Grid2<T> as StateGrid>::from_state(state)?;
        let (ra, rb) = &mut self.rows;
        for _ in 0..self.steps {
            t2d::scalar_step_inplace(g, &self.kern, ra, rb);
        }
        Ok(())
    }
}

/// Sequential multi-load 2-D sweep, ping-ponging a plan-owned grid.
pub(crate) struct Multiload2d<T: Scalar, K: Kernel2d<T>> {
    pub kern: K,
    pub steps: usize,
    pub tmp: Grid2<T>,
}

impl<T: Scalar, K: Kernel2d<T> + Send> Exec for Multiload2d<T, K>
where
    Grid2<T>: StateGrid,
{
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = <Grid2<T> as StateGrid>::from_state(state)?;
        self.tmp.data_mut().copy_from_slice(g.data());
        for step in 0..self.steps {
            if step % 2 == 0 {
                auto_step_2d(g, &mut self.tmp, &self.kern);
            } else {
                auto_step_2d(&self.tmp, g, &self.kern);
            }
        }
        if self.steps % 2 == 1 {
            g.data_mut().copy_from_slice(self.tmp.data());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Sequential 3-D
// ---------------------------------------------------------------------

/// Sequential temporal 3-D engine (portable or AVX2 instantiation of the
/// steady state, fixed at plan time), scratch and remainder planes reused
/// across runs.
pub(crate) struct Temporal3d<K: Kernel3d<f64>> {
    pub kern: K,
    pub steps: usize,
    pub s: usize,
    pub engine: Engine,
    pub scratch: t3d::Scratch3d<f64, 4>,
    pub rem_planes: (Vec<f64>, Vec<f64>),
}

impl<K: Kernel3d<f64> + Send> Exec for Temporal3d<K> {
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = <Grid3<f64> as StateGrid>::from_state(state)?;
        for _ in 0..self.steps / 4 {
            t3d::tile::<f64, 4, K>(self.engine, g, &self.kern, self.s, &mut self.scratch);
        }
        let rem = self.steps % 4;
        if rem > 0 {
            let (pa, pb) = &mut self.rem_planes;
            for _ in 0..rem {
                t3d::scalar_step_inplace(g, &self.kern, pa, pb);
            }
        }
        Ok(())
    }
}

/// Sequential scalar 3-D sweep (in place, plan-owned plane buffers).
pub(crate) struct Scalar3d<K: Kernel3d<f64>> {
    pub kern: K,
    pub steps: usize,
    pub planes: (Vec<f64>, Vec<f64>),
}

impl<K: Kernel3d<f64> + Send> Exec for Scalar3d<K> {
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = <Grid3<f64> as StateGrid>::from_state(state)?;
        let (pa, pb) = &mut self.planes;
        for _ in 0..self.steps {
            t3d::scalar_step_inplace(g, &self.kern, pa, pb);
        }
        Ok(())
    }
}

/// Sequential multi-load 3-D sweep, ping-ponging a plan-owned grid.
pub(crate) struct Multiload3d<K: Kernel3d<f64>> {
    pub kern: K,
    pub steps: usize,
    pub tmp: Grid3<f64>,
}

impl<K: Kernel3d<f64> + Send> Exec for Multiload3d<K> {
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = <Grid3<f64> as StateGrid>::from_state(state)?;
        self.tmp.data_mut().copy_from_slice(g.data());
        for step in 0..self.steps {
            if step % 2 == 0 {
                auto_step_3d(g, &mut self.tmp, &self.kern);
            } else {
                auto_step_3d(&self.tmp, g, &self.kern);
            }
        }
        if self.steps % 2 == 1 {
            g.data_mut().copy_from_slice(self.tmp.data());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Sequential LCS
// ---------------------------------------------------------------------

/// Sequential LCS DP (temporal `i32×8` tiles — portable or AVX2 steady
/// state, fixed at plan time — or scalar rows), rolling row and scratch
/// reused across runs. Writes the result into `LcsState::length`.
pub(crate) struct SeqLcs {
    pub s: usize,
    pub temporal: bool,
    pub engine: Engine,
    pub row: Vec<i32>,
    pub scratch: lcs::ScratchLcs<8>,
}

impl Exec for SeqLcs {
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let State::Lcs(l) = state else {
            return Err(mismatch("Lcs", state));
        };
        let (la, lb) = (l.a.len(), l.b.len());
        if la == 0 || lb == 0 {
            l.length = Some(0);
            return Ok(());
        }
        self.row.fill(0);
        let row = &mut self.row[..lb + 1];
        if self.temporal {
            const VL: usize = 8;
            let tiles = la / VL;
            for t in 0..tiles {
                let a_tile = &l.a[t * VL..(t + 1) * VL];
                lcs::tile::<VL>(self.engine, row, a_tile, &l.b, self.s, &mut self.scratch);
            }
            for &ca in &l.a[tiles * VL..] {
                lcs::scalar_row_step(row, ca, &l.b);
            }
        } else {
            for &ca in &l.a {
                lcs::scalar_row_step(row, ca, &l.b);
            }
        }
        l.length = Some(row[lb]);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Tiled executors (thin adapters over the tiling workspaces)
// ---------------------------------------------------------------------

pub(crate) struct GhostExec1d<K: Kernel1d>(pub GhostJacobi1d<K>);

impl<K: Kernel1d + Send> Exec for GhostExec1d<K> {
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError> {
        self.0
            .advance(<Grid1<f64> as StateGrid>::from_state(state)?, pool);
        Ok(())
    }

    fn fault_in(&mut self, pool: &Pool) {
        self.0.fault_in(pool);
    }
}

pub(crate) struct GhostExec2d<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    pub GhostJacobi2d<T, VL, K>,
);

impl<T: Scalar, const VL: usize, K: Kernel2d<T> + Send> Exec for GhostExec2d<T, VL, K>
where
    Grid2<T>: StateGrid,
{
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError> {
        self.0
            .advance(<Grid2<T> as StateGrid>::from_state(state)?, pool);
        Ok(())
    }

    fn fault_in(&mut self, pool: &Pool) {
        self.0.fault_in(pool);
    }
}

pub(crate) struct GhostExec3d<K: Kernel3d<f64>>(pub GhostJacobi3d<K>);

impl<K: Kernel3d<f64> + Send> Exec for GhostExec3d<K> {
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError> {
        self.0
            .advance(<Grid3<f64> as StateGrid>::from_state(state)?, pool);
        Ok(())
    }

    fn fault_in(&mut self, pool: &Pool) {
        self.0.fault_in(pool);
    }
}

pub(crate) struct SkewExec1d<K: Kernel1d>(pub SkewGs1d<K>);

impl<K: Kernel1d + Send> Exec for SkewExec1d<K> {
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError> {
        self.0
            .advance(<Grid1<f64> as StateGrid>::from_state(state)?, pool);
        Ok(())
    }
}

pub(crate) struct SkewExec2d<K: Kernel2d<f64>>(pub SkewGs2d<K>);

impl<K: Kernel2d<f64> + Send> Exec for SkewExec2d<K> {
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError> {
        self.0
            .advance(<Grid2<f64> as StateGrid>::from_state(state)?, pool);
        Ok(())
    }

    fn fault_in(&mut self, pool: &Pool) {
        self.0.fault_in(pool);
    }
}

pub(crate) struct SkewExec3d<K: Kernel3d<f64>>(pub SkewGs3d<K>);

impl<K: Kernel3d<f64> + Send> Exec for SkewExec3d<K> {
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError> {
        self.0
            .advance(<Grid3<f64> as StateGrid>::from_state(state)?, pool);
        Ok(())
    }

    fn fault_in(&mut self, pool: &Pool) {
        self.0.fault_in(pool);
    }
}

pub(crate) struct RectLcs(pub LcsRect);

impl Exec for RectLcs {
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError> {
        let State::Lcs(l) = state else {
            return Err(mismatch("Lcs", state));
        };
        l.length = Some(self.0.run(&l.a, &l.b, pool));
        Ok(())
    }

    fn fault_in(&mut self, pool: &Pool) {
        self.0.fault_in(pool);
    }
}
