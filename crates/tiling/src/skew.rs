//! Parallelogram (time-skewed) tiling for Gauss-Seidel stencils, with
//! pipelined wavefront parallelism (paper §3.4: "we utilize parallelogram
//! tiling for all space dimensions" — here applied along the outermost
//! dimension, the one the temporal scheme vectorizes).
//!
//! The iteration space is cut into bands of `height` time levels × skewed
//! blocks of `block` anchor columns; block `(band, i)` is the
//! parallelogram executed by the banded engines in `tempora-core`
//! (`t1d_band`/`t2d_band`/`t3d_band`), executed as `height/VL` successive
//! `VL`-level sub-bands whose anchors shift left by `VL` each (one
//! parallelogram of the paper's Table-1 time-block depth). Dependences
//! are `(b, i-1)`, `(b-1, i)` and `(b-1, i+1)`, so
//! [`tempora_parallel::Pool::waves`] (waves `w = 2b + i`) is a legal
//! schedule; same-wave tasks are at block distance ≥ 2 and their
//! read/write sets are disjoint whenever `block ≥ height + VL·s + VL`
//! (asserted), because a tile touches at most
//! `[xl - height - VL·s, xr + 1]` and same-wave neighbours sit two
//! blocks away.
//!
//! # Reusable workspaces
//!
//! Each dimension exposes a workspace — [`SkewGs1d`], [`SkewGs2d`],
//! [`SkewGs3d`] — that validates the geometry and resolves the banded
//! engine once, allocates the per-block band scratch once, and is driven
//! by repeated `advance(&mut grid, &pool)` calls that run
//! allocation-free. This is the execution layer behind
//! `tempora_plan::Plan`.
//!
//! # Engine dispatch
//!
//! The temporal band executor goes through the same dispatch as the
//! sequential engines: every workspace takes a [`Mode`] (scalar bands for
//! the paper's "scalar" curves, [`Mode::Temporal`] for "our"; spatial
//! auto-vectorization of Gauss-Seidel is illegal and rejected) plus a
//! [`Select`], resolves the selection **once** against the AVX2
//! capability of the `f64×4` lanes ([`tempora_simd::arch::avx2_lanes`])
//! and the block geometry, and reports the resolved [`Engine`]. Geometries where *no*
//! skewed block can host the vector steady state resolve portable, so the
//! reported engine names the instruction mix that actually ran. Per-block
//! band scratch lives in a workspace arena (one slot per block index —
//! tasks with the same block index are ordered by the wave dependences,
//! so slots are never touched concurrently).

use tempora_core::engine::{Engine, Select};
use tempora_core::kernels::{Kernel1d, Kernel2d, Kernel3d};
use tempora_core::t1d_band::vector_band_shape;
use tempora_core::{t1d, t1d_band, t2d, t2d_band, t3d, t3d_band};
use tempora_grid::{Grid1, Grid2, Grid3};
use tempora_parallel::{Pool, SyncSlice};

pub use crate::ghost::Mode;

const VL: usize = 4;

/// Number of skewed blocks for interior size `n`, anchor width `block`
/// and band height `height` (anchors must reach `n + height - 1` so the
/// deepest level's window still covers `x = n`).
fn block_count(n: usize, block: usize, height: usize) -> usize {
    (n + height - 1).div_ceil(block)
}

/// Anchor bounds (level-1 window) of skewed block `i`.
fn block_bounds(i: usize, n: usize, block: usize, height: usize) -> (usize, usize) {
    let span = n + height - 1;
    (i * block + 1, ((i + 1) * block).min(span))
}

/// The stride a mode implies for the disjointness bound (scalar bands
/// reach back only `height` columns, i.e. stride 0); `Mode::Auto` is
/// illegal for Gauss-Seidel.
fn gs_stride(mode: Mode) -> usize {
    match mode {
        Mode::Temporal(s) => s,
        Mode::Scalar => 0,
        Mode::Auto => panic!("Gauss-Seidel loops cannot be spatially auto-vectorized"),
    }
}

/// True when at least one `(block, sub-band)` pair of the schedule passes
/// the band executors' own vector-shape test — all-degenerate geometries
/// must resolve portable so the reported engine stays honest.
fn any_vector_band(n_outer: usize, block: usize, height: usize, s: usize) -> bool {
    let nblocks = block_count(n_outer, block, height);
    (0..nblocks).any(|i| {
        let (xl, xr) = block_bounds(i, n_outer, block, height);
        (0..height / VL).any(|j| {
            let off = j * VL;
            if xr <= off {
                return false;
            }
            let (xlj, xrj) = (xl.saturating_sub(off).max(1), xr - off);
            vector_band_shape::<VL>(xlj, xrj, n_outer, s)
        })
    })
}

/// Resolve the banded engine once per workspace.
fn resolve_skew(
    sel: Select,
    mode: Mode,
    has_kernel_avx2: bool,
    n_outer: usize,
    block: usize,
    height: usize,
    bands: usize,
) -> Option<Engine> {
    match mode {
        Mode::Temporal(s) => Some(
            sel.resolve(has_kernel_avx2 && bands > 0 && any_vector_band(n_outer, block, height, s)),
        ),
        _ => None,
    }
}

/// Shared geometry checks of every skew workspace.
fn check_skew_geometry(block: usize, height: usize, s: usize) {
    assert!(
        height >= VL && height % VL == 0,
        "height must be a multiple of {VL}"
    );
    assert!(
        block >= height + VL * s + VL,
        "block too narrow for wave disjointness"
    );
}

// ---------------------------------------------------------------------
// 1-D workspace
// ---------------------------------------------------------------------

/// Reusable skewed-tiling workspace for 1-D Gauss-Seidel: geometry
/// validated and banded engine resolved once in [`SkewGs1d::new`], then
/// reused by every [`SkewGs1d::advance`] call (allocation-free — the 1-D
/// band executors need no scratch).
pub struct SkewGs1d<K: Kernel1d> {
    kern: K,
    steps: usize,
    block: usize,
    height: usize,
    s: usize,
    engine: Option<Engine>,
    n: usize,
    nblocks: usize,
    bands: usize,
}

impl<K: Kernel1d> SkewGs1d<K> {
    /// Build a workspace for interior size `n`. `mode` selects the band
    /// executor — [`Mode::Temporal`] for the paper's "our" curves,
    /// [`Mode::Scalar`] for "scalar" — and `sel` picks the temporal
    /// steady state.
    ///
    /// # Panics
    /// Panics for a non-Gauss-Seidel kernel, [`Mode::Auto`], a height
    /// that is not a positive multiple of 4, or a block narrower than the
    /// wave-disjointness bound (`tempora_plan` validates these ahead of
    /// time and returns a `PlanError` instead).
    pub fn new(
        kern: K,
        n: usize,
        steps: usize,
        block: usize,
        height: usize,
        mode: Mode,
        sel: Select,
    ) -> Self {
        assert!(K::IS_GS);
        let s = gs_stride(mode);
        check_skew_geometry(block, height, s);
        let bands = steps / height;
        let nblocks = block_count(n, block, height);
        let engine = resolve_skew(
            sel,
            mode,
            tempora_simd::arch::avx2_lanes::<f64, VL>(),
            n,
            block,
            height,
            bands,
        );
        SkewGs1d {
            kern,
            steps,
            block,
            height,
            s,
            engine,
            n,
            nblocks,
            bands,
        }
    }

    /// The banded engine this workspace resolved to (`None` for scalar
    /// bands).
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    /// Number of skewed blocks per band.
    pub fn blocks(&self) -> usize {
        self.nblocks
    }

    /// Advance `g` by the workspace's `steps` time levels in place. All
    /// paths are bit-identical to the reference.
    pub fn advance(&mut self, g: &mut Grid1<f64>, pool: &Pool) {
        assert_eq!(g.n(), self.n, "grid does not match workspace geometry");
        let Self {
            kern,
            steps,
            block,
            height,
            s,
            engine,
            n,
            nblocks,
            bands,
        } = self;
        let (n, block, height, s) = (*n, *block, *height, *s);
        let engine = *engine;
        {
            let data = g.data_mut();
            let shared = SyncSlice::new(data);
            pool.waves(*bands, *nblocks, |_b, i| {
                // SAFETY: wave scheduling keeps concurrent tiles ≥ 2 blocks
                // apart; a tile touches [xl - height - VL·s, xr + 1] ⊂ its
                // block ± one block for block ≥ height + VL·s + VL (asserted).
                let a = unsafe { shared.slice_mut() };
                let (xl, xr) = block_bounds(i, n, block, height);
                for j in 0..height / VL {
                    let off = j * VL;
                    if xr <= off {
                        break;
                    }
                    let (xlj, xrj) = (xl.saturating_sub(off).max(1), xr - off);
                    match engine {
                        None => t1d_band::band_scalar_gs(a, xlj, xrj, VL, n, kern),
                        Some(engine) => {
                            t1d_band::band_temporal_gs::<VL, K>(engine, a, xlj, xrj, n, s, kern)
                        }
                    }
                }
            });
        }
        let a = g.data_mut();
        for _ in 0..*steps % height {
            t1d::scalar_step_inplace(a, n, kern);
        }
    }
}

// ---------------------------------------------------------------------
// 2-D workspace
// ---------------------------------------------------------------------

/// Reusable skewed-tiling workspace for 2-D Gauss-Seidel along the outer
/// dimension. See [`SkewGs1d`] for the lifecycle and engine contract.
pub struct SkewGs2d<K: Kernel2d<f64>> {
    kern: K,
    steps: usize,
    block: usize,
    height: usize,
    s: usize,
    engine: Option<Engine>,
    nx: usize,
    ny: usize,
    nblocks: usize,
    bands: usize,
    scratch: Vec<t2d_band::BandScratch2d<VL>>,
    rem_rows: (Vec<f64>, Vec<f64>),
}

impl<K: Kernel2d<f64>> SkewGs2d<K> {
    /// Build a workspace for an `nx × ny` interior. See
    /// [`SkewGs1d::new`] for the panics contract.
    // Justification: constructor takes the full tile geometry; see the run_* wrapper rationale.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kern: K,
        nx: usize,
        ny: usize,
        steps: usize,
        block: usize,
        height: usize,
        mode: Mode,
        sel: Select,
    ) -> Self {
        assert!(K::IS_GS);
        let s = gs_stride(mode);
        check_skew_geometry(block, height, s);
        let bands = steps / height;
        let nblocks = block_count(nx, block, height);
        let engine = resolve_skew(
            sel,
            mode,
            tempora_simd::arch::avx2_lanes::<f64, VL>(),
            nx,
            block,
            height,
            bands,
        );
        // Per-block band scratch (the wave dependences serialize all
        // tasks of one block index).
        let scratch: Vec<t2d_band::BandScratch2d<VL>> = match engine {
            Some(_) => (0..nblocks)
                .map(|_| t2d_band::BandScratch2d::new(s, ny))
                .collect(),
            None => Vec::new(),
        };
        SkewGs2d {
            kern,
            steps,
            block,
            height,
            s,
            engine,
            nx,
            ny,
            nblocks,
            bands,
            scratch,
            rem_rows: (vec![0.0; ny + 2], vec![0.0; ny + 2]),
        }
    }

    /// The banded engine this workspace resolved to.
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    /// Number of skewed blocks per band.
    pub fn blocks(&self) -> usize {
        self.nblocks
    }

    /// Re-allocate the per-block band scratch through `pool` so each
    /// slot's pages are faulted in by a pool worker (best-effort NUMA
    /// spread — the wavefront schedule has no static block owner; the
    /// grid itself is caller-owned and advanced in place). Results are
    /// unchanged whether or not this runs.
    pub fn fault_in(&mut self, pool: &Pool) {
        tempora_failpoint::failpoint!("fault_in");
        if self.scratch.is_empty() {
            return;
        }
        let (s, ny) = (self.s, self.ny);
        let scratch_shared = SyncSlice::new(&mut self.scratch);
        pool.for_each_owned(self.nblocks, |i| {
            // SAFETY: slot i is written only by its owning worker.
            let sc = unsafe { &mut scratch_shared.slice_mut()[i] };
            *sc = t2d_band::BandScratch2d::new(s, ny);
        });
    }

    /// Advance `g` by the workspace's `steps` time levels in place.
    pub fn advance(&mut self, g: &mut Grid2<f64>, pool: &Pool) {
        assert_eq!(
            (g.nx(), g.ny()),
            (self.nx, self.ny),
            "grid does not match workspace geometry"
        );
        let Self {
            kern,
            steps,
            block,
            height,
            s,
            engine,
            nx,
            nblocks,
            bands,
            scratch,
            rem_rows,
            ..
        } = self;
        let (nx, block, height, s) = (*nx, *block, *height, *s);
        let engine = *engine;
        {
            let shared_grid = SyncSlice::new(core::slice::from_mut(g));
            let scratch_shared = SyncSlice::new(scratch);
            pool.waves(*bands, *nblocks, |_b, i| {
                // SAFETY: same wave-distance argument as SkewGs1d, with rows
                // as the banded unit; scratch slot i belongs to block i alone.
                let g = &mut unsafe { shared_grid.slice_mut() }[0];
                let (xl, xr) = block_bounds(i, nx, block, height);
                for j in 0..height / VL {
                    let off = j * VL;
                    if xr <= off {
                        break;
                    }
                    let (xlj, xrj) = (xl.saturating_sub(off).max(1), xr - off);
                    match engine {
                        None => t2d_band::band_scalar_gs2d(g, xlj, xrj, VL, kern),
                        Some(eng) => {
                            // SAFETY: scratch slot i belongs to block i
                            // alone; one tile of block i is in flight at a
                            // time (wavefront dependences).
                            let sc = unsafe { &mut scratch_shared.slice_mut()[i] };
                            t2d_band::band_temporal_gs2d::<VL, K>(eng, g, xlj, xrj, s, kern, sc)
                        }
                    }
                }
            });
        }
        let rem = *steps % height;
        if rem > 0 {
            let (ra, rb) = rem_rows;
            for _ in 0..rem {
                t2d::scalar_step_inplace(g, kern, ra, rb);
            }
        }
    }
}

// ---------------------------------------------------------------------
// 3-D workspace
// ---------------------------------------------------------------------

/// Reusable skewed-tiling workspace for 3-D Gauss-Seidel along the outer
/// dimension. See [`SkewGs1d`] for the lifecycle and engine contract.
pub struct SkewGs3d<K: Kernel3d<f64>> {
    kern: K,
    steps: usize,
    block: usize,
    height: usize,
    s: usize,
    engine: Option<Engine>,
    nx: usize,
    ny: usize,
    nz: usize,
    nblocks: usize,
    bands: usize,
    scratch: Vec<t3d_band::BandScratch3d<VL>>,
    rem_planes: (Vec<f64>, Vec<f64>),
}

impl<K: Kernel3d<f64>> SkewGs3d<K> {
    /// Build a workspace for an `nx × ny × nz` interior. See
    /// [`SkewGs1d::new`] for the panics contract.
    // Justification: constructor takes the full tile geometry; see the run_* wrapper rationale.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kern: K,
        nx: usize,
        ny: usize,
        nz: usize,
        steps: usize,
        block: usize,
        height: usize,
        mode: Mode,
        sel: Select,
    ) -> Self {
        assert!(K::IS_GS);
        let s = gs_stride(mode);
        check_skew_geometry(block, height, s);
        let bands = steps / height;
        let nblocks = block_count(nx, block, height);
        let engine = resolve_skew(
            sel,
            mode,
            tempora_simd::arch::avx2_lanes::<f64, VL>(),
            nx,
            block,
            height,
            bands,
        );
        let scratch: Vec<t3d_band::BandScratch3d<VL>> = match engine {
            Some(_) => (0..nblocks)
                .map(|_| t3d_band::BandScratch3d::new(s, ny, nz))
                .collect(),
            None => Vec::new(),
        };
        let wp = (ny + 2) * (nz + 2);
        SkewGs3d {
            kern,
            steps,
            block,
            height,
            s,
            engine,
            nx,
            ny,
            nz,
            nblocks,
            bands,
            scratch,
            rem_planes: (vec![0.0; wp], vec![0.0; wp]),
        }
    }

    /// The banded engine this workspace resolved to.
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    /// Number of skewed blocks per band.
    pub fn blocks(&self) -> usize {
        self.nblocks
    }

    /// Re-allocate the per-block band scratch through `pool` (best-effort
    /// NUMA spread). See [`SkewGs2d::fault_in`].
    pub fn fault_in(&mut self, pool: &Pool) {
        tempora_failpoint::failpoint!("fault_in");
        if self.scratch.is_empty() {
            return;
        }
        let (s, ny, nz) = (self.s, self.ny, self.nz);
        let scratch_shared = SyncSlice::new(&mut self.scratch);
        pool.for_each_owned(self.nblocks, |i| {
            // SAFETY: slot i is written only by its owning worker.
            let sc = unsafe { &mut scratch_shared.slice_mut()[i] };
            *sc = t3d_band::BandScratch3d::new(s, ny, nz);
        });
    }

    /// Advance `g` by the workspace's `steps` time levels in place.
    pub fn advance(&mut self, g: &mut Grid3<f64>, pool: &Pool) {
        assert_eq!(
            (g.nx(), g.ny(), g.nz()),
            (self.nx, self.ny, self.nz),
            "grid does not match workspace geometry"
        );
        let Self {
            kern,
            steps,
            block,
            height,
            s,
            engine,
            nx,
            nblocks,
            bands,
            scratch,
            rem_planes,
            ..
        } = self;
        let (nx, block, height, s) = (*nx, *block, *height, *s);
        let engine = *engine;
        {
            let shared_grid = SyncSlice::new(core::slice::from_mut(g));
            let scratch_shared = SyncSlice::new(scratch);
            pool.waves(*bands, *nblocks, |_b, i| {
                // SAFETY: same wave-distance argument, slabs as the unit;
                // scratch slot i belongs to block i alone.
                let g = &mut unsafe { shared_grid.slice_mut() }[0];
                let (xl, xr) = block_bounds(i, nx, block, height);
                for j in 0..height / VL {
                    let off = j * VL;
                    if xr <= off {
                        break;
                    }
                    let (xlj, xrj) = (xl.saturating_sub(off).max(1), xr - off);
                    match engine {
                        None => t3d_band::band_scalar_gs3d(g, xlj, xrj, VL, kern),
                        Some(eng) => {
                            // SAFETY: scratch slot i belongs to block i
                            // alone; one tile of block i is in flight at a
                            // time (wavefront dependences).
                            let sc = unsafe { &mut scratch_shared.slice_mut()[i] };
                            t3d_band::band_temporal_gs3d::<VL, K>(eng, g, xlj, xrj, s, kern, sc)
                        }
                    }
                }
            });
        }
        let rem = *steps % height;
        if rem > 0 {
            let (pa, pb) = rem_planes;
            for _ in 0..rem {
                t3d::scalar_step_inplace(g, kern, pa, pb);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::kernels::{GsKern1d, GsKern2d, GsKern3d};
    use tempora_grid::{fill_random_1d, fill_random_2d, fill_random_3d, Boundary};
    use tempora_stencil::reference;
    use tempora_stencil::{Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs};

    // Justification: test helper mirrors the run contract signature.
    #[allow(clippy::too_many_arguments)]
    fn skew_1d<K: Kernel1d + Copy>(
        grid: &Grid1<f64>,
        kern: &K,
        steps: usize,
        block: usize,
        height: usize,
        mode: Mode,
        sel: Select,
        pool: &Pool,
    ) -> (Grid1<f64>, Option<Engine>) {
        let mut w = SkewGs1d::new(*kern, grid.n(), steps, block, height, mode, sel);
        let mut g = grid.clone();
        w.advance(&mut g, pool);
        (g, w.engine())
    }

    #[test]
    fn gs1d_parallel_matches_reference_all_thread_counts() {
        let c = Gs1dCoeffs::classic(0.27);
        let kern = GsKern1d(c);
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            for &(n, block, s, steps) in &[
                (500usize, 64usize, 2usize, 8usize),
                (1000, 128, 7, 12),
                (300, 120, 3, 13),
            ] {
                let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.6));
                fill_random_1d(&mut g, n as u64 + threads as u64, -1.0, 1.0);
                let gold = reference::gs1d(&g, c, steps);
                for mode in [Mode::Scalar, Mode::Temporal(s)] {
                    let (ours, _) = skew_1d(&g, &kern, steps, block, 4, mode, Select::Auto, &pool);
                    assert!(
                        ours.interior_eq(&gold),
                        "threads={threads} n={n} block={block} s={s} steps={steps} \
                         mode={mode:?} {:?}",
                        ours.first_diff(&gold)
                    );
                }
            }
        }
    }

    #[test]
    fn gs1d_engine_report_is_honest() {
        let c = Gs1dCoeffs::classic(0.27);
        let kern = GsKern1d(c);
        let pool = Pool::new(2);
        let mut g = Grid1::new(500, 1, Boundary::Dirichlet(0.6));
        fill_random_1d(&mut g, 9, -1.0, 1.0);
        let (_, e) = skew_1d(&g, &kern, 8, 64, 4, Mode::Scalar, Select::Auto, &pool);
        assert_eq!(e, None);
        let (_, e) = skew_1d(
            &g,
            &kern,
            8,
            64,
            4,
            Mode::Temporal(2),
            Select::Portable,
            &pool,
        );
        assert_eq!(e, Some(Engine::Portable));
        if tempora_simd::arch::avx2_available() {
            let (_, e) = skew_1d(&g, &kern, 8, 64, 4, Mode::Temporal(2), Select::Auto, &pool);
            assert_eq!(e, Some(Engine::Avx2));
            // All-degenerate geometry (every block is an edge block or too
            // narrow for the vector band): honest portable even when AVX2
            // is requested.
            let mut small = Grid1::new(60, 1, Boundary::Dirichlet(0.0));
            fill_random_1d(&mut small, 2, -1.0, 1.0);
            let (r, e) = skew_1d(
                &small,
                &kern,
                8,
                36,
                4,
                Mode::Temporal(7),
                Select::Avx2,
                &pool,
            );
            assert_eq!(e, Some(Engine::Portable));
            assert!(r.interior_eq(&reference::gs1d(&small, c, 8)));
        }
    }

    #[test]
    fn gs2d_parallel_matches_reference_and_workspace_reuse_is_identical() {
        let c = Gs2dCoeffs::classic(0.19);
        let kern = GsKern2d(c);
        for threads in [1usize, 2] {
            let pool = Pool::new(threads);
            let mut g = Grid2::new(120, 9, 1, Boundary::Dirichlet(-0.3));
            fill_random_2d(&mut g, 21, -1.0, 1.0);
            let gold = reference::gs2d(&g, c, 8);
            for mode in [Mode::Scalar, Mode::Temporal(2)] {
                let mut w = SkewGs2d::new(kern, g.nx(), g.ny(), 8, 48, 8, mode, Select::Auto);
                let mut ours = g.clone();
                w.advance(&mut ours, &pool);
                assert!(
                    ours.interior_eq(&gold),
                    "threads={threads} mode={mode:?} {:?}",
                    ours.first_diff(&gold)
                );
                // Reuse on a fresh state is identical (tests/alloc_free.rs
                // checks that it allocates nothing).
                let mut again = g.clone();
                w.advance(&mut again, &pool);
                assert!(again.interior_eq(&gold));
            }
        }
    }

    #[test]
    fn pipelined_and_barrier_schedules_agree_bitwise() {
        use tempora_parallel::{PoolConfig, WaveSchedule};
        let c = Gs2dCoeffs::classic(0.19);
        let kern = GsKern2d(c);
        let mut g = Grid2::new(120, 9, 1, Boundary::Dirichlet(-0.3));
        fill_random_2d(&mut g, 21, -1.0, 1.0);
        for threads in [2usize, 4, 8] {
            let pipe = Pool::with_config(PoolConfig::new(threads));
            let barr = Pool::with_config(PoolConfig::new(threads).schedule(WaveSchedule::Barrier));
            for mode in [Mode::Scalar, Mode::Temporal(2)] {
                let mut wa = SkewGs2d::new(kern, 120, 9, 8, 48, 8, mode, Select::Auto);
                let mut wb = SkewGs2d::new(kern, 120, 9, 8, 48, 8, mode, Select::Auto);
                // fault_in on one side must not perturb results either.
                wa.fault_in(&pipe);
                let (mut ga, mut gb) = (g.clone(), g.clone());
                wa.advance(&mut ga, &pipe);
                wb.advance(&mut gb, &barr);
                assert!(
                    ga.interior_eq(&gb),
                    "threads={threads} mode={mode:?} {:?}",
                    ga.first_diff(&gb)
                );
            }
        }
    }

    #[test]
    fn gs3d_parallel_matches_reference() {
        let c = Gs3dCoeffs::classic(0.11);
        let kern = GsKern3d(c);
        let pool = Pool::new(2);
        let mut g = Grid3::new(80, 5, 6, 1, Boundary::Dirichlet(0.2));
        fill_random_3d(&mut g, 13, -1.0, 1.0);
        let gold = reference::gs3d(&g, c, 9); // 2 bands + remainder
        for mode in [Mode::Scalar, Mode::Temporal(2)] {
            let mut w = SkewGs3d::new(kern, g.nx(), g.ny(), g.nz(), 9, 24, 4, mode, Select::Auto);
            let mut ours = g.clone();
            w.advance(&mut ours, &pool);
            assert!(
                ours.interior_eq(&gold),
                "mode={mode:?} {:?}",
                ours.first_diff(&gold)
            );
        }
    }
}
