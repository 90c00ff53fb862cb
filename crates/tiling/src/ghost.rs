//! Ghost-zone (overlapped) temporal band tiling for Jacobi stencils.
//!
//! The paper parallelizes its Jacobi benchmarks with diamond tiling on
//! the outermost space loop (§3.4). This reproduction substitutes the
//! closest temporal-blocking scheme that composes *unchanged* with the
//! rectangular temporal engines: **overlapped (ghost-zone) tiling**
//! (Meng & Skadron, the paper's reference \[22\]; Ding & He's ghost-cell
//! expansion, reference \[9\]). Both schemes share the properties the
//! evaluation depends on — every tile advances `VL` time levels per
//! synchronization, all tiles of a band run concurrently, and the
//! in-tile kernel is exactly the sequential engine — so the scalability
//! *shape* of Figure 4(b/d/f/h/j) is preserved; the ghost scheme pays a
//! small redundant-compute overhead (`2·height` columns per tile per band)
//! instead of the diamond's phase alternation. The substitution is
//! recorded in DESIGN.md.
//!
//! # Reusable workspaces
//!
//! Each dimension exposes a **workspace** type — [`GhostJacobi1d`],
//! [`GhostJacobi2d`], [`GhostJacobi3d`] — that resolves the geometry and
//! the in-tile engine once, allocates the tile arena and temporal scratch
//! once, and is then driven by repeated `advance(&mut grid, &pool)` calls
//! that run **allocation-free**. This is the execution layer behind
//! `tempora_plan::Plan`.
//!
//! # Engine dispatch
//!
//! The temporal in-tile kernel goes through the same dispatch as the
//! sequential engines: every workspace takes a [`Select`], resolves it
//! **once** against the AVX2 capability of its lane type
//! ([`tempora_simd::arch::avx2_lanes`]) and the tile geometry, and reports the resolved [`Engine`]
//! so the bench harness can record which steady state the parallel
//! series actually measured. Degenerate geometries — no full band, or
//! tiles too narrow to host a vector steady state — resolve portable,
//! because every engine would run the identical scalar schedule there.
//!
//! # Correctness (contamination argument)
//!
//! Each tile copies its block plus `height + 1` extra columns per side into a
//! private buffer and advances the buffer `height` levels treating the buffer
//! ends as Dirichlet cells. The values near the buffer edge are wrong
//! (they use the fake boundary), but a radius-1 stencil propagates the
//! error at most one column per level, so after `height` levels the
//! invalid region is exactly the `height` outermost columns per side — strictly
//! inside the ghost. The written-back interior is bit-identical to the
//! sequential result.
//!
//! # Parallel discipline
//!
//! Each band is two barrier-separated phases: **copy-in** (tiles read the
//! shared array, write only their private buffers) and **advance +
//! write-back** (tiles write only their own disjoint blocks, read nothing
//! shared). The pool barrier between the phases is what makes the
//! overlapping ghost reads race-free. Per-tile scratch slots are touched
//! only by their owning tile.
//!
//! Both phases run under [`Pool::for_each_owned`] **static ownership**:
//! tile `t` is advanced by the same worker in every band of every
//! `advance` call, and the workspaces' `fault_in` methods first-touch
//! each tile's arena through the pool with the *same* owner map, so on
//! NUMA machines a tile's pages live on the node of the worker that
//! computes it.

use tempora_core::engine::{Engine, Select};
use tempora_core::kernels::{Kernel1d, Kernel2d, Kernel3d, Nbhd, Nbhd3};
use tempora_core::{t1d, t2d, t3d};
use tempora_grid::{Boundary, Grid1, Grid2, Grid3};
use tempora_parallel::{Pool, SyncSlice};
use tempora_simd::{arch, Pack, Scalar};

/// Which in-tile kernel advances a ghost buffer by `VL` levels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Scalar in-place steps (the paper's "scalar" parallel curves).
    Scalar,
    /// Spatial multi-load vectorization (the paper's "auto" curves).
    Auto,
    /// Temporal vectorization with the given space stride (the paper's
    /// "our" curves); the concrete steady state — portable or AVX2 — is
    /// resolved from the runner's [`Select`].
    Temporal(usize),
}

/// Tile extents along the banded dimension: interior block `[a, b]` and
/// ghost-extended source range `[lo, hi]` (global coordinates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileExtent {
    /// First owned cell.
    pub a: usize,
    /// Last owned cell.
    pub b: usize,
    /// First copied cell (ghost start, may be a halo cell).
    pub lo: usize,
    /// Last copied cell (ghost end, may be a halo cell).
    pub hi: usize,
}

/// Compute the extents of tile `t` for interior size `n`, block width
/// `block` and ghost width `ghost`.
pub fn tile_extent(t: usize, n: usize, block: usize, ghost: usize) -> TileExtent {
    let a = t * block + 1;
    let b = ((t + 1) * block).min(n);
    TileExtent {
        a,
        b,
        lo: a.saturating_sub(ghost),
        hi: (b + ghost).min(n + 1),
    }
}

/// Resolve the in-tile engine for a temporal ghost run: the kernel must
/// have an AVX2 tile at this stride, at least one full band must run, and
/// **every** tile buffer must be wide enough to host the vector steady
/// state (`nb ≥ VL·s`) — otherwise some tile would silently run the
/// scalar fallback schedule and the reported engine would misname the
/// instruction mix.
fn resolve_ghost<const VL: usize>(
    sel: Select,
    has_kernel_avx2: bool,
    n: usize,
    block: usize,
    ghost: usize,
    bands: usize,
    s: usize,
) -> Engine {
    let ntiles = n.div_ceil(block);
    let vectorizable = bands > 0
        && (0..ntiles).all(|t| {
            let e = tile_extent(t, n, block, ghost);
            // Buffer interior nb = hi - lo - 1, tested against the
            // engines' own vector-path minimum so this check can never
            // drift from the in-tile fallback condition.
            e.hi - e.lo > t1d::min_vector_n::<VL>(s)
        });
    sel.resolve(has_kernel_avx2 && vectorizable)
}

/// One multi-load (spatially vectorized) Jacobi step on a 1-D buffer:
/// `dst[1..=n]` from `src`, halos untouched. Bit-identical to the
/// `multiload` baseline; exposed so sequential multi-load execution can
/// ping-pong caller-owned buffers without per-step allocation.
pub fn auto_step_1d<K: Kernel1d>(src: &[f64], dst: &mut [f64], n: usize, kern: &K) {
    const N: usize = 4;
    let mut x = 1;
    while x + N <= n + 1 {
        let l = Pack::<f64, N>::load(src, x - 1);
        let m = Pack::<f64, N>::load(src, x);
        let r = Pack::<f64, N>::load(src, x + 1);
        kern.pack(l, m, r).store(dst, x);
        x += N;
    }
    for x in x..=n {
        dst[x] = kern.scalar(0.0, src[x - 1], src[x], src[x + 1]);
    }
}

// ---------------------------------------------------------------------
// 1-D workspace
// ---------------------------------------------------------------------

/// Reusable ghost-zone workspace for 1-D Jacobi band tiling: geometry and
/// in-tile engine resolved once in [`GhostJacobi1d::new`], tile arena and
/// temporal scratch allocated once, then reused by every
/// [`GhostJacobi1d::advance`] call — the band loop is allocation-free.
pub struct GhostJacobi1d<K: Kernel1d> {
    kern: K,
    steps: usize,
    block: usize,
    height: usize,
    mode: Mode,
    engine: Option<Engine>,
    n: usize,
    ntiles: usize,
    buf_len: usize,
    bands: usize,
    arena: Vec<f64>,
    scratch: Vec<t1d::Scratch1d<4>>,
}

impl<K: Kernel1d> GhostJacobi1d<K> {
    /// Build a workspace for interior size `n`: bands of `height` time
    /// levels, blocks of `block` interior cells. For [`Mode::Temporal`],
    /// `sel` picks the in-tile steady state (resolved here, once).
    ///
    /// # Panics
    /// Panics when `block == 0` or `height` is not a positive multiple of
    /// the vector length 4 (`tempora_plan` validates these ahead of time
    /// and returns a `PlanError` instead).
    pub fn new(
        kern: K,
        n: usize,
        steps: usize,
        block: usize,
        height: usize,
        mode: Mode,
        sel: Select,
    ) -> Self {
        const VL: usize = 4;
        assert!(block >= 1);
        assert!(
            height >= VL && height % VL == 0,
            "height must be a multiple of {VL}"
        );
        let ntiles = n.div_ceil(block);
        let ghost = height + 1;
        let buf_len = block + 2 * ghost + 2;
        let bands = steps / height;
        let engine = match mode {
            Mode::Temporal(s) => Some(resolve_ghost::<VL>(
                sel,
                arch::avx2_lanes::<f64, VL>(),
                n,
                block,
                ghost,
                bands,
                s,
            )),
            _ => None,
        };
        // Per-tile temporal scratch (one arena slot per tile; the steady
        // state runs allocation-free).
        let scratch: Vec<t1d::Scratch1d<VL>> = match mode {
            Mode::Temporal(s) => (0..ntiles).map(|_| t1d::Scratch1d::new(s)).collect(),
            _ => Vec::new(),
        };
        GhostJacobi1d {
            kern,
            steps,
            block,
            height,
            mode,
            engine,
            n,
            ntiles,
            buf_len,
            bands,
            arena: vec![0.0f64; ntiles * buf_len * 2],
            scratch,
        }
    }

    /// The in-tile engine this workspace resolved to (`None` for the
    /// non-dispatched scalar/auto modes).
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    /// Number of tiles per band.
    pub fn tiles(&self) -> usize {
        self.ntiles
    }

    /// First-touch the workspace arenas through `pool`: tile `t`'s
    /// buffer pages are faulted in (and its temporal scratch
    /// re-allocated) by the worker that [`GhostJacobi1d::advance`] will
    /// later run tile `t` on — the owned schedule's `tiles()`-sized
    /// owner map is identical in both calls. Purely a placement
    /// optimization; results are unchanged whether or not it runs.
    pub fn fault_in(&mut self, pool: &Pool) {
        tempora_failpoint::failpoint!("fault_in");
        let buf_len = self.buf_len;
        let mode = self.mode;
        let arena_shared = SyncSlice::new(&mut self.arena);
        let scratch_shared = SyncSlice::new(&mut self.scratch);
        pool.for_each_owned(self.ntiles, |t| {
            // SAFETY: tile t touches only its own arena chunk and
            // scratch slot (the same ownership advance relies on).
            let chunk =
                unsafe { &mut arena_shared.slice_mut()[t * buf_len * 2..(t + 1) * buf_len * 2] };
            crate::touch_pages(chunk);
            if let Mode::Temporal(s) = mode {
                // SAFETY: tile t writes only its own scratch slot `[t]`;
                // slots are disjoint across tiles.
                let sc = unsafe { &mut scratch_shared.slice_mut()[t] };
                *sc = t1d::Scratch1d::new(s);
            }
        });
    }

    /// Advance `g` by the workspace's `steps` time levels in place, tiles
    /// of one band executed in parallel on `pool`. Results are
    /// bit-identical to the sequential engines and the scalar reference
    /// under every mode, selection and thread count.
    ///
    /// # Panics
    /// Panics if `g` does not match the workspace geometry.
    pub fn advance(&mut self, g: &mut Grid1<f64>, pool: &Pool) {
        const VL: usize = 4;
        assert_eq!(g.halo(), 1);
        assert_eq!(g.n(), self.n, "grid does not match workspace geometry");
        let Self {
            kern,
            steps,
            block,
            height,
            mode,
            engine,
            n,
            ntiles,
            buf_len,
            bands,
            arena,
            scratch,
        } = self;
        let (n, block, height, buf_len) = (*n, *block, *height, *buf_len);
        let ghost = height + 1;
        let mode = *mode;
        let engine = *engine;

        for _ in 0..*bands {
            let data = g.data_mut();
            let shared = SyncSlice::new(data);
            let arena_shared = SyncSlice::new(arena);
            let scratch_shared = SyncSlice::new(scratch);
            // Phase A: copy-in (shared array is read-only here). Owned
            // scheduling: tile t always runs on the worker that
            // fault_in placed its pages on.
            pool.for_each_owned(*ntiles, |t| {
                // SAFETY: the global array is only read during this phase,
                // so overlapping views across tiles never alias a write.
                let global = unsafe { shared.slice_mut() };
                // SAFETY: tile t writes only its own arena chunk; chunks
                // are disjoint across tiles.
                let chunk = unsafe {
                    &mut arena_shared.slice_mut()[t * buf_len * 2..t * buf_len * 2 + buf_len]
                };
                let e = tile_extent(t, n, block, ghost);
                chunk[..e.hi - e.lo + 1].copy_from_slice(&global[e.lo..=e.hi]);
            });
            // Phase B: advance private buffers, write back disjoint blocks.
            pool.for_each_owned(*ntiles, |t| {
                // SAFETY: tile t writes global[a..=b] only — disjoint across
                // tiles — and reads nothing else from the shared array.
                let global = unsafe { shared.slice_mut() };
                // SAFETY: tile t touches only its own arena chunk; chunks
                // are disjoint across tiles.
                let chunk = unsafe {
                    &mut arena_shared.slice_mut()[t * buf_len * 2..(t + 1) * buf_len * 2]
                };
                let (buf, tmp) = chunk.split_at_mut(buf_len);
                let e = tile_extent(t, n, block, ghost);
                let nb = e.hi - e.lo - 1;
                match mode {
                    Mode::Scalar => {
                        for _ in 0..height {
                            t1d::scalar_step_inplace(buf, nb, kern);
                        }
                    }
                    Mode::Auto => {
                        tmp[..nb + 2].copy_from_slice(&buf[..nb + 2]);
                        for step in 0..height {
                            if step % 2 == 0 {
                                auto_step_1d(buf, tmp, nb, kern);
                            } else {
                                auto_step_1d(tmp, buf, nb, kern);
                            }
                        }
                        if height % 2 == 1 {
                            buf[..nb + 2].copy_from_slice(&tmp[..nb + 2]);
                        }
                    }
                    Mode::Temporal(s) => {
                        // SAFETY: tile t writes only its own scratch slot
                        // `[t]`; slots are disjoint across tiles.
                        let sc = unsafe { &mut scratch_shared.slice_mut()[t] };
                        let engine = engine.unwrap_or(Engine::Portable);
                        for _ in 0..height / VL {
                            t1d::tile::<VL, false, K>(engine, buf, nb, kern, s, sc);
                        }
                    }
                }
                let off = e.a - e.lo;
                global[e.a..=e.b].copy_from_slice(&buf[off..off + (e.b - e.a + 1)]);
            });
        }
        let a = g.data_mut();
        for _ in 0..*steps % height {
            t1d::scalar_step_inplace(a, n, kern);
        }
    }
}

/// One multi-load Jacobi step on a 2-D buffer grid (vectorized along `y`).
/// Bit-identical to the `multiload` baseline; exposed for caller-owned
/// ping-pong execution.
pub fn auto_step_2d<T: Scalar, K: Kernel2d<T>>(src: &Grid2<T>, dst: &mut Grid2<T>, kern: &K) {
    const N: usize = 4;
    let (nx, ny, p) = (src.nx(), src.ny(), src.pitch());
    let a = src.data();
    let b = dst.data_mut();
    let zero = Pack::<T, N>::splat(T::ZERO);
    for x in 1..=nx {
        let r = x * p;
        let rows = [r - p, r, r + p];
        let mut y = 1;
        while y + N <= ny + 1 {
            let at = |row: usize, d: usize| Pack::<T, N>::load(a, rows[row] + y + d - 1);
            let v = if K::IS_BOX {
                [
                    [at(0, 0), at(0, 1), at(0, 2)],
                    [at(1, 0), at(1, 1), at(1, 2)],
                    [at(2, 0), at(2, 1), at(2, 2)],
                ]
            } else {
                [
                    [zero, at(0, 1), zero],
                    [at(1, 0), at(1, 1), at(1, 2)],
                    [zero, at(2, 1), zero],
                ]
            };
            kern.pack(Nbhd {
                v,
                new_n: zero,
                new_w: zero,
            })
            .store(b, r + y);
            y += N;
        }
        for y in y..=ny {
            let v = [
                [a[rows[0] + y - 1], a[rows[0] + y], a[rows[0] + y + 1]],
                [a[rows[1] + y - 1], a[rows[1] + y], a[rows[1] + y + 1]],
                [a[rows[2] + y - 1], a[rows[2] + y], a[rows[2] + y + 1]],
            ];
            b[r + y] = kern.scalar(Nbhd {
                v,
                new_n: T::ZERO,
                new_w: T::ZERO,
            });
        }
    }
}

/// Per-tile worker state for [`GhostJacobi2d`], allocated once per
/// workspace so the band loop runs allocation-free. The portable and
/// AVX2 instantiations of the steady state share one temporal scratch:
/// both run at the workspace's own lane count.
enum TileState2<T: Scalar, const VL: usize> {
    /// Scalar in-place row buffers.
    Rows(Vec<T>, Vec<T>),
    /// Multi-load ping-pong buffer.
    Tmp(Grid2<T>),
    /// Temporal scratch (portable or AVX2 steady state, per the resolved
    /// engine).
    Temporal(t2d::Scratch2d<T, VL>),
}

/// Reusable ghost-zone workspace for 2-D Jacobi band tiling along the
/// outer dimension (`VL` = 4 for `f64` kernels, 8 for the integer Life
/// kernel). See [`GhostJacobi1d`] for the lifecycle and engine contract.
pub struct GhostJacobi2d<T: Scalar, const VL: usize, K: Kernel2d<T>> {
    kern: K,
    steps: usize,
    block: usize,
    height: usize,
    mode: Mode,
    engine: Option<Engine>,
    nx: usize,
    ny: usize,
    ntiles: usize,
    bands: usize,
    bufs: Vec<Grid2<T>>,
    states: Vec<TileState2<T, VL>>,
    rem_rows: (Vec<T>, Vec<T>),
}

impl<T: Scalar, const VL: usize, K: Kernel2d<T>> GhostJacobi2d<T, VL, K> {
    /// Build a workspace for an `nx × ny` interior with boundary `bc`.
    /// See [`GhostJacobi1d::new`] for the panics contract.
    // Justification: constructor takes the full tile geometry; see the run_* wrapper rationale.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kern: K,
        nx: usize,
        ny: usize,
        bc: Boundary<T>,
        steps: usize,
        block: usize,
        height: usize,
        mode: Mode,
        sel: Select,
    ) -> Self {
        assert!(block >= 1);
        assert!(
            height >= VL && height % VL == 0,
            "height must be a multiple of VL"
        );
        let ntiles = nx.div_ceil(block);
        let ghost = height + 1;
        let bands = steps / height;
        let engine = match mode {
            Mode::Temporal(s) => Some(resolve_ghost::<VL>(
                sel,
                arch::avx2_lanes::<T, VL>(),
                nx,
                block,
                ghost,
                bands,
                s,
            )),
            _ => None,
        };
        // Persistent per-tile buffer grids (sized per tile).
        let bufs: Vec<Grid2<T>> = (0..ntiles)
            .map(|t| {
                let e = tile_extent(t, nx, block, ghost);
                Grid2::new(e.hi - e.lo - 1, ny, 1, bc)
            })
            .collect();
        let states: Vec<TileState2<T, VL>> = (0..ntiles)
            .map(|t| match mode {
                Mode::Scalar => TileState2::Rows(vec![T::ZERO; ny + 2], vec![T::ZERO; ny + 2]),
                Mode::Auto => TileState2::Tmp(bufs[t].clone()),
                Mode::Temporal(s) => TileState2::Temporal(t2d::Scratch2d::new(s, ny)),
            })
            .collect();
        GhostJacobi2d {
            kern,
            steps,
            block,
            height,
            mode,
            engine,
            nx,
            ny,
            ntiles,
            bands,
            bufs,
            states,
            rem_rows: (vec![T::ZERO; ny + 2], vec![T::ZERO; ny + 2]),
        }
    }

    /// The in-tile engine this workspace resolved to.
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    /// Number of tiles per band.
    pub fn tiles(&self) -> usize {
        self.ntiles
    }

    /// First-touch the per-tile buffer grids (and re-allocate the
    /// per-tile state) through `pool`, on the same owner map
    /// [`GhostJacobi2d::advance`] uses. See [`GhostJacobi1d::fault_in`].
    pub fn fault_in(&mut self, pool: &Pool) {
        tempora_failpoint::failpoint!("fault_in");
        let mode = self.mode;
        let ny = self.ny;
        let bufs_shared = SyncSlice::new(&mut self.bufs);
        let states_shared = SyncSlice::new(&mut self.states);
        pool.for_each_owned(self.ntiles, |t| {
            // SAFETY: tile t touches only its own buffer grid `bufs[t]`
            // (the same ownership advance relies on).
            let buf = unsafe { &mut bufs_shared.slice_mut()[t] };
            crate::touch_pages(buf.data_mut());
            // SAFETY: tile t writes only its own state slot `states[t]`;
            // slots are disjoint across tiles.
            let st = unsafe { &mut states_shared.slice_mut()[t] };
            *st = match mode {
                Mode::Scalar => TileState2::Rows(vec![T::ZERO; ny + 2], vec![T::ZERO; ny + 2]),
                Mode::Auto => TileState2::Tmp(buf.clone()),
                Mode::Temporal(s) => TileState2::Temporal(t2d::Scratch2d::new(s, ny)),
            };
        });
    }

    /// Advance `g` by the workspace's `steps` time levels in place. See
    /// [`GhostJacobi1d::advance`].
    pub fn advance(&mut self, g: &mut Grid2<T>, pool: &Pool) {
        assert_eq!(g.halo(), 1);
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
            mode,
            engine,
            ntiles,
            bands,
            bufs,
            states,
            rem_rows,
            nx,
            ..
        } = self;
        let (nx, block, height) = (*nx, *block, *height);
        let ghost = height + 1;
        let p = g.pitch();
        let mode = *mode;
        let engine = *engine;

        for _ in 0..*bands {
            let data = g.data_mut();
            let shared = SyncSlice::new(data);
            let bufs_shared = SyncSlice::new(bufs);
            let states_shared = SyncSlice::new(states);
            pool.for_each_owned(*ntiles, |t| {
                // SAFETY: phase A — the global array is only read, so
                // overlapping views across tiles never alias a write.
                let global = unsafe { shared.slice_mut() };
                // SAFETY: phase A — tile t writes only its own bufs[t].
                let buf = unsafe { &mut bufs_shared.slice_mut()[t] };
                let e = tile_extent(t, nx, block, ghost);
                let rows = e.hi - e.lo + 1;
                buf.data_mut()[..rows * p].copy_from_slice(&global[e.lo * p..(e.hi + 1) * p]);
            });
            pool.for_each_owned(*ntiles, |t| {
                // SAFETY: phase B — tile t's global writes are its own
                // disjoint row block [a, b]; no shared reads.
                let global = unsafe { shared.slice_mut() };
                // SAFETY: phase B — bufs[t] is tile t's own slot.
                let buf = unsafe { &mut bufs_shared.slice_mut()[t] };
                // SAFETY: phase B — states[t] is tile t's own slot.
                let st = unsafe { &mut states_shared.slice_mut()[t] };
                let e = tile_extent(t, nx, block, ghost);
                match st {
                    TileState2::Rows(ra, rb) => {
                        for _ in 0..height {
                            t2d::scalar_step_inplace(buf, kern, ra, rb);
                        }
                    }
                    TileState2::Tmp(tmp) => {
                        // Refresh the ping-pong buffer (including halo rows,
                        // which the copy-in phase rewrote in `buf`).
                        tmp.data_mut().copy_from_slice(buf.data());
                        for step in 0..height {
                            if step % 2 == 0 {
                                auto_step_2d(buf, tmp, kern);
                            } else {
                                auto_step_2d(tmp, buf, kern);
                            }
                        }
                        if height % 2 == 1 {
                            core::mem::swap(buf, tmp);
                        }
                    }
                    TileState2::Temporal(sc) => {
                        let Mode::Temporal(s) = mode else {
                            unreachable!()
                        };
                        let engine = engine.unwrap_or(Engine::Portable);
                        for _ in 0..height / VL {
                            t2d::tile::<T, VL, K>(engine, buf, kern, s, sc);
                        }
                    }
                }
                let off = e.a - e.lo;
                let src = buf.data();
                global[e.a * p..(e.b + 1) * p]
                    .copy_from_slice(&src[off * p..(off + e.b - e.a + 1) * p]);
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

/// One multi-load Jacobi step on a 3-D buffer grid (vectorized along `z`).
/// Bit-identical to the `multiload` baseline; exposed for caller-owned
/// ping-pong execution.
pub fn auto_step_3d<K: Kernel3d<f64>>(src: &Grid3<f64>, dst: &mut Grid3<f64>, kern: &K) {
    const N: usize = 4;
    let (nx, ny, nz) = (src.nx(), src.ny(), src.nz());
    let (p, pl) = (src.pitch(), src.plane());
    let a = src.data();
    let b = dst.data_mut();
    let zero = Pack::<f64, N>::splat(0.0);
    for x in 1..=nx {
        for y in 1..=ny {
            let r = x * pl + y * p;
            let mut z = 1;
            while z + N <= nz + 1 {
                let nb = Nbhd3 {
                    xm: Pack::<f64, N>::load(a, r - pl + z),
                    ym: Pack::<f64, N>::load(a, r - p + z),
                    zm: Pack::<f64, N>::load(a, r + z - 1),
                    m: Pack::<f64, N>::load(a, r + z),
                    zp: Pack::<f64, N>::load(a, r + z + 1),
                    yp: Pack::<f64, N>::load(a, r + p + z),
                    xp: Pack::<f64, N>::load(a, r + pl + z),
                    new_xm: zero,
                    new_ym: zero,
                    new_zm: zero,
                };
                kern.pack(nb).store(b, r + z);
                z += N;
            }
            for z in z..=nz {
                let nb = Nbhd3 {
                    xm: a[r - pl + z],
                    ym: a[r - p + z],
                    zm: a[r + z - 1],
                    m: a[r + z],
                    zp: a[r + z + 1],
                    yp: a[r + p + z],
                    xp: a[r + pl + z],
                    new_xm: 0.0,
                    new_ym: 0.0,
                    new_zm: 0.0,
                };
                b[r + z] = kern.scalar(nb);
            }
        }
    }
}

/// Per-tile worker state for [`GhostJacobi3d`], allocated once per
/// workspace.
enum TileState3 {
    /// Scalar in-place plane buffers.
    Planes(Vec<f64>, Vec<f64>),
    /// Multi-load ping-pong buffer.
    Tmp(Grid3<f64>),
    /// Temporal scratch (shared by the portable and AVX2 steady states —
    /// both run at `VL = 4` in 3-D).
    Temporal(t3d::Scratch3d<f64, 4>),
}

/// Reusable ghost-zone workspace for 3-D Jacobi band tiling along the
/// outer dimension. See [`GhostJacobi1d`] for the lifecycle and engine
/// contract.
pub struct GhostJacobi3d<K: Kernel3d<f64>> {
    kern: K,
    steps: usize,
    block: usize,
    height: usize,
    mode: Mode,
    engine: Option<Engine>,
    nx: usize,
    ny: usize,
    nz: usize,
    ntiles: usize,
    bands: usize,
    bufs: Vec<Grid3<f64>>,
    states: Vec<TileState3>,
    rem_planes: (Vec<f64>, Vec<f64>),
}

impl<K: Kernel3d<f64>> GhostJacobi3d<K> {
    /// Build a workspace for an `nx × ny × nz` interior with boundary
    /// `bc`. See [`GhostJacobi1d::new`] for the panics contract.
    // Justification: constructor takes the full tile geometry; see the run_* wrapper rationale.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kern: K,
        nx: usize,
        ny: usize,
        nz: usize,
        bc: Boundary<f64>,
        steps: usize,
        block: usize,
        height: usize,
        mode: Mode,
        sel: Select,
    ) -> Self {
        const VL: usize = 4;
        assert!(block >= 1);
        assert!(
            height >= VL && height % VL == 0,
            "height must be a multiple of {VL}"
        );
        let ntiles = nx.div_ceil(block);
        let ghost = height + 1;
        let bands = steps / height;
        let engine = match mode {
            Mode::Temporal(s) => Some(resolve_ghost::<VL>(
                sel,
                arch::avx2_lanes::<f64, VL>(),
                nx,
                block,
                ghost,
                bands,
                s,
            )),
            _ => None,
        };
        let bufs: Vec<Grid3<f64>> = (0..ntiles)
            .map(|t| {
                let e = tile_extent(t, nx, block, ghost);
                Grid3::new(e.hi - e.lo - 1, ny, nz, 1, bc)
            })
            .collect();
        let wp = (ny + 2) * (nz + 2);
        let states: Vec<TileState3> = (0..ntiles)
            .map(|t| match mode {
                Mode::Scalar => TileState3::Planes(vec![0.0; wp], vec![0.0; wp]),
                Mode::Auto => TileState3::Tmp(bufs[t].clone()),
                Mode::Temporal(s) => TileState3::Temporal(t3d::Scratch3d::new(s, ny, nz)),
            })
            .collect();
        GhostJacobi3d {
            kern,
            steps,
            block,
            height,
            mode,
            engine,
            nx,
            ny,
            nz,
            ntiles,
            bands,
            bufs,
            states,
            rem_planes: (vec![0.0; wp], vec![0.0; wp]),
        }
    }

    /// The in-tile engine this workspace resolved to.
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    /// Number of tiles per band.
    pub fn tiles(&self) -> usize {
        self.ntiles
    }

    /// First-touch the per-tile buffer grids (and re-allocate the
    /// per-tile state) through `pool`, on the same owner map
    /// [`GhostJacobi3d::advance`] uses. See [`GhostJacobi1d::fault_in`].
    pub fn fault_in(&mut self, pool: &Pool) {
        tempora_failpoint::failpoint!("fault_in");
        let mode = self.mode;
        let wp = (self.ny + 2) * (self.nz + 2);
        let (ny, nz) = (self.ny, self.nz);
        let bufs_shared = SyncSlice::new(&mut self.bufs);
        let states_shared = SyncSlice::new(&mut self.states);
        pool.for_each_owned(self.ntiles, |t| {
            // SAFETY: tile t touches only its own buffer grid `bufs[t]`
            // (the same ownership advance relies on).
            let buf = unsafe { &mut bufs_shared.slice_mut()[t] };
            crate::touch_pages(buf.data_mut());
            // SAFETY: tile t writes only its own state slot `states[t]`;
            // slots are disjoint across tiles.
            let st = unsafe { &mut states_shared.slice_mut()[t] };
            *st = match mode {
                Mode::Scalar => TileState3::Planes(vec![0.0; wp], vec![0.0; wp]),
                Mode::Auto => TileState3::Tmp(buf.clone()),
                Mode::Temporal(s) => TileState3::Temporal(t3d::Scratch3d::new(s, ny, nz)),
            };
        });
    }

    /// Advance `g` by the workspace's `steps` time levels in place. See
    /// [`GhostJacobi1d::advance`].
    pub fn advance(&mut self, g: &mut Grid3<f64>, pool: &Pool) {
        const VL: usize = 4;
        assert_eq!(g.halo(), 1);
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
            mode,
            engine,
            ntiles,
            bands,
            bufs,
            states,
            rem_planes,
            nx,
            ..
        } = self;
        let (nx, block, height) = (*nx, *block, *height);
        let ghost = height + 1;
        let pl = g.plane();
        let mode = *mode;
        let engine = *engine;

        for _ in 0..*bands {
            let data = g.data_mut();
            let shared = SyncSlice::new(data);
            let bufs_shared = SyncSlice::new(bufs);
            let states_shared = SyncSlice::new(states);
            pool.for_each_owned(*ntiles, |t| {
                // SAFETY: phase A — the global array is only read, so
                // overlapping views across tiles never alias a write.
                let global = unsafe { shared.slice_mut() };
                // SAFETY: phase A — tile t writes only its own bufs[t].
                let buf = unsafe { &mut bufs_shared.slice_mut()[t] };
                let e = tile_extent(t, nx, block, ghost);
                let slabs = e.hi - e.lo + 1;
                buf.data_mut()[..slabs * pl].copy_from_slice(&global[e.lo * pl..(e.hi + 1) * pl]);
            });
            pool.for_each_owned(*ntiles, |t| {
                // SAFETY: phase B — tile t's global writes are its own
                // disjoint slab block [a, b]; no shared reads.
                let global = unsafe { shared.slice_mut() };
                // SAFETY: phase B — bufs[t] is tile t's own slot.
                let buf = unsafe { &mut bufs_shared.slice_mut()[t] };
                // SAFETY: phase B — states[t] is tile t's own slot.
                let st = unsafe { &mut states_shared.slice_mut()[t] };
                let e = tile_extent(t, nx, block, ghost);
                match st {
                    TileState3::Planes(pa, pb) => {
                        for _ in 0..height {
                            t3d::scalar_step_inplace(buf, kern, pa, pb);
                        }
                    }
                    TileState3::Tmp(tmp) => {
                        tmp.data_mut().copy_from_slice(buf.data());
                        for step in 0..height {
                            if step % 2 == 0 {
                                auto_step_3d(buf, tmp, kern);
                            } else {
                                auto_step_3d(tmp, buf, kern);
                            }
                        }
                        if height % 2 == 1 {
                            core::mem::swap(buf, tmp);
                        }
                    }
                    TileState3::Temporal(sc) => {
                        let Mode::Temporal(s) = mode else {
                            unreachable!()
                        };
                        let engine = engine.unwrap_or(Engine::Portable);
                        for _ in 0..height / VL {
                            t3d::tile::<f64, VL, K>(engine, buf, kern, s, sc);
                        }
                    }
                }
                let off = e.a - e.lo;
                let src = buf.data();
                global[e.a * pl..(e.b + 1) * pl]
                    .copy_from_slice(&src[off * pl..(off + e.b - e.a + 1) * pl]);
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
    use tempora_core::kernels::{BoxKern2d, JacobiKern1d, JacobiKern2d, JacobiKern3d, LifeKern2d};
    use tempora_grid::{
        fill_random_1d, fill_random_2d, fill_random_3d, fill_random_life, Boundary,
    };
    use tempora_stencil::reference;
    use tempora_stencil::{Box2dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs, LifeRule};

    /// One-shot runs over a fresh workspace.
    // Justification: test helper mirrors the run contract signature.
    #[allow(clippy::too_many_arguments)]
    fn ghost_1d<K: Kernel1d + Copy>(
        grid: &Grid1<f64>,
        kern: &K,
        steps: usize,
        block: usize,
        height: usize,
        mode: Mode,
        sel: Select,
        pool: &Pool,
    ) -> (Grid1<f64>, Option<Engine>) {
        let mut w = GhostJacobi1d::new(*kern, grid.n(), steps, block, height, mode, sel);
        let mut g = grid.clone();
        w.advance(&mut g, pool);
        (g, w.engine())
    }

    // Justification: test helper mirrors the run contract signature.
    #[allow(clippy::too_many_arguments)]
    fn ghost_2d<T: Scalar, const VL: usize, K: Kernel2d<T> + Copy>(
        grid: &Grid2<T>,
        kern: &K,
        steps: usize,
        block: usize,
        height: usize,
        mode: Mode,
        sel: Select,
        pool: &Pool,
    ) -> (Grid2<T>, Option<Engine>) {
        let mut w = GhostJacobi2d::<T, VL, K>::new(
            *kern,
            grid.nx(),
            grid.ny(),
            grid.boundary(),
            steps,
            block,
            height,
            mode,
            sel,
        );
        let mut g = grid.clone();
        w.advance(&mut g, pool);
        (g, w.engine())
    }

    #[test]
    fn extents_partition_domain() {
        for &(n, block) in &[(100usize, 17usize), (64, 64), (10, 3)] {
            let ntiles = n.div_ceil(block);
            let mut covered = 0;
            for t in 0..ntiles {
                let e = tile_extent(t, n, block, 5);
                assert_eq!(e.a, covered + 1);
                covered = e.b;
                assert!(e.lo <= e.a && e.hi >= e.b && e.hi <= n + 1);
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn ghost_1d_all_modes_match_reference() {
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            for &(n, block, steps) in &[(200usize, 64usize, 8usize), (333, 50, 13), (64, 100, 4)] {
                let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.5));
                fill_random_1d(&mut g, n as u64, -1.0, 1.0);
                let gold = reference::heat1d(&g, c, steps);
                for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(7)] {
                    let (ours, _) = ghost_1d(&g, &kern, steps, block, 4, mode, Select::Auto, &pool);
                    assert!(
                        ours.interior_eq(&gold),
                        "threads={threads} n={n} block={block} steps={steps} mode={mode:?} {:?}",
                        ours.first_diff(&gold)
                    );
                }
            }
        }
    }

    #[test]
    fn ghost_1d_workspace_reuse_is_identical() {
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        let pool = Pool::new(2);
        let mut g0 = Grid1::new(300, 1, Boundary::Dirichlet(0.0));
        fill_random_1d(&mut g0, 17, -1.0, 1.0);
        let mut w = GhostJacobi1d::new(kern, 300, 8, 64, 4, Mode::Temporal(7), Select::Auto);
        let mut a = g0.clone();
        w.advance(&mut a, &pool);
        // Second use of the same workspace on a fresh state must agree
        // with the first bit-for-bit (tests/alloc_free.rs checks that it
        // allocates nothing).
        let mut b = g0.clone();
        w.advance(&mut b, &pool);
        assert!(a.interior_eq(&b));
        assert!(a.interior_eq(&reference::heat1d(&g0, c, 8)));
    }

    #[test]
    fn ghost_1d_engine_report_is_honest() {
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        let pool = Pool::new(2);
        // n divisible by block: every tile (runt included) hosts the
        // vector steady state at s = 7.
        let mut g = Grid1::new(448, 1, Boundary::Dirichlet(0.0));
        fill_random_1d(&mut g, 3, -1.0, 1.0);
        // Non-temporal modes never dispatch.
        let (_, e) = ghost_1d(&g, &kern, 8, 64, 4, Mode::Scalar, Select::Auto, &pool);
        assert_eq!(e, None);
        // Forced portable reports portable.
        let (_, e) = ghost_1d(
            &g,
            &kern,
            8,
            64,
            4,
            Mode::Temporal(7),
            Select::Portable,
            &pool,
        );
        assert_eq!(e, Some(Engine::Portable));
        // A degenerate geometry (block so narrow that every tile falls
        // back to the scalar schedule) must resolve portable even when
        // AVX2 is available.
        let (_, e) = ghost_1d(&g, &kern, 8, 2, 4, Mode::Temporal(7), Select::Auto, &pool);
        assert_eq!(e, Some(Engine::Portable));
        // On an AVX2 host, a healthy geometry resolves avx2 under Auto.
        if tempora_simd::arch::avx2_available() {
            let (_, e) = ghost_1d(&g, &kern, 8, 64, 4, Mode::Temporal(7), Select::Auto, &pool);
            assert_eq!(e, Some(Engine::Avx2));
        }
    }

    #[test]
    fn ghost_2d_star_and_box_match_reference() {
        let pool = Pool::new(2);
        let c = Heat2dCoeffs::classic(0.12);
        let kern = JacobiKern2d(c);
        let mut g = Grid2::new(60, 13, 1, Boundary::Dirichlet(0.1));
        fill_random_2d(&mut g, 9, -1.0, 1.0);
        let gold = reference::heat2d(&g, c, 8);
        for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(2)] {
            let (ours, _) = ghost_2d::<f64, 4, _>(&g, &kern, 8, 16, 8, mode, Select::Auto, &pool);
            assert!(
                ours.interior_eq(&gold),
                "mode={mode:?} {:?}",
                ours.first_diff(&gold)
            );
        }

        let cb = Box2dCoeffs::smooth(0.08);
        let kb = BoxKern2d(cb);
        let goldb = reference::box2d(&g, cb, 8);
        for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(2)] {
            let (ours, _) = ghost_2d::<f64, 4, _>(&g, &kb, 8, 16, 4, mode, Select::Auto, &pool);
            assert!(ours.interior_eq(&goldb), "box mode={mode:?}");
        }
    }

    #[test]
    fn ghost_2d_life_vl8_matches_reference() {
        let pool = Pool::new(2);
        let rule = LifeRule::b2s23();
        let kern = LifeKern2d(rule);
        let mut g = Grid2::<i32>::new(70, 20, 1, Boundary::Dirichlet(0));
        fill_random_life(&mut g, 4, 0.4);
        let gold = reference::life(&g, rule, 16);
        for mode in [Mode::Scalar, Mode::Temporal(2)] {
            let (ours, e) = ghost_2d::<i32, 8, _>(&g, &kern, 16, 24, 8, mode, Select::Auto, &pool);
            assert!(
                ours.interior_eq(&gold),
                "life mode={mode:?} {:?}",
                ours.first_diff(&gold)
            );
            // Life now carries the AVX2 integer steady state: on AVX2
            // hosts this healthy geometry resolves avx2 under Auto.
            if let Mode::Temporal(_) = mode {
                let expect = if tempora_simd::arch::avx2_available() {
                    Engine::Avx2
                } else {
                    Engine::Portable
                };
                assert_eq!(e, Some(expect));
            }
        }
        // Forced portable stays portable, bit-identically.
        let (ours, e) = ghost_2d::<i32, 8, _>(
            &g,
            &kern,
            16,
            24,
            8,
            Mode::Temporal(2),
            Select::Portable,
            &pool,
        );
        assert!(ours.interior_eq(&gold));
        assert_eq!(e, Some(Engine::Portable));
        // A block too narrow for the 8-lane steady state resolves
        // portable even under Auto.
        let (ours, e) =
            ghost_2d::<i32, 8, _>(&g, &kern, 16, 2, 8, Mode::Temporal(8), Select::Auto, &pool);
        assert!(ours.interior_eq(&gold));
        assert_eq!(e, Some(Engine::Portable));
    }

    #[test]
    fn fault_in_preserves_results_bitwise() {
        let pool = Pool::new(4);
        // 1-D.
        let c1 = Heat1dCoeffs::classic(0.25);
        let k1 = JacobiKern1d(c1);
        let mut g1 = Grid1::new(300, 1, Boundary::Dirichlet(0.0));
        fill_random_1d(&mut g1, 17, -1.0, 1.0);
        for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(7)] {
            let mut plain = GhostJacobi1d::new(k1, 300, 8, 64, 4, mode, Select::Auto);
            let mut faulted = GhostJacobi1d::new(k1, 300, 8, 64, 4, mode, Select::Auto);
            faulted.fault_in(&pool);
            let (mut a, mut b) = (g1.clone(), g1.clone());
            plain.advance(&mut a, &pool);
            faulted.advance(&mut b, &pool);
            assert!(a.interior_eq(&b), "1d mode={mode:?}");
        }
        // 2-D.
        let c2 = Heat2dCoeffs::classic(0.12);
        let k2 = JacobiKern2d(c2);
        let mut g2 = Grid2::new(60, 13, 1, Boundary::Dirichlet(0.1));
        fill_random_2d(&mut g2, 9, -1.0, 1.0);
        for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(2)] {
            let mk = || {
                GhostJacobi2d::<f64, 4, _>::new(k2, 60, 13, g2.boundary(), 8, 16, 8, mode, {
                    Select::Auto
                })
            };
            let (mut plain, mut faulted) = (mk(), mk());
            faulted.fault_in(&pool);
            let (mut a, mut b) = (g2.clone(), g2.clone());
            plain.advance(&mut a, &pool);
            faulted.advance(&mut b, &pool);
            assert!(a.interior_eq(&b), "2d mode={mode:?}");
        }
        // 3-D.
        let c3 = Heat3dCoeffs::classic(0.1);
        let k3 = JacobiKern3d(c3);
        let mut g3 = Grid3::new(40, 6, 7, 1, Boundary::Dirichlet(-0.2));
        fill_random_3d(&mut g3, 11, -1.0, 1.0);
        for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(2)] {
            let mk =
                || GhostJacobi3d::new(k3, 40, 6, 7, g3.boundary(), 9, 12, 4, mode, Select::Auto);
            let (mut plain, mut faulted) = (mk(), mk());
            faulted.fault_in(&pool);
            let (mut a, mut b) = (g3.clone(), g3.clone());
            plain.advance(&mut a, &pool);
            faulted.advance(&mut b, &pool);
            assert!(a.interior_eq(&b), "3d mode={mode:?}");
        }
    }

    #[test]
    fn ghost_3d_matches_reference() {
        let pool = Pool::new(2);
        let c = Heat3dCoeffs::classic(0.1);
        let kern = JacobiKern3d(c);
        let mut g = Grid3::new(40, 6, 7, 1, Boundary::Dirichlet(-0.2));
        fill_random_3d(&mut g, 11, -1.0, 1.0);
        let gold = reference::heat3d(&g, c, 9); // 2 bands + 1 remainder
        for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(2)] {
            let mut w = GhostJacobi3d::new(
                kern,
                g.nx(),
                g.ny(),
                g.nz(),
                g.boundary(),
                9,
                12,
                4,
                mode,
                Select::Auto,
            );
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
