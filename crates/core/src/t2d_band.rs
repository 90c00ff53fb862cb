//! Skewed-band (parallelogram) execution of the 2-D Gauss-Seidel engine.
//!
//! The 2-D analogue of [`crate::t1d_band`]: parallelogram tiles lean left
//! along the **outer** dimension `x` (whole `y`-rows move as units), the
//! single in-place array carries the inter-tile staircase, and the
//! temporal vector algebra is unchanged from the rectangular engine
//! [`crate::t2d`] — only the prologue/steady/epilogue row ranges shift.
//!
//! Staircase invariants (per row, identical to the 1-D case): when a tile
//! anchored at rows `[xl, xr]` starts, rows `≥ xl` hold the band-base
//! level, row `xl-k` holds level `k`, and level `k`'s rightmost row read
//! of level `k-1` finds it intact because the windows shrink by one row
//! per level.

use crate::engine::Engine;
use crate::kernels::{Kernel2d, Nbhd};
use tempora_grid::Grid2;
use tempora_simd::{LaneFn, Lanes, Pack};

/// Scalar 2-D Gauss-Seidel row update over one row `x` (columns
/// `1..=ny`), in place.
#[inline]
fn gs_row<K: Kernel2d<f64>>(a: &mut [f64], x: usize, ny: usize, p: usize, kern: &K) {
    let r = x * p;
    for y in 1..=ny {
        let nb = Nbhd {
            v: [
                [0.0, 0.0, 0.0], // old north operands unused by GS kernels
                [0.0, a[r + y], a[r + y + 1]],
                [0.0, a[r + p + y], 0.0],
            ],
            new_n: a[r - p + y],
            new_w: a[r + y - 1],
        };
        a[r + y] = kern.scalar(nb);
    }
}

/// One scalar skewed band: advance levels `1..=vl` over row windows
/// `[xl-(k-1), xr-(k-1)] ∩ [1, nx]`, in place.
pub fn band_scalar_gs2d<K: Kernel2d<f64>>(
    g: &mut Grid2<f64>,
    xl: usize,
    xr: usize,
    vl: usize,
    kern: &K,
) {
    debug_assert!(K::IS_GS);
    let (nx, ny, p) = (g.nx(), g.ny(), g.pitch());
    let a = g.data_mut();
    for k in 1..=vl {
        let lo = xl.saturating_sub(k - 1).max(1);
        let hi = (xr + 1).saturating_sub(k).min(nx);
        for x in lo..=hi {
            gs_row(a, x, ny, p, kern);
        }
    }
}

/// One temporally vectorized skewed band (2-D Gauss-Seidel),
/// bit-identical to [`band_scalar_gs2d`], with the steady state on
/// `engine`. Edge or narrow tiles fall back to the scalar band.
pub fn band_temporal_gs2d<const VL: usize, K: Kernel2d<f64>>(
    engine: Engine,
    g: &mut Grid2<f64>,
    xl: usize,
    xr: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch2d<VL>,
) {
    debug_assert!(K::IS_GS);
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    let (nx, ny) = (g.nx(), g.ny());
    assert_eq!(sc.ny, ny, "scratch shape mismatch");
    if !crate::t1d_band::vector_band_shape::<VL>(xl, xr, nx, s) {
        band_scalar_gs2d(g, xl, xr, VL, kern);
        return;
    }
    let (x_start, x_max) = band_prologue2d::<VL, K>(g, xl, xr, s, kern, sc);
    let (ny, p) = (g.ny(), g.pitch());
    let bc = g.boundary().value();
    engine.run(BandSteady2d {
        a: g.data_mut(),
        ny,
        p,
        bc,
        kern,
        s,
        sc,
        x_start,
        x_max,
    });
    band_epilogue2d::<VL, K>(g, xr, s, kern, sc, x_max);
}

/// Phase 1 of a 2-D temporal band: scalar prologue rows plus the initial
/// ring rows `V(x_start, ·) ..= V(x_start+s, ·)` and the previous output
/// row `O(x_start-1, ·)` in `sc.o_prev`. Returns `(x_start, x_max)`.
/// Callers must have checked [`crate::t1d_band::vector_band_shape`].
fn band_prologue2d<const VL: usize, K: Kernel2d<f64>>(
    g: &mut Grid2<f64>,
    xl: usize,
    xr: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch2d<VL>,
) -> (usize, usize) {
    let (ny, p) = (g.ny(), g.pitch());
    let bc = g.boundary().value();
    let a = g.data_mut();
    let x_start = xl - (VL - 1);
    let x_max = xr + 1 - VL * s;
    debug_assert!(x_max >= x_start);
    let w = ny + 2;

    // Prologue rows, stashing the row each pass is about to clobber.
    for k in 1..VL {
        sc.saved[k - 1][..w].copy_from_slice(&a[(x_start + (VL - k) * s) * p..][..w]);
        let lo = xl - (k - 1);
        let hi = x_start + (VL - k) * s;
        for x in lo..=hi {
            gs_row(a, x, ny, p, kern);
        }
    }

    // Initial ring rows V(x_start) ..= V(x_start+s) and O(x_start-1, ·).
    let rlen = s + 1;
    for (y, slot) in sc.ring[x_start % rlen].iter_mut().enumerate() {
        *slot = if y == 0 || y == ny + 1 {
            Pack::splat(bc)
        } else {
            Pack::from_fn(|i| {
                if i == VL - 1 {
                    a[x_start * p + y]
                } else {
                    sc.saved[i][y]
                }
            })
        };
    }
    for j in 1..=s {
        let x = x_start + j;
        for (y, slot) in sc.ring[x % rlen].iter_mut().enumerate() {
            *slot = if y == 0 || y == ny + 1 {
                Pack::splat(bc)
            } else {
                Pack::from_fn(|i| a[(x + (VL - 1 - i) * s) * p + y])
            };
        }
    }
    for (y, slot) in sc.o_prev.iter_mut().enumerate() {
        *slot = if y == 0 || y == ny + 1 {
            Pack::splat(bc)
        } else {
            Pack::from_fn(|i| a[(x_start - 1 + (VL - 1 - i) * s) * p + y])
        };
    }
    (x_start, x_max)
}

/// Steady state of a 2-D temporal band, written once over [`Lanes`]
/// (identical algebra to the rectangular engine's inner loop, with the
/// centre vector carried in a register).
struct BandSteady2d<'a, const VL: usize, K> {
    a: &'a mut [f64],
    ny: usize,
    p: usize,
    bc: f64,
    kern: &'a K,
    s: usize,
    sc: &'a mut BandScratch2d<VL>,
    x_start: usize,
    x_max: usize,
}

impl<const VL: usize, K: Kernel2d<f64>> LaneFn<f64, VL> for BandSteady2d<'_, VL, K> {
    type Output = ();

    #[inline(always)]
    fn call<L: Lanes<Elem = f64, Mem = Pack<f64, VL>>>(self) {
        let BandSteady2d {
            a,
            ny,
            p,
            bc,
            kern,
            s,
            sc,
            x_start,
            x_max,
        } = self;
        band_steady::<L, VL, K>(a, ny, p, bc, kern, s, sc, x_start, x_max)
    }
}

/// The loop of [`BandSteady2d`], taking its operands as parameters so the
/// compiler knows they do not alias.
#[inline(always)]
// Justification: the operands are the steady state's own; bundling them again would hide which ones the loop touches.
#[allow(clippy::too_many_arguments)]
fn band_steady<L: Lanes<Elem = f64, Mem = Pack<f64, VL>>, const VL: usize, K: Kernel2d<f64>>(
    a: &mut [f64],
    ny: usize,
    p: usize,
    bc: f64,
    kern: &K,
    s: usize,
    sc: &mut BandScratch2d<VL>,
    x_start: usize,
    x_max: usize,
) {
    let rlen = s + 1;
    let zero = L::splat(0.0);
    for x in x_start..=x_max {
        let i0 = x % rlen;
        let ip1 = (x + 1) % rlen;
        let ips = (x + s) % rlen;
        let mut wrow = core::mem::take(&mut sc.ring[ips]);
        {
            let r0 = &sc.ring[i0];
            let rp1 = &sc.ring[ip1];
            let mut o_west = L::splat(bc); // O(x, 0): y-boundary
            let mut m = L::load(r0[1]);
            for y in 1..=ny {
                let e = L::load(r0[y + 1]);
                let nb = Nbhd {
                    v: [
                        [zero, zero, zero],
                        [zero, m, e],
                        [zero, L::load(rp1[y]), zero],
                    ],
                    new_n: L::load(sc.o_prev[y]),
                    new_w: o_west,
                };
                let o = kern.pack(nb);
                a[x * p + y] = o.top();
                let bottom = a[(x + VL * s) * p + y];
                wrow[y] = o.shift_up_insert(bottom).store();
                sc.o_cur[y] = o.store();
                o_west = o;
                m = e;
            }
            // Halo packs of the produced row.
            wrow[0] = Pack::splat(bc);
            wrow[ny + 1] = Pack::splat(bc);
        }
        sc.ring[ips] = wrow;
        core::mem::swap(&mut sc.o_prev, &mut sc.o_cur);
        sc.o_cur[0] = Pack::splat(bc);
        sc.o_cur[ny + 1] = Pack::splat(bc);
    }
}

/// Phase 3 of a 2-D temporal band: materialize register-resident levels
/// into the staircase, then finish each level scalar.
fn band_epilogue2d<const VL: usize, K: Kernel2d<f64>>(
    g: &mut Grid2<f64>,
    xr: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch2d<VL>,
    x_max: usize,
) {
    let (ny, p) = (g.ny(), g.pitch());
    let a = g.data_mut();
    let rlen = s + 1;
    for j in x_max + 1..=x_max + s {
        let src = &sc.ring[j % rlen];
        for i in 1..VL {
            let row = (j + (VL - 1 - i) * s) * p;
            for y in 1..=ny {
                a[row + y] = src[y].extract(i);
            }
        }
    }
    for i in 0..VL - 1 {
        let row = (x_max + (VL - 1 - i) * s) * p;
        for y in 1..=ny {
            a[row + y] = sc.o_prev[y].extract(i);
        }
    }
    for k in 1..=VL {
        let lo = x_max + (VL - k) * s + 1;
        let hi = xr + 1 - k;
        for x in lo..=hi {
            gs_row(a, x, ny, p, kern);
        }
    }
}

/// Scratch for the banded 2-D engine.
pub struct BandScratch2d<const VL: usize> {
    ring: Vec<Vec<Pack<f64, VL>>>,
    o_prev: Vec<Pack<f64, VL>>,
    o_cur: Vec<Pack<f64, VL>>,
    saved: Vec<Vec<f64>>,
    ny: usize,
}

impl<const VL: usize> BandScratch2d<VL> {
    /// Allocate scratch for stride `s` and inner extent `ny`.
    pub fn new(s: usize, ny: usize) -> Self {
        let w = ny + 2;
        BandScratch2d {
            ring: (0..s + 1).map(|_| vec![Pack::splat(0.0); w]).collect(),
            o_prev: vec![Pack::splat(0.0); w],
            o_cur: vec![Pack::splat(0.0); w],
            saved: (0..VL).map(|_| vec![0.0; w]).collect(),
            ny,
        }
    }
}

/// Decompose one band of height `VL` into skewed row-blocks of anchor
/// width `block` and execute them in ascending order.
pub fn band_sweep_gs2d<const VL: usize, K: Kernel2d<f64>>(
    g: &mut Grid2<f64>,
    block: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch2d<VL>,
    temporal: Option<Engine>,
) {
    let nx = g.nx();
    let span = nx + VL - 1;
    let nblocks = span.div_ceil(block);
    for i in 0..nblocks {
        let xl = i * block + 1;
        let xr = ((i + 1) * block).min(span);
        match temporal {
            Some(engine) => band_temporal_gs2d::<VL, K>(engine, g, xl, xr, s, kern, sc),
            None => band_scalar_gs2d(g, xl, xr, VL, kern),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::GsKern2d;
    use tempora_grid::{fill_random_2d, Boundary};
    use tempora_stencil::reference;
    use tempora_stencil::Gs2dCoeffs;

    fn run_banded(
        g: &Grid2<f64>,
        kern: &GsKern2d,
        steps: usize,
        block: usize,
        s: usize,
        temporal: Option<Engine>,
    ) -> Grid2<f64> {
        const VL: usize = 4;
        let mut g = g.clone();
        let mut sc = BandScratch2d::<VL>::new(s, g.ny());
        for _ in 0..steps / VL {
            band_sweep_gs2d::<VL, _>(&mut g, block, s, kern, &mut sc, temporal);
        }
        for _ in 0..steps % VL {
            let (mut ra, mut rb) = (vec![0.0; g.ny() + 2], vec![0.0; g.ny() + 2]);
            crate::t2d::scalar_step_inplace(&mut g, kern, &mut ra, &mut rb);
        }
        g
    }

    #[test]
    fn scalar_banded_sweep_matches_reference() {
        let c = Gs2dCoeffs::classic(0.22);
        let kern = GsKern2d(c);
        for &(nx, ny, block) in &[(30usize, 9usize, 8usize), (48, 17, 16), (25, 6, 25)] {
            let mut g = Grid2::new(nx, ny, 1, Boundary::Dirichlet(0.2));
            fill_random_2d(&mut g, (nx * ny) as u64, -1.0, 1.0);
            let ours = run_banded(&g, &kern, 8, block, 2, None);
            let gold = reference::gs2d(&g, c, 8);
            assert!(
                ours.interior_eq(&gold),
                "nx={nx} block={block} diff {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn temporal_banded_sweep_matches_reference() {
        let c = Gs2dCoeffs::new(0.19, 0.23, 0.21, 0.17, 0.2);
        let kern = GsKern2d(c);
        for &(nx, ny, block, s) in &[
            (128usize, 10usize, 32usize, 2usize),
            (150, 7, 50, 3),
            (96, 16, 48, 2),
        ] {
            let mut g = Grid2::new(nx, ny, 1, Boundary::Dirichlet(-0.4));
            fill_random_2d(&mut g, (nx + ny) as u64, -1.0, 1.0);
            for steps in [4usize, 8, 10] {
                let ours = run_banded(&g, &kern, steps, block, s, Some(Engine::Portable));
                let gold = reference::gs2d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} block={block} s={s} steps={steps} diff {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn avx2_band_matches_scalar_oracle_bitwise() {
        if !tempora_simd::arch::avx2_available() {
            return;
        }
        const VL: usize = 4;
        let c = Gs2dCoeffs::new(0.19, 0.23, 0.21, 0.17, 0.2);
        let kern = GsKern2d(c);
        for &(nx, ny, block, s) in &[
            (128usize, 10usize, 32usize, 2usize),
            (150, 7, 50, 3),
            (96, 16, 48, 2),
            (40, 8, 10, 2), // every tile narrow: pure scalar fallback
        ] {
            let mut g = Grid2::new(nx, ny, 1, Boundary::Dirichlet(-0.4));
            fill_random_2d(&mut g, (nx + ny) as u64, -1.0, 1.0);
            for steps in [4usize, 8, 10] {
                let mut ours = g.clone();
                let mut sc = BandScratch2d::<VL>::new(s, ny);
                let span = nx + VL - 1;
                for _ in 0..steps / VL {
                    for i in 0..span.div_ceil(block) {
                        let xl = i * block + 1;
                        let xr = ((i + 1) * block).min(span);
                        band_temporal_gs2d::<4, _>(
                            Engine::Avx2,
                            &mut ours,
                            xl,
                            xr,
                            s,
                            &kern,
                            &mut sc,
                        );
                    }
                }
                for _ in 0..steps % VL {
                    let (mut ra, mut rb) = (vec![0.0; ny + 2], vec![0.0; ny + 2]);
                    crate::t2d::scalar_step_inplace(&mut ours, &kern, &mut ra, &mut rb);
                }
                let gold = reference::gs2d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} block={block} s={s} steps={steps} diff {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn narrow_blocks_fall_back() {
        let c = Gs2dCoeffs::classic(0.15);
        let kern = GsKern2d(c);
        let mut g = Grid2::new(40, 8, 1, Boundary::Dirichlet(0.0));
        fill_random_2d(&mut g, 2, -1.0, 1.0);
        let ours = run_banded(&g, &kern, 8, 10, 2, Some(Engine::Portable));
        let gold = reference::gs2d(&g, c, 8);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }
}
