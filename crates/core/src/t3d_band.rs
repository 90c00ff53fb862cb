//! Skewed-band (parallelogram) execution of the 3-D Gauss-Seidel engine —
//! [`crate::t1d_band`] with whole `(y, z)` planes as the unit of the
//! outer dimension.

use crate::engine::Engine;
use crate::kernels::{Kernel3d, Nbhd3};
use tempora_grid::Grid3;
use tempora_simd::{LaneFn, Lanes, Pack};

/// Scalar in-place 3-D Gauss-Seidel update of one slab `x`.
#[inline]
fn gs_slab<K: Kernel3d<f64>>(
    a: &mut [f64],
    x: usize,
    ny: usize,
    nz: usize,
    p: usize,
    pl: usize,
    kern: &K,
) {
    for y in 1..=ny {
        let r = x * pl + y * p;
        for z in 1..=nz {
            let nb = Nbhd3 {
                xm: 0.0,
                ym: 0.0,
                zm: 0.0,
                m: a[r + z],
                zp: a[r + z + 1],
                yp: a[r + p + z],
                xp: a[r + pl + z],
                new_xm: a[r - pl + z],
                new_ym: a[r - p + z],
                new_zm: a[r + z - 1],
            };
            a[r + z] = kern.scalar(nb);
        }
    }
}

/// One scalar skewed band over slab windows `[xl-(k-1), xr-(k-1)] ∩ [1, nx]`.
pub fn band_scalar_gs3d<K: Kernel3d<f64>>(
    g: &mut Grid3<f64>,
    xl: usize,
    xr: usize,
    vl: usize,
    kern: &K,
) {
    debug_assert!(K::IS_GS);
    let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    let a = g.data_mut();
    for k in 1..=vl {
        let lo = xl.saturating_sub(k - 1).max(1);
        let hi = (xr + 1).saturating_sub(k).min(nx);
        for x in lo..=hi {
            gs_slab(a, x, ny, nz, p, pl, kern);
        }
    }
}

/// Scratch for the banded 3-D engine.
pub struct BandScratch3d<const VL: usize> {
    ring: Vec<Vec<Pack<f64, VL>>>,
    o_prev: Vec<Pack<f64, VL>>,
    o_cur: Vec<Pack<f64, VL>>,
    saved: Vec<Vec<f64>>,
    ny: usize,
    nz: usize,
}

impl<const VL: usize> BandScratch3d<VL> {
    /// Allocate scratch for stride `s` and inner extents `ny × nz`.
    pub fn new(s: usize, ny: usize, nz: usize) -> Self {
        let wp = (ny + 2) * (nz + 2);
        BandScratch3d {
            ring: (0..s + 1).map(|_| vec![Pack::splat(0.0); wp]).collect(),
            o_prev: vec![Pack::splat(0.0); wp],
            o_cur: vec![Pack::splat(0.0); wp],
            saved: (0..VL).map(|_| vec![0.0; wp]).collect(),
            ny,
            nz,
        }
    }
}

/// One temporally vectorized skewed band (3-D Gauss-Seidel),
/// bit-identical to [`band_scalar_gs3d`], with the steady state on
/// `engine`; edge/narrow tiles fall back.
pub fn band_temporal_gs3d<const VL: usize, K: Kernel3d<f64>>(
    engine: Engine,
    g: &mut Grid3<f64>,
    xl: usize,
    xr: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch3d<VL>,
) {
    debug_assert!(K::IS_GS);
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
    assert_eq!((sc.ny, sc.nz), (ny, nz), "scratch shape mismatch");
    if !crate::t1d_band::vector_band_shape::<VL>(xl, xr, nx, s) {
        band_scalar_gs3d(g, xl, xr, VL, kern);
        return;
    }
    let (x_start, x_max) = band_prologue3d::<VL, K>(g, xl, xr, s, kern, sc);
    let (ny, nz, p, pl) = (g.ny(), g.nz(), g.pitch(), g.plane());
    let bc = g.boundary().value();
    engine.run(BandSteady3d {
        a: g.data_mut(),
        ny,
        nz,
        p,
        pl,
        bc,
        kern,
        s,
        sc,
        x_start,
        x_max,
    });
    band_epilogue3d::<VL, K>(g, xr, s, kern, sc, x_max);
}

/// Phase 1 of a 3-D temporal band: scalar prologue slabs plus the initial
/// ring planes and the previous output plane `O(x_start-1, ·, ·)` in
/// `sc.o_prev` (with `sc.o_cur` reset to the boundary value — its row 0
/// feeds the first plane's `y = 1` newest-north reads). Returns
/// `(x_start, x_max)`.
fn band_prologue3d<const VL: usize, K: Kernel3d<f64>>(
    g: &mut Grid3<f64>,
    xl: usize,
    xr: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch3d<VL>,
) -> (usize, usize) {
    let (ny, nz) = (g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    let bc = g.boundary().value();
    let a = g.data_mut();
    let x_start = xl - (VL - 1);
    let x_max = xr + 1 - VL * s;
    let wz = nz + 2;
    let lp = |y: usize, z: usize| y * wz + z;

    // Prologue slabs, stashing the slab each pass is about to clobber.
    for k in 1..VL {
        let src = (x_start + (VL - k) * s) * pl;
        let dst = &mut sc.saved[k - 1];
        for y in 0..ny + 2 {
            for z in 0..wz {
                dst[lp(y, z)] = a[src + y * p + z];
            }
        }
        for x in xl - (k - 1)..=x_start + (VL - k) * s {
            gs_slab(a, x, ny, nz, p, pl, kern);
        }
    }

    // Initial ring planes and O(x_start-1).
    let rlen = s + 1;
    for plane in sc.ring.iter_mut() {
        for slot in plane.iter_mut() {
            *slot = Pack::splat(bc);
        }
    }
    {
        let dst = &mut sc.ring[x_start % rlen];
        for y in 1..=ny {
            for z in 1..=nz {
                dst[lp(y, z)] = Pack::from_fn(|i| {
                    if i == VL - 1 {
                        a[x_start * pl + y * p + z]
                    } else {
                        sc.saved[i][lp(y, z)]
                    }
                });
            }
        }
    }
    for j in 1..=s {
        let x = x_start + j;
        let dst = &mut sc.ring[x % rlen];
        for y in 1..=ny {
            for z in 1..=nz {
                dst[lp(y, z)] = Pack::from_fn(|i| a[(x + (VL - 1 - i) * s) * pl + y * p + z]);
            }
        }
    }
    for slot in sc.o_prev.iter_mut() {
        *slot = Pack::splat(bc);
    }
    for y in 1..=ny {
        for z in 1..=nz {
            sc.o_prev[lp(y, z)] =
                Pack::from_fn(|i| a[(x_start - 1 + (VL - 1 - i) * s) * pl + y * p + z]);
        }
    }
    for slot in sc.o_cur.iter_mut() {
        *slot = Pack::splat(bc);
    }
    (x_start, x_max)
}

/// Steady state of a 3-D temporal band, written once over [`Lanes`]
/// (identical algebra to the rectangular engine's inner loop, with the
/// centre vector carried in a register).
struct BandSteady3d<'a, const VL: usize, K> {
    a: &'a mut [f64],
    ny: usize,
    nz: usize,
    p: usize,
    pl: usize,
    bc: f64,
    kern: &'a K,
    s: usize,
    sc: &'a mut BandScratch3d<VL>,
    x_start: usize,
    x_max: usize,
}

impl<const VL: usize, K: Kernel3d<f64>> LaneFn<f64, VL> for BandSteady3d<'_, VL, K> {
    type Output = ();

    #[inline(always)]
    fn call<L: Lanes<Elem = f64, Mem = Pack<f64, VL>>>(self) {
        let BandSteady3d {
            a,
            ny,
            nz,
            p,
            pl,
            bc,
            kern,
            s,
            sc,
            x_start,
            x_max,
        } = self;
        band_steady::<L, VL, K>(a, ny, nz, p, pl, bc, kern, s, sc, x_start, x_max)
    }
}

/// The loop of [`BandSteady3d`], taking its operands as parameters so the
/// compiler knows they do not alias.
#[inline(always)]
// Justification: the operands are the steady state's own; bundling them again would hide which ones the loop touches.
#[allow(clippy::too_many_arguments)]
fn band_steady<L: Lanes<Elem = f64, Mem = Pack<f64, VL>>, const VL: usize, K: Kernel3d<f64>>(
    a: &mut [f64],
    ny: usize,
    nz: usize,
    p: usize,
    pl: usize,
    bc: f64,
    kern: &K,
    s: usize,
    sc: &mut BandScratch3d<VL>,
    x_start: usize,
    x_max: usize,
) {
    let wz = nz + 2;
    let lp = |y: usize, z: usize| y * wz + z;
    let rlen = s + 1;
    let zero = L::splat(0.0);
    for x in x_start..=x_max {
        let i0 = x % rlen;
        let ip1 = (x + 1) % rlen;
        let ips = (x + s) % rlen;
        let mut wplane = core::mem::take(&mut sc.ring[ips]);
        {
            let r0 = &sc.ring[i0];
            let rp1 = &sc.ring[ip1];
            for y in 1..=ny {
                let mut o_z = L::splat(bc); // O(x, y, 0): z-boundary
                let mut m = L::load(r0[lp(y, 1)]);
                for z in 1..=nz {
                    let idx = lp(y, z);
                    let zp = L::load(r0[idx + 1]);
                    let nb = Nbhd3 {
                        xm: zero,
                        ym: zero,
                        zm: zero,
                        m,
                        zp,
                        yp: L::load(r0[idx + wz]),
                        xp: L::load(rp1[idx]),
                        new_xm: L::load(sc.o_prev[idx]),
                        new_ym: L::load(sc.o_cur[idx - wz]),
                        new_zm: o_z,
                    };
                    let o = kern.pack(nb);
                    a[x * pl + y * p + z] = o.top();
                    let bottom = a[(x + VL * s) * pl + y * p + z];
                    wplane[idx] = o.shift_up_insert(bottom).store();
                    sc.o_cur[idx] = o.store();
                    o_z = o;
                    m = zp;
                }
            }
            for z in 0..wz {
                wplane[lp(0, z)] = Pack::splat(bc);
                wplane[lp(ny + 1, z)] = Pack::splat(bc);
            }
            for y in 1..=ny {
                wplane[lp(y, 0)] = Pack::splat(bc);
                wplane[lp(y, nz + 1)] = Pack::splat(bc);
            }
        }
        sc.ring[ips] = wplane;
        core::mem::swap(&mut sc.o_prev, &mut sc.o_cur);
        for z in 0..wz {
            sc.o_cur[lp(0, z)] = Pack::splat(bc);
        }
    }
}

/// Phase 3 of a 3-D temporal band: materialize register-resident levels,
/// then finish each level scalar.
fn band_epilogue3d<const VL: usize, K: Kernel3d<f64>>(
    g: &mut Grid3<f64>,
    xr: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch3d<VL>,
    x_max: usize,
) {
    let (ny, nz) = (g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    let a = g.data_mut();
    let wz = nz + 2;
    let lp = |y: usize, z: usize| y * wz + z;
    let rlen = s + 1;
    for j in x_max + 1..=x_max + s {
        let src = &sc.ring[j % rlen];
        for i in 1..VL {
            let slab = (j + (VL - 1 - i) * s) * pl;
            for y in 1..=ny {
                for z in 1..=nz {
                    a[slab + y * p + z] = src[lp(y, z)].extract(i);
                }
            }
        }
    }
    for i in 0..VL - 1 {
        let slab = (x_max + (VL - 1 - i) * s) * pl;
        for y in 1..=ny {
            for z in 1..=nz {
                a[slab + y * p + z] = sc.o_prev[lp(y, z)].extract(i);
            }
        }
    }
    for k in 1..=VL {
        let lo = x_max + (VL - k) * s + 1;
        let hi = xr + 1 - k;
        for x in lo..=hi {
            gs_slab(a, x, ny, nz, p, pl, kern);
        }
    }
}

/// Decompose one band of height `VL` into skewed slab-blocks and execute
/// them in ascending order.
pub fn band_sweep_gs3d<const VL: usize, K: Kernel3d<f64>>(
    g: &mut Grid3<f64>,
    block: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch3d<VL>,
    temporal: Option<Engine>,
) {
    let nx = g.nx();
    let span = nx + VL - 1;
    let nblocks = span.div_ceil(block);
    for i in 0..nblocks {
        let xl = i * block + 1;
        let xr = ((i + 1) * block).min(span);
        match temporal {
            Some(engine) => band_temporal_gs3d::<VL, K>(engine, g, xl, xr, s, kern, sc),
            None => band_scalar_gs3d(g, xl, xr, VL, kern),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::GsKern3d;
    use tempora_grid::{fill_random_3d, Boundary};
    use tempora_stencil::reference;
    use tempora_stencil::Gs3dCoeffs;

    fn run_banded(
        g: &Grid3<f64>,
        kern: &GsKern3d,
        steps: usize,
        block: usize,
        s: usize,
        temporal: Option<Engine>,
    ) -> Grid3<f64> {
        const VL: usize = 4;
        let mut g = g.clone();
        let mut sc = BandScratch3d::<VL>::new(s, g.ny(), g.nz());
        for _ in 0..steps / VL {
            band_sweep_gs3d::<VL, _>(&mut g, block, s, kern, &mut sc, temporal);
        }
        for _ in 0..steps % VL {
            let wp = (g.ny() + 2) * (g.nz() + 2);
            let (mut pa, mut pb) = (vec![0.0; wp], vec![0.0; wp]);
            crate::t3d::scalar_step_inplace(&mut g, kern, &mut pa, &mut pb);
        }
        g
    }

    #[test]
    fn scalar_banded_sweep_matches_reference() {
        let c = Gs3dCoeffs::classic(0.12);
        let kern = GsKern3d(c);
        for &(nx, block) in &[(20usize, 6usize), (33, 11), (16, 16)] {
            let mut g = Grid3::new(nx, 5, 6, 1, Boundary::Dirichlet(0.3));
            fill_random_3d(&mut g, nx as u64, -1.0, 1.0);
            let ours = run_banded(&g, &kern, 8, block, 2, None);
            let gold = reference::gs3d(&g, c, 8);
            assert!(
                ours.interior_eq(&gold),
                "nx={nx} block={block} diff {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn temporal_banded_sweep_matches_reference() {
        let c = Gs3dCoeffs::new(0.14, 0.11, 0.1, 0.22, 0.09, 0.12, 0.08);
        let kern = GsKern3d(c);
        for &(nx, block, s) in &[(96usize, 32usize, 2usize), (120, 40, 3)] {
            let mut g = Grid3::new(nx, 5, 7, 1, Boundary::Dirichlet(-0.1));
            fill_random_3d(&mut g, (nx + s) as u64, -1.0, 1.0);
            for steps in [4usize, 8] {
                let ours = run_banded(&g, &kern, steps, block, s, Some(Engine::Portable));
                let gold = reference::gs3d(&g, c, steps);
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
        let c = Gs3dCoeffs::new(0.14, 0.11, 0.1, 0.22, 0.09, 0.12, 0.08);
        let kern = GsKern3d(c);
        for &(nx, block, s) in &[
            (96usize, 32usize, 2usize),
            (120, 40, 3),
            (30, 8, 2), // every tile narrow: pure scalar fallback
        ] {
            let mut g = Grid3::new(nx, 5, 7, 1, Boundary::Dirichlet(-0.1));
            fill_random_3d(&mut g, (nx + s) as u64, -1.0, 1.0);
            for steps in [4usize, 8] {
                let mut ours = g.clone();
                let mut sc = BandScratch3d::<VL>::new(s, ours.ny(), ours.nz());
                let span = nx + VL - 1;
                for _ in 0..steps / VL {
                    for i in 0..span.div_ceil(block) {
                        let xl = i * block + 1;
                        let xr = ((i + 1) * block).min(span);
                        band_temporal_gs3d::<4, _>(
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
                    let wp = (ours.ny() + 2) * (ours.nz() + 2);
                    let (mut pa, mut pb) = (vec![0.0; wp], vec![0.0; wp]);
                    crate::t3d::scalar_step_inplace(&mut ours, &kern, &mut pa, &mut pb);
                }
                let gold = reference::gs3d(&g, c, steps);
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
        let c = Gs3dCoeffs::classic(0.1);
        let kern = GsKern3d(c);
        let mut g = Grid3::new(30, 4, 4, 1, Boundary::Dirichlet(0.0));
        fill_random_3d(&mut g, 7, -1.0, 1.0);
        let ours = run_banded(&g, &kern, 8, 8, 2, Some(Engine::Portable));
        let gold = reference::gs3d(&g, c, 8);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }
}
