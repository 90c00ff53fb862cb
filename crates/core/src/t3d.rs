//! Temporal vectorization of three-dimensional stencils.
//!
//! Same outer-loop scheme as [`crate::t2d`], one dimension deeper: the
//! outermost space loop `x` carries the `VL` time levels, and the
//! wavefront ring stores whole `(y, z)` **planes** of input-vector packs.
//! The per-point steady-state work is identical to the 2-D case (one
//! vectorized stencil application + rotate/blend); only the buffer
//! geometry changes — which is precisely the paper's point that the
//! reorganization cost does not grow with dimensionality.
//!
//! Gauss-Seidel adds the previous output plane (newest `x-1` operand), the
//! current output plane being filled (newest `y-1` operand) and the
//! previous output register (newest `z-1` operand).

use crate::engine::Engine;
use crate::kernels::{Kernel3d, Nbhd3};
use tempora_grid::Grid3;
use tempora_simd::{LaneFn, Lanes, Pack, Scalar};

/// Scratch state for one 3-D sweep configuration, reusable across tiles.
pub struct Scratch3d<T: Scalar, const VL: usize> {
    /// `head[k]`: level-`k` slabs `x ∈ 0..=(VL-k)·s` (slab 0 = boundary),
    /// each slab `(ny+2) × (nz+2)` flat.
    pub(crate) head: Vec<Vec<T>>,
    /// `tail[i]`: level-`i` slabs re-based at `x_max + (VL-1-i)·s`,
    /// `(i+1)·s + 1` slabs.
    pub(crate) tail: Vec<Vec<T>>,
    /// Wavefront ring: `s + 2` planes of `(ny+2) × (nz+2)` packs.
    pub(crate) ring: Vec<Vec<Pack<T, VL>>>,
    /// Previous / current output planes (Gauss-Seidel only).
    pub(crate) o_prev: Vec<Pack<T, VL>>,
    pub(crate) o_cur: Vec<Pack<T, VL>>,
    /// Two old-plane copies for the in-place scalar step.
    pub(crate) plane_a: Vec<T>,
    pub(crate) plane_b: Vec<T>,
    pub(crate) s: usize,
    pub(crate) ny: usize,
    pub(crate) nz: usize,
}

impl<T: Scalar, const VL: usize> Scratch3d<T, VL> {
    /// Allocate scratch for stride `s` and inner extents `ny × nz`.
    pub fn new(s: usize, ny: usize, nz: usize) -> Self {
        let wp = (ny + 2) * (nz + 2);
        Scratch3d {
            head: (0..VL)
                .map(|k| vec![T::ZERO; ((VL - k) * s + 1) * wp])
                .collect(),
            tail: (0..VL)
                .map(|i| vec![T::ZERO; ((i + 1) * s + 1) * wp])
                .collect(),
            ring: (0..s + 2).map(|_| vec![Pack::splat(T::ZERO); wp]).collect(),
            o_prev: vec![Pack::splat(T::ZERO); wp],
            o_cur: vec![Pack::splat(T::ZERO); wp],
            plane_a: vec![T::ZERO; wp],
            plane_b: vec![T::ZERO; wp],
            s,
            ny,
            nz,
        }
    }
}

/// One in-place scalar time step (degenerate tiles, step remainders).
/// Bit-identical to the double-buffered reference.
pub fn scalar_step_inplace<T: Scalar, K: Kernel3d<T>>(
    g: &mut Grid3<T>,
    kern: &K,
    plane_a: &mut [T],
    plane_b: &mut [T],
) {
    let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    let wz = nz + 2;
    let a = g.data_mut();
    // Local scratch pitch: wz per row, (ny+2) rows.
    let lp = |y: usize, z: usize| y * wz + z;
    let (mut pa, mut pb) = (plane_a, plane_b);
    // pa = old slab x-1, pb = old slab x.
    for y in 0..ny + 2 {
        for z in 0..nz + 2 {
            pa[lp(y, z)] = a[y * p + z]; // slab 0 (boundary slab: constant)
        }
    }
    for x in 1..=nx {
        for y in 0..ny + 2 {
            for z in 0..nz + 2 {
                pb[lp(y, z)] = a[x * pl + y * p + z];
            }
        }
        for y in 1..=ny {
            for z in 1..=nz {
                let nb = Nbhd3 {
                    xm: pa[lp(y, z)],
                    ym: pb[lp(y - 1, z)],
                    zm: pb[lp(y, z - 1)],
                    m: pb[lp(y, z)],
                    zp: pb[lp(y, z + 1)],
                    yp: pb[lp(y + 1, z)],
                    xp: a[(x + 1) * pl + y * p + z],
                    new_xm: a[(x - 1) * pl + y * p + z],
                    new_ym: a[x * pl + (y - 1) * p + z],
                    new_zm: a[x * pl + y * p + z - 1],
                };
                a[x * pl + y * p + z] = kern.scalar(nb);
            }
        }
        core::mem::swap(&mut pa, &mut pb);
    }
}

/// Advance the grid by `VL` time steps with the temporal-vectorized
/// schedule (in place, single array), running the steady state on
/// `engine` (see [`Engine::run`]).
pub fn tile<T: Scalar, const VL: usize, K: Kernel3d<T>>(
    engine: Engine,
    g: &mut Grid3<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch3d<T, VL>,
) {
    if tile_fallback_if_degenerate::<T, VL, K>(g, kern, s, sc) {
        return;
    }
    let x_max = tile_prologue::<T, VL, K>(g, kern, s, sc);
    let (ny, nz, p, pl) = (g.ny(), g.nz(), g.pitch(), g.plane());
    let bc = g.boundary().value();
    engine.run(Steady3d {
        a: g.data_mut(),
        ny,
        nz,
        p,
        pl,
        bc,
        kern,
        s,
        sc,
        x_max,
    });
    tile_epilogue::<T, VL, K>(g, kern, s, sc, x_max);
}

/// Shared degenerate-tile guard: when the outer extent cannot host the
/// vector schedule (`nx < VL·s`), run the `VL` steps with the scalar
/// schedule instead (same results) and report `true`.
fn tile_fallback_if_degenerate<T: Scalar, const VL: usize, K: Kernel3d<T>>(
    g: &mut Grid3<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch3d<T, VL>,
) -> bool {
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    assert_eq!(g.halo(), 1, "temporal engines use halo width 1");
    assert_eq!(
        (sc.s, sc.ny, sc.nz),
        (s, g.ny(), g.nz()),
        "scratch shape mismatch"
    );
    if g.nx() >= VL * s {
        return false;
    }
    for _ in 0..VL {
        let (mut pa, mut pb) = (
            core::mem::take(&mut sc.plane_a),
            core::mem::take(&mut sc.plane_b),
        );
        scalar_step_inplace(g, kern, &mut pa, &mut pb);
        sc.plane_a = pa;
        sc.plane_b = pb;
    }
    true
}

/// Phase 1 of a 3-D temporal tile: scalar head slabs for levels `1..VL`,
/// the initial wavefront ring `W(0) ..= W(s)`, and (for Gauss-Seidel) the
/// initial output plane `O(0, ·, ·)` in `sc.o_prev` (with `sc.o_cur`
/// halo-initialized). Returns the steady-state bound `x_max`.
fn tile_prologue<T: Scalar, const VL: usize, K: Kernel3d<T>>(
    g: &mut Grid3<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch3d<T, VL>,
) -> usize {
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    assert_eq!(g.halo(), 1, "temporal engines use halo width 1");
    assert_eq!(
        (sc.s, sc.ny, sc.nz),
        (s, g.ny(), g.nz()),
        "scratch shape mismatch"
    );
    let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    assert!(
        nx >= VL * s,
        "degenerate tile (nx={nx} < VL*s={}): call tile_fallback_if_degenerate first",
        VL * s
    );
    let bc = g.boundary().value();
    let x_max = nx + 1 - VL * s;
    let wz = nz + 2;
    let wp = (ny + 2) * wz;
    let rlen = s + 2;
    let lp = |y: usize, z: usize| y * wz + z;
    let a = g.data_mut();

    // ------------------------------------------------------------------
    // Prologue: head[k] = level k over slabs 1..=(VL-k)·s.
    // ------------------------------------------------------------------
    for k in 1..VL {
        let hi = (VL - k) * s;
        let (lo_planes, hi_planes) = sc.head.split_at_mut(k);
        let plane = &mut hi_planes[0];
        for v in plane[..wp].iter_mut() {
            *v = bc; // boundary slab 0
        }
        for x in 1..=hi {
            let sb = x * wp;
            // Halo shell of this slab.
            for z in 0..wz {
                plane[sb + lp(0, z)] = bc;
                plane[sb + lp(ny + 1, z)] = bc;
            }
            for y in 1..=ny {
                plane[sb + lp(y, 0)] = bc;
                plane[sb + lp(y, nz + 1)] = bc;
            }
            for y in 1..=ny {
                for z in 1..=nz {
                    let old = |dx: i32, dy: i32, dz: i32| -> T {
                        let (xx, yy, zz) = (
                            (x as i32 + dx) as usize,
                            (y as i32 + dy) as usize,
                            (z as i32 + dz) as usize,
                        );
                        if k == 1 {
                            a[xx * pl + yy * p + zz]
                        } else {
                            lo_planes[k - 1][xx * wp + lp(yy, zz)]
                        }
                    };
                    let nb = Nbhd3 {
                        xm: old(-1, 0, 0),
                        ym: old(0, -1, 0),
                        zm: old(0, 0, -1),
                        m: old(0, 0, 0),
                        zp: old(0, 0, 1),
                        yp: old(0, 1, 0),
                        xp: old(1, 0, 0),
                        new_xm: plane[(x - 1) * wp + lp(y, z)],
                        new_ym: plane[sb + lp(y - 1, z)],
                        new_zm: plane[sb + lp(y, z - 1)],
                    };
                    plane[sb + lp(y, z)] = kern.scalar(nb);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Initial wavefront ring W(0) ..= W(s); halo packs everywhere.
    // ------------------------------------------------------------------
    for plane in sc.ring.iter_mut() {
        for slot in plane.iter_mut() {
            *slot = Pack::splat(bc);
        }
    }
    for j in 0..=s {
        let head = &sc.head;
        let dst = &mut sc.ring[j % rlen];
        for y in 1..=ny {
            for z in 1..=nz {
                dst[lp(y, z)] = Pack::from_fn(|i| {
                    let x = j + (VL - 1 - i) * s;
                    if i == 0 {
                        a[x * pl + y * p + z]
                    } else if x == 0 {
                        bc
                    } else {
                        head[i][x * wp + lp(y, z)]
                    }
                });
            }
        }
    }

    // Gauss-Seidel: O(0, ·, ·) from the head planes.
    if K::IS_GS {
        for slot in sc.o_prev.iter_mut() {
            *slot = Pack::splat(bc);
        }
        for y in 1..=ny {
            for z in 1..=nz {
                sc.o_prev[lp(y, z)] = Pack::from_fn(|i| {
                    let x = (VL - 1 - i) * s;
                    if i == VL - 1 {
                        bc
                    } else {
                        sc.head[i + 1][x * wp + lp(y, z)]
                    }
                });
            }
        }
        for slot in sc.o_cur.iter_mut() {
            *slot = Pack::splat(bc);
        }
    }
    x_max
}

/// Phase 2 of a 3-D temporal tile, written once over [`Lanes`]: one
/// vectorized pass per outer slab `x ∈ 1..=x_max`, with the `z`-west and
/// centre vectors carried in registers and only the operands the kernel
/// reads loaded. `x_max` must come from [`tile_prologue`].
struct Steady3d<'a, T: Scalar, const VL: usize, K> {
    a: &'a mut [T],
    ny: usize,
    nz: usize,
    p: usize,
    pl: usize,
    bc: T,
    kern: &'a K,
    s: usize,
    sc: &'a mut Scratch3d<T, VL>,
    x_max: usize,
}

impl<T: Scalar, const VL: usize, K: Kernel3d<T>> LaneFn<T, VL> for Steady3d<'_, T, VL, K> {
    type Output = ();

    #[inline(always)]
    fn call<L: Lanes<Elem = T, Mem = Pack<T, VL>>>(self) {
        let Steady3d {
            a,
            ny,
            nz,
            p,
            pl,
            bc,
            kern,
            s,
            sc,
            x_max,
        } = self;
        steady::<L, T, VL, K>(a, ny, nz, p, pl, bc, kern, s, sc, x_max)
    }
}

/// The loop of [`Steady3d`], taking its operands as parameters so the
/// compiler knows they do not alias.
#[inline(always)]
// Justification: the operands are the steady state's own; bundling them again would hide which ones the loop touches.
#[allow(clippy::too_many_arguments)]
fn steady<L: Lanes<Elem = T, Mem = Pack<T, VL>>, T: Scalar, const VL: usize, K: Kernel3d<T>>(
    a: &mut [T],
    ny: usize,
    nz: usize,
    p: usize,
    pl: usize,
    bc: T,
    kern: &K,
    s: usize,
    sc: &mut Scratch3d<T, VL>,
    x_max: usize,
) {
    let wz = nz + 2;
    let rlen = s + 2;
    let lp = |y: usize, z: usize| y * wz + z;
    let zero = L::splat(T::ZERO);
    for x in 1..=x_max {
        let im1 = (x - 1) % rlen;
        let i0 = x % rlen;
        let ip1 = (x + 1) % rlen;
        let ips = (x + s) % rlen;
        let mut wplane = core::mem::take(&mut sc.ring[ips]);
        {
            let rm1 = &sc.ring[im1];
            let r0 = &sc.ring[i0];
            let rp1 = &sc.ring[ip1];
            for y in 1..=ny {
                let mut o_z = L::splat(bc); // O(x, y, 0): z-boundary
                let mut zm = L::load(r0[lp(y, 0)]);
                let mut m = L::load(r0[lp(y, 1)]);
                for z in 1..=nz {
                    let idx = lp(y, z);
                    let zp = L::load(r0[idx + 1]);
                    let (xm, ym, new_xm, new_ym) = if K::IS_GS {
                        (
                            zero,
                            zero,
                            L::load(sc.o_prev[idx]),
                            L::load(sc.o_cur[idx - wz]),
                        )
                    } else {
                        (L::load(rm1[idx]), L::load(r0[idx - wz]), zero, zero)
                    };
                    let nb = Nbhd3 {
                        xm,
                        ym,
                        zm,
                        m,
                        zp,
                        yp: L::load(r0[idx + wz]),
                        xp: L::load(rp1[idx]),
                        new_xm,
                        new_ym,
                        new_zm: o_z,
                    };
                    let o = kern.pack(nb);
                    a[x * pl + y * p + z] = o.top();
                    let bottom = a[(x + VL * s) * pl + y * p + z];
                    wplane[idx] = o.shift_up_insert(bottom).store();
                    if K::IS_GS {
                        sc.o_cur[idx] = o.store();
                        o_z = o;
                    }
                    zm = m;
                    m = zp;
                }
            }
        }
        sc.ring[ips] = wplane;
        if K::IS_GS {
            core::mem::swap(&mut sc.o_prev, &mut sc.o_cur);
            // Refresh the halo packs of the new o_cur (stale interior
            // values are fully overwritten next iteration; halos must
            // stay at the boundary value for the y = 1 reads).
            for z in 0..wz {
                sc.o_cur[lp(0, z)] = Pack::splat(bc);
            }
        }
    }
}

/// Phase 3 of a 3-D temporal tile: drain the surviving wavefront ring into
/// the tail slabs and finish every level scalar-wise up to slab `nx`.
/// `x_max` must match the value [`tile_prologue`] returned, with the ring
/// left behind by the steady state.
fn tile_epilogue<T: Scalar, const VL: usize, K: Kernel3d<T>>(
    g: &mut Grid3<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch3d<T, VL>,
    x_max: usize,
) {
    let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    let bc = g.boundary().value();
    let wz = nz + 2;
    let wp = (ny + 2) * wz;
    let rlen = s + 2;
    let lp = |y: usize, z: usize| y * wz + z;
    let a = g.data_mut();
    for i in 1..VL {
        let base = x_max + (VL - 1 - i) * s;
        let slabs = (i + 1) * s + 1; // rel 0 ..= (i+1)·s, last = halo slab nx+1
        debug_assert_eq!(base + slabs - 1, nx + 1);
        let (lo_planes, hi_planes) = sc.tail.split_at_mut(i);
        let plane = &mut hi_planes[0];
        // Halo prefill: full boundary shell.
        for r in 0..slabs {
            let sb = r * wp;
            for z in 0..wz {
                plane[sb + lp(0, z)] = bc;
                plane[sb + lp(ny + 1, z)] = bc;
            }
            for y in 1..=ny {
                plane[sb + lp(y, 0)] = bc;
                plane[sb + lp(y, nz + 1)] = bc;
            }
        }
        for v in plane[(slabs - 1) * wp..slabs * wp].iter_mut() {
            *v = bc;
        }
        // Drain lane i of the surviving ring planes.
        for j in x_max..=x_max + s {
            let rel = j - x_max;
            let src = &sc.ring[j % rlen];
            for y in 1..=ny {
                for z in 1..=nz {
                    plane[rel * wp + lp(y, z)] = src[lp(y, z)].extract(i);
                }
            }
        }
        // Scalar completion over slabs base+s+1 ..= nx.
        for x in base + s + 1..=nx {
            let rel = x - base;
            let sb = rel * wp;
            for y in 1..=ny {
                for z in 1..=nz {
                    let old = |dx: i32, dy: i32, dz: i32| -> T {
                        let (xx, yy, zz) = (
                            (x as i32 + dx) as usize,
                            (y as i32 + dy) as usize,
                            (z as i32 + dz) as usize,
                        );
                        if i == 1 {
                            a[xx * pl + yy * p + zz]
                        } else {
                            lo_planes[i - 1][(xx - (base + s)) * wp + lp(yy, zz)]
                        }
                    };
                    let nb = Nbhd3 {
                        xm: old(-1, 0, 0),
                        ym: old(0, -1, 0),
                        zm: old(0, 0, -1),
                        m: old(0, 0, 0),
                        zp: old(0, 0, 1),
                        yp: old(0, 1, 0),
                        xp: old(1, 0, 0),
                        new_xm: plane[(rel - 1) * wp + lp(y, z)],
                        new_ym: plane[sb + lp(y - 1, z)],
                        new_zm: plane[sb + lp(y, z - 1)],
                    };
                    plane[sb + lp(y, z)] = kern.scalar(nb);
                }
            }
        }
    }

    // Final level VL over slabs x_max+1 ..= nx.
    {
        let below = &sc.tail[VL - 1]; // based at x_max
        for x in x_max + 1..=nx {
            let rel = x - x_max;
            for y in 1..=ny {
                for z in 1..=nz {
                    let nb = Nbhd3 {
                        xm: below[(rel - 1) * wp + lp(y, z)],
                        ym: below[rel * wp + lp(y - 1, z)],
                        zm: below[rel * wp + lp(y, z - 1)],
                        m: below[rel * wp + lp(y, z)],
                        zp: below[rel * wp + lp(y, z + 1)],
                        yp: below[rel * wp + lp(y + 1, z)],
                        xp: below[(rel + 1) * wp + lp(y, z)],
                        new_xm: a[(x - 1) * pl + y * p + z],
                        new_ym: a[x * pl + (y - 1) * p + z],
                        new_zm: a[x * pl + y * p + z - 1],
                    };
                    a[x * pl + y * p + z] = kern.scalar(nb);
                }
            }
        }
    }
}

/// Run `steps` time steps of a 3-D stencil with the temporal-vectorized
/// schedule, returning the final grid. Bit-identical to the scalar
/// reference sweeps.
pub fn run<T: Scalar, const VL: usize, K: Kernel3d<T>>(
    grid: &Grid3<T>,
    kern: &K,
    steps: usize,
    s: usize,
) -> Grid3<T> {
    assert_eq!(grid.halo(), 1, "temporal engines use halo width 1");
    let mut g = grid.clone();
    let mut sc = Scratch3d::<T, VL>::new(s, g.ny(), g.nz());
    for _ in 0..steps / VL {
        tile::<T, VL, K>(Engine::Portable, &mut g, kern, s, &mut sc);
    }
    for _ in 0..steps % VL {
        let (mut pa, mut pb) = (
            core::mem::take(&mut sc.plane_a),
            core::mem::take(&mut sc.plane_b),
        );
        scalar_step_inplace(&mut g, kern, &mut pa, &mut pb);
        sc.plane_a = pa;
        sc.plane_b = pb;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{GsKern3d, JacobiKern3d};
    use tempora_grid::{fill_random_3d, Boundary};
    use tempora_stencil::reference;
    use tempora_stencil::{Gs3dCoeffs, Heat3dCoeffs};

    fn grid(nx: usize, ny: usize, nz: usize, seed: u64, b: f64) -> Grid3<f64> {
        let mut g = Grid3::new(nx, ny, nz, 1, Boundary::Dirichlet(b));
        fill_random_3d(&mut g, seed, -1.0, 1.0);
        g
    }

    #[test]
    fn heat3d_matches_reference() {
        let c = Heat3dCoeffs::classic(0.11);
        let kern = JacobiKern3d(c);
        for &(nx, ny, nz) in &[(9usize, 5usize, 6usize), (16, 8, 7), (21, 6, 11)] {
            for steps in [4usize, 8] {
                let g = grid(nx, ny, nz, (nx * ny * nz) as u64, 0.3);
                let ours = run::<f64, 4, _>(&g, &kern, steps, 2);
                let gold = reference::heat3d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} ny={ny} nz={nz} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
                ours.check_canaries().unwrap();
            }
        }
    }

    #[test]
    fn heat3d_remainders_and_fallback() {
        let c = Heat3dCoeffs::classic(0.15);
        let kern = JacobiKern3d(c);
        for steps in [0usize, 1, 3, 5, 7] {
            let g = grid(10, 4, 5, steps as u64, -0.2);
            let ours = run::<f64, 4, _>(&g, &kern, steps, 2);
            let gold = reference::heat3d(&g, c, steps);
            assert!(ours.interior_eq(&gold), "steps={steps}");
        }
        // nx too small for the vector path.
        let g = grid(5, 6, 6, 3, 0.0);
        let ours = run::<f64, 4, _>(&g, &kern, 6, 2);
        let gold = reference::heat3d(&g, c, 6);
        assert!(ours.interior_eq(&gold));
    }

    #[test]
    fn gs3d_matches_reference() {
        let c = Gs3dCoeffs::classic(0.13);
        let kern = GsKern3d(c);
        for &(nx, ny, nz) in &[(9usize, 4usize, 5usize), (17, 7, 6), (24, 9, 8)] {
            for steps in [4usize, 9] {
                let g = grid(nx, ny, nz, (nx + ny + nz + steps) as u64, 0.1);
                let ours = run::<f64, 4, _>(&g, &kern, steps, 2);
                let gold = reference::gs3d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} ny={ny} nz={nz} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn gs3d_asymmetric_coeffs_wider_stride() {
        let c = Gs3dCoeffs::new(0.21, 0.13, 0.08, 0.3, 0.09, 0.11, 0.07);
        let kern = GsKern3d(c);
        let g = grid(26, 6, 7, 8, 1.5);
        let ours = run::<f64, 4, _>(&g, &kern, 8, 3);
        let gold = reference::gs3d(&g, c, 8);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }
}
