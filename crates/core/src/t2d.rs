//! Temporal vectorization of two-dimensional stencils (paper §3.2,
//! "High-dimensional Stencils", and §3.3 layout optimizations).
//!
//! For `d ≥ 2` the inner time loop cannot be interchanged past the space
//! loops, so the temporal scheme vectorizes the **outermost** space loop
//! `x`: the input vector at `(x, y)` packs `VL` time levels along `x`,
//!
//! ```text
//! V(x, y) = ( a[t+VL-1][x][y], …, a[t+1][x+(VL-2)·s][y], a[t][x+(VL-1)·s][y] )
//! ```
//!
//! and one stencil application per inner point `y` advances all `VL`
//! levels at once (paper Figure 2). Unlike the 1-D case the produced
//! input vectors cannot stay in registers — the whole inner row is in
//! flight — so they are stored in **wavefront buffers**: a ring of
//! `s + 2` pack rows `W(j)[y] = V(j, y)`, the 2-D analogue of the 1-D
//! register ring. The store of the finished top lane and the level-0
//! bottom fill hit the main array exactly once per point per tile, so the
//! CPU–cache traffic per point is again ~`1/VL` of a spatial scheme's.
//!
//! Prologue and epilogue generalize the 1-D triangles to *row bands*:
//! level `k` is pre-computed over rows `1..=(VL-k)·s` and completed over
//! the trailing rows after the steady state drains the ring.
//!
//! Gauss-Seidel (§3.4) needs two extra structures: the previous output
//! *row* `O(x-1, ·)` (a second pack buffer, swapped each outer iteration)
//! for the newest-north operand, and the previous output *vector*
//! `O(x, y-1)` (a register) for the newest-west operand.
//!
//! The engine is generic over the element type and vector length; the
//! same code instantiates Heat-2D (`f64×4`), 2D9P (`f64×4`), Life
//! (`i32×8`) and GS-2D (`f64×4`).

use crate::engine::Engine;
use crate::kernels::{Kernel2d, Nbhd};
use tempora_grid::Grid2;
use tempora_simd::{LaneFn, Lanes, Pack, Scalar};

/// Scratch state for one 2-D sweep configuration, reusable across tiles.
pub struct Scratch2d<T: Scalar, const VL: usize> {
    /// Head planes: `head[k]` holds level-`k` rows `0..=(VL-k)·s` (row 0 =
    /// boundary), width `ny + 2`, flat row-major.
    pub(crate) head: Vec<Vec<T>>,
    /// Tail planes: `tail[i]` holds level-`i` rows re-based at
    /// `x_max + (VL-1-i)·s`, `(i+1)·s + 2` rows of width `ny + 2`.
    pub(crate) tail: Vec<Vec<T>>,
    /// Wavefront ring: `s + 2` rows of `ny + 2` input-vector packs.
    pub(crate) ring: Vec<Vec<Pack<T, VL>>>,
    /// Previous output row `O(x-1, ·)` (Gauss-Seidel only).
    pub(crate) o_prev: Vec<Pack<T, VL>>,
    /// Output row being produced `O(x, ·)` (Gauss-Seidel only).
    pub(crate) o_cur: Vec<Pack<T, VL>>,
    /// Two old-row copies for the in-place scalar step.
    pub(crate) row_a: Vec<T>,
    pub(crate) row_b: Vec<T>,
    pub(crate) s: usize,
    pub(crate) ny: usize,
}

impl<T: Scalar, const VL: usize> Scratch2d<T, VL> {
    /// Allocate scratch for stride `s` and inner extent `ny`.
    pub fn new(s: usize, ny: usize) -> Self {
        let w = ny + 2;
        Scratch2d {
            head: (0..VL)
                .map(|k| vec![T::ZERO; ((VL - k) * s + 1) * w])
                .collect(),
            tail: (0..VL)
                .map(|i| vec![T::ZERO; ((i + 1) * s + 2) * w])
                .collect(),
            ring: (0..s + 2).map(|_| vec![Pack::splat(T::ZERO); w]).collect(),
            o_prev: vec![Pack::splat(T::ZERO); w],
            o_cur: vec![Pack::splat(T::ZERO); w],
            row_a: vec![T::ZERO; w],
            row_b: vec![T::ZERO; w],
            s,
            ny,
        }
    }
}

/// One in-place scalar time step over the whole grid (used for degenerate
/// tiles and `steps mod VL` remainders). Two saved old rows make the
/// Jacobi update single-array; Gauss-Seidel is naturally in place. Results
/// are bit-identical to the double-buffered reference.
pub fn scalar_step_inplace<T: Scalar, K: Kernel2d<T>>(
    g: &mut Grid2<T>,
    kern: &K,
    row_a: &mut [T],
    row_b: &mut [T],
) {
    let (nx, ny, p) = (g.nx(), g.ny(), g.pitch());
    let w = ny + 2;
    let a = g.data_mut();
    // row_a = old values of row x-1, row_b = old values of row x.
    let (mut row_a, mut row_b) = (&mut row_a[..w], &mut row_b[..w]);
    row_a.copy_from_slice(&a[..w]);
    for x in 1..=nx {
        row_b.copy_from_slice(&a[x * p..x * p + w]);
        for y in 1..=ny {
            let nb = Nbhd {
                v: [
                    [row_a[y - 1], row_a[y], row_a[y + 1]],
                    [row_b[y - 1], row_b[y], row_b[y + 1]],
                    [
                        a[(x + 1) * p + y - 1],
                        a[(x + 1) * p + y],
                        a[(x + 1) * p + y + 1],
                    ],
                ],
                new_n: a[(x - 1) * p + y],
                new_w: a[x * p + y - 1],
            };
            a[x * p + y] = kern.scalar(nb);
        }
        core::mem::swap(&mut row_a, &mut row_b);
    }
}

/// Advance the grid by `VL` time steps with the temporal-vectorized
/// schedule (in place, single array), running the steady state on
/// `engine` (see [`Engine::run`]).
///
/// # Panics
/// Panics if `s < K::MIN_STRIDE` or the grid's halo is not 1.
pub fn tile<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    engine: Engine,
    g: &mut Grid2<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch2d<T, VL>,
) {
    if tile_fallback_if_degenerate::<T, VL, K>(g, kern, s, sc) {
        return;
    }
    let x_max = tile_prologue::<T, VL, K>(g, kern, s, sc);
    let (ny, p) = (g.ny(), g.pitch());
    let bc = g.boundary().value();
    engine.run(Steady2d {
        a: g.data_mut(),
        ny,
        p,
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
fn tile_fallback_if_degenerate<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    g: &mut Grid2<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch2d<T, VL>,
) -> bool {
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    assert_eq!(g.halo(), 1, "temporal engines use halo width 1");
    assert_eq!((sc.s, sc.ny), (s, g.ny()), "scratch shape mismatch");
    if g.nx() >= VL * s {
        return false;
    }
    for _ in 0..VL {
        let (mut ra, mut rb) = (
            core::mem::take(&mut sc.row_a),
            core::mem::take(&mut sc.row_b),
        );
        scalar_step_inplace(g, kern, &mut ra, &mut rb);
        sc.row_a = ra;
        sc.row_b = rb;
    }
    true
}

/// Phase 1 of a 2-D temporal tile: scalar head bands for levels `1..VL`,
/// the initial wavefront ring `W(0) ..= W(s)`, and (for Gauss-Seidel) the
/// initial output row `O(0, ·)` in `sc.o_prev`. Returns the steady-state
/// bound `x_max`.
fn tile_prologue<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    g: &mut Grid2<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch2d<T, VL>,
) -> usize {
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    assert_eq!(g.halo(), 1, "temporal engines use halo width 1");
    assert_eq!((sc.s, sc.ny), (s, g.ny()), "scratch shape mismatch");
    let (nx, ny, p) = (g.nx(), g.ny(), g.pitch());
    assert!(
        nx >= VL * s,
        "degenerate tile (nx={nx} < VL*s={}): call tile_fallback_if_degenerate first",
        VL * s
    );
    let bc = g.boundary().value();
    let x_max = nx + 1 - VL * s;
    let w = ny + 2;
    let rlen = s + 2;
    let a = g.data_mut();

    // ------------------------------------------------------------------
    // Prologue: head[k] = level k over rows 1..=(VL-k)·s (row 0 boundary).
    // ------------------------------------------------------------------
    for k in 1..VL {
        let hi = (VL - k) * s;
        let (lo_planes, hi_planes) = sc.head.split_at_mut(k);
        let plane = &mut hi_planes[0];
        for v in plane[..w].iter_mut() {
            *v = bc; // boundary row 0
        }
        for x in 1..=hi {
            plane[x * w] = bc;
            plane[x * w + ny + 1] = bc;
            for y in 1..=ny {
                // Old (level k-1) 3×3 neighbourhood.
                let old = |dx: usize, dy: usize| -> T {
                    // dx, dy ∈ {0,1,2} meaning offsets -1..=1.
                    let (xx, yy) = (x + dx - 1, y + dy - 1);
                    if k == 1 {
                        a[xx * p + yy]
                    } else {
                        lo_planes[k - 1][xx * w + yy]
                    }
                };
                let nb = Nbhd {
                    v: [
                        [old(0, 0), old(0, 1), old(0, 2)],
                        [old(1, 0), old(1, 1), old(1, 2)],
                        [old(2, 0), old(2, 1), old(2, 2)],
                    ],
                    new_n: plane[(x - 1) * w + y],
                    new_w: plane[x * w + y - 1],
                };
                plane[x * w + y] = kern.scalar(nb);
            }
        }
    }

    // ------------------------------------------------------------------
    // Initial wavefront ring W(0) ..= W(s); halo packs everywhere else.
    // ------------------------------------------------------------------
    for row in sc.ring.iter_mut() {
        row[0] = Pack::splat(bc);
        row[ny + 1] = Pack::splat(bc);
    }
    for j in 0..=s {
        let head = &sc.head;
        let dst = &mut sc.ring[j % rlen];
        for (y, slot) in dst.iter_mut().enumerate().take(ny + 1).skip(1) {
            *slot = Pack::from_fn(|i| {
                let x = j + (VL - 1 - i) * s;
                if i == 0 {
                    a[x * p + y]
                } else if x == 0 {
                    bc
                } else {
                    head[i][x * w + y]
                }
            });
        }
    }

    // Gauss-Seidel: O(0, ·) from the head planes.
    if K::IS_GS {
        for (y, slot) in sc.o_prev.iter_mut().enumerate() {
            *slot = if y == 0 || y == ny + 1 {
                Pack::splat(bc)
            } else {
                Pack::from_fn(|i| {
                    let x = (VL - 1 - i) * s;
                    if i == VL - 1 {
                        bc
                    } else {
                        sc.head[i + 1][x * w + y]
                    }
                })
            };
        }
    }
    x_max
}

/// Phase 2 of a 2-D temporal tile, written once over [`Lanes`]: one
/// vectorized pass per outer row `x ∈ 1..=x_max`, producing `W(x+s)`
/// from `W(x-1..=x+1)` with the rotate-and-blend rule. The west and
/// centre vectors are carried in registers between inner iterations
/// (w ← m ← e), and only the operands the kernel reads are loaded.
/// `x_max` must come from [`tile_prologue`].
struct Steady2d<'a, T: Scalar, const VL: usize, K> {
    a: &'a mut [T],
    ny: usize,
    p: usize,
    bc: T,
    kern: &'a K,
    s: usize,
    sc: &'a mut Scratch2d<T, VL>,
    x_max: usize,
}

impl<T: Scalar, const VL: usize, K: Kernel2d<T>> LaneFn<T, VL> for Steady2d<'_, T, VL, K> {
    type Output = ();

    #[inline(always)]
    fn call<L: Lanes<Elem = T, Mem = Pack<T, VL>>>(self) {
        let Steady2d {
            a,
            ny,
            p,
            bc,
            kern,
            s,
            sc,
            x_max,
        } = self;
        steady::<L, T, VL, K>(a, ny, p, bc, kern, s, sc, x_max)
    }
}

/// The loop of [`Steady2d`], taking its operands as parameters so the
/// compiler knows they do not alias.
#[inline(always)]
// Justification: the operands are the steady state's own; bundling them again would hide which ones the loop touches.
#[allow(clippy::too_many_arguments)]
fn steady<L: Lanes<Elem = T, Mem = Pack<T, VL>>, T: Scalar, const VL: usize, K: Kernel2d<T>>(
    a: &mut [T],
    ny: usize,
    p: usize,
    bc: T,
    kern: &K,
    s: usize,
    sc: &mut Scratch2d<T, VL>,
    x_max: usize,
) {
    let rlen = s + 2;
    let zero = L::splat(T::ZERO);
    for x in 1..=x_max {
        let im1 = (x - 1) % rlen;
        let i0 = x % rlen;
        let ip1 = (x + 1) % rlen;
        let ips = (x + s) % rlen;
        // Detach the write row so the read rows can stay borrowed.
        let mut wrow = core::mem::take(&mut sc.ring[ips]);
        {
            let rm1 = &sc.ring[im1];
            let r0 = &sc.ring[i0];
            let rp1 = &sc.ring[ip1];
            let mut o_west = L::splat(bc); // O(x, 0): y-boundary column
            let mut w = L::load(r0[0]);
            let mut m = L::load(r0[1]);
            for y in 1..=ny {
                let e = L::load(r0[y + 1]);
                let corners = if K::IS_BOX {
                    [
                        L::load(rm1[y - 1]),
                        L::load(rm1[y + 1]),
                        L::load(rp1[y - 1]),
                        L::load(rp1[y + 1]),
                    ]
                } else {
                    [zero; 4]
                };
                let north = if K::IS_GS { zero } else { L::load(rm1[y]) };
                let nb = Nbhd {
                    v: [
                        [corners[0], north, corners[1]],
                        [w, m, e],
                        [corners[2], L::load(rp1[y]), corners[3]],
                    ],
                    new_n: if K::IS_GS {
                        L::load(sc.o_prev[y])
                    } else {
                        zero
                    },
                    new_w: o_west,
                };
                w = m;
                m = e;
                let o = kern.pack(nb);
                a[x * p + y] = o.top();
                let bottom = a[(x + VL * s) * p + y];
                wrow[y] = o.shift_up_insert(bottom).store();
                if K::IS_GS {
                    sc.o_cur[y] = o.store();
                    o_west = o;
                }
            }
        }
        sc.ring[ips] = wrow;
        if K::IS_GS {
            core::mem::swap(&mut sc.o_prev, &mut sc.o_cur);
        }
    }
}

/// Phase 3 of a 2-D temporal tile: drain the surviving wavefront ring into
/// the tail planes and finish every level scalar-wise up to row `nx`.
/// `x_max` must match the value [`tile_prologue`] returned and the ring
/// must hold `W(j)` at slot `j % (s+2)` for `j ∈ x_max ..= x_max+s`, as
/// left behind by the steady state.
fn tile_epilogue<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    g: &mut Grid2<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch2d<T, VL>,
    x_max: usize,
) {
    let (nx, ny, p) = (g.nx(), g.ny(), g.pitch());
    let bc = g.boundary().value();
    let w = ny + 2;
    let rlen = s + 2;
    let a = g.data_mut();
    for i in 1..VL {
        let base = x_max + (VL - 1 - i) * s;
        let rows = (i + 1) * s + 1; // rel 0 ..= (i+1)·s, last = halo row nx+1
        let (lo_planes, hi_planes) = sc.tail.split_at_mut(i);
        let plane = &mut hi_planes[0];
        // Halo prefill: y-halo columns of every row + the x = nx+1 row.
        for r in 0..rows {
            plane[r * w] = bc;
            plane[r * w + ny + 1] = bc;
        }
        for v in plane[(rows - 1) * w..rows * w].iter_mut() {
            *v = bc;
        }
        debug_assert_eq!(base + rows - 1, nx + 1);
        // Drain lane i of the surviving ring rows.
        for j in x_max..=x_max + s {
            let rel = j - x_max;
            let src = &sc.ring[j % rlen];
            for y in 1..=ny {
                plane[rel * w + y] = src[y].extract(i);
            }
        }
        // Scalar completion over rows base+s+1 ..= nx.
        for x in base + s + 1..=nx {
            let rel = x - base;
            for y in 1..=ny {
                let old = |dx: usize, dy: usize| -> T {
                    let (xx, yy) = (x + dx - 1, y + dy - 1);
                    if i == 1 {
                        a[xx * p + yy]
                    } else {
                        // base_{i-1} = base + s
                        lo_planes[i - 1][(xx - (base + s)) * w + yy]
                    }
                };
                let nb = Nbhd {
                    v: [
                        [old(0, 0), old(0, 1), old(0, 2)],
                        [old(1, 0), old(1, 1), old(1, 2)],
                        [old(2, 0), old(2, 1), old(2, 2)],
                    ],
                    new_n: plane[(rel - 1) * w + y],
                    new_w: plane[rel * w + y - 1],
                };
                plane[rel * w + y] = kern.scalar(nb);
            }
        }
    }

    // Final level VL over rows x_max+1 ..= nx, written into the array.
    {
        let below = &sc.tail[VL - 1]; // based at x_max
        for x in x_max + 1..=nx {
            let rel = x - x_max;
            for y in 1..=ny {
                let nb = Nbhd {
                    v: [
                        [
                            below[(rel - 1) * w + y - 1],
                            below[(rel - 1) * w + y],
                            below[(rel - 1) * w + y + 1],
                        ],
                        [
                            below[rel * w + y - 1],
                            below[rel * w + y],
                            below[rel * w + y + 1],
                        ],
                        [
                            below[(rel + 1) * w + y - 1],
                            below[(rel + 1) * w + y],
                            below[(rel + 1) * w + y + 1],
                        ],
                    ],
                    new_n: a[(x - 1) * p + y],
                    new_w: a[x * p + y - 1],
                };
                a[x * p + y] = kern.scalar(nb);
            }
        }
    }
}

/// Run `steps` time steps of a 2-D stencil with the temporal-vectorized
/// schedule on the portable engine, returning the final grid.
/// Bit-identical to the scalar reference sweeps.
pub fn run<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    grid: &Grid2<T>,
    kern: &K,
    steps: usize,
    s: usize,
) -> Grid2<T> {
    assert_eq!(grid.halo(), 1, "temporal engines use halo width 1");
    let mut g = grid.clone();
    let mut sc = Scratch2d::<T, VL>::new(s, g.ny());
    for _ in 0..steps / VL {
        tile::<T, VL, K>(Engine::Portable, &mut g, kern, s, &mut sc);
    }
    for _ in 0..steps % VL {
        let (mut ra, mut rb) = (
            core::mem::take(&mut sc.row_a),
            core::mem::take(&mut sc.row_b),
        );
        scalar_step_inplace(&mut g, kern, &mut ra, &mut rb);
        sc.row_a = ra;
        sc.row_b = rb;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{BoxKern2d, GsKern2d, JacobiKern2d, LifeKern2d};
    use tempora_grid::{fill_random_2d, fill_random_life, Boundary};
    use tempora_stencil::reference;
    use tempora_stencil::{Box2dCoeffs, Gs2dCoeffs, Heat2dCoeffs, LifeRule};

    fn grid(nx: usize, ny: usize, seed: u64, b: f64) -> Grid2<f64> {
        let mut g = Grid2::new(nx, ny, 1, Boundary::Dirichlet(b));
        fill_random_2d(&mut g, seed, -1.0, 1.0);
        g
    }

    #[test]
    fn heat2d_matches_reference() {
        let c = Heat2dCoeffs::classic(0.12);
        let kern = JacobiKern2d(c);
        for &(nx, ny) in &[(8usize, 5usize), (9, 8), (17, 12), (32, 13), (40, 40)] {
            for steps in [4usize, 8] {
                let g = grid(nx, ny, (nx * ny) as u64, 0.25);
                let ours = run::<f64, 4, _>(&g, &kern, steps, 2);
                let gold = reference::heat2d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} ny={ny} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
                ours.check_canaries().unwrap();
            }
        }
    }

    #[test]
    fn heat2d_remainder_steps() {
        let c = Heat2dCoeffs::classic(0.2);
        let kern = JacobiKern2d(c);
        for steps in [0usize, 1, 2, 3, 5, 6, 7, 9] {
            let g = grid(21, 9, steps as u64, -1.0);
            let ours = run::<f64, 4, _>(&g, &kern, steps, 2);
            let gold = reference::heat2d(&g, c, steps);
            assert!(
                ours.interior_eq(&gold),
                "steps={steps} {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn heat2d_wider_strides() {
        let c = Heat2dCoeffs::classic(0.15);
        let kern = JacobiKern2d(c);
        for s in 2..=4 {
            let g = grid(35, 7, s as u64, 0.0);
            let ours = run::<f64, 4, _>(&g, &kern, 8, s);
            let gold = reference::heat2d(&g, c, 8);
            assert!(
                ours.interior_eq(&gold),
                "s={s} {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn heat2d_tiny_grid_fallback() {
        let c = Heat2dCoeffs::classic(0.25);
        let kern = JacobiKern2d(c);
        for nx in 1..8 {
            let g = grid(nx, 6, nx as u64, 0.5);
            let ours = run::<f64, 4, _>(&g, &kern, 5, 2);
            let gold = reference::heat2d(&g, c, 5);
            assert!(ours.interior_eq(&gold), "nx={nx}");
        }
    }

    #[test]
    fn box2d_matches_reference() {
        let c = Box2dCoeffs::new([[0.01, 0.07, 0.03], [0.09, 0.55, 0.08], [0.05, 0.06, 0.06]]);
        let kern = BoxKern2d(c);
        for &(nx, ny) in &[(16usize, 11usize), (25, 16), (33, 8)] {
            let g = grid(nx, ny, 77, 0.1);
            let ours = run::<f64, 4, _>(&g, &kern, 8, 2);
            let gold = reference::box2d(&g, c, 8);
            assert!(
                ours.interior_eq(&gold),
                "nx={nx} ny={ny} {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn life_matches_reference_vl8() {
        let rule = LifeRule::b2s23();
        let kern = LifeKern2d(rule);
        for &(nx, ny) in &[(20usize, 16usize), (33, 9), (48, 25)] {
            let mut g = Grid2::<i32>::new(nx, ny, 1, Boundary::Dirichlet(0));
            fill_random_life(&mut g, nx as u64, 0.35);
            for steps in [8usize, 11, 16] {
                let ours = run::<i32, 8, _>(&g, &kern, steps, 2);
                let gold = reference::life(&g, rule, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} ny={ny} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn life_conway_glider_still_works_vectorized() {
        let rule = LifeRule::conway();
        let kern = LifeKern2d(rule);
        let mut g = Grid2::<i32>::new(40, 40, 1, Boundary::Dirichlet(0));
        // Glider.
        for &(x, y) in &[(2, 3), (3, 4), (4, 2), (4, 3), (4, 4)] {
            g.set(x, y, 1);
        }
        let ours = run::<i32, 8, _>(&g, &kern, 24, 2);
        let gold = reference::life(&g, rule, 24);
        assert!(ours.interior_eq(&gold));
        // After 24 generations the glider has moved 6 cells diagonally.
        assert_eq!(ours.get(4 + 6, 3 + 6), 1);
    }

    #[test]
    fn gs2d_matches_reference() {
        let c = Gs2dCoeffs::classic(0.2);
        let kern = GsKern2d(c);
        for &(nx, ny) in &[(9usize, 6usize), (16, 16), (29, 10), (41, 23)] {
            for steps in [4usize, 7, 12] {
                let g = grid(nx, ny, (nx + ny + steps) as u64, -0.5);
                let ours = run::<f64, 4, _>(&g, &kern, steps, 2);
                let gold = reference::gs2d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} ny={ny} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn gs2d_asymmetric_coeffs() {
        let c = Gs2dCoeffs::new(0.31, 0.17, 0.23, 0.11, 0.13);
        let kern = GsKern2d(c);
        let g = grid(24, 31, 5, 2.0);
        let ours = run::<f64, 4, _>(&g, &kern, 8, 3);
        let gold = reference::gs2d(&g, c, 8);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }
}
