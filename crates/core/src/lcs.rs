//! Temporal vectorization of the LCS dynamic program (paper §3.4).
//!
//! LCS is the paper's demonstration that temporal vectorization extends
//! beyond PDE stencils to dynamic-programming wavefronts. With the `x`
//! loop (sequence `A`) viewed as *time* and the `y` loop (sequence `B`)
//! as *space*, the recurrence
//!
//! ```text
//! lcs[x][y] = if A[x] == B[y] { lcs[x-1][y-1] + 1 }
//!             else            { max(lcs[x-1][y], lcs[x][y-1]) }
//! ```
//!
//! is a 1-D Gauss-Seidel stencil whose only same-time dependence is the
//! west neighbour — so the minimum temporal stride is `s = 1` (no old
//! east neighbour exists, unlike the 3-point stencils). One vector packs
//! `VL = 8` consecutive `A`-positions (`i32` lanes); per inner iteration
//! the kernel needs
//!
//! * `diag` = `V(y-1)`, `up` = `V(y)` (input-vector ring),
//! * `left` = `O(y-1)` (previous output vector — the Gauss-Seidel rule),
//! * the character equality mask: lane `i` compares `A[x0+1+i]` (a
//!   per-tile constant vector) against `B[y + (VL-1-i)·s]` (a strided
//!   gather acting as the paper's "variable coefficient"),
//!
//! and produces `O(y) = select(eq, diag + 1, max(up, left))` — the
//! paper's "blend instruction with a mask vector of equalities". The
//! sweep state is a single rolling row (the paper's `lcsA`/`lcsB`
//! wavefront arrays), updated in place.
//!
//! For the paper's rectangle tiling ("LCS allows the rectangle tiling in
//! the iteration space"), [`tile_seg`] runs the same schedule on a row
//! *segment*, importing the per-level west values of the neighbouring
//! block as a column vector and exporting its own east column.

use crate::engine::Engine;
use tempora_simd::{arch, LaneFn, Lanes, Pack};
use tempora_stencil::lcs_update;

/// True when the sequential (whole-row) LCS engine can run the AVX2
/// steady state: the CPU supports AVX2+FMA, at least one full `VL = 8`
/// temporal tile of `A`-positions exists, and the row segment hosts the
/// vector schedule (`lb ≥ 8·s + 1`). Degenerate shapes run the scalar
/// schedule in every engine, so dispatch must resolve them portable.
pub fn seq_has_vector_tiles(la: usize, lb: usize, s: usize) -> bool {
    arch::avx2_lanes::<i32, 8>() && la >= 8 && lb > 8 * s
}

/// True when every rectangle tile of an `xblock × yblock` tiling can run
/// the AVX2 steady state: whole `VL = 8`-level bands exist (`la ≥ 8` and
/// `xblock ≥ 8`) and **every** block column's segment — the ragged last
/// one included — hosts the vector schedule. A short final row band
/// (`x`-remainder `< 8`) runs scalar rows in every engine, like the
/// `steps mod height` tails of the grid tilings, and does not demote the
/// report; a column block too narrow for the steady state would, because
/// all of its tiles would silently run the scalar schedule.
pub fn rect_has_vector_tiles(la: usize, lb: usize, xblock: usize, yblock: usize, s: usize) -> bool {
    if !(arch::avx2_lanes::<i32, 8>() && la >= 8 && xblock >= 8) {
        return false;
    }
    let last = match lb % yblock {
        0 => yblock,
        r => r,
    };
    yblock.min(lb) > 8 * s && last > 8 * s
}

/// Scratch for the LCS engine (head/tail wavefront triangles).
pub struct ScratchLcs<const VL: usize> {
    pub(crate) head: Vec<Vec<i32>>,
    pub(crate) tail: Vec<Vec<i32>>,
    pub(crate) ring: Vec<Pack<i32, VL>>,
}

impl<const VL: usize> ScratchLcs<VL> {
    /// Allocate scratch for stride `s`.
    pub fn new(s: usize) -> Self {
        ScratchLcs {
            head: (0..VL).map(|k| vec![0; (VL - k) * s + 2]).collect(),
            tail: (0..VL).map(|i| vec![0; (i + 1) * s + 2]).collect(),
            ring: vec![Pack::splat(0); s + 2],
        }
    }
}

/// One scalar DP row step over the segment `y ∈ [y0, y1]` (1-based).
///
/// `west` supplies the newest west value `lcs[x][y0-1]` and `nw` the
/// diagonal `lcs[x-1][y0-1]` — both must be passed explicitly because at
/// a block boundary `row[y0-1]` already holds a *newer* level than the
/// one this step consumes.
pub fn scalar_row_step_seg(
    row: &mut [i32],
    ca: u8,
    b: &[u8],
    y0: usize,
    y1: usize,
    west: i32,
    nw: i32,
) {
    let mut diag = nw;
    let mut west = west;
    for y in y0..=y1 {
        let up = row[y];
        let v = lcs_update(diag, up, west, ca, b[y - 1]);
        row[y] = v;
        west = v;
        diag = up;
    }
}

/// Advance the DP rows by `VL` sequence-`A` positions over the column
/// segment `[y0, y1]` (one temporal tile of one rectangle block).
///
/// * `row` holds `lcs[x0][·]` on the segment on entry, `lcs[x0+VL][·]` on
///   exit (positions outside the segment are not touched);
/// * `a_tile` = `A[x0+1 ..= x0+VL]`; `b` is the full second sequence;
/// * `left_col[k]` = `lcs[x0+k][y0-1]` for `k ∈ 0..=VL` (all zeros when
///   the segment starts at column 1);
/// * on return `right_col[k]` = `lcs[x0+k][y1]`.
///
///
/// The steady state runs on `engine` (see [`Engine::run`]).
// Justification: the parameter list is the tile contract itself (row, columns, bounds, shift); bundling it would hide what each kernel stage touches.
#[allow(clippy::too_many_arguments)]
pub fn tile_seg<const VL: usize>(
    engine: Engine,
    row: &mut [i32],
    y0: usize,
    y1: usize,
    a_tile: &[u8],
    b: &[u8],
    s: usize,
    left_col: &[i32],
    right_col: &mut [i32],
    sc: &mut ScratchLcs<VL>,
) {
    if tile_seg_fallback_if_degenerate::<VL>(row, y0, y1, a_tile, b, s, left_col, right_col) {
        return;
    }
    let (y_max, o_prev) = tile_seg_prologue::<VL>(row, y0, y1, a_tile, b, s, left_col, sc);
    engine.run(SteadyLcs {
        row,
        y0,
        y_max,
        a_tile,
        b,
        s,
        ring: &mut sc.ring,
        o_prev,
    });
    tile_seg_epilogue::<VL>(row, y1, a_tile, b, s, right_col, sc, y_max);
}

/// Shared degenerate-segment guard: when the segment cannot host the
/// vector schedule (`seg < VL·s + 1`), run the `VL` levels with scalar
/// row steps instead (same results, `right_col` fully exported) and
/// report `true`. Also validates the shared tile contract.
// Justification: same tile-contract signature as `tile_seg`.
#[allow(clippy::too_many_arguments)]
fn tile_seg_fallback_if_degenerate<const VL: usize>(
    row: &mut [i32],
    y0: usize,
    y1: usize,
    a_tile: &[u8],
    b: &[u8],
    s: usize,
    left_col: &[i32],
    right_col: &mut [i32],
) -> bool {
    assert!(s >= 1);
    assert_eq!(a_tile.len(), VL);
    assert!(left_col.len() > VL && right_col.len() > VL);
    debug_assert!(y0 >= 1 && y1 >= y0 && y1 < row.len());
    right_col[0] = row[y1];
    if y1 + 1 - y0 > VL * s {
        return false;
    }
    for (k, &ca) in a_tile.iter().enumerate() {
        scalar_row_step_seg(row, ca, b, y0, y1, left_col[k + 1], left_col[k]);
        right_col[k + 1] = row[y1];
    }
    true
}

/// Phase 1 of an LCS temporal tile: scalar head wavefront triangles for
/// levels `1..VL`, the initial input-vector ring `V(y0-1) ..= V(y0-1+s)`
/// and the initial output vector `O(y0-1)`. Returns `(y_max, o_prev)` —
/// the last steady anchor column and the output vector the steady state
/// starts from. The segment must not be degenerate (see
/// [`tile_seg_fallback_if_degenerate`]).
// Justification: same tile-contract signature as `tile_seg`.
#[allow(clippy::too_many_arguments)]
fn tile_seg_prologue<const VL: usize>(
    row: &mut [i32],
    y0: usize,
    y1: usize,
    a_tile: &[u8],
    b: &[u8],
    s: usize,
    left_col: &[i32],
    sc: &mut ScratchLcs<VL>,
) -> (usize, Pack<i32, VL>) {
    let seg = y1 + 1 - y0;
    assert!(seg > VL * s, "degenerate segment: call the fallback");
    let y_max = y1 - VL * s; // last steady anchor (absolute column)

    // Prologue: head[k][j] = lcs[x0+k][y0-1+j] for j ∈ 0..=(VL-k)·s.
    for k in 1..VL {
        let hi = (VL - k) * s;
        let (lo, hi_planes) = sc.head.split_at_mut(k);
        let plane = &mut hi_planes[0];
        plane[0] = left_col[k];
        let ca = a_tile[k - 1];
        for j in 1..=hi {
            let y = y0 - 1 + j;
            let (diag, up) = if k == 1 {
                // At the segment edge row[y0-1] already holds a newer
                // level; the true level-0 diagonal is left_col[0].
                let d = if j == 1 { left_col[0] } else { row[y - 1] };
                (d, row[y])
            } else {
                (lo[k - 1][j - 1], lo[k - 1][j])
            };
            plane[j] = lcs_update(diag, up, plane[j - 1], ca, b[y - 1]);
        }
    }

    // Initial ring V(y0-1) ..= V(y0-1+s): lane i = lcs[x0+i][y+(VL-1-i)·s]
    // (the anchor one left of the first steady iteration, as in
    // Algorithm 3 lines 5-7).
    let rlen = s + 1;
    for jj in 0..=s {
        let y = y0 - 1 + jj;
        let head = &sc.head;
        sc.ring[y % rlen] = Pack::from_fn(|i| {
            let yy = y + (VL - 1 - i) * s;
            if i == 0 {
                row[yy]
            } else {
                head[i][yy - (y0 - 1)]
            }
        });
    }
    // O(y0-1): lane i = lcs[x0+1+i][y0-1 + (VL-1-i)·s].
    let o_prev = Pack::<i32, VL>::from_fn(|i| {
        let j = (VL - 1 - i) * s;
        if i == VL - 1 {
            left_col[VL]
        } else {
            sc.head[i + 1][j]
        }
    });
    (y_max, o_prev)
}

/// Phase 2 of an LCS temporal tile, written once over [`Lanes`]: the
/// §3.4 steady state `O(y) = select(eq, diag + 1, max(up, left))` over
/// the anchors `y ∈ [y0, y_max]`. `(y_max, o_prev)` must come from
/// [`tile_seg_prologue`].
///
/// The loop keeps the ring traffic at one read and one write per
/// iteration: the write at column `y` lands in the very slot the
/// diagonal operand was read from (`y+s ≡ y-1 mod s+1`), so `diag` is
/// simply the previous iteration's `up` vector, carried in a register.
/// At the minimum stride `s = 1` the character vector `B` advances by
/// one column per iteration and is produced by the same
/// rotate-and-blend rule as the input vectors — no per-iteration gather
/// remains in the hot loop.
struct SteadyLcs<'a, const VL: usize> {
    row: &'a mut [i32],
    y0: usize,
    y_max: usize,
    a_tile: &'a [u8],
    b: &'a [u8],
    s: usize,
    ring: &'a mut [Pack<i32, VL>],
    o_prev: Pack<i32, VL>,
}

impl<const VL: usize> LaneFn<i32, VL> for SteadyLcs<'_, VL> {
    type Output = ();

    #[inline(always)]
    fn call<L: Lanes<Elem = i32, Mem = Pack<i32, VL>>>(self) {
        let SteadyLcs {
            row,
            y0,
            y_max,
            a_tile,
            b,
            s,
            ring,
            o_prev,
        } = self;
        steady::<L, VL>(row, y0, y_max, a_tile, b, s, ring, o_prev)
    }
}

/// The loop of [`SteadyLcs`], taking its operands as parameters so the
/// compiler knows they do not alias.
#[inline(always)]
// Justification: the operands are the steady state's own; bundling them again would hide which ones the loop touches.
#[allow(clippy::too_many_arguments)]
fn steady<L: Lanes<Elem = i32, Mem = Pack<i32, VL>>, const VL: usize>(
    row: &mut [i32],
    y0: usize,
    y_max: usize,
    a_tile: &[u8],
    b: &[u8],
    s: usize,
    ring: &mut [Pack<i32, VL>],
    o_prev: Pack<i32, VL>,
) {
    let rlen = s + 1;
    let ones = L::splat(1);
    // Per-tile constant: lane i compares against A[x0+1+i].
    let a_vec = L::gather_bytes(a_tile, 0, 1);
    let mut o_prev = L::load(o_prev);
    let mut diag = L::load(ring[(y0 + rlen - 1) % rlen]);
    let mut iu = y0 % rlen;
    let mut iw = (y0 + s) % rlen;
    // Lane i of the character vector at anchor y is B[y-1 + (VL-1-i)·s];
    // at s = 1 it advances by one rotate plus one blend per iteration.
    let stride = -(s as isize);
    let mut b_vec = L::gather_bytes(b, y0 - 1 + (VL - 1) * s, stride);
    for y in y0..=y_max {
        if s > 1 {
            b_vec = L::gather_bytes(b, y - 1 + (VL - 1) * s, stride);
        }
        let up = L::load(ring[iu]);
        let o = a_vec.select_eq(b_vec, diag.add(ones), up.max(o_prev));
        row[y] = o.top();
        let bottom = row[y + VL * s];
        ring[iw] = o.shift_up_insert(bottom).store();
        o_prev = o;
        diag = up;
        if s == 1 {
            b_vec = b_vec.shift_up_insert(i32::from(b[y + VL - 1]));
        }
        iu += 1;
        if iu == rlen {
            iu = 0;
        }
        iw += 1;
        if iw == rlen {
            iw = 0;
        }
    }
}

/// Phase 3 of an LCS temporal tile: drain the surviving ring into the
/// tail triangles, finish every level scalar-wise up to `y1` and export
/// the east column. `y_max` must match the value [`tile_seg_prologue`]
/// returned and the ring must hold `V(j)` at slot `j % (s+1)` for
/// `j ∈ y_max ..= y_max+s`, as left behind by the steady state.
// Justification: same tile-contract signature as `tile_seg`.
#[allow(clippy::too_many_arguments)]
fn tile_seg_epilogue<const VL: usize>(
    row: &mut [i32],
    y1: usize,
    a_tile: &[u8],
    b: &[u8],
    s: usize,
    right_col: &mut [i32],
    sc: &mut ScratchLcs<VL>,
    y_max: usize,
) {
    let rlen = s + 1;
    for i in 1..VL {
        let base = y_max + (VL - 1 - i) * s;
        for j in y_max..=y_max + s {
            let v = sc.ring[j % rlen];
            sc.tail[i][j - y_max] = v.extract(i);
        }
        let ca = a_tile[i - 1];
        let (lo, hi_planes) = sc.tail.split_at_mut(i);
        let plane = &mut hi_planes[0];
        for y in base + s + 1..=y1 {
            let rel = y - base;
            let (diag, up) = if i == 1 {
                (row[y - 1], row[y])
            } else {
                let bb = y - (base + s);
                (lo[i - 1][bb - 1], lo[i - 1][bb])
            };
            plane[rel] = lcs_update(diag, up, plane[rel - 1], ca, b[y - 1]);
        }
        right_col[i] = plane[y1 - base];
    }
    // Final level VL.
    {
        let below = &sc.tail[VL - 1]; // based at y_max
        let ca = a_tile[VL - 1];
        for y in y_max + 1..=y1 {
            let rel = y - y_max;
            row[y] = lcs_update(below[rel - 1], below[rel], row[y - 1], ca, b[y - 1]);
        }
        right_col[VL] = row[y1];
    }
}

/// Advance the full DP row by `VL` sequence-`A` positions (whole-row
/// temporal tile — the non-blocked configuration).
pub fn tile<const VL: usize>(
    engine: Engine,
    row: &mut [i32],
    a_tile: &[u8],
    b: &[u8],
    s: usize,
    sc: &mut ScratchLcs<VL>,
) {
    let lb = b.len();
    let zeros = [0i32; 17];
    let mut sink = [0i32; 17];
    assert!(VL < zeros.len());
    tile_seg::<VL>(engine, row, 1, lb, a_tile, b, s, &zeros, &mut sink, sc);
}

/// One scalar DP row step over the whole row (left boundary column 0).
pub fn scalar_row_step(row: &mut [i32], ca: u8, b: &[u8]) {
    scalar_row_step_seg(row, ca, b, 1, b.len(), 0, 0);
}

/// Compute the final DP row `lcs[a.len()][0..=b.len()]` with the temporal
/// scheme (vector length `VL`, stride `s`) on the portable engine.
/// Bit-identical to `tempora_stencil::reference::lcs_final_row`.
pub fn final_row<const VL: usize>(a: &[u8], b: &[u8], s: usize) -> Vec<i32> {
    let mut row = vec![0i32; b.len() + 1];
    if b.is_empty() {
        return row;
    }
    let mut sc = ScratchLcs::<VL>::new(s);
    let tiles = a.len() / VL;
    for t in 0..tiles {
        tile::<VL>(
            Engine::Portable,
            &mut row,
            &a[t * VL..(t + 1) * VL],
            b,
            s,
            &mut sc,
        );
    }
    for &ca in &a[tiles * VL..] {
        scalar_row_step(&mut row, ca, b);
    }
    row
}

/// LCS length via the temporal scheme (`VL = 8`, the paper's integer
/// configuration).
pub fn length(a: &[u8], b: &[u8], s: usize) -> i32 {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    // Panic-justification: `b` is non-empty (checked above), so the final
    // row has `b.len()` entries and `last()` is always Some.
    *final_row::<8>(a, b, s).last().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_grid::random_sequence;
    use tempora_simd::Mask;
    use tempora_stencil::{lcs_update_pack, reference};

    #[test]
    fn fused_update_matches_lcs_update_pack() {
        // The steady state's compare-and-select must agree with the
        // two-step eq_mask + lcs_update_pack form bit for bit (including
        // at i32::MAX, where diag + 1 wraps in both).
        let diag = Pack::<i32, 8>::from_fn(|i| [0, 3, -1, i32::MAX, 7, 2, 5, 1][i]);
        let up = Pack::<i32, 8>::from_fn(|i| (i as i32) * 3 - 4);
        let left = Pack::<i32, 8>::from_fn(|i| 6 - i as i32);
        let a = Pack::<i32, 8>::from_fn(|i| (i % 3) as i32);
        let b = Pack::<i32, 8>::from_fn(|i| (i % 2) as i32);
        let eq: Mask<8> = a.eq_mask(b);
        let gold = lcs_update_pack(diag, up, left, eq);
        let fused = Lanes::select_eq(a, b, Lanes::add(diag, Pack::splat(1)), Lanes::max(up, left));
        assert_eq!(fused, gold);
    }

    #[test]
    fn final_row_matches_reference() {
        for &(la, lb) in &[
            (8usize, 40usize),
            (16, 100),
            (24, 33),
            (40, 17),
            (7, 50),
            (64, 257),
        ] {
            for s in 1..=3 {
                let a = random_sequence(la, 4, la as u64);
                let b = random_sequence(lb, 4, lb as u64 + 1);
                let ours = final_row::<8>(&a, &b, s);
                let gold = reference::lcs_final_row(&a, &b);
                assert_eq!(ours, gold, "la={la} lb={lb} s={s}");
            }
        }
    }

    #[test]
    fn vl4_variant_matches_reference() {
        let a = random_sequence(30, 3, 1);
        let b = random_sequence(77, 3, 2);
        for s in 1..=4 {
            assert_eq!(final_row::<4>(&a, &b, s), reference::lcs_final_row(&a, &b));
        }
    }

    #[test]
    fn length_known_answers() {
        assert_eq!(length(b"ABCBDAB", b"BDCABA", 1), 4);
        assert_eq!(length(b"GATTACA", b"GATTACA", 2), 7);
        assert_eq!(length(b"AAAA", b"BBBB", 1), 0);
        assert_eq!(length(b"", b"ABC", 1), 0);
        assert_eq!(length(b"ABCDEFGHIJKLMNOP", b"", 1), 0);
    }

    #[test]
    fn binary_alphabet_stress() {
        for seed in 0..5 {
            let a = random_sequence(48, 2, seed);
            let b = random_sequence(96, 2, seed + 100);
            assert_eq!(
                length(&a, &b, 1),
                *reference::lcs_final_row(&a, &b).last().unwrap()
            );
        }
    }

    #[test]
    fn tiny_b_falls_back_to_scalar() {
        let a = random_sequence(16, 4, 9);
        let b = random_sequence(5, 4, 10);
        assert_eq!(final_row::<8>(&a, &b, 1), reference::lcs_final_row(&a, &b));
    }

    #[test]
    fn segmented_tiles_stitch_exactly() {
        // Process the table in column blocks, threading the column edges
        // through tile_seg, and compare every block boundary against the
        // full-table reference.
        let a = random_sequence(32, 3, 5);
        let b = random_sequence(200, 3, 6);
        let (la, lb) = (a.len(), b.len());
        let gold_table = reference::lcs_table(&a, &b);
        let w = lb + 1;
        for s in [1usize, 2] {
            for block in [24usize, 64, 96] {
                let mut row = vec![0i32; lb + 1];
                let mut sc = ScratchLcs::<8>::new(s);
                for t in 0..la / 8 {
                    let x0 = t * 8;
                    let mut left = [0i32; 9];
                    let mut right = [0i32; 9];
                    let mut y0 = 1usize;
                    while y0 <= lb {
                        let y1 = (y0 + block - 1).min(lb);
                        tile_seg::<8>(
                            Engine::Portable,
                            &mut row,
                            y0,
                            y1,
                            &a[x0..x0 + 8],
                            &b,
                            s,
                            &left,
                            &mut right,
                            &mut sc,
                        );
                        // Exported east column must match the table.
                        for k in 0..=8 {
                            assert_eq!(
                                right[k],
                                gold_table[(x0 + k) * w + y1],
                                "s={s} block={block} x0={x0} y1={y1} k={k}"
                            );
                        }
                        left = right;
                        y0 = y1 + 1;
                    }
                }
                // Final rows match.
                let gold_row = &gold_table[(la / 8 * 8) * w..(la / 8 * 8) * w + w];
                assert_eq!(&row[..], gold_row);
            }
        }
    }
}
