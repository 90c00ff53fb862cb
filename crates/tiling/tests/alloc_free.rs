//! Allocation regression for the tiling workspaces. The aligned-buffer
//! counter `tempora_grid::alloc_count` is process-global, so this file
//! holds a single test: no sibling test can move the counter while a run
//! is measured, and one window per workspace is exact.

use tempora_core::engine::Select;
use tempora_core::kernels::{GsKern2d, JacobiKern1d};
use tempora_grid::{alloc_count, fill_random_1d, fill_random_2d, random_sequence};
use tempora_grid::{Boundary, Grid1, Grid2};
use tempora_parallel::Pool;
use tempora_stencil::{reference, Gs2dCoeffs, Heat1dCoeffs};
use tempora_tiling::{GhostJacobi1d, LcsRect, Mode, SkewGs2d};

/// Run `f` once and return how many aligned buffers it allocated.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = alloc_count();
    f();
    alloc_count() - before
}

/// After its first use, every workspace advances a fresh state with zero
/// aligned-buffer allocations, and the reused result is bit-identical.
#[test]
fn reused_workspaces_are_allocation_free() {
    // Ghost-zone Heat-1D, temporal tiles.
    let c = Heat1dCoeffs::classic(0.25);
    let pool = Pool::new(2);
    let mut g0 = Grid1::new(300, 1, Boundary::Dirichlet(0.0));
    fill_random_1d(&mut g0, 17, -1.0, 1.0);
    let mut w = GhostJacobi1d::new(
        JacobiKern1d(c),
        300,
        8,
        64,
        4,
        Mode::Temporal(7),
        Select::Auto,
    );
    let mut a = g0.clone();
    w.advance(&mut a, &pool);
    let mut b = g0.clone();
    assert_eq!(allocations(|| w.advance(&mut b, &pool)), 0, "ghost 1-D");
    assert!(b.interior_eq(&a));
    assert!(b.interior_eq(&reference::heat1d(&g0, c, 8)));

    // Skewed GS-2D, scalar and temporal bands, one and two workers.
    let cg = Gs2dCoeffs::classic(0.19);
    let mut g = Grid2::new(120, 9, 1, Boundary::Dirichlet(-0.3));
    fill_random_2d(&mut g, 21, -1.0, 1.0);
    let gold = reference::gs2d(&g, cg, 8);
    for threads in [1usize, 2] {
        let pool = Pool::new(threads);
        for mode in [Mode::Scalar, Mode::Temporal(2)] {
            let mut w = SkewGs2d::new(GsKern2d(cg), g.nx(), g.ny(), 8, 48, 8, mode, Select::Auto);
            let mut first = g.clone();
            w.advance(&mut first, &pool);
            let mut again = g.clone();
            let n = allocations(|| w.advance(&mut again, &pool));
            assert_eq!(n, 0, "skew 2-D threads={threads} mode={mode:?}");
            assert!(again.interior_eq(&gold));
        }
    }

    // Rectangle-tiled LCS.
    let sa = random_sequence(100, 4, 1);
    let sb = random_sequence(140, 4, 2);
    let len = reference::lcs_len(&sa, &sb);
    let mut w = LcsRect::new(100, 140, 24, 40, 1, true, Select::Auto);
    assert_eq!(w.run(&sa, &sb, &pool), len);
    let mut again = 0;
    assert_eq!(
        allocations(|| again = w.run(&sa, &sb, &pool)),
        0,
        "lcs rect"
    );
    assert_eq!(again, len);
}
