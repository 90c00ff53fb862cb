//! Unified engine dispatch: one place that decides, per workload, whether
//! a steady state runs on the portable packs or on the AVX2 registers.
//!
//! Every temporal steady state in this crate is written **once**, as a
//! [`LaneFn`] over the lane vocabulary of [`tempora_simd::Lanes`], and
//! instantiated twice by [`Engine::run`]: on `Pack<T, N>` (portable, any
//! lane count) and on the AVX2+FMA register twin of `f64×4` / `i32×8`
//! ([`tempora_simd::arch::run_avx2`], the single `#[target_feature]`
//! boundary). Prologues and epilogues are shared outright, so the two
//! engines differ only in the instructions of the steady state.
//!
//! The preferred entry point is the `tempora_plan` crate's
//! `Problem → PlanBuilder → Plan → Report` lifecycle, which resolves the
//! selection once per plan, reuses scratch across runs, and reports the
//! [`Engine`] that actually executed. The selection policy is a
//! three-valued [`Select`]:
//!
//! * [`Select::Auto`] (the default) — AVX2+FMA steady state whenever the
//!   CPU supports it and the workload has one, portable otherwise;
//! * [`Select::Portable`] — always the portable pack engine;
//! * [`Select::Avx2`] — require the AVX2 path (panics if the CPU lacks
//!   AVX2+FMA; workloads with no AVX2 instantiation still resolve to
//!   portable, reported as such).
//!
//! The f64 kernels have an AVX2 instantiation at `vl = 4` double lanes,
//! and the two integer workloads — Life and LCS — at the paper's `vl = 8`
//! i32 lanes; other lane counts run portable. Degenerate shapes that
//! cannot exercise a vector steady state at all — fewer than one full
//! `vl`-level time tile, or an outer extent below `vl·s` (for LCS, a row
//! segment below `vl·s + 1`) — resolve portable, because every engine
//! would run the identical scalar schedule there and reporting `avx2`
//! would misname the instruction mix that actually executed.
//!
//! The selection is overridable at process level through the
//! `TEMPORA_ENGINE` environment variable (`auto` | `portable` | `avx2`,
//! read by [`Select::from_env`]); the `repro` harness records both the
//! selection and the per-series resolved engine in its JSON output.
//!
//! All engines are bit-identical to the scalar oracles, so dispatch never
//! changes results — only speed.

use tempora_simd::arch;
use tempora_simd::{LaneFn, Pack, Scalar};

/// Environment variable consulted by [`Select::from_env`].
pub const ENV_VAR: &str = "TEMPORA_ENGINE";

/// Engine-selection policy (see the [module docs](self)).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Select {
    /// Best available: AVX2 where supported and implemented, else portable.
    #[default]
    Auto,
    /// Force the portable pack engine.
    Portable,
    /// Require the `std::arch` AVX2 engine (panics without AVX2+FMA).
    Avx2,
}

impl Select {
    /// Parse a selection name (`auto` | `portable` | `avx2`,
    /// case-insensitive; the empty string means `auto`).
    pub fn parse(s: &str) -> Option<Select> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Some(Select::Auto),
            "portable" => Some(Select::Portable),
            "avx2" => Some(Select::Avx2),
            _ => None,
        }
    }

    /// Read the selection from the `TEMPORA_ENGINE` environment variable
    /// ([`Select::Auto`] when unset).
    ///
    /// # Panics
    /// Panics on an unrecognized value, so typos fail loudly instead of
    /// silently benchmarking the wrong engine.
    pub fn from_env() -> Select {
        match std::env::var(ENV_VAR) {
            Ok(v) => Select::parse(&v).unwrap_or_else(|| {
                panic!("{ENV_VAR}={v:?} not recognized (expected auto | portable | avx2)")
            }),
            Err(_) => Select::Auto,
        }
    }

    /// The canonical name of this selection (`auto` | `portable` | `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            Select::Auto => "auto",
            Select::Portable => "portable",
            Select::Avx2 => "avx2",
        }
    }

    /// Resolve the policy against CPU capability and whether the workload
    /// has an AVX2 steady state. Public so the tiled layer
    /// (`tempora-tiling`) can resolve its in-tile engine **once per run**
    /// and report it honestly; degenerate geometries must pass
    /// `has_avx2_impl = false`.
    pub fn resolve(self, has_avx2_impl: bool) -> Engine {
        match self {
            Select::Portable => Engine::Portable,
            Select::Auto => {
                if has_avx2_impl && arch::avx2_available() {
                    Engine::Avx2
                } else {
                    Engine::Portable
                }
            }
            Select::Avx2 => {
                assert!(
                    arch::avx2_available(),
                    "{ENV_VAR}=avx2 requested but this CPU lacks AVX2+FMA"
                );
                if has_avx2_impl {
                    Engine::Avx2
                } else {
                    Engine::Portable
                }
            }
        }
    }

    /// Resolve the policy for an untiled temporal run of `steps` steps at
    /// `VL` lanes of `T` over an outer extent `n_outer` with stride `s`:
    /// AVX2 needs a register twin of `Pack<T, VL>` on this CPU and a shape
    /// with vector tiles ([`shape_has_vector_tiles`]).
    pub fn resolve_shape<T: Scalar, const VL: usize>(
        self,
        n_outer: usize,
        steps: usize,
        s: usize,
    ) -> Engine {
        self.resolve(arch::avx2_lanes::<T, VL>() && shape_has_vector_tiles(VL, n_outer, steps, s))
    }
}

/// The concrete steady state a dispatch decision resolved to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// The steady state instantiated on the portable `Pack` lanes.
    Portable,
    /// The same steady state instantiated on the AVX2+FMA registers.
    Avx2,
}

impl Engine {
    /// The engine name as recorded in bench output (`portable` | `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Portable => "portable",
            Engine::Avx2 => "avx2",
        }
    }

    /// Run a steady state written over the lane vocabulary on this
    /// engine: `f.call::<Pack<T, N>>()` for [`Engine::Portable`], the
    /// AVX2 register twin for [`Engine::Avx2`].
    ///
    /// # Panics
    /// Panics on [`Engine::Avx2`] unless
    /// [`arch::avx2_lanes::<T, N>()`](arch::avx2_lanes) holds, which
    /// every resolution through [`Select::resolve_shape`] guarantees.
    pub fn run<T: Scalar, const N: usize, F: LaneFn<T, N>>(self, f: F) -> F::Output {
        match self {
            Engine::Portable => f.call::<Pack<T, N>>(),
            Engine::Avx2 => {
                assert!(
                    arch::avx2_lanes::<T, N>(),
                    "AVX2 engine needs AVX2+FMA and an f64x4 or i32x8 steady state"
                );
                // SAFETY: `avx2_lanes::<T, N>()` was checked just above.
                unsafe { arch::run_avx2(f) }
            }
        }
    }
}

/// True when a workload shape can actually exercise a vector steady
/// state at vector length `vl` (4 for the f64 kernels, 8 for the
/// integer Life kernel): at least one full `vl`-level time tile, and an
/// outer extent that hosts the vector schedule (`n ≥ vl·s`). Degenerate
/// shapes run the scalar schedule in *every* engine, so dispatch
/// resolves them portable — the returned [`Engine`] must name the
/// steady state that executes, not the one that was asked for.
pub fn shape_has_vector_tiles(vl: usize, n_outer: usize, steps: usize, s: usize) -> bool {
    steps >= vl && n_outer >= vl * s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::JacobiKern1d;
    use crate::t1d;
    use tempora_grid::{fill_random_1d, Boundary, Grid1};
    use tempora_stencil::{reference, Heat1dCoeffs};

    /// Heat-1D at 4 lanes, resolved and run the way a plan does.
    fn heat1d(
        sel: Select,
        g: &Grid1<f64>,
        c: Heat1dCoeffs,
        steps: usize,
        s: usize,
    ) -> (Grid1<f64>, Engine) {
        let engine = sel.resolve_shape::<f64, 4>(g.n(), steps, s);
        (
            t1d::run_on::<4, _>(engine, g, &JacobiKern1d(c), steps, s),
            engine,
        )
    }

    fn grid(n: usize, seed: u64, b: f64) -> Grid1<f64> {
        let mut g = Grid1::new(n, 1, Boundary::Dirichlet(b));
        fill_random_1d(&mut g, seed, -1.0, 1.0);
        g
    }

    #[test]
    fn select_parses_all_names() {
        assert_eq!(Select::parse("auto"), Some(Select::Auto));
        assert_eq!(Select::parse(""), Some(Select::Auto));
        assert_eq!(Select::parse("Portable"), Some(Select::Portable));
        assert_eq!(Select::parse(" AVX2 "), Some(Select::Avx2));
        assert_eq!(Select::parse("sse"), None);
        for sel in [Select::Auto, Select::Portable, Select::Avx2] {
            assert_eq!(Select::parse(sel.name()), Some(sel));
        }
    }

    #[test]
    fn portable_selection_always_reports_portable() {
        let c = Heat1dCoeffs::classic(0.25);
        let g = grid(200, 1, 0.0);
        let (r, e) = heat1d(Select::Portable, &g, c, 8, 7);
        assert_eq!(e, Engine::Portable);
        assert!(r.interior_eq(&reference::heat1d(&g, c, 8)));
    }

    #[test]
    fn auto_matches_portable_bitwise() {
        let c = Heat1dCoeffs::new(0.3, 0.45, 0.25);
        let g = grid(500, 9, -1.0);
        let (auto, _) = heat1d(Select::Auto, &g, c, 12, 7);
        let (port, _) = heat1d(Select::Portable, &g, c, 12, 7);
        assert!(auto.interior_eq(&port));
    }

    #[test]
    fn degenerate_shapes_resolve_portable() {
        // Shapes whose every step runs the scalar schedule must report
        // the portable engine, whatever the selection policy — on these
        // shapes no AVX2 steady-state instruction ever executes.
        let c = Heat1dCoeffs::classic(0.25);
        let small = grid(5, 4, 0.0);
        let big = grid(200, 5, 0.0);
        for sel in [Select::Auto, Select::Portable] {
            // n = 5 < VL·s = 8: no vector tile fits.
            let (r, e) = heat1d(sel, &small, c, 8, 2);
            assert_eq!(e, Engine::Portable, "{sel:?}");
            assert!(r.interior_eq(&reference::heat1d(&small, c, 8)));
            // steps = 3 < VL: only scalar remainder steps run.
            let (r, e) = heat1d(sel, &big, c, 3, 2);
            assert_eq!(e, Engine::Portable, "{sel:?}");
            assert!(r.interior_eq(&reference::heat1d(&big, c, 3)));
        }
        // nx = 5 < VL·s = 8 in 2-D as well.
        assert_eq!(
            Select::Auto.resolve_shape::<f64, 4>(5, 8, 2),
            Engine::Portable
        );
    }

    #[test]
    fn workloads_without_avx2_impl_resolve_portable() {
        // Lane counts without an AVX2 register twin resolve portable even
        // under Auto on an AVX2 host…
        assert_eq!(
            Select::Auto.resolve_shape::<f64, 8>(4096, 8, 2),
            Engine::Portable
        );
        assert_eq!(
            Select::Auto.resolve_shape::<i32, 4>(4096, 8, 2),
            Engine::Portable
        );
        // …while every stride the ring holds, the widest included, has one.
        let c = Heat1dCoeffs::classic(0.25);
        let g = grid(4096, 2, 0.0);
        let widest = t1d::RING_CAP - 1;
        let (r, e) = heat1d(Select::Auto, &g, c, 4, widest);
        let expect = if arch::avx2_available() {
            Engine::Avx2
        } else {
            Engine::Portable
        };
        assert_eq!(e, expect);
        assert!(r.interior_eq(&reference::heat1d(&g, c, 4)));
    }
}
