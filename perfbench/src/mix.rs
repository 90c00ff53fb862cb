//! The request mix shared by the serving workload and the in-process
//! latency probes: a hot set of small specs that fits the plan cache and
//! a cold pool four times the cache capacity.

use tempora_client::scenario::{default_spec, vary_spec};
use tempora_plan::{Problem, Tiling};
use tempora_proto::JobSpec;

/// Plan-cache capacity the server is started with.
pub const CACHE_CAP: usize = 64;
/// Share of requests drawn from the cold pool, in percent.
pub const COLD_PERCENT: u64 = 5;
/// Distinct input seeds per spec (keeps the digest check affordable).
pub const STATE_SEEDS: u64 = 4;

/// The hot set: heat1d, gs1d and heat2d in two `vary_spec` variants each,
/// plus lcs, at sizes that run in well under a millisecond.
pub fn hot_specs() -> Vec<JobSpec> {
    let bases = [
        default_spec("heat1d", 4096, 32),
        default_spec("gs1d", 4096, 32),
        default_spec("heat2d", 64, 32),
    ];
    let mut out = Vec::new();
    for base in bases.into_iter().flatten() {
        out.push(vary_spec(&base, 0));
        out.push(vary_spec(&base, 1));
    }
    out.extend(default_spec("lcs", 512, 0));
    out
}

/// The cold pool: at least `4 × CACHE_CAP` specs never in the hot set,
/// so each cold request builds a plan and forces an eviction. Only the
/// 1-D kinds vary: `vary_spec` widens heat2d by 8 rows per variant, which
/// would make most cold requests many times larger than a hot one instead
/// of a build plus a hot-sized run.
pub fn cold_specs() -> Vec<JobSpec> {
    let bases: Vec<JobSpec> = [
        default_spec("heat1d", 4096, 32),
        default_spec("gs1d", 4096, 32),
    ]
    .into_iter()
    .flatten()
    .collect();
    let per_base = (4 * CACHE_CAP).div_ceil(bases.len());
    bases
        .iter()
        .flat_map(|b| (2..2 + per_base).map(move |i| vary_spec(b, i)))
        .collect()
}

/// The hot set compiled for `threads` pool workers: ghost, skew and
/// rectangle tilings sized for the small problems.
pub fn tiled(spec: &JobSpec, threads: usize) -> JobSpec {
    let mut spec = *spec;
    spec.config.tiling = match spec.problem {
        Problem::Heat1d { n, .. } => Tiling::Ghost {
            block: n / 8,
            height: 8,
        },
        Problem::Gs1d { .. } => Tiling::Skew {
            block: 256,
            height: 8,
        },
        Problem::Heat2d { nx, .. } => Tiling::Ghost {
            block: nx / 4,
            height: 8,
        },
        Problem::Lcs { la, lb } => Tiling::LcsRect {
            xblock: la / 4,
            yblock: lb / 4,
        },
        _ => Tiling::None,
    };
    spec.config.threads = threads;
    spec.config.pin = false;
    spec
}

/// Problem family of a spec, for the per-family rates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Jacobi,
    Gs,
    Lcs,
}

impl Family {
    pub fn of(problem: &Problem) -> Family {
        match problem {
            Problem::Lcs { .. } => Family::Lcs,
            p if p.is_gauss_seidel() => Family::Gs,
            _ => Family::Jacobi,
        }
    }

    pub const ALL: [Family; 3] = [Family::Jacobi, Family::Gs, Family::Lcs];

    pub fn name(self) -> &'static str {
        match self {
            Family::Jacobi => "jacobi",
            Family::Gs => "gs",
            Family::Lcs => "lcs",
        }
    }

    /// The end-to-end rate metric of this family and its unit.
    pub fn rate_metric(self) -> (&'static str, &'static str) {
        match self {
            Family::Jacobi => ("jacobi.gst_s", "Gstencil/s"),
            Family::Gs => ("gs.gst_s", "Gstencil/s"),
            Family::Lcs => ("lcs.gcells_s", "Gcell/s"),
        }
    }
}

/// Point updates (DP cells for LCS) of one run of `problem`.
pub fn work(problem: &Problem) -> f64 {
    problem.points() as f64 * problem.steps() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mix_spec_builds_untiled_and_tiled() {
        let hot = hot_specs();
        assert_eq!(hot.len(), 7);
        let cold = cold_specs();
        assert!(cold.len() >= 4 * CACHE_CAP);
        let keys: std::collections::HashSet<_> =
            hot.iter().chain(&cold).map(JobSpec::key).collect();
        assert_eq!(
            keys.len(),
            hot.len() + cold.len(),
            "hot and cold specs are distinct"
        );
        for spec in &hot {
            spec.config.plan_builder().build(&spec.problem).unwrap();
            let t = tiled(spec, 2);
            t.config.plan_builder().build(&t.problem).unwrap();
        }
    }
}
