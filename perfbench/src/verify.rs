//! Seeded solve inputs, output digests and the bitwise check against the
//! `tempora_stencil::reference` oracles.
//!
//! Grid inputs repeat a seeded random tile with period `P` along every
//! axis. A Jacobi output point depends only on the input within `steps`
//! cells and on its distance to the boundary, so when `steps < P` and each
//! extent is a multiple of `P` (at least `3P`), the oracle run on a
//! `3P`-wide grid of the same tile determines every point of the full
//! output: points in the first and last period map to the small grid's
//! first and last period, all others to its middle period. That keeps the
//! full-output check cheap for the 1.2 GB grids. Gauss-Seidel outputs
//! depend on everything upstream, so they go through the full oracle,
//! whose digest is cached per seed in the benchmark's cache directory.

use std::collections::BTreeMap;
use std::path::PathBuf;
use tempora_plan::{Problem, State};
use tempora_stencil::reference;

/// Bump when the input generator changes, so cached digests go stale.
const INPUT_VERSION: u32 = 1;

pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded tile: `len` uniform values in `[-1, 1)`.
fn tile(seed: u64, len: usize) -> Vec<f64> {
    let base = splitmix(seed ^ 0x5eed_711e);
    (0..len)
        .map(|i| {
            let bits = splitmix(base.wrapping_add(i as u64)) >> 11;
            bits as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}

/// Fill `state` for `problem` from `seed`: grids with the periodic tile of
/// period `p`, LCS with two random 4-symbol sequences.
pub fn fill(state: &mut State, seed: u64, p: usize) {
    match state {
        State::Grid1(g) => {
            let t = tile(seed, p);
            g.fill_interior(|x| t[x % p]);
        }
        State::Grid2(g) => {
            let t = tile(seed, p * p);
            g.fill_interior(|x, y| t[(x % p) * p + y % p]);
        }
        State::Grid3(g) => {
            let t = tile(seed, p * p * p);
            g.fill_interior(|x, y, z| t[((x % p) * p + y % p) * p + z % p]);
        }
        State::Grid2i(g) => {
            let t = tile(seed, p * p);
            g.fill_interior(|x, y| (t[(x % p) * p + y % p] > 0.0) as i32);
        }
        State::Lcs(l) => {
            let (la, lb) = (l.a.len(), l.b.len());
            l.a = tempora_grid::random_sequence(la, 4, splitmix(seed));
            l.b = tempora_grid::random_sequence(lb, 4, splitmix(seed ^ 0xb));
            l.length = None;
        }
    }
}

/// Streaming 64-bit digest over a sequence of words (FNV-1a over whole
/// words). Equal for bitwise-equal sequences; no buffers, so it can run
/// while the measured state is the only large allocation.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    #[inline(always)]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        splitmix(self.0)
    }
}

/// Digest of a state's interior values in row-major order (the LCS
/// length for LCS states).
pub fn digest_state(state: &State) -> u64 {
    let mut d = Digest::new();
    match state {
        State::Grid1(g) => g.interior().iter().for_each(|v| d.word(v.to_bits())),
        State::Grid2(g) => {
            let h = g.halo();
            for x in h..h + g.nx() {
                g.row(x)[h..h + g.ny()]
                    .iter()
                    .for_each(|v| d.word(v.to_bits()));
            }
        }
        State::Grid3(g) => {
            let h = g.halo();
            for x in h..h + g.nx() {
                for y in h..h + g.ny() {
                    let at = g.idx(x, y, h);
                    g.data()[at..at + g.nz()]
                        .iter()
                        .for_each(|v| d.word(v.to_bits()));
                }
            }
        }
        State::Grid2i(g) => {
            let h = g.halo();
            for x in h..h + g.nx() {
                g.row(x)[h..h + g.ny()]
                    .iter()
                    .for_each(|v| d.word(*v as u32 as u64));
            }
        }
        State::Lcs(l) => d.word(l.length.map_or(u64::MAX, |v| v as u32 as u64)),
    }
    d.finish()
}

/// Index in the `3P` oracle grid that holds the value of interior index
/// `x` of an extent-`n` grid with period `p`.
fn fold(x: usize, n: usize, p: usize) -> usize {
    if x < p {
        x
    } else if x >= n - p {
        x + 3 * p - n
    } else {
        p + x % p
    }
}

/// True when the small-oracle expansion applies: a Jacobi problem whose
/// extents are multiples of `p`, at least `3p`, and `steps < p`.
pub fn periodic_oracle_applies(problem: &Problem, p: usize) -> bool {
    let jacobi = matches!(
        problem,
        Problem::Heat1d { .. } | Problem::Heat2d { .. } | Problem::Heat3d { .. }
    );
    let ext = problem.extents();
    let dims = match problem {
        Problem::Heat1d { .. } => 1,
        Problem::Heat2d { .. } => 2,
        _ => 3,
    };
    jacobi && problem.steps() < p && ext[..dims].iter().all(|&e| e % p == 0 && e >= 3 * p)
}

/// The problem of the same kind with every extent set to `3p`.
fn small_twin(problem: &Problem, p: usize) -> Problem {
    let m = 3 * p;
    match *problem {
        Problem::Heat1d { steps, coeffs, .. } => Problem::heat1d(m, steps, coeffs),
        Problem::Heat2d { steps, coeffs, .. } => Problem::heat2d(m, m, steps, coeffs),
        Problem::Heat3d { steps, coeffs, .. } => Problem::heat3d(m, m, m, steps, coeffs),
        other => other,
    }
}

/// Run the reference oracle for `problem` on `state` and return the
/// output state.
pub fn oracle(problem: &Problem, state: &State) -> State {
    match (*problem, state) {
        (Problem::Heat1d { steps, coeffs, .. }, State::Grid1(g)) => {
            State::Grid1(reference::heat1d(g, coeffs, steps))
        }
        (Problem::Gs1d { steps, coeffs, .. }, State::Grid1(g)) => {
            State::Grid1(reference::gs1d(g, coeffs, steps))
        }
        (Problem::Heat2d { steps, coeffs, .. }, State::Grid2(g)) => {
            State::Grid2(reference::heat2d(g, coeffs, steps))
        }
        (Problem::Gs2d { steps, coeffs, .. }, State::Grid2(g)) => {
            State::Grid2(reference::gs2d(g, coeffs, steps))
        }
        (Problem::Heat3d { steps, coeffs, .. }, State::Grid3(g)) => {
            State::Grid3(reference::heat3d(g, coeffs, steps))
        }
        (Problem::Gs3d { steps, coeffs, .. }, State::Grid3(g)) => {
            State::Grid3(reference::gs3d(g, coeffs, steps))
        }
        (Problem::Lcs { .. }, State::Lcs(l)) => {
            let mut out = l.clone();
            out.length = Some(reference::lcs_len(&l.a, &l.b));
            State::Lcs(out)
        }
        (p, s) => panic!(
            "no oracle for {} on a {} state",
            p.kind_name(),
            s.variant_name()
        ),
    }
}

/// Digest of the oracle's output for `problem` on the input of `seed`
/// with period `p`.
pub fn oracle_digest(problem: &Problem, seed: u64, p: usize) -> u64 {
    if !periodic_oracle_applies(problem, p) {
        let mut input = problem.state();
        fill(&mut input, seed, p);
        let out = oracle(problem, &input);
        drop(input);
        return digest_state(&out);
    }
    let twin = small_twin(problem, p);
    let mut input = twin.state();
    fill(&mut input, seed, p);
    let out = oracle(&twin, &input);
    let [nx, ny, nz] = problem.extents();
    let mut d = Digest::new();
    match &out {
        State::Grid1(g) => {
            let h = g.halo();
            for x in 0..nx {
                d.word(g.get(h + fold(x, nx, p)).to_bits());
            }
        }
        State::Grid2(g) => {
            let h = g.halo();
            for x in 0..nx {
                let row = g.row(h + fold(x, nx, p));
                for y in 0..ny {
                    d.word(row[h + fold(y, ny, p)].to_bits());
                }
            }
        }
        State::Grid3(g) => {
            let h = g.halo();
            for x in 0..nx {
                for y in 0..ny {
                    let (sx, sy) = (h + fold(x, nx, p), h + fold(y, ny, p));
                    for z in 0..nz {
                        d.word(g.get(sx, sy, h + fold(z, nz, p)).to_bits());
                    }
                }
            }
        }
        _ => unreachable!("periodic oracle applies to Jacobi grids only"),
    }
    d.finish()
}

/// Oracle digests cached per `(problem, seed, period)` across runs, in a
/// text file of the benchmark's cache directory.
pub struct OracleCache {
    path: Option<PathBuf>,
    map: BTreeMap<String, u64>,
}

impl OracleCache {
    pub fn open(dir: Option<PathBuf>) -> OracleCache {
        let path = dir.map(|d| d.join("oracle-digests.tsv"));
        let mut map = BTreeMap::new();
        if let Some(text) = path.as_ref().and_then(|p| std::fs::read_to_string(p).ok()) {
            for line in text.lines() {
                if let Some((k, v)) = line.rsplit_once('\t') {
                    if let Ok(v) = u64::from_str_radix(v, 16) {
                        map.insert(k.to_string(), v);
                    }
                }
            }
        }
        OracleCache { path, map }
    }

    fn key(problem: &Problem, seed: u64, p: usize) -> String {
        format!("v{INPUT_VERSION} {problem:?} seed={seed} period={p}")
    }

    /// The cached digest, or the oracle's, computed now and cached. The
    /// bool says whether the oracle ran.
    pub fn digest(&mut self, problem: &Problem, seed: u64, p: usize) -> (u64, bool) {
        // The small-oracle expansion is cheaper than a file lookup.
        if periodic_oracle_applies(problem, p) {
            return (oracle_digest(problem, seed, p), true);
        }
        let key = Self::key(problem, seed, p);
        if let Some(&d) = self.map.get(&key) {
            return (d, false);
        }
        let d = oracle_digest(problem, seed, p);
        self.map.insert(key, d);
        self.save();
        (d, true)
    }

    fn save(&self) {
        let Some(path) = &self.path else { return };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let text: String = self
            .map
            .iter()
            .map(|(k, v)| format!("{k}\t{v:016x}\n"))
            .collect();
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_plan::PlanBuilder;
    use tempora_stencil::{Gs2dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs};

    fn plan_digest(problem: &Problem, seed: u64, p: usize) -> u64 {
        let mut state = problem.state();
        fill(&mut state, seed, p);
        PlanBuilder::new()
            .build(problem)
            .unwrap()
            .run(&mut state)
            .unwrap();
        digest_state(&state)
    }

    #[test]
    fn small_oracle_expansion_equals_the_full_oracle() {
        let p = 16;
        for problem in [
            Problem::heat1d(16 * 40, 8, Heat1dCoeffs::classic(0.25)),
            Problem::heat2d(16 * 5, 16 * 4, 8, Heat2dCoeffs::classic(0.125)),
            Problem::heat3d(48, 64, 48, 4, Heat3dCoeffs::classic(0.1)),
        ] {
            assert!(periodic_oracle_applies(&problem, p));
            let mut input = problem.state();
            fill(&mut input, 9, p);
            let full = digest_state(&oracle(&problem, &input));
            assert_eq!(oracle_digest(&problem, 9, p), full, "{problem:?}");
            assert_eq!(plan_digest(&problem, 9, p), full, "{problem:?}");
        }
    }

    #[test]
    fn a_digest_mismatch_is_detected() {
        let p = 16;
        let problem = Problem::gs2d(64, 48, 8, Gs2dCoeffs::classic(0.2));
        let mut cache = OracleCache::open(None);
        let (expected, ran) = cache.digest(&problem, 3, p);
        assert!(ran);
        assert_eq!(plan_digest(&problem, 3, p), expected);
        // A second lookup hits the cache.
        assert_eq!(cache.digest(&problem, 3, p), (expected, false));
        // One flipped bit anywhere in the output changes the digest.
        let mut state = problem.state();
        fill(&mut state, 3, p);
        PlanBuilder::new()
            .build(&problem)
            .unwrap()
            .run(&mut state)
            .unwrap();
        let g = state.grid2_mut().unwrap();
        let v = g.get(30, 20);
        g.set(30, 20, f64::from_bits(v.to_bits() ^ 1));
        assert_ne!(digest_state(&state), expected);
        // A different seed is a different input.
        assert_ne!(cache.digest(&problem, 4, p).0, expected);
    }

    #[test]
    fn fill_is_deterministic_from_the_seed() {
        let problem = Problem::lcs(40, 50);
        let (mut a, mut b) = (problem.state(), problem.state());
        fill(&mut a, 5, 1);
        fill(&mut b, 5, 1);
        assert_eq!(a.lcs().unwrap().b, b.lcs().unwrap().b);
        fill(&mut b, 6, 1);
        assert_ne!(a.lcs().unwrap().b, b.lcs().unwrap().b);
    }
}
