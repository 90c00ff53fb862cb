//! The solve workloads: timed `Plan::run` calls on large problems, the
//! in-process latency probe, and the bitwise check of every output.

use crate::mix::{self, Family};
use crate::openloop::{self, Trial};
use crate::trace::Tracer;
use crate::verify::{self, splitmix, OracleCache};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use tempora_plan::{Plan, PlanBuilder, Problem, State, Tiling};
use tempora_proto::{state_digest, JobSpec};
use tempora_server::fresh_state;
use tempora_stencil::{
    Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs,
};

/// One problem of a solve workload and how it is compiled.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    pub name: &'static str,
    pub problem: Problem,
    pub builder: PlanBuilder,
    /// Period of the input tile along every axis.
    pub period: usize,
}

/// Time steps of every `solve-seq` grid: one temporal vector length, so
/// each run streams the grid through memory once.
const SEQ_STEPS: usize = 4;

fn round_up(x: usize, m: usize) -> usize {
    x.div_ceil(m) * m
}

/// `solve-seq`: one thread, untiled temporal plans, each grid at least
/// four times the last-level cache. LCS keeps its rolling row and
/// sequence (5 bytes per column) at one LLC: its kernel is an integer
/// max chain, compute-bound, and its oracle runs at about 0.27 Gcell/s.
pub fn seq_cases(llc: usize) -> Vec<Case> {
    let cells = 4 * llc / 8;
    let n1 = round_up(cells, 4096);
    let n2 = round_up((cells as f64).sqrt().ceil() as usize, 128);
    let n3 = round_up((cells as f64).cbrt().ceil() as usize, 32);
    let t = SEQ_STEPS;
    let seq = PlanBuilder::new();
    vec![
        Case {
            name: "heat1d",
            problem: Problem::heat1d(n1, t, Heat1dCoeffs::classic(0.25)),
            builder: seq,
            period: 4096,
        },
        Case {
            name: "heat2d",
            problem: Problem::heat2d(n2, n2, t, Heat2dCoeffs::classic(0.125)),
            builder: seq,
            period: 128,
        },
        Case {
            name: "heat3d",
            problem: Problem::heat3d(n3, n3, n3, t, Heat3dCoeffs::classic(0.1)),
            builder: seq,
            period: 32,
        },
        Case {
            name: "gs1d",
            problem: Problem::gs1d(n1, t, Gs1dCoeffs::classic(0.25)),
            builder: seq,
            period: 4096,
        },
        Case {
            name: "gs2d",
            problem: Problem::gs2d(n2, n2, t, Gs2dCoeffs::classic(0.2)),
            builder: seq,
            period: 128,
        },
        Case {
            name: "gs3d",
            problem: Problem::gs3d(n3, n3, n3, t, Gs3dCoeffs::classic(0.1)),
            builder: seq,
            period: 32,
        },
        Case {
            name: "lcs",
            problem: Problem::lcs(8, llc / 5),
            builder: seq,
            period: 1,
        },
    ]
}

/// `solve-tiled`: `threads` pinned workers on the Table-1 shapes and
/// blockings, with the step counts cut so a run takes about a second.
pub fn tiled_cases(threads: usize) -> Vec<Case> {
    let b = |tiling| PlanBuilder::new().tiling(tiling).threads(threads).pin(true);
    vec![
        Case {
            name: "heat1d",
            problem: Problem::heat1d(16_000_000, 64, Heat1dCoeffs::classic(0.25)),
            builder: b(Tiling::Ghost {
                block: 16384,
                height: 32,
            }),
            period: 4000,
        },
        Case {
            name: "heat2d",
            problem: Problem::heat2d(8000, 8000, 8, Heat2dCoeffs::classic(0.125)),
            builder: b(Tiling::Ghost {
                block: 256,
                height: 8,
            }),
            period: 160,
        },
        Case {
            name: "gs2d",
            problem: Problem::gs2d(8000, 8000, 8, Gs2dCoeffs::classic(0.2)),
            builder: b(Tiling::Skew {
                block: 128,
                height: 4,
            }),
            period: 160,
        },
        Case {
            name: "lcs",
            problem: Problem::lcs(8192, 200_000),
            builder: b(Tiling::LcsRect {
                xblock: 4096,
                yblock: 4096,
            }),
            period: 1,
        },
    ]
}

/// Timed runs of one case.
#[derive(Clone, Debug)]
pub struct CaseRun {
    pub case: Case,
    pub times: Vec<f64>,
    pub build_s: f64,
    pub fill_s: f64,
    /// Digest of the output of the first run.
    pub digest: u64,
    /// Bytes of the state, for the computed-bandwidth figure.
    pub state_bytes: f64,
    pub threads: usize,
    pub engine: Option<&'static str>,
}

impl CaseRun {
    pub fn family(&self) -> Family {
        Family::of(&self.case.problem)
    }

    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.times)
    }

    pub fn rate(&self) -> f64 {
        mix::work(&self.case.problem) / self.median_s() / 1e9
    }
}

pub fn state_bytes(state: &State) -> f64 {
    (match state {
        State::Grid1(g) => g.data().len() * 8,
        State::Grid2(g) => g.data().len() * 8,
        State::Grid2i(g) => g.data().len() * 4,
        State::Grid3(g) => g.data().len() * 8,
        State::Lcs(l) => l.a.len() + l.b.len() * 5,
    }) as f64
}

/// Timed runs per case at least: the median of three shrugs off one run
/// slowed by a neighbour on the memory bus, and the first run of a plan
/// also faults in its scratch.
const MIN_RUNS: usize = 3;

/// Build, fill and time one case for about `budget` seconds (at least
/// [`MIN_RUNS`] runs). Each run advances the same state; the output of
/// the first run is digested (outside the timed region) for the check.
pub fn time_case(case: &Case, seed: u64, budget: f64, tracer: &mut Tracer, req: u64) -> CaseRun {
    let t = Instant::now();
    let mut plan = tracer
        .span("tempora_plan.build", req, || {
            case.builder.build(&case.problem)
        })
        // Panic-justification: every case configuration is fixed in this file and valid.
        .expect("benchmark plans are valid by construction");
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut state = tracer.span("tempora_plan.state_fill", req, || {
        let mut s = case.problem.state();
        verify::fill(&mut s, seed, case.period);
        s
    });
    let fill_s = t.elapsed().as_secs_f64();
    let mut times = Vec::new();
    let mut digest = 0;
    let mut engine = None;
    let start = Instant::now();
    while times.len() < MIN_RUNS || start.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        let report = tracer
            .span("tempora_plan.run", req, || plan.run(&mut state))
            // Panic-justification: the state was built for this plan's problem.
            .expect("state matches its plan");
        times.push(t.elapsed().as_secs_f64());
        engine = report.engine.map(|e| e.name());
        if times.len() == 1 {
            digest = tracer.span("verify.digest", req, || verify::digest_state(&state));
        }
    }
    CaseRun {
        case: *case,
        times,
        build_s,
        fill_s,
        digest,
        state_bytes: state_bytes(&state),
        threads: plan.threads(),
        engine,
    }
}

/// Check every case's first output against the oracle (cached per seed).
/// Returns `(checked, mismatches, oracle runs)`.
pub fn verify_cases(
    runs: &[CaseRun],
    seed: u64,
    cache: &mut OracleCache,
    tracer: &mut Tracer,
) -> (u64, u64, u64) {
    let (mut bad, mut ran) = (0, 0);
    for (i, r) in runs.iter().enumerate() {
        let (expected, oracle_ran) = tracer.span("tempora_stencil.reference", i as u64, || {
            cache.digest(&r.case.problem, seed, r.case.period)
        });
        ran += oracle_ran as u64;
        if expected != r.digest {
            eprintln!(
                "perfbench: {} output differs from the reference oracle (seed {seed})",
                r.case.name
            );
            bad += 1;
        }
    }
    (runs.len() as u64, bad, ran)
}

/// Per-family rate: total work over the summed median run times.
pub fn family_rate(runs: &[CaseRun], family: Family) -> f64 {
    let (work, secs) = runs
        .iter()
        .filter(|r| r.family() == family)
        .fold((0.0, 0.0), |(w, s), r| {
            (w + mix::work(&r.case.problem), s + r.median_s())
        });
    work / secs / 1e9
}

/// A compiled small spec for the in-process probe, with the oracle's
/// digest for each input seed.
pub struct ProbeSpec {
    pub spec: JobSpec,
    plan: Plan,
    expected: HashMap<u64, u64>,
}

/// Compile the hot set for the probe: untiled, one thread. (Tiled plans
/// with several workers spend most of a sub-millisecond solve waking
/// their pool, which the parallel-layer metrics report separately.)
pub fn probe_specs() -> Vec<ProbeSpec> {
    mix::hot_specs()
        .into_iter()
        .map(|spec| {
            let plan = spec
                .config
                .plan_builder()
                .build(&spec.problem)
                // Panic-justification: the hot specs are fixed and valid.
                .expect("probe specs are valid by construction");
            ProbeSpec {
                spec,
                plan,
                expected: HashMap::new(),
            }
        })
        .collect()
}

/// Input seed of request `i` of a schedule drawn with `seed`.
pub fn request_seed(seed: u64, i: usize) -> u64 {
    splitmix(seed ^ 0x51ed ^ i as u64) % mix::STATE_SEEDS + seed.wrapping_mul(mix::STATE_SEEDS)
}

/// Sleep until `t0 + due_ns` (to within the timer slack, about 60 µs).
/// Never spins: on a host with as many busy threads as cores, a spinning
/// load generator would steal the time slices the system under test needs.
pub fn wait_until(t0: Instant, due_ns: u64) {
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// Requests still unanswered when the last request fell due.
pub fn backlog_at_end(due_ns: &[u64], done_ns: &[u64]) -> u64 {
    let last = due_ns.iter().copied().max().unwrap_or(0);
    due_ns
        .iter()
        .zip(done_ns)
        .filter(|&(&d, &e)| d <= last && e > last)
        .count() as u64
}

/// One open-loop trial of small in-process solves at `rate`: each request
/// fills a fresh state and runs the spec's plan on the calling thread, in
/// arrival order. Outputs are checked against the oracle afterwards.
pub fn probe_trial(specs: &mut [ProbeSpec], seed: u64, rate: f64, seconds: f64) -> Trial {
    let due = openloop::poisson_schedule(seed, rate, seconds);
    let mut done = vec![0u64; due.len()];
    let mut late = Vec::with_capacity(due.len());
    let mut outputs = Vec::with_capacity(due.len());
    let t0 = Instant::now();
    for (i, &d) in due.iter().enumerate() {
        wait_until(t0, d);
        late.push(t0.elapsed().as_nanos() as u64 - d);
        let k = (splitmix(seed ^ (i as u64) << 1) % specs.len() as u64) as usize;
        let s = request_seed(seed, i);
        let mut state = fresh_state(&specs[k].spec.problem, s);
        let ok = specs[k].plan.run(&mut state).is_ok();
        done[i] = t0.elapsed().as_nanos() as u64;
        outputs.push((k, s, ok.then(|| state_digest(&state))));
    }
    let mut ok = 0;
    let mut latency_ns = Vec::with_capacity(due.len());
    for (i, &(k, s, digest)) in outputs.iter().enumerate() {
        let spec = &mut specs[k];
        let problem = spec.spec.problem;
        let expected = *spec
            .expected
            .entry(s)
            .or_insert_with(|| oracle_state_digest(&problem, s));
        let good = digest == Some(expected);
        ok += good as u64;
        latency_ns.push(if good { done[i] - due[i] } else { u64::MAX });
    }
    Trial {
        rate,
        seconds,
        latency_ns,
        late_ns: late,
        attempted: due.len() as u64,
        ok,
        backlog_at_end: backlog_at_end(&due, &done),
        elapsed_s: (done.last().copied().unwrap_or(0) - due.first().copied().unwrap_or(0)) as f64
            / 1e9,
    }
}

/// `state_digest` of the reference oracle's output for `problem` on the
/// server's deterministic input for `seed`.
pub fn oracle_state_digest(problem: &Problem, seed: u64) -> u64 {
    let input = fresh_state(problem, seed);
    state_digest(&verify::oracle(problem, &input))
}
