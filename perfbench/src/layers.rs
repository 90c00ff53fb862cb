//! Per-layer metrics of the traced run, measured from outside the library
//! crates around calls into their public functions.
//!
//! Every traced run reports every per-layer metric. The solve layers
//! (`core`, `baseline`, `tiling`, `parallel`) run on the workload's own
//! problems — the large grids of `solve-seq`, the Table-1 shapes of
//! `solve-tiled`, the hot set of `serve-mix`. The serving layers
//! (`server`, `client`, `loadgen`) need a server: `serve-mix` reads them
//! off its own reference trials, the solve workloads off a short serve
//! probe at the reference rate. `simd`, `proto`, the pool micro-probes
//! and the tracer's own overhead use fixed inputs.

use crate::mix::{self, Family};
use crate::openloop::REFERENCE_RATE;
use crate::serve::{self, ServeProc, ServeTrial};
use crate::solve::{Case, CaseRun};
use crate::stats::{self, median};
use crate::trace::{self, Tracer};
use crate::{json::J, Args, Metric, Outcome};
use std::hint::black_box;
use std::time::Instant;
use tempora_parallel::{Pool, PoolConfig, WaveSchedule};
use tempora_plan::{Method, PlanBuilder, Problem, Select, State, Tiling};
use tempora_proto::{state_digest, Frame, JobSpec};
use tempora_server::{fresh_state, CacheConfig, PlanCache};
use tempora_stencil::{Gs1dCoeffs, Heat1dCoeffs};

/// Largest problem the slow variants (portable engine, scalar, multi-load,
/// reorg, DLT) run, in points per step: at 0.05–0.1 Gstencil/s they are
/// bound by compute, not memory, so the cap does not change their rate,
/// and it keeps a traced run of the 1.2 GB grids within its time limit.
const SLOW_MAX_POINTS: usize = 1 << 24;

/// Median seconds of `runs` runs of `builder` on `problem`, advancing
/// `state` (whose values do not affect the run time).
fn time_variant(
    problem: &Problem,
    builder: PlanBuilder,
    state: &mut State,
    runs: usize,
    tracer: &mut Tracer,
    name: &str,
) -> f64 {
    let mut plan = tracer
        .span("tempora_plan.build", 0, || builder.build(problem))
        // Panic-justification: every probe configuration is fixed in this file and valid; a failure is a benchmark bug.
        .expect("layer probe plans are valid by construction");
    let times: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            tracer
                .span(name, 0, || plan.run(state))
                // Panic-justification: the state was built for this problem's shape.
                .expect("state matches its plan");
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// `problem` cut to at most [`SLOW_MAX_POINTS`] points and `steps` steps
/// (LCS: 64 rows of at most 2^20 columns).
fn capped(problem: &Problem, steps: usize) -> Problem {
    let side =
        |n: usize, dims: u32| n.min((SLOW_MAX_POINTS as f64).powf(1.0 / dims as f64) as usize);
    match *problem {
        Problem::Heat1d {
            n,
            steps: t,
            coeffs,
            ..
        } => Problem::heat1d(side(n, 1), t.min(steps), coeffs),
        Problem::Gs1d {
            n,
            steps: t,
            coeffs,
            ..
        } => Problem::gs1d(side(n, 1), t.min(steps), coeffs),
        Problem::Heat2d {
            nx,
            ny,
            steps: t,
            coeffs,
            ..
        } => Problem::heat2d(side(nx, 2), side(ny, 2), t.min(steps), coeffs),
        Problem::Gs2d {
            nx,
            ny,
            steps: t,
            coeffs,
            ..
        } => Problem::gs2d(side(nx, 2), side(ny, 2), t.min(steps), coeffs),
        Problem::Heat3d {
            nx,
            ny,
            nz,
            steps: t,
            coeffs,
            ..
        } => Problem::heat3d(side(nx, 3), side(ny, 3), side(nz, 3), t.min(steps), coeffs),
        Problem::Gs3d {
            nx,
            ny,
            nz,
            steps: t,
            coeffs,
            ..
        } => Problem::gs3d(side(nx, 3), side(ny, 3), side(nz, 3), t.min(steps), coeffs),
        Problem::Lcs { la, lb } => Problem::lcs(la.min(64), lb.min(1 << 20)),
        other => other,
    }
}

/// A tiling for the large `solve-seq` grids, sized like the Table-1
/// blockings and cut to their four time steps.
fn seq_tiling(problem: &Problem) -> Tiling {
    match problem {
        Problem::Heat1d { .. } => Tiling::Ghost {
            block: 16384,
            height: 4,
        },
        Problem::Heat2d { .. } => Tiling::Ghost {
            block: 256,
            height: 4,
        },
        Problem::Heat3d { .. } => Tiling::Ghost {
            block: 32,
            height: 4,
        },
        Problem::Gs1d { .. } => Tiling::Skew {
            block: 2048,
            height: 4,
        },
        Problem::Gs2d { .. } => Tiling::Skew {
            block: 128,
            height: 4,
        },
        Problem::Gs3d { .. } => Tiling::Skew {
            block: 32,
            height: 4,
        },
        Problem::Lcs { la, lb } => Tiling::LcsRect {
            xblock: *la,
            yblock: (lb / 64).max(1),
        },
        _ => Tiling::None,
    }
}

/// `(work, seconds)` of one run of each solve layer on one problem.
#[derive(Default)]
struct Sample {
    auto: (f64, f64),
    portable: (f64, f64),
    scalar: (f64, f64),
    multiload: Option<(f64, f64)>,
    t1: (f64, f64),
    tn: (f64, f64),
    /// Bytes a sweep that reuses nothing across steps moves in the `auto`
    /// run: one read and one write of the state per step.
    auto_bytes: f64,
}

/// Work-weighted rate of one family: total work over total time.
fn family_rate(
    samples: &[(Family, Sample)],
    f: Family,
    pick: impl Fn(&Sample) -> Option<(f64, f64)>,
) -> f64 {
    let (w, s) = samples
        .iter()
        .filter(|(g, _)| *g == f)
        .filter_map(|(_, s)| pick(s))
        .fold((0.0, 0.0), |(w, s), (a, b)| (w + a, s + b));
    w / s / 1e9
}

fn unit(f: Family) -> (&'static str, &'static str) {
    match f {
        Family::Lcs => ("gcells_s", "Gcell/s"),
        _ => ("gst_s", "Gstencil/s"),
    }
}

/// One problem of a workload for the solve layers: the problem, its
/// threaded tiled builder, the untiled `Select::Auto` median seconds and
/// state bytes when the workload already measured them, and its input
/// period.
pub struct LayerProblem {
    pub problem: Problem,
    pub tiled: PlanBuilder,
    pub auto: Option<(f64, f64)>,
    pub period: usize,
    /// Run the tiled variants on the capped problem too (`solve-seq`,
    /// whose tiling layers are secondary and whose full grids would take
    /// a traced run past its time limit).
    pub cap_tiled: bool,
}

fn filled(problem: &Problem, seed: u64, period: usize, tracer: &mut Tracer) -> State {
    tracer.span("tempora_plan.state_fill", 0, || {
        let mut s = problem.state();
        crate::verify::fill(&mut s, seed, period);
        s
    })
}

/// Measure every solve layer on the workload's problems.
fn solve_layer_metrics(
    out: &mut Outcome,
    problems: &[LayerProblem],
    seed: u64,
    tracer: &mut Tracer,
    threads: usize,
) {
    let mut samples = Vec::new();
    for (i, lp) in problems.iter().enumerate() {
        let p = &lp.problem;
        let work = mix::work(p);
        let q = capped(p, 4);
        let mut small = filled(&q, seed, lp.period, tracer);
        let mut s = Sample::default();
        {
            let (t, mut full) = if lp.cap_tiled {
                (&q, None)
            } else {
                (p, Some(filled(p, seed, lp.period, tracer)))
            };
            let state = full.as_mut().unwrap_or(&mut small);
            (s.auto, s.auto_bytes) = match lp.auto {
                Some((secs, bytes)) => ((work, secs), 2.0 * bytes * p.steps() as f64),
                None => (
                    (
                        mix::work(t),
                        time_variant(t, PlanBuilder::new(), state, 2, tracer, "tempora_core.run"),
                    ),
                    2.0 * crate::solve::state_bytes(state) * t.steps() as f64,
                ),
            };
            s.t1 = (
                mix::work(t),
                time_variant(
                    t,
                    lp.tiled.threads(1).pin(false),
                    state,
                    1,
                    tracer,
                    "tempora_tiling.run_t1",
                ),
            );
            s.tn = (
                mix::work(t),
                time_variant(
                    t,
                    lp.tiled.threads(threads).pin(true),
                    state,
                    1,
                    tracer,
                    "tempora_parallel.run_tn",
                ),
            );
        }
        // The slow variants: the temporal portable engine over one vector
        // length of steps, the spatial sweeps over one step.
        s.portable = (
            mix::work(&q),
            time_variant(
                &q,
                PlanBuilder::new().select(Select::Portable),
                &mut small,
                1,
                tracer,
                "tempora_core.run_portable",
            ),
        );
        // Same extents as `q`, so the same state fits (LCS keeps its rows).
        let one = capped(p, 1);
        s.scalar = (
            mix::work(&one),
            time_variant(
                &one,
                PlanBuilder::new().method(Method::Scalar),
                &mut small,
                1,
                tracer,
                "tempora_baseline.scalar",
            ),
        );
        if Family::of(p) == Family::Jacobi {
            s.multiload = Some((
                mix::work(&one),
                time_variant(
                    &one,
                    PlanBuilder::new().method(Method::Multiload),
                    &mut small,
                    1,
                    tracer,
                    "tempora_baseline.multiload",
                ),
            ));
        }
        let rate = |(w, t): (f64, f64)| J::Num(w / t / 1e9);
        out.log.push((
            format!("problem.{i}"),
            J::obj([
                ("problem", J::str(format!("{p:?}"))),
                ("core.gst_s", rate(s.auto)),
                ("core.portable_gst_s", rate(s.portable)),
                ("baseline.scalar.gst_s", rate(s.scalar)),
                (
                    "baseline.multiload.gst_s",
                    s.multiload.map_or(J::Null, rate),
                ),
                ("tiling.t1_gst_s", rate(s.t1)),
                ("parallel.tN_gst_s", rate(s.tn)),
            ]),
        ));
        samples.push((Family::of(p), s));
    }
    for f in Family::ALL {
        let (rate, u) = unit(f);
        let fam = f.name();
        let t1 = family_rate(&samples, f, |s| Some(s.t1));
        let tn = family_rate(&samples, f, |s| Some(s.tn));
        out.layers.push(Metric::new(
            format!("core.{fam}.{rate}"),
            u,
            family_rate(&samples, f, |s| Some(s.auto)),
            vec![],
        ));
        out.layers.push(Metric::new(
            format!("core.{fam}.portable_{rate}"),
            u,
            family_rate(&samples, f, |s| Some(s.portable)),
            vec![],
        ));
        out.layers.push(Metric::new(
            format!("baseline.scalar.{fam}.{rate}"),
            u,
            family_rate(&samples, f, |s| Some(s.scalar)),
            vec![],
        ));
        out.layers.push(Metric::new(
            format!("tiling.{fam}.t1_{rate}"),
            u,
            t1,
            vec![],
        ));
        out.layers.push(Metric::new(
            format!("parallel.{fam}.tN_{rate}"),
            u,
            tn,
            vec![],
        ));
        out.layers.push(Metric::new(
            format!("parallel.{fam}.efficiency"),
            "ratio",
            tn / (t1 * threads as f64),
            vec![],
        ));
        if f != Family::Lcs {
            // Computed bytes, not measured ones; above `machine.triad_gbps`
            // the engine must be reusing data across steps.
            let gbps = family_rate(&samples, f, |s| Some((s.auto_bytes, s.auto.1)));
            out.layers.push(Metric::new(
                format!("core.{fam}.computed_gbps"),
                "GB/s",
                gbps,
                vec![],
            ));
        }
    }
    out.layers.push(Metric::new(
        "baseline.multiload.jacobi.gst_s",
        "Gstencil/s",
        family_rate(&samples, Family::Jacobi, |s| s.multiload),
        vec![],
    ));
}

/// Reorg and DLT baselines on the workload's Heat-1D, capped like the
/// other slow variants.
fn reorg_dlt(out: &mut Outcome, heat1d: &Problem, seed: u64, tracer: &mut Tracer) {
    let problem = capped(heat1d, 4);
    let mut state = filled(&problem, seed, 64, tracer);
    for (name, method) in [("reorg", Method::Reorg), ("dlt", Method::Dlt)] {
        let t = time_variant(
            &problem,
            PlanBuilder::new().method(method),
            &mut state,
            2,
            tracer,
            "tempora_baseline.run",
        );
        out.layers.push(Metric::new(
            format!("baseline.{name}.heat1d.gst_s"),
            "Gstencil/s",
            mix::work(&problem) / t / 1e9,
            vec![],
        ));
    }
}

/// Nanoseconds per call of `f`, median of five batches of `n` calls.
fn ns_per_call(n: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&batches)
}

/// Workload-independent probes: reorg counts, codec and digest costs,
/// pool dispatch and wavefront synchronisation, in-process cache paths,
/// and the tracer's own overhead.
fn fixed_probes(out: &mut Outcome, tracer: &mut Tracer, threads: usize) {
    for (name, problem) in [
        (
            "heat1d",
            Problem::heat1d(4096, 32, Heat1dCoeffs::classic(0.25)),
        ),
        ("gs1d", Problem::gs1d(4096, 32, Gs1dCoeffs::classic(0.25))),
    ] {
        let mut plan = PlanBuilder::new()
            .select(Select::Portable)
            .count_reorg(true)
            .build(&problem)
            // Panic-justification: counting is supported for the untiled portable 1-D engine.
            .expect("counted plan");
        let mut state = fresh_state(&problem, 1);
        let counts = tracer
            .span("tempora_simd.count", 0, || plan.run(&mut state))
            // Panic-justification: the state fits the plan and the plan was built with counting on.
            .expect("state matches its plan")
            .reorg
            // Panic-justification: the plan was built with counting on.
            .expect("counts requested");
        out.layers.push(Metric::new(
            format!("simd.{name}.reorg_per_output"),
            "count",
            counts.reorg_per_output(),
            vec![],
        ));
    }

    let hot = mix::hot_specs();
    let spec = hot[0];
    let cache = PlanCache::new(CacheConfig::default());
    // Panic-justification: the hot specs are valid and their runs are checked elsewhere.
    let reply = cache.run(&spec, 1).expect("hot spec runs");
    let run_frame = Frame::RunSteps {
        request_id: 7,
        spec,
        seed: 1,
    };
    let reply_frame = Frame::ReportReply {
        request_id: 7,
        reply,
    };
    let run_body = run_frame.encode_body();
    let reply_body = reply_frame.encode_body();
    tracer.span("tempora_proto.codec", 0, || {
        let m = [
            (
                "proto.run_steps.encode_ns",
                ns_per_call(20_000, || drop(black_box(&run_frame).encode_body())),
            ),
            (
                "proto.run_steps.decode_ns",
                ns_per_call(20_000, || drop(Frame::decode_body(black_box(&run_body)))),
            ),
            (
                "proto.reply.encode_ns",
                ns_per_call(20_000, || drop(black_box(&reply_frame).encode_body())),
            ),
            (
                "proto.reply.decode_ns",
                ns_per_call(20_000, || drop(Frame::decode_body(black_box(&reply_body)))),
            ),
            (
                "proto.spec_key_ns",
                ns_per_call(20_000, || drop(black_box(&spec).key())),
            ),
        ];
        out.layers
            .extend(m.into_iter().map(|(n, v)| Metric::new(n, "ns", v, vec![])));
    });
    let big = Problem::heat1d(1 << 20, 1, Heat1dCoeffs::classic(0.25));
    let state = fresh_state(&big, 1);
    let ns = tracer.span("tempora_proto.digest", 0, || {
        ns_per_call(3, || {
            black_box(state_digest(black_box(&state)));
        })
    });
    out.layers.push(Metric::new(
        "proto.digest_gbps",
        "GB/s",
        crate::solve::state_bytes(&state) / ns,
        vec![],
    ));

    let fill = ns_per_call(200, || {
        for s in &hot {
            drop(black_box(fresh_state(&s.problem, 3)));
        }
    }) / hot.len() as f64;
    let hit = ns_per_call(50, || {
        for s in &hot {
            drop(black_box(cache.run(s, 3)));
        }
    }) / hot.len() as f64;
    let cold = mix::cold_specs();
    let miss = tracer.span("tempora_server.miss", 0, || {
        let fresh = PlanCache::new(CacheConfig::default());
        let t = Instant::now();
        for s in &cold[..64] {
            drop(black_box(fresh.run(s, 3)));
        }
        t.elapsed().as_nanos() as f64 / 64.0
    });
    out.layers
        .push(Metric::new("server.fill_us", "us", fill / 1e3, vec![]));
    out.layers
        .push(Metric::new("server.hit_run_us", "us", hit / 1e3, vec![]));
    out.layers
        .push(Metric::new("server.miss_run_us", "us", miss / 1e3, vec![]));
    let builds: Vec<f64> = cold[..64]
        .iter()
        .map(|s| {
            let t = Instant::now();
            drop(black_box(s.config.plan_builder().build(&s.problem)));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.layers
        .push(Metric::new("plan.build_us", "us", median(&builds), builds));

    for (name, schedule) in [
        ("pipelined", WaveSchedule::Pipelined),
        ("barrier", WaveSchedule::Barrier),
    ] {
        let pool = Pool::with_config(PoolConfig::new(threads).schedule(schedule));
        let (bands, blocks) = (16, 64);
        let ns = tracer.span("tempora_parallel.waves", 0, || {
            ns_per_call(20, || {
                pool.waves(bands, blocks, |b, i| {
                    black_box((b, i));
                })
            })
        });
        out.layers.push(Metric::new(
            format!("parallel.waves_{name}.sync_us"),
            "us",
            ns / (bands * blocks) as f64 / 1e3,
            vec![],
        ));
    }
    let pool = Pool::with_config(PoolConfig::new(threads));
    let work_ns = 20_000u128;
    let spin = |_: usize, _: usize| {
        let t = Instant::now();
        while t.elapsed().as_nanos() < work_ns {
            std::hint::spin_loop();
        }
    };
    let (bands, blocks) = (8, 32);
    let wall = ns_per_call(3, || pool.waves(bands, blocks, spin));
    out.layers.push(Metric::new(
        "parallel.waves.busy_share",
        "ratio",
        (bands * blocks) as f64 * work_ns as f64 / (wall * threads as f64),
        vec![],
    ));
    let dispatch = ns_per_call(2000, || {
        pool.for_each_index(threads, |i| {
            black_box(i);
        })
    });
    out.layers.push(Metric::new(
        "parallel.for_each.dispatch_us",
        "us",
        dispatch / 1e3,
        vec![],
    ));

    // Tracer overhead on the smallest call it wraps: hot-set runs with and
    // without a span around each, interleaved.
    let mut plans: Vec<_> = hot
        .iter()
        .map(|s| {
            (
                // Panic-justification: the hot specs are fixed and valid.
                s.config.plan_builder().build(&s.problem).expect("hot plan"),
                fresh_state(&s.problem, 5),
            )
        })
        .collect();
    let mut shadow = Tracer::new(true, Instant::now());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        plain.push(ns_per_call(20, || {
            plans.iter_mut().for_each(|(p, s)| drop(p.run(s)))
        }));
        traced.push(ns_per_call(20, || {
            plans
                .iter_mut()
                .for_each(|(p, s)| drop(shadow.span("tempora_plan.run", 0, || p.run(s))))
        }));
    }
    let overhead = median(&traced) / median(&plain) - 1.0;
    out.layers.push(Metric::new(
        "trace.overhead_share",
        "ratio",
        overhead,
        vec![],
    ));
}

/// Serving-layer metrics from reference trials against a live server.
fn serving_metrics(
    out: &mut Outcome,
    server: &ServeProc,
    trials: &[ServeTrial],
    tracer: &mut Tracer,
) {
    let mut service = Vec::new();
    let mut wire = Vec::new();
    let (mut hits, mut replies, mut builds, mut batched) = (0u64, 0u64, 0u64, 0u64);
    let (mut busy, mut errors) = (0u64, 0u64);
    for (k, t) in trials.iter().enumerate() {
        busy += t.busy;
        errors += t.errors + t.mismatches;
        for (i, (r, o)) in t.reqs.iter().zip(&t.outcomes).enumerate() {
            let Some(o) = o else { continue };
            let req = ((k as u64) << 32) | i as u64;
            let span = tracer.record("tempora_client.request", None, req, r.due_ns, o.recv_ns);
            let Ok(reply) = &o.reply else { continue };
            tracer.record(
                "tempora_server.service",
                span,
                req,
                o.recv_ns.saturating_sub(reply.server_ns),
                o.recv_ns,
            );
            replies += 1;
            hits += reply.cache_hit as u64;
            builds += !reply.cache_hit as u64;
            batched += reply.batched as u64;
            service.push(reply.server_ns);
            wire.push((o.recv_ns - o.sent_ns).saturating_sub(reply.server_ns));
        }
    }
    let us = |v: Option<u64>| v.map_or(f64::NAN, |x| x as f64 / 1e3);
    out.layers.push(Metric::new(
        "server.service_us.p50",
        "us",
        us(stats::percentile(&service, 0.5)),
        vec![],
    ));
    out.layers.push(Metric::new(
        "server.service_us.p99",
        "us",
        us(stats::windowed_p99(&service)),
        vec![],
    ));
    out.layers.push(Metric::new(
        "server.hit_ratio",
        "ratio",
        hits as f64 / replies.max(1) as f64,
        vec![],
    ));
    out.layers
        .push(Metric::new("server.builds", "count", builds as f64, vec![]));
    out.layers.push(Metric::new(
        "server.batched_mean",
        "count",
        batched as f64 / replies.max(1) as f64,
        vec![],
    ));
    out.layers.push(Metric::new(
        "server.busy_replies",
        "count",
        busy as f64,
        vec![],
    ));
    out.layers.push(Metric::new(
        "server.rss_mb",
        "MiB",
        server.hwm_mib(),
        vec![],
    ));
    out.layers.push(Metric::new(
        "client.wire_us.p50",
        "us",
        us(stats::percentile(&wire, 0.5)),
        vec![],
    ));
    out.layers
        .push(Metric::new("client.errors", "count", errors as f64, vec![]));
    let late: Vec<u64> = trials
        .iter()
        .flat_map(|t| t.trial.late_ns.iter().copied())
        .collect();
    out.layers.push(Metric::new(
        "loadgen.late_p99_us",
        "us",
        us(stats::percentile(&late, 0.99)),
        vec![],
    ));
    let offered: f64 = trials.iter().map(|t| t.trial.attempted as f64).sum();
    let achieved: f64 = trials.iter().map(|t| t.trial.ok as f64).sum();
    out.layers.push(Metric::new(
        "loadgen.achieved_share",
        "ratio",
        achieved / offered.max(1.0),
        vec![],
    ));
}

/// Span self times and the spans themselves, into the log and a file.
fn write_spans(out: &mut Outcome, args: &Args, tracer: &Tracer) {
    let self_ms = trace::self_time_by_name(tracer.spans());
    out.log.push((
        "span_self_ms".into(),
        J::obj(
            self_ms
                .into_iter()
                .map(|(k, v)| (k, J::Num(v as f64 / 1e6))),
        ),
    ));
    if let Some(dir) = &args.out_dir {
        let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let _ = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, trace::spans_json(tracer.spans()).to_string()));
    }
}

/// Per-layer metrics of a solve workload.
pub fn solve_layers(
    out: &mut Outcome,
    runs: &[CaseRun],
    cases: &[Case],
    args: &Args,
    tracer: &mut Tracer,
    threads: usize,
) -> Result<(), String> {
    let seq = args.workload == "solve-seq";
    let problems: Vec<_> = runs
        .iter()
        .zip(cases)
        .map(|(r, c)| LayerProblem {
            problem: c.problem,
            tiled: if seq {
                PlanBuilder::new().tiling(seq_tiling(&c.problem))
            } else {
                c.builder
            },
            auto: seq.then(|| (r.median_s(), r.state_bytes)),
            period: c.period,
            cap_tiled: seq,
        })
        .collect();
    solve_layer_metrics(out, &problems, args.seed, tracer, threads);
    reorg_dlt(out, &cases[0].problem, args.seed, tracer);
    plan_fill(out, runs.iter().map(|r| r.fill_s).sum());
    fixed_probes(out, tracer, threads);
    let bin = args
        .serve_bin
        .clone()
        .ok_or("the traced run needs --serve-bin")?;
    let server = ServeProc::start(&bin)?;
    let hot = mix::hot_specs();
    serve::warm_up(&server.addr, &hot)?;
    let specs: Vec<_> = hot.iter().copied().chain(mix::cold_specs()).collect();
    let mut links = (0..threads)
        .map(|_| serve::Conn::open(&server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut expected = serve::Expected::new();
    let t = serve::trial(
        &mut links,
        &specs,
        hot.len(),
        args.seed,
        REFERENCE_RATE,
        crate::REFERENCE_SECONDS,
        1,
        &mut expected,
    )?;
    out.failed += t.trial.attempted - t.trial.ok;
    out.attempted += t.trial.attempted;
    out.mismatches += t.mismatches;
    serving_metrics(out, &server, std::slice::from_ref(&t), tracer);
    write_spans(out, args, tracer);
    Ok(())
}

fn plan_fill(out: &mut Outcome, fill_s: f64) {
    out.layers
        .push(Metric::new("plan.state_fill_s", "s", fill_s, vec![]));
}

/// Per-layer metrics of the serving workload.
// Justification: the traced run hands over the server, the mix and the reference trials it already has.
#[allow(clippy::too_many_arguments)]
pub fn serve_layers(
    out: &mut Outcome,
    server: &ServeProc,
    specs: &[JobSpec],
    hot: usize,
    reference: &[ServeTrial],
    args: &Args,
    tracer: &mut Tracer,
    threads: usize,
) -> Result<(), String> {
    serving_metrics(out, server, reference, tracer);
    // The solve layers on the hot set: one spec per kind.
    let mut seen = Vec::new();
    let problems: Vec<_> = specs[..hot]
        .iter()
        .filter(|s| {
            let kind = s.problem.kind_name();
            let new = !seen.contains(&kind);
            seen.push(kind);
            new
        })
        .map(|s| LayerProblem {
            problem: s.problem,
            tiled: mix::tiled(s, threads).config.plan_builder(),
            auto: None,
            period: 16,
            cap_tiled: false,
        })
        .collect();
    solve_layer_metrics(out, &problems, args.seed, tracer, threads);
    reorg_dlt(out, &specs[0].problem, args.seed, tracer);
    let t = Instant::now();
    for s in &specs[..hot] {
        black_box(fresh_state(&s.problem, args.seed));
    }
    plan_fill(out, t.elapsed().as_secs_f64());
    fixed_probes(out, tracer, threads);
    write_spans(out, args, tracer);
    Ok(())
}
