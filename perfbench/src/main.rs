//! `perfbench` — the repository benchmark. Run it through `run.py`, which
//! builds this package and `tempora-serve` from source:
//!
//! ```text
//! python3 perfbench/run.py --workload solve-seq|solve-tiled|serve-mix \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run prints each metric by name and unit, checks every output
//! bitwise against the `tempora_stencil::reference` oracles, keeps the raw
//! per-run values and latency histograms in a log file, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; `--trace 1` adds a
//! traced replay and the per-layer probes and reports the per-layer
//! metrics. A wrong output makes the command exit with code 1.

mod json;
mod layers;
mod machine;
mod mix;
mod openloop;
mod serve;
mod solve;
mod stats;
mod trace;
mod verify;

use json::J;
use mix::Family;
use openloop::{Trial, REFERENCE_RATE};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use tempora_client::hist::Histogram;
use trace::Tracer;

/// Seconds of load at the reference rate per reference trial (about four
/// p99 windows).
pub(crate) const REFERENCE_SECONDS: f64 = 4.5;
/// Server starts per serve-mix run; `setup_s` is their median.
const SERVE_SETUPS: usize = 9;
/// Loaded servers per serve-mix run; `peak_rss_mb` is the median of
/// their peak RSS.
const SERVE_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        cache_dir: None,
        out_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad("0 or 1"))? == 1,
            "--serve-bin" => a.serve_bin = Some(value.into()),
            "--cache-dir" => a.cache_dir = Some(value.into()),
            "--out-dir" => a.out_dir = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["solve-seq", "solve-tiled", "serve-mix"].contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// One reported metric with the raw values behind it.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub raw: Vec<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, raw: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            raw,
        }
    }

    fn log(&self) -> J {
        let s = stats::summarize(&self.raw);
        J::obj([
            ("name", J::str(self.name.clone())),
            ("unit", J::str(self.unit)),
            ("value", J::Num(self.value)),
            ("n", J::Int(s.n as i64)),
            ("median", J::Num(s.median)),
            ("q1", J::Num(s.q1)),
            ("q3", J::Num(s.q3)),
            ("mad", J::Num(s.mad)),
            ("raw", J::nums(&self.raw)),
        ])
    }
}

/// Everything one run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    /// False when the load generator fell behind its schedule.
    pub valid: bool,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub log: Vec<(String, J)>,
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(f64::NAN, |v| v as f64 / 1e3)
}

fn hist(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    samples
        .iter()
        .filter(|&&v| v != u64::MAX)
        .for_each(|&v| h.record(v));
    h
}

fn trial_log(t: &Trial) -> J {
    J::obj([
        ("offered_rps", J::Num(t.rate)),
        ("achieved_rps", J::Num(t.achieved_rate())),
        ("seconds", J::Num(t.seconds)),
        ("attempted", J::Int(t.attempted as i64)),
        ("ok", J::Int(t.ok as i64)),
        ("p50_us", J::Num(us(stats::percentile(&t.latency_ns, 0.5)))),
        ("p99_us", J::Num(us(t.p99_ns()))),
        (
            "late_p99_us",
            J::Num(us(stats::percentile(&t.late_ns, 0.99))),
        ),
        ("backlog_at_end", J::Int(t.backlog_at_end as i64)),
        ("meets_limit", J::Bool(t.meets_limit())),
        ("latency_hist", J::str(hist(&t.latency_ns).to_sparse())),
    ])
}

/// Merge trials at one rate into one sample.
fn merge(trials: &[Trial]) -> Trial {
    let mut m = trials[0].clone();
    for t in &trials[1..] {
        m.seconds += t.seconds;
        m.latency_ns.extend(&t.latency_ns);
        m.late_ns.extend(&t.late_ns);
        m.attempted += t.attempted;
        m.ok += t.ok;
        m.backlog_at_end = m.backlog_at_end.max(t.backlog_at_end);
        m.elapsed_s += t.elapsed_s;
    }
    m
}

/// Generator lateness (p99) beyond which a serve-mix run is invalid
/// rather than slow: the load generator, not the server, missed the
/// schedule.
const MAX_LATE_P99_NS: u64 = openloop::LATENCY_LIMIT_NS;

/// Mark a serve-mix run invalid when its generator fell behind.
fn check_generator(out: &mut Outcome, reference: &Trial) {
    let late_p99 = stats::percentile(&reference.late_ns, 0.99);
    out.valid &= late_p99.is_some_and(|l| l <= MAX_LATE_P99_NS);
    out.log
        .push(("loadgen.late_p99_us".into(), J::Num(us(late_p99))));
    out.log
        .push(("loadgen.offered_rps".into(), J::Num(reference.rate)));
    out.log.push((
        "loadgen.achieved_rps".into(),
        J::Num(reference.achieved_rate()),
    ));
    out.log
        .push(("reference_trial".into(), trial_log(reference)));
}

/// The open-loop latency metrics of a traced run: p50 and windowed p99 at
/// the reference rate, and the knee.
fn latency_metrics(out: &mut Outcome, reference: &Trial, knee: f64, knee_trials: &[Trial]) {
    let lat_us: Vec<f64> = reference
        .latency_ns
        .iter()
        .map(|&v| v as f64 / 1e3)
        .collect();
    out.layers.push(Metric::new(
        "p50_us",
        "us",
        us(stats::percentile(&reference.latency_ns, 0.5)),
        lat_us.clone(),
    ));
    out.layers
        .push(Metric::new("p99_us", "us", us(reference.p99_ns()), lat_us));
    out.layers.push(Metric::new(
        "knee_rps",
        "req/s",
        knee,
        knee_trials
            .iter()
            .filter(|t| t.meets_limit())
            .map(|t| t.rate)
            .collect(),
    ));
    out.log.push((
        "reference_samples".into(),
        J::Int(reference.latency_ns.len() as i64),
    ));
    out.log
        .push(("latency_reference_trial".into(), trial_log(reference)));
    out.log.push((
        "knee_trials".into(),
        J::Arr(knee_trials.iter().map(trial_log).collect()),
    ));
}

fn solve(
    args: &Args,
    t_start: Instant,
    tracer: &mut Tracer,
    threads: usize,
) -> Result<Outcome, String> {
    let caches = machine::caches();
    let cases = if args.workload == "solve-seq" {
        solve::seq_cases(caches.llc)
    } else {
        solve::tiled_cases(threads)
    };
    let mut out = Outcome {
        valid: true,
        ..Outcome::default()
    };
    let budget = args.seconds / cases.len() as f64;
    let mut runs = Vec::new();
    let mut setup_s = 0.0;
    for (i, case) in cases.iter().enumerate() {
        let before = t_start.elapsed().as_secs_f64();
        let run = solve::time_case(case, args.seed, budget, tracer, i as u64);
        setup_s += if i == 0 {
            before + run.build_s + run.fill_s
        } else {
            run.build_s + run.fill_s
        };
        runs.push(run);
    }
    let peak_rss = machine::vm_hwm_mib("self");
    let mut probe_attempted = 0;
    let mut probe_ok = 0;
    if tracer.enabled() {
        let mut probe = tracer.span("tempora_plan.build", 100, solve::probe_specs);
        let reference =
            solve::probe_trial(&mut probe, args.seed, REFERENCE_RATE, REFERENCE_SECONDS);
        let (knee, knee_trials) = openloop::find_knee(|rate| {
            if rate == REFERENCE_RATE {
                return reference.clone();
            }
            solve::probe_trial(
                &mut probe,
                args.seed ^ rate.to_bits(),
                rate,
                openloop::trial_seconds(rate),
            )
        });
        probe_attempted = knee_trials.iter().map(|t| t.attempted).sum();
        probe_ok = knee_trials.iter().map(|t| t.ok).sum();
        latency_metrics(&mut out, &reference, knee, &knee_trials);
    }

    let mut cache = verify::OracleCache::open(args.cache_dir.clone());
    let (checked, bad, oracle_runs) = solve::verify_cases(&runs, args.seed, &mut cache, tracer);
    out.attempted = checked + probe_attempted;
    out.failed = bad + (probe_attempted - probe_ok);
    out.mismatches = out.failed;

    out.e2e.push(Metric::new(
        "setup_s",
        "s",
        setup_s,
        runs.iter().map(|r| r.build_s + r.fill_s).collect(),
    ));
    for f in Family::ALL {
        let (name, unit) = f.rate_metric();
        let raw = runs
            .iter()
            .filter(|r| r.family() == f)
            .flat_map(|r| {
                r.times
                    .iter()
                    .map(|t| mix::work(&r.case.problem) / t / 1e9)
                    .collect::<Vec<_>>()
            })
            .collect();
        out.e2e
            .push(Metric::new(name, unit, solve::family_rate(&runs, f), raw));
    }
    out.e2e
        .push(Metric::new("peak_rss_mb", "MiB", peak_rss, vec![peak_rss]));
    let ok_share = (out.attempted - out.failed) as f64 / out.attempted as f64;
    out.e2e
        .push(Metric::new("ok_share", "ratio", ok_share, vec![ok_share]));

    out.log
        .push(("llc_bytes".into(), J::Int(caches.llc as i64)));
    out.log
        .push(("oracle_runs".into(), J::Int(oracle_runs as i64)));
    out.log.push((
        "cases".into(),
        J::Arr(
            runs.iter()
                .map(|r| {
                    J::obj([
                        ("name", J::str(r.case.name)),
                        ("problem", J::str(format!("{:?}", r.case.problem))),
                        ("threads", J::Int(r.threads as i64)),
                        ("engine", J::str(r.engine.unwrap_or("none"))),
                        ("state_bytes", J::Num(r.state_bytes)),
                        ("build_s", J::Num(r.build_s)),
                        ("fill_s", J::Num(r.fill_s)),
                        ("rate", J::Num(r.rate())),
                        ("times_s", J::nums(&r.times)),
                    ])
                })
                .collect(),
        ),
    ));
    if tracer.enabled() {
        layers::solve_layers(&mut out, &runs, &cases, args, tracer, threads)?;
    }
    Ok(out)
}

fn serve_mix(args: &Args, tracer: &mut Tracer, conns: usize) -> Result<Outcome, String> {
    let bin = args
        .serve_bin
        .clone()
        .ok_or("serve-mix needs --serve-bin")?;
    let hot = mix::hot_specs();
    let specs: Vec<_> = hot.iter().copied().chain(mix::cold_specs()).collect();
    let mut out = Outcome {
        valid: true,
        ..Outcome::default()
    };
    let mut expected = serve::Expected::new();
    let mut setups = Vec::new();
    let mut hwms = Vec::new();
    let mut all: Vec<serve::ServeTrial> = Vec::new();
    let mut id_base = 1u64;
    let mut k = 0u64;
    // Each round starts fresh servers (timing every start for `setup_s`),
    // loads the last one at the reference rate for its share of the run
    // and reads its peak RSS; the rounds' median steadies both figures.
    let mut round = || -> Result<(serve::ServeProc, Vec<serve::Conn>), String> {
        let mut server = None;
        for _ in 0..SERVE_SETUPS / SERVE_ROUNDS {
            let t = Instant::now();
            let s = serve::ServeProc::start(&bin)?;
            serve::warm_up(&s.addr, &hot)?;
            setups.push(t.elapsed().as_secs_f64());
            server = Some(s);
        }
        // Panic-justification: SERVE_SETUPS / SERVE_ROUNDS is at least one.
        let server = server.expect("at least one start per round");
        let links = (0..conns)
            .map(|_| serve::Conn::open(&server.addr))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((server, links))
    };
    let mut current = None;
    for _ in 0..SERVE_ROUNDS {
        let (server, mut links) = round()?;
        let started = Instant::now();
        loop {
            let t = serve::trial(
                &mut links,
                &specs,
                hot.len(),
                args.seed ^ k,
                REFERENCE_RATE,
                REFERENCE_SECONDS,
                id_base,
                &mut expected,
            )?;
            id_base += t.reqs.len() as u64;
            all.push(t);
            k += 1;
            if started.elapsed().as_secs_f64() >= args.seconds / SERVE_ROUNDS as f64 {
                break;
            }
        }
        hwms.push(server.hwm_mib());
        current = Some((server, links));
    }
    // Panic-justification: SERVE_ROUNDS is at least one.
    let (server, mut links) = current.expect("at least one round");
    let reference = merge(&all.iter().map(|t| t.trial.clone()).collect::<Vec<_>>());
    check_generator(&mut out, &reference);
    if tracer.enabled() {
        let mut err = None;
        let (knee, knee_trials) = openloop::find_knee(|rate| {
            if rate == REFERENCE_RATE {
                return reference.clone();
            }
            match serve::trial(
                &mut links,
                &specs,
                hot.len(),
                args.seed ^ rate.to_bits(),
                rate,
                openloop::trial_seconds(rate),
                id_base,
                &mut expected,
            ) {
                Ok(t) => {
                    id_base += t.reqs.len() as u64;
                    let trial = t.trial.clone();
                    all.push(t);
                    trial
                }
                Err(e) => {
                    err.get_or_insert(e);
                    Trial::default()
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        latency_metrics(&mut out, &reference, knee, &knee_trials);
    }
    let peak_rss = stats::median(&hwms);

    out.attempted = all.iter().map(|t| t.trial.attempted).sum();
    out.failed = out.attempted - all.iter().map(|t| t.trial.ok).sum::<u64>();
    out.mismatches = all.iter().map(|t| t.mismatches).sum();

    out.e2e.push(Metric::new(
        "setup_s",
        "s",
        stats::median(&setups),
        setups.clone(),
    ));
    // Server-side rates of the verified hot replies at the reference rate,
    // built like the solve rates: each hot spec's work over the median of
    // its `server_ns` (queueing inside the server plus the run), summed per
    // family. The median keeps a host pause during a few requests out.
    let ref_trials = &all[..k as usize];
    let mut server_ns: Vec<Vec<f64>> = vec![Vec::new(); hot.len()];
    for t in ref_trials {
        for (r, o) in t.reqs.iter().zip(&t.outcomes) {
            if let (true, Some(Ok(reply))) = (r.spec < hot.len(), o.as_ref().map(|o| &o.reply)) {
                server_ns[r.spec].push(reply.server_ns as f64);
            }
        }
    }
    for f in Family::ALL {
        let (name, unit) = f.rate_metric();
        let mine: Vec<(f64, &Vec<f64>)> = hot
            .iter()
            .zip(&server_ns)
            .filter(|(s, ns)| Family::of(&s.problem) == f && !ns.is_empty())
            .map(|(s, ns)| (mix::work(&s.problem), ns))
            .collect();
        let work: f64 = mine.iter().map(|(w, _)| w).sum();
        let ns: f64 = mine.iter().map(|(_, ns)| stats::median(ns)).sum();
        let raw = mine
            .iter()
            .flat_map(|(w, ns)| ns.iter().map(move |n| w / n))
            .collect();
        out.e2e.push(Metric::new(name, unit, work / ns, raw));
    }
    out.e2e
        .push(Metric::new("peak_rss_mb", "MiB", peak_rss, hwms));
    let ok_share = (out.attempted - out.failed) as f64 / out.attempted as f64;
    out.e2e
        .push(Metric::new("ok_share", "ratio", ok_share, vec![ok_share]));
    out.log.push(("connections".into(), J::Int(conns as i64)));
    out.log
        .push(("loadgen_threads".into(), J::Int(conns as i64)));
    out.log.push((
        "busy_replies".into(),
        J::Int(all.iter().map(|t| t.busy).sum::<u64>() as i64),
    ));
    out.log.push((
        "errors".into(),
        J::Int(all.iter().map(|t| t.errors).sum::<u64>() as i64),
    ));
    if tracer.enabled() {
        layers::serve_layers(
            &mut out,
            &server,
            &specs,
            hot.len(),
            ref_trials,
            args,
            tracer,
            conns,
        )?;
    }
    drop(server);
    Ok(out)
}

fn main() -> ExitCode {
    let t_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload solve-seq|solve-tiled|serve-mix --seed N --seconds S --trace 0|1 [--serve-bin PATH] [--cache-dir DIR] [--out-dir DIR]");
            return ExitCode::from(2);
        }
    };
    let nproc = machine::nproc();
    let mut tracer = Tracer::new(args.trace, t_start);
    let result = match args.workload.as_str() {
        "serve-mix" => serve_mix(&args, &mut tracer, nproc),
        _ => solve(&args, t_start, &mut tracer, nproc),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let triad = machine::triad_gbps(machine::caches().llc);
    out.layers.push(Metric::new(
        "machine.triad_gbps",
        "GB/s",
        triad,
        vec![triad],
    ));
    let correct = out.mismatches == 0;
    let machine = machine::fingerprint(machine::caches(), triad);
    println!("machine {machine}");

    let shown = if args.trace { &out.layers } else { &out.e2e };
    for m in shown {
        let s = stats::summarize(&m.raw);
        println!(
            "{:<34} {:>14.6} {:<11} (n={} median={:.6} q1={:.6} q3={:.6} mad={:.6})",
            m.name, m.value, m.unit, s.n, s.median, s.q1, s.q3, s.mad
        );
    }
    let log = J::obj(
        [
            ("workload", J::str(args.workload.clone())),
            ("seed", J::Int(args.seed as i64)),
            ("seconds", J::Num(args.seconds)),
            ("trace", J::Bool(args.trace)),
            ("correct", J::Bool(correct)),
            ("valid", J::Bool(out.valid)),
            ("attempted", J::Int(out.attempted as i64)),
            ("failed", J::Int(out.failed as i64)),
            ("machine", machine),
            (
                "end_to_end",
                J::Arr(out.e2e.iter().map(Metric::log).collect()),
            ),
            (
                "per_layer",
                J::Arr(out.layers.iter().map(Metric::log).collect()),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .chain(out.log.drain(..)),
    );
    if let Some(dir) = &args.out_dir {
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload, args.seed, args.trace as u8
        ));
        let written =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, log.to_string()));
        match written {
            Ok(()) => eprintln!("perfbench: raw log in {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    if !out.valid {
        eprintln!("perfbench: run invalid: the load generator fell behind its schedule");
        return ExitCode::from(3);
    }
    let metrics = J::obj(shown.iter().map(|m| {
        (
            m.name.clone(),
            J::obj([("value", J::Num(m.value)), ("unit", J::str(m.unit))]),
        )
    }));
    println!(
        "{}",
        J::obj([
            ("correct", J::Bool(correct)),
            ("attempted", J::Int(out.attempted as i64)),
            ("failed", J::Int(out.failed as i64)),
            ("metrics", metrics),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
