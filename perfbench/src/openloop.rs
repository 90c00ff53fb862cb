//! Open-loop arrivals: a seeded Poisson schedule, per-trial latency
//! accounting timed from each request's scheduled send time, and the
//! throughput-knee search.

use crate::stats;
use crate::verify::splitmix;

/// p99 latency limit of the knee, in nanoseconds. On the 2-vCPU VM the
/// benchmark was built on, the hypervisor pauses a busy vCPU for 4–22 ms
/// at a time (a spinning thread sees such gaps every few hundred ms), so a
/// limit near the 2 ms closed-loop p99 would measure those pauses rather
/// than queueing. At 20 ms the limit is crossed where the backlog grows.
pub const LATENCY_LIMIT_NS: u64 = 20_000_000;
/// Offered rates (requests/s) of the fixed ladder; the knee search walks
/// it upwards and then bisects between the last rate that met the limit
/// and the first that did not.
pub const LADDER: [f64; 6] = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0];
/// The ladder rate at which `p50_us` and `p99_us` are reported.
pub const REFERENCE_RATE: f64 = 1000.0;
/// Bisection stops when `hi / lo` is below `1 + KNEE_RESOLUTION`.
pub const KNEE_RESOLUTION: f64 = 0.03;
/// Minimum share of requests that must complete and verify for a rate to
/// count as met.
pub const MIN_OK_SHARE: f64 = 0.999;

/// Arrival offsets (ns from the trial start) of a Poisson process with
/// `rate` arrivals per second over `seconds`, fully determined by `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut s = splitmix(seed ^ rate.to_bits());
    let mut t = 0.0f64;
    loop {
        s = splitmix(s);
        // Uniform in (0, 1]: never ln(0).
        let u = ((s >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// What one offered rate produced.
#[derive(Clone, Debug, Default)]
pub struct Trial {
    pub rate: f64,
    pub seconds: f64,
    /// Latency of every attempted request, from its due time to its
    /// reply; `u64::MAX` for a request that failed, was refused or was
    /// answered wrongly, so it misses any limit.
    pub latency_ns: Vec<u64>,
    /// How late the generator sent each request after its due time.
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    /// Completed and verified (verification may lower this afterwards).
    pub ok: u64,
    /// Requests still unanswered when the last one was sent.
    pub backlog_at_end: u64,
    /// Wall time from the first due time to the last reply.
    pub elapsed_s: f64,
}

impl Trial {
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.ok as f64 / self.attempted as f64
    }

    /// p99 latency, as the median over windows of
    /// [`stats::P99_WINDOW`] requests (see [`stats::windowed_p99`]).
    pub fn p99_ns(&self) -> Option<u64> {
        stats::windowed_p99(&self.latency_ns)
    }

    /// Verified replies per second of wall time.
    pub fn achieved_rate(&self) -> f64 {
        self.ok as f64 / self.elapsed_s.max(1e-9)
    }

    /// The backlog is growing when more requests are outstanding at the
    /// end than the latency limit lets the offered rate queue up.
    pub fn backlog_ok(&self) -> bool {
        let allowed = self.rate * LATENCY_LIMIT_NS as f64 / 1e9;
        (self.backlog_at_end as f64) <= allowed.max(4.0)
    }

    /// The rate meets the limit: p99 supported by the sample and within
    /// the limit, enough requests verified, and no growing backlog.
    pub fn meets_limit(&self) -> bool {
        self.p99_ns().is_some_and(|p| p <= LATENCY_LIMIT_NS)
            && self.ok_share() >= MIN_OK_SHARE
            && self.backlog_ok()
    }
}

/// Longest trial of the knee search.
const MAX_TRIAL_SECONDS: f64 = 4.0;

/// Trial length for `rate`: three p99 windows, with headroom for Poisson
/// variation.
pub fn trial_seconds(rate: f64) -> f64 {
    (3.3 * stats::P99_WINDOW as f64 / rate).clamp(0.4, MAX_TRIAL_SECONDS)
}

/// The highest offered rate that meets the limit: walk the ladder up to
/// the first rate that fails, then bisect geometrically between the last
/// pass and that failure until the bracket is finer than
/// [`KNEE_RESOLUTION`]. A rate fails only when two trials at it miss the
/// limit, so one host stall during a short trial does not end the search. Below a third of the first ladder rate a trial
/// of [`MAX_TRIAL_SECONDS`] cannot support a p99, so that is the floor.
/// Returns the knee and every trial run.
pub fn find_knee(mut trial: impl FnMut(f64) -> Trial) -> (f64, Vec<Trial>) {
    let mut trials = Vec::new();
    let mut lo = LADDER[0] / 3.0;
    let mut hi = None;
    let mut meets = |rate: f64, trials: &mut Vec<Trial>| {
        for _ in 0..2 {
            let t = trial(rate);
            let ok = t.meets_limit();
            trials.push(t);
            if ok {
                return true;
            }
        }
        false
    };
    for &rate in &LADDER {
        if meets(rate, &mut trials) {
            lo = rate;
        } else {
            hi = Some(rate);
            break;
        }
    }
    let Some(mut hi) = hi else {
        return (lo, trials);
    };
    while hi / lo > 1.0 + KNEE_RESOLUTION {
        let mid = (lo * hi).sqrt();
        if meets(mid, &mut trials) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_from_the_seed() {
        let a = poisson_schedule(42, 1000.0, 2.0);
        assert_eq!(a, poisson_schedule(42, 1000.0, 2.0));
        assert_ne!(a, poisson_schedule(43, 1000.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // About rate × seconds arrivals (Poisson sd ≈ 45 here).
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(*a.last().unwrap() < 2_000_000_000);
    }

    /// A synthetic server: M/M/1 with service rate `mu`, whose p99
    /// sojourn time is ln(100) / (mu - rate).
    fn synthetic(mu: f64) -> impl FnMut(f64) -> Trial {
        move |rate: f64| {
            let p99_s = if rate < mu {
                100f64.ln() / (mu - rate)
            } else {
                1.0
            };
            let p99 = (p99_s * 1e9) as u64;
            let n = 2200;
            let latency_ns = (0..n)
                .map(|i| if i % 1100 < 1070 { p99 / 2 } else { p99 })
                .collect();
            Trial {
                rate,
                seconds: 1.0,
                latency_ns,
                late_ns: vec![0; n],
                attempted: n as u64,
                ok: n as u64,
                backlog_at_end: 0,
                elapsed_s: 1.0,
            }
        }
    }

    #[test]
    fn knee_bisection_finds_the_synthetic_knee() {
        let mu = 5000.0;
        // p99 = limit at rate = mu - ln(100) / limit.
        let exact = mu - 100f64.ln() / (LATENCY_LIMIT_NS as f64 / 1e9);
        let (knee, trials) = find_knee(synthetic(mu));
        assert!(
            knee <= exact && knee >= exact / (1.0 + KNEE_RESOLUTION),
            "knee {knee} vs {exact}"
        );
        assert!(trials.len() < 24);
        // Every rate at or below the knee that was tried met the limit.
        assert!(trials
            .iter()
            .filter(|t| t.rate <= knee)
            .all(Trial::meets_limit));
    }

    #[test]
    fn one_stalled_trial_does_not_end_the_search() {
        let mut inner = synthetic(5000.0);
        let mut calls = 0;
        let (knee, _) = find_knee(|rate| {
            calls += 1;
            let mut t = inner(rate);
            if calls == 2 {
                // The first trial at 2000 req/s hit a host stall.
                t.latency_ns
                    .iter_mut()
                    .for_each(|l| *l = 10 * LATENCY_LIMIT_NS);
            }
            t
        });
        assert!(knee > 4000.0, "{knee}");
    }

    #[test]
    fn failed_requests_and_backlog_miss_the_limit() {
        let mut t = synthetic(1e9)(1000.0);
        assert!(t.meets_limit());
        t.ok = t.attempted - 3;
        assert!(!t.meets_limit(), "ok share below 0.999");
        t.ok = t.attempted;
        t.backlog_at_end = 50;
        assert!(!t.meets_limit(), "growing backlog");
        t.backlog_at_end = 0;
        t.latency_ns.truncate(1000);
        assert!(!t.meets_limit(), "p99 unsupported by 1000 samples");
    }
}
