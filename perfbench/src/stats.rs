//! Summary statistics for the benchmark's raw values.

/// Spread of a set of raw values: n, median, quartiles and MAD.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub mad: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (NaN for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Summarize a set of raw values.
pub fn summarize(values: &[f64]) -> Summary {
    let med = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - med).abs()).collect();
    let (q1, q3) = quartiles(values);
    Summary {
        n: values.len(),
        median: med,
        q1,
        q3,
        mad: median(&dev),
    }
}

/// Samples a percentile must leave beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank value at quantile `q` of `samples`, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond that rank (so p99 needs
/// at least 1000 samples).
pub fn percentile(samples: &[u64], q: f64) -> Option<u64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < TAIL_SAMPLES && q < 1.0 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    Some(v[rank - 1])
}

/// Samples per p99 window: enough that each window's p99 leaves
/// [`TAIL_SAMPLES`] samples beyond it.
pub const P99_WINDOW: usize = 1100;

/// p99 of `samples` (in arrival order) as the median of the p99s of
/// consecutive windows of [`P99_WINDOW`] samples (a short tail left over
/// joins the last window). A host pause that delays every request of one
/// window moves that window's p99, not the median across windows. `None`
/// when there are fewer samples than one window.
pub fn windowed_p99(samples: &[u64]) -> Option<u64> {
    let windows = samples.len() / P99_WINDOW;
    let p99s: Vec<f64> = (0..windows)
        .filter_map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * P99_WINDOW
            };
            percentile(&samples[w * P99_WINDOW..end], 0.99).map(|v| v as f64)
        })
        .collect();
    if p99s.is_empty() {
        return None;
    }
    let v = sorted(&p99s);
    // The lower median, so the result is one of the window p99s.
    Some(v[(v.len() - 1) / 2] as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
    }

    #[test]
    fn windowed_p99_ignores_one_stalled_window() {
        assert_eq!(windowed_p99(&[1; P99_WINDOW - 1]), None);
        // Three windows; the middle one holds a 50-sample stall.
        let mut v: Vec<u64> = (0..3 * P99_WINDOW as u64).map(|i| i % 100).collect();
        for x in &mut v[P99_WINDOW + 10..P99_WINDOW + 60] {
            *x = 1_000_000;
        }
        assert_eq!(percentile(&v, 0.99), Some(1_000_000));
        assert_eq!(windowed_p99(&v), Some(98));
        // Leftover samples join the last window rather than being dropped.
        let w = vec![5u64; 2 * P99_WINDOW + 7];
        assert_eq!(windowed_p99(&w), Some(5));
    }

    #[test]
    fn mad_is_the_median_absolute_deviation() {
        let s = summarize(&[1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0]);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.mad, 1.0);
        assert_eq!(s.n, 7);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let few: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&few, 0.99), None);
        let enough: Vec<u64> = (1..=1000).rev().collect();
        // Rank 990 of 1000 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&enough, 0.99), Some(990));
        assert_eq!(percentile(&enough, 0.50), Some(500));
        assert_eq!(percentile(&[], 0.5), None);
        // The median of a small sample is fine: 10 of 21 lie beyond it.
        let small: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&small, 0.5), Some(11));
    }
}
