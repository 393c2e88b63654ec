//! Order statistics the benchmark reports and the timing loop behind
//! every probe.

use std::time::Instant;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted `values`;
/// 0.0 for an empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = (v.len() * p as usize).div_ceil(100).max(1);
    v[rank - 1]
}

/// Median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The percentiles a latency may be reported at.
pub const PERCENTILES: [u32; 5] = [50, 75, 90, 95, 99];

/// Highest of [`PERCENTILES`] with at least ten of `samples` beyond it
/// (a tail read off fewer than ten samples is noise), or `None` when
/// not even the median has them.
pub fn highest_supported_percentile(samples: usize) -> Option<u32> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| samples * (100 - p as usize) >= 10 * 100)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them — the rule the acceptance check applies. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (0.0 below two
/// values or for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

/// `a / b`, or 0.0 when `b` is zero (a layer that never ran).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median seconds per call of `f`. One untimed call warms up and sizes
/// the batch: `calls` timed calls (200 in a real run), a tenth of that
/// when a call takes over 10 ms, and never more than about half a
/// second in total — but at least 3.
pub fn time_median(calls: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let first = t.elapsed().as_secs_f64();
    let wanted = if first > 0.010 { calls / 10 } else { calls };
    let calls = wanted.min((0.5 / first.max(1e-9)) as usize).max(3);
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(7), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(199), Some(90));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(480), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95), 95.0);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
