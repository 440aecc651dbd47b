//! Order statistics the benchmark reports: medians over reps,
//! nearest-rank percentiles over request latencies, and the quartile
//! spread `compare` holds against a metric's bound.

/// Sort ascending (total order, so a stray NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count. 0 for an
/// empty sample (a workload that never touches a layer reports 0 there).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Quartiles `(q1, q2, q3)` by the exclusive method — the same cut
/// points as Python's `statistics.quantiles(values, n=4)`, which is what
/// the acceptance driver computes. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 on a 1-based axis; like Python, the bracket
        // is clamped to the sample but the weight is not, so tiny
        // samples extrapolate.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median — the spread the
/// acceptance driver bounds. `None` below two values or at median 0.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}
