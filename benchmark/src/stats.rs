//! Order statistics over samples: the estimators every reported number
//! goes through, kept tiny so `tests/harness.rs` can check them against
//! hand-computed cases.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice
/// (`p` in `[0, 100]`): the smallest sample with at least `p` % of the
/// samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sort `xs` ascending in place (total order; NaN sorts last).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// Median (mean of the two middle samples for an even count); 0 for an
/// empty sample, which is how a layer no op exercised reads.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default *exclusive* method) gives
/// them — the driver computes run-to-run spread with that function, so
/// calibration must too. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |i: usize| -> f64 {
        // Position i*(n+1)/4 on the 1-based sample axis, clamped like
        // CPython clamps `j` to [1, n-1].
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Run-to-run spread: interquartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Geometric mean of the positive entries (0 when there are none).
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// `a / b`, or 0 when `b` is 0 — layer ratios over counters that may not
/// have moved on a workload that bypasses the layer.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
