//! Order statistics used by the reports.
//!
//! Percentiles are nearest-rank and are reported only when at least
//! [`MIN_BEYOND`] samples lie beyond them, so a tail figure always rests on
//! a tail. Quartiles follow Python's `statistics.quantiles(data, n=4)`
//! (the default "exclusive" method), so a spread computed here matches one
//! computed over the printed values in Python.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples would lie beyond it.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    assert!(p > 0 && p < 100, "percentile must be in 1..=99");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = (n * p as usize).div_ceil(100).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First and third quartiles, as `statistics.quantiles(data, n=4)` gives
/// them (exclusive method). Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}
