//! Shared helpers for the benchmark and experiment harness: timing
//! utilities, log–log growth-exponent fitting, and instance builders used
//! by both the `vermem_util::bench`-harness benches and the `experiments`
//! binary that regenerates every table/figure of the paper's evaluation
//! (Figures 4.1–6.3, the Figure 5.3 complexity table; see EXPERIMENTS.md).

use std::time::Instant;

/// Median wall time of `f` over `reps` runs, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    assert!(reps > 0);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical growth
/// exponent of a runtime series. A slope near `k` supports an O(n^k) bound.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points to fit");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| (x.ln(), y.max(1e-12).ln()))
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Successive-ratio geometric growth factor: for an exponential-in-m series
/// the ratio `y[i+1]/y[i]` stays ≥ some constant > 1 as `m` grows linearly.
pub fn mean_growth_ratio(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2);
    let ratios: Vec<f64> = points
        .windows(2)
        .map(|w| (w[1].1.max(1e-12)) / (w[0].1.max(1e-12)))
        .collect();
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_quadratic_series_is_two() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| (i as f64 * 100.0, (i as f64 * 100.0).powi(2)))
            .collect();
        let s = loglog_slope(&pts);
        assert!((s - 2.0).abs() < 1e-9, "slope {s}");
    }

    #[test]
    fn slope_of_linear_series_is_one() {
        let pts: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((loglog_slope(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn growth_ratio_of_doubling_series() {
        let pts: Vec<(f64, f64)> = (0..5).map(|i| (i as f64 + 1.0, 2f64.powi(i))).collect();
        assert!((mean_growth_ratio(&pts) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn median_is_deterministic_for_constant_work() {
        let t = median_secs(3, || {
            std::hint::black_box(0);
        });
        assert!(t >= 0.0);
    }
}
