//! Tests for the order statistics and the corpus manifest.

use vermem_perfbench::manifest::{Entry, Manifest};
use vermem_perfbench::stats::{median, percentile, quartiles, MIN_BEYOND};

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from `statistics.quantiles(data, n=4)`.
    let cases: [(&[f64], (f64, f64)); 4] = [
        (&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.], (2.75, 8.25)),
        (&[1., 2.], (0.75, 2.25)),
        (&[3.5, 1.25, 9.0], (1.25, 9.0)),
        (&[5., 1., 4., 2., 3., 8., 7.], (2.0, 7.0)),
    ];
    for (data, want) in cases {
        assert_eq!(quartiles(data), Some(want), "{data:?}");
    }
    assert_eq!(quartiles(&[4.0]), None);
}

#[test]
fn median_handles_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    // 100 samples: p90 is the 90th smallest, with exactly 10 beyond it.
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 90), Some(90.0));
    assert_eq!(percentile(&samples, 50), Some(50.0));
    // 99 samples leave only 9 beyond the nearest-rank p90.
    assert_eq!(percentile(&samples[..99], 90), None);
    // p99 needs 1000 samples.
    let many: Vec<f64> = (0..1000).map(f64::from).collect();
    assert_eq!(percentile(&many, 99), Some(989.0));
    assert_eq!(percentile(&many[..999], 99), None);
    for n in [10usize, 11, 57, 100, 101, 250] {
        let xs: Vec<f64> = (0..n).map(|x| x as f64).collect();
        if let Some(p) = percentile(&xs, 90) {
            let beyond = xs.iter().filter(|&&x| x > p).count();
            assert!(beyond >= MIN_BEYOND, "n {n}: {beyond} beyond p90");
        }
    }
}

#[test]
fn manifest_round_trips() {
    let m = Manifest {
        workload: "serve-stream".into(),
        seed: 42,
        params: "f2-p4-o10".into(),
        entries: vec![
            Entry {
                id: 0,
                file: "0000.bin".into(),
                ops: 10,
                bytes: 57,
                expected: "coherent".into(),
                source: "batch+construction".into(),
            },
            Entry {
                id: 1,
                file: "0001.bin".into(),
                ops: 9,
                bytes: 50,
                expected: "incoherent:Violation { addr: Addr(3), kind: SearchExhausted }".into(),
                source: "batch".into(),
            },
        ],
    };
    let text = m.to_text();
    assert_eq!(Manifest::parse(&text), Ok(m.clone()));
    assert_eq!(m.total_ops(), 19);
    assert_eq!(m.total_bytes(), 107);
}

#[test]
fn manifest_rejects_damage() {
    let good = Manifest {
        workload: "verify-sim".into(),
        seed: 1,
        params: "p".into(),
        entries: vec![Entry {
            id: 0,
            file: "0000.bin".into(),
            ops: 1,
            bytes: 1,
            expected: "any".into(),
            source: "none".into(),
        }],
    }
    .to_text();
    assert!(Manifest::parse(&good.replace("#format", "#fmt")).is_err());
    assert!(Manifest::parse(&good.replace("0\t0000.bin", "1\t0000.bin")).is_err());
    assert!(Manifest::parse(&good.replace("\tany\t", "\t")).is_err());
    assert!(Manifest::parse(&good.replace("#seed\t1", "#seed\tx")).is_err());
}
