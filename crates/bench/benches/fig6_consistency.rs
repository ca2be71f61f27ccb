//! E-6.x — consistency verification: the VSCC pipeline stages on Figure
//! 6.2 instances (per-address coherence is cheap, exact VSC is not), the
//! VSC-Conflict merge, the LRC-wrapped reduction, and the litmus suite
//! across all memory models.

use std::hint::black_box;
use vermem_coherence::ExecutionVerdict;
use vermem_consistency::litmus::all_litmus_tests;
use vermem_consistency::{
    merge_coherent_schedules, solve_model_sat, solve_sc_backtracking, verify_model_operational,
    KernelConfig, MemoryModel,
};
use vermem_reductions::{reduce_sat_to_lrc, reduce_sat_to_vscc};
use vermem_sat::random::{gen_forced_sat, RandomSatConfig};
use vermem_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_vscc_stages(c: &mut Criterion) {
    let mut coh = c.benchmark_group("fig6/vscc-coherence-stage");
    for m in [3u32, 4, 6, 8] {
        let f = gen_forced_sat(&RandomSatConfig::three_sat(m, 3.0, u64::from(m)));
        let red = reduce_sat_to_vscc(&f);
        coh.bench_with_input(BenchmarkId::from_parameter(m), &red.trace, |b, t| {
            b.iter(|| {
                assert!(vermem_coherence::verify_execution(t).is_coherent());
            });
        });
    }
    coh.finish();

    let mut merge = c.benchmark_group("fig6/vscc-merge-stage");
    for m in [3u32, 4, 6, 8] {
        let f = gen_forced_sat(&RandomSatConfig::three_sat(m, 3.0, u64::from(m)));
        let red = reduce_sat_to_vscc(&f);
        let ExecutionVerdict::Coherent(schedules) = vermem_coherence::verify_execution(&red.trace)
        else {
            panic!("promise holds");
        };
        merge.bench_with_input(
            BenchmarkId::from_parameter(m),
            &(red.trace, schedules),
            |b, (t, s)| {
                b.iter(|| black_box(merge_coherent_schedules(t, s)));
            },
        );
    }
    merge.finish();

    let mut exact = c.benchmark_group("fig6/vscc-exact-vsc-stage");
    exact.sample_size(10);
    for m in [3u32, 4, 5] {
        let f = gen_forced_sat(&RandomSatConfig::three_sat(m, 3.0, u64::from(m)));
        let red = reduce_sat_to_vscc(&f);
        exact.bench_with_input(BenchmarkId::from_parameter(m), &red.trace, |b, t| {
            b.iter(|| {
                assert!(solve_sc_backtracking(t, &KernelConfig::default()).is_consistent());
            });
        });
    }
    exact.finish();
}

fn bench_lrc(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6/lrc-verify");
    for m in [3u32, 4, 5] {
        let f = gen_forced_sat(&RandomSatConfig::three_sat(m, 3.0, u64::from(m)));
        let red = reduce_sat_to_lrc(&f);
        g.bench_with_input(BenchmarkId::from_parameter(m), &red.sync_trace, |b, t| {
            b.iter(|| {
                let v = vermem_consistency::lrc::verify_lrc_fully_synchronized(
                    t,
                    vermem_reductions::lrc::LOCK,
                )
                .expect("fully synchronized");
                assert!(v.is_coherent());
            });
        });
    }
    g.finish();
}

fn bench_litmus(c: &mut Criterion) {
    let tests = all_litmus_tests();
    let mut g = c.benchmark_group("fig6/litmus-suite");
    for model in MemoryModel::ALL {
        g.bench_with_input(BenchmarkId::from_parameter(model), &tests, |b, tests| {
            b.iter(|| {
                for t in tests {
                    let got = solve_model_sat(&t.trace, model).is_consistent();
                    assert_eq!(got, t.expected[&model]);
                }
            });
        });
    }
    g.finish();
}

/// The shared exact-search kernel across all three operational machines
/// (SC / TSO / PSO) on one contended generated workload.
fn bench_model_kernel(c: &mut Criterion) {
    use vermem_trace::gen::{gen_sc_trace, GenConfig};
    let (trace, _) = gen_sc_trace(&GenConfig {
        procs: 3,
        total_ops: 24,
        addrs: 2,
        value_reuse: 0.6,
        seed: 4242,
        ..Default::default()
    });
    let cfg = KernelConfig::default();
    let mut g = c.benchmark_group("fig6/model-kernel");
    for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
        g.bench_with_input(
            BenchmarkId::new(format!("{model}"), "kernel"),
            &trace,
            |b, t| {
                b.iter(|| {
                    let (verdict, _) = verify_model_operational(t, model, &cfg);
                    assert!(verdict.is_consistent());
                });
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_vscc_stages,
    bench_lrc,
    bench_litmus,
    bench_model_kernel
);
criterion_main!(benches);
