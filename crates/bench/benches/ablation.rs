//! Ablation study for the exact VMC search — the design choices DESIGN.md
//! calls out: memoization, greedy read absorption, demand-driven move
//! ordering, and (PR-4) the three inference prunings. Each is toggled on
//! the same hard instances.

use std::hint::black_box;
use vermem_coherence::{solve_backtracking, PruneConfig, SearchConfig};
use vermem_sat::random::{gen_random_ksat, RandomSatConfig};
use vermem_trace::gen::gen_hard_coherent;
use vermem_trace::{Addr, Trace};
use vermem_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn configs() -> Vec<(&'static str, SearchConfig)> {
    // The historical PR-2 ablation axes are pinned to `PruneConfig::none()`
    // so they keep measuring memo/absorption/ordering effects in isolation,
    // not interactions with the PR-4 inference layer.
    let base = SearchConfig {
        prune: PruneConfig::none(),
        ..Default::default()
    };
    vec![
        ("full", base),
        (
            "no-memo",
            SearchConfig {
                memoize: false,
                ..base
            },
        ),
        (
            "no-absorption",
            SearchConfig {
                greedy_absorption: false,
                ..base
            },
        ),
        (
            "no-hot-order",
            SearchConfig {
                hot_move_ordering: false,
                ..base
            },
        ),
    ]
}

/// One row per prune setting — the E-PRUNE bench-harness counterpart of the
/// experiments binary's `eprune` ablation.
fn prune_configs() -> Vec<(&'static str, SearchConfig)> {
    let spec = |s: &str| SearchConfig {
        prune: PruneConfig::parse(s).expect("static spec"),
        // Bounded so the unpruned configuration cannot blow the bench
        // budget on the §5.2 instance; pruned configs finish far below it.
        max_states: Some(50_000),
        ..Default::default()
    };
    vec![
        ("prune-none", spec("none")),
        ("prune-windows", spec("windows")),
        ("prune-symmetry", spec("symmetry")),
        ("prune-nogoods", spec("nogoods")),
        ("prune-all", spec("all")),
    ]
}

fn instance(seed: u64) -> Trace {
    // 5 processes × 8 ops with value reuse: inside the NP-complete cell but
    // solvable by all configurations within bench time.
    gen_hard_coherent(5, 8, 2, seed).0
}

fn bench_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/backtracking");
    g.sample_size(10);
    let traces: Vec<Trace> = (0..4).map(instance).collect();
    for (name, cfg) in configs() {
        g.bench_with_input(BenchmarkId::from_parameter(name), &traces, |b, traces| {
            b.iter(|| {
                for t in traces {
                    assert!(solve_backtracking(t, Addr::ZERO, &cfg).is_coherent());
                }
            });
        });
    }
    g.finish();
}

/// Ablation on a larger constant-k instance, where memoization is the
/// difference between polynomial and exponential behaviour.
fn bench_ablation_constant_k(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/constant-k");
    g.sample_size(10);
    let trace = gen_hard_coherent(3, 40, 2, 99).0;
    for (name, cfg) in configs() {
        // Skip no-memo at this size — it is the exponential configuration.
        if name == "no-memo" {
            continue;
        }
        g.bench_with_input(BenchmarkId::from_parameter(name), &trace, |b, t| {
            b.iter(|| {
                assert!(solve_backtracking(t, Addr::ZERO, &cfg).is_coherent());
            });
        });
    }
    g.finish();
}

/// PR-4 prune ablation on the workloads where the inference layer bites:
/// a hard coherent instance (windows/symmetry territory) and the §5.2 RMW
/// reduction of an over-constrained random 3-SAT formula (the blow-up case
/// where `prune-none` hits the state cap and `prune-all` finishes in
/// hundreds of states).
fn bench_prune_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/prune");
    g.sample_size(10);
    let hard = gen_hard_coherent(5, 8, 2, 7).0;
    let rmw = vermem_reductions::reduce_3sat_rmw(&gen_random_ksat(&RandomSatConfig::three_sat(
        3, 5.0, 93,
    )))
    .trace;
    for (name, cfg) in prune_configs() {
        g.bench_with_input(BenchmarkId::new("hard-coherent", name), &hard, |b, t| {
            b.iter(|| assert!(solve_backtracking(t, Addr::ZERO, &cfg).is_coherent()));
        });
        // Verdicts legitimately differ here (`prune-none` caps out, pruned
        // configs decide), so only the work is measured.
        g.bench_with_input(BenchmarkId::new("rmw-5.2", name), &rmw, |b, t| {
            b.iter(|| black_box(solve_backtracking(t, Addr::ZERO, &cfg)));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_ablation,
    bench_ablation_constant_k,
    bench_prune_ablation
);
criterion_main!(benches);
