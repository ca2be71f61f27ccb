//! Counting-allocator receipt for the multi-writer tier: the closure
//! fixpoint (`windows::analyze`) and the escalated exact search.
//!
//! Three checks, each after a warm-up that lets the per-thread scratch
//! reach its high-water mark:
//!
//! 1. `windows::analyze` allocates nothing beyond its returned value: one
//!    `Vec` for a fast-accept `Schedule`, a `WindowTable`'s three, none
//!    for `Infeasible`.
//! 2. An escalated solve's allocation count does not grow with the number
//!    of states it explores: the same residue under a 20× larger state
//!    budget adds only the memo table's doublings past its pre-size, a
//!    handful of allocations, not one or more per state. (The instance has no
//!    two processes with identical histories and at most 8 processes, so
//!    neither the nogood table nor the interned memo keys — which store
//!    one boxed key per learned nogood or distinct frontier — are in play.)
//! 3. A 20k-op address, far above the deep-rule cap, goes through
//!    `analyze` from a cold scratch with O(n) allocated bytes: no `n × n`
//!    matrix is built outside the deep regime.
//!
//! The binary is `harness = false` for the same reason as
//! `stream_alloc.rs`: libtest's own threads allocate and would race the
//! process-global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vermem_coherence::backtrack::solve_escalated_ops_with_stats;
use vermem_coherence::closure::{analyze_ops, ClosureOutcome};
use vermem_coherence::windows::{self, WindowOutcome};
use vermem_coherence::SearchConfig;
use vermem_trace::gen::{
    gen_hard_coherent, gen_sc_trace, inject_violation, GenConfig, ViolationKind,
};
use vermem_trace::{AddrIndex, AddrOps};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` performed by `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a, b) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    let allocs = ALLOCS.load(Ordering::Relaxed) - a;
    let bytes = BYTES.load(Ordering::Relaxed) - b;
    (out, allocs, bytes)
}

/// A multi-writer trace, fault-injected on every other seed so the
/// corpus also reaches `Infeasible`.
fn reuse_trace(procs: usize, total_ops: usize, addrs: usize, rmw: f64, seed: u64) -> AddrIndex {
    let (trace, _) = gen_sc_trace(&GenConfig {
        procs,
        total_ops,
        addrs,
        write_fraction: 0.5,
        rmw_fraction: rmw,
        value_reuse: 0.5,
        seed,
    });
    let trace = if seed % 2 == 1 {
        inject_violation(&trace, ViolationKind::StaleRead, seed).map_or(trace, |(bad, _)| bad)
    } else {
        trace
    };
    AddrIndex::build(&trace)
}

/// Check 1: per-address allocations of `analyze` equal its return value's.
fn analyze_allocates_only_its_result() {
    let mut corpus: Vec<AddrOps> = Vec::new();
    for seed in 0..24u64 {
        let (procs, total_ops, addrs, rmw) = match seed % 3 {
            0 => (4, 900, 24, 0.0), // multi-writer, deep rules on
            1 => (4, 600, 2, 0.0),  // above the deep-rule cap
            _ => (4, 240, 6, 0.15), // RMW pigeonhole and buckets
        };
        corpus.extend(
            reuse_trace(procs, total_ops, addrs, rmw, seed)
                .iter()
                .cloned(),
        );
    }
    // Warm-up: the scratch reaches this corpus's high-water mark.
    for ops in &corpus {
        drop(windows::analyze(ops));
    }
    let (mut schedules, mut tables, mut infeasible) = (0, 0, 0);
    for ops in &corpus {
        let (out, allocs, _) = counted(|| windows::analyze(ops));
        let owned = match &out {
            WindowOutcome::Infeasible => {
                infeasible += 1;
                0
            }
            WindowOutcome::Schedule(s) => {
                schedules += 1;
                u64::from(!s.is_empty())
            }
            WindowOutcome::Table(_) => {
                tables += 1;
                3
            }
        };
        assert!(
            allocs <= owned,
            "analyze allocated {allocs} times for an outcome owning {owned} buffers \
             ({} ops): {out:?}",
            ops.num_ops()
        );
    }
    assert!(
        schedules > 0 && tables > 0 && infeasible > 0,
        "every outcome exercised"
    );
    println!(
        "closure_alloc: analyze over {} warm addresses ({schedules} schedules, {tables} tables, \
         {infeasible} infeasible) allocated only its results — ok",
        corpus.len()
    );
}

/// Check 2: the same escalated residue under a small and a 20× larger
/// budget allocates the same number of times, up to the memo table's
/// extra doublings.
fn escalated_allocations_do_not_scale_with_states() {
    const SMALL: u64 = 200;
    const LARGE: u64 = 4_000;
    let budget = |max| SearchConfig {
        max_states: Some(max),
        ..SearchConfig::default()
    };
    let run = |ops: &AddrOps, table: &windows::WindowTable, max| {
        let table = Some(table.clone());
        counted(|| solve_escalated_ops_with_stats(ops, &budget(max), table))
    };
    // The first generated instance whose residue escalates and keeps the
    // large budget busy.
    let (ops, table) = (0..200u64)
        .find_map(|seed| {
            let (t, _) = gen_hard_coherent(4, 10, 2, seed);
            let ops = AddrIndex::build(&t).iter().next()?.clone();
            let ClosureOutcome::Escalate(table) = analyze_ops(&ops).0 else {
                return None;
            };
            let (_, stats) =
                solve_escalated_ops_with_stats(&ops, &budget(LARGE), Some(table.clone()));
            (stats.states > 10 * SMALL).then_some((ops, table))
        })
        .expect("a generated instance keeps the large budget busy");
    // Warm-up of anything lazily initialised on the solve path.
    drop(run(&ops, &table, SMALL));
    let ((_, small_stats), small_allocs, _) = run(&ops, &table, SMALL);
    let ((_, large_stats), large_allocs, _) = run(&ops, &table, LARGE);
    assert_eq!(small_stats.nogoods_learned + large_stats.nogoods_learned, 0);
    assert!(large_stats.states > 10 * small_stats.states);
    // The memo set doubles as it fills past its pre-size, so the large
    // run may allocate once per extra doubling: at most log2 of the state
    // ratio, plus one for where the two runs fall between powers of two.
    let ratio = large_stats.states.div_ceil(small_stats.states);
    let doublings = u64::from(ratio.next_power_of_two().trailing_zeros()) + 1;
    assert!(
        large_allocs <= small_allocs + doublings,
        "escalated solve allocations grew with states: {} states -> {small_allocs}, \
         {} states -> {large_allocs} (memo doublings allowed: {doublings})",
        small_stats.states,
        large_stats.states
    );
    println!(
        "closure_alloc: escalated solve allocated {small_allocs} times at {} states, \
         {large_allocs} at {} states — ok",
        small_stats.states, large_stats.states
    );
}

/// Bytes `analyze` allocates for one `ops`-op address from a cold scratch.
fn cold_analyze_bytes(ops: usize) -> u64 {
    // Unique values keep every candidate set a singleton, so the
    // candidate pool is linear too and only the graph layout is measured.
    let (trace, _) = gen_sc_trace(&GenConfig {
        procs: 4,
        total_ops: ops,
        addrs: 1,
        write_fraction: 0.5,
        rmw_fraction: 0.0,
        value_reuse: 0.0,
        seed: 7,
    });
    let index = AddrIndex::build(&trace);
    let addr = index.iter().next().expect("one address");
    assert_eq!(addr.num_ops(), ops);
    // A fresh thread has a cold scratch: every buffer is sized by this
    // address alone. The spawning thread only waits meanwhile.
    std::thread::scope(|s| {
        s.spawn(|| {
            let (out, _, bytes) = counted(|| windows::analyze(addr));
            drop(out);
            bytes
        })
        .join()
        .expect("analyze thread")
    })
}

/// Check 3: a 20k-op address from a cold scratch allocates O(n) bytes.
fn large_address_allocates_linear_bytes() {
    const SMALL: usize = 5_000;
    const LARGE: usize = 20_000;
    let small = cold_analyze_bytes(SMALL) / SMALL as u64;
    let large = cold_analyze_bytes(LARGE) / LARGE as u64;
    // Linear: bytes per op stay flat as the address grows 4×. An n × n
    // bit matrix alone would be n / 8 bytes per op — 2,500 at 20k ops —
    // and would quadruple the per-op figure.
    assert!(
        large <= 2 * small && large < LARGE as u64 / 16,
        "analyze bytes per op: {small} at {SMALL} ops, {large} at {LARGE} ops"
    );
    println!(
        "closure_alloc: cold analyze allocated {small} bytes/op at {SMALL} ops, \
         {large} bytes/op at {LARGE} ops — ok"
    );
}

fn main() {
    analyze_allocates_only_its_result();
    escalated_allocations_do_not_scale_with_states();
    large_address_allocates_linear_bytes();
}
