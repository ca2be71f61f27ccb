//! Regenerates every table and figure of the paper's evaluation as console
//! tables, pairing each complexity claim with a measured growth exponent or
//! blow-up factor. See DESIGN.md §5 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.
//!
//! ```sh
//! cargo run --release -p vermem-bench --bin experiments            # all
//! cargo run --release -p vermem-bench --bin experiments -- e5.3   # one
//! cargo run --release -p vermem-bench --bin experiments -- --json # BENCH_vmc.json
//! ```
//!
//! `--json` runs the E-PAR thread ladder, the E-PRUNE inference-layer
//! ablation, the E-KERNEL operational machines (SC/TSO/PSO on the shared
//! exact-search kernel, with their key allocations), the E-TIER
//! tiered-verification ablation (closure frontline vs exact-only, per
//! trace family), the E-AXIOM declared-model ablation (every `ModelSpec`
//! model through the operational compiler, the SAT compiler, and — for the
//! base models — the verbatim legacy machines, plus the RA polynomial-tier
//! decision-rate probe), the E-STREAM streaming-engine family (sustained ops/s,
//! p99 detection latency, and the bounded-memory peak-retained-windows
//! probe at 1/4/16 concurrent streams), and the observability-overhead
//! probe, and writes machine-readable receipts (per-case medians, op/s,
//! speedup vs 1 thread, memo hit/miss counts, per-model key-allocation
//! counts, per-tier address accounting, enabled-vs-disabled obs cost) to
//! `BENCH_vmc.json` in the current directory. Set `VERMEM_BENCH_FAST=1` to shrink instance sizes and
//! repetitions for smoke-test runs.
//!
//! `--metrics` prints the unified run report (counters/gauges/histograms
//! accumulated across the selected experiments) when the run finishes;
//! `--trace-out FILE` additionally writes a Chrome trace-event file
//! loadable in Perfetto / `chrome://tracing`.

use std::time::Instant;
use vermem_bench::{loglog_slope, mean_growth_ratio, median_secs};
use vermem_coherence::{
    one_op, readmap, rmw, solve_backtracking, solve_backtracking_with_stats,
    solve_with_write_order, verify_execution_par, PruneConfig, SearchConfig, TierConfig, TierStats,
    VmcVerifier,
};
use vermem_consistency::{
    merge_coherent_schedules, solve_sc_backtracking, verify_axiom, verify_model_operational,
    AxiomConfig, Engine, KernelConfig, MemoryModel, MergeOutcome, ModelId,
};
use vermem_reductions::{
    example_fig_4_2, reduce_3sat_restricted, reduce_3sat_rmw, reduce_sat_to_lrc, reduce_sat_to_vmc,
    reduce_sat_to_vscc,
};
use vermem_sat::random::{gen_random_ksat, RandomSatConfig};
use vermem_sat::solve_cdcl;
use vermem_sim::{
    random_program, shared_counter, FaultKind, FaultPlan, Machine, MachineConfig, WorkloadConfig,
};
use vermem_trace::classify::InstanceProfile;
use vermem_trace::gen::{gen_sc_trace, inject_violation, GenConfig, ViolationKind};
use vermem_trace::{Addr, OpRef, Trace};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--trace-out` takes a value: pre-extract it (both `--trace-out FILE`
    // and `--trace-out=FILE`) before the filter scan below so the path is
    // not mistaken for an experiment id.
    let mut trace_out: Option<String> = None;
    let mut metrics = false;
    let mut argv: Vec<String> = Vec::with_capacity(raw.len());
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--trace-out" {
            match it.next() {
                Some(path) => trace_out = Some(path),
                None => {
                    eprintln!("--trace-out requires a file argument");
                    std::process::exit(2);
                }
            }
        } else if let Some(path) = a.strip_prefix("--trace-out=") {
            trace_out = Some(path.to_string());
        } else if a == "--metrics" {
            metrics = true;
        } else {
            argv.push(a);
        }
    }
    let obs_on = metrics || trace_out.is_some();
    if obs_on {
        vermem_util::obs::reset();
        vermem_util::obs::set_enabled(true);
    }
    let json = argv.iter().any(|a| a == "--json");
    let filter = argv
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        // Bare `--json` means "produce the receipts": run only E-PAR + the
        // memo ablation rather than the whole console suite.
        .unwrap_or_else(|| {
            if json {
                "epar".to_string()
            } else {
                "all".to_string()
            }
        });
    let run = |id: &str| filter == "all" || filter == id;

    if run("e4.1") {
        e4_1_sat_to_vmc();
    }
    if run("e4.2") {
        e4_2_worked_example();
    }
    if run("e5.1") {
        e5_reduction("e5.1 (Figure 5.1)", &|f| reduce_3sat_restricted(f).trace);
    }
    if run("e5.2") {
        e5_reduction("e5.2 (Figure 5.2)", &|f| reduce_3sat_rmw(f).trace);
    }
    if run("e5.3") {
        e5_3_table();
    }
    if run("e6.1") {
        e6_1_lrc();
    }
    if run("e6.2") || run("e6.3") {
        e6_2_vscc();
    }
    if run("evscc") {
        e_vscc_hardness();
    }
    if run("esim") {
        e_sim_detection();
    }
    if run("eonline") {
        e_online_checker();
    }
    if run("eopen") {
        e_open_problems();
    }
    if run("epar") {
        e_par_scaling(json);
    }
    if filter == "eprune" {
        // Included in `epar`'s receipt run; also runnable standalone.
        e_prune();
    }
    if filter == "ekernel" {
        // Included in `epar`'s receipt run; also runnable standalone.
        e_kernel();
    }
    if filter == "etier" {
        // Included in `epar`'s receipt run; also runnable standalone.
        e_tier();
    }
    if filter == "eaxiom" {
        // Included in `epar`'s receipt run; also runnable standalone.
        e_axiom();
    }
    if filter == "estream" {
        // Included in `epar`'s receipt run; also runnable standalone.
        e_stream();
    }

    if obs_on {
        vermem_util::obs::set_enabled(false);
        let events = vermem_util::obs::take_events();
        if let Some(path) = &trace_out {
            std::fs::write(path, vermem_util::obs::chrome::render_chrome_trace(&events))
                .expect("write trace-out file");
            println!("\nwrote Chrome trace ({} events) to {path}", events.len());
        }
        if metrics {
            let mut report = vermem_util::obs::report::RunReport::new();
            report.extend_from_metrics(&vermem_util::obs::snapshot());
            header("run report (accumulated across selected experiments)");
            print!("{}", report.to_text());
        }
    }
}

fn header(title: &str) {
    println!("\n==========================================================================");
    println!("{title}");
    println!("==========================================================================");
}

// ---------------------------------------------------------------------------
// E-4.1: the SAT → VMC reduction at scale.
// ---------------------------------------------------------------------------
fn e4_1_sat_to_vmc() {
    header("E-4.1  SAT → VMC (Figure 4.1): size and equisatisfiability");
    println!("paper: instance has 2m+3 histories and O(mn) operations; coherent iff SAT");
    println!(
        "{:>4} {:>4} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "m", "n", "histories", "ops", "SAT", "coherent", "agree"
    );
    let mut agreements = 0;
    let mut total = 0;
    for m in [3u32, 4, 5, 6] {
        for ratio in [2.0, 4.0] {
            let cfg = RandomSatConfig::three_sat(m, ratio, 7 * u64::from(m));
            let f = gen_random_ksat(&cfg);
            let red = reduce_sat_to_vmc(&f);
            let sat = solve_cdcl(&f).is_sat();
            let coh =
                solve_backtracking(&red.trace, Addr::ZERO, &SearchConfig::default()).is_coherent();
            total += 1;
            if sat == coh {
                agreements += 1;
            }
            println!(
                "{:>4} {:>4} {:>10} {:>8} {:>10} {:>10} {:>8}",
                m,
                f.num_clauses(),
                red.trace.num_procs(),
                red.trace.num_ops(),
                sat,
                coh,
                sat == coh
            );
        }
    }
    println!("equisatisfiability: {agreements}/{total}");
}

// ---------------------------------------------------------------------------
// E-4.2: the worked example of Figure 4.2.
// ---------------------------------------------------------------------------
fn e4_2_worked_example() {
    header("E-4.2  worked example (Figure 4.2): Q = u");
    let red = example_fig_4_2();
    println!("instance:\n{}", vermem_trace::fmt::format_trace(&red.trace));
    let verdict = solve_backtracking(&red.trace, Addr::ZERO, &SearchConfig::default());
    let schedule = verdict.schedule().expect("Q = u is satisfiable");
    println!("coherent schedule: {schedule:?}");
    let model = red.extract_assignment(schedule);
    println!(
        "extracted T(u) = {} (paper: coherent iff W(d_u) precedes W(d_ū))",
        model.value(vermem_sat::Var(0)).unwrap()
    );
}

// ---------------------------------------------------------------------------
// E-5.1 / E-5.2: the restricted reductions — restriction check + blow-up.
// ---------------------------------------------------------------------------
fn e5_reduction(title: &str, reduce: &dyn Fn(&vermem_sat::Cnf) -> Trace) {
    header(&format!(
        "{title}: restrictions hold; exact-solver states blow up with m"
    ));
    println!(
        "{:>10} {:>4} {:>6} {:>8} {:>12} {:>14} {:>12}",
        "family", "m", "ops", "ops/proc", "writes/value", "states", "verdict"
    );
    // A state budget keeps the harness bounded; a capped row already
    // demonstrates the blow-up. Pruning is off here by design: E-5.1/E-5.2
    // measure the *baseline* exponential wall of the exact search; how much
    // of it the PR-4 inference layer recovers is E-PRUNE's question.
    const CAP: u64 = 2_000_000;
    let cfg_capped = SearchConfig {
        max_states: Some(CAP),
        prune: PruneConfig::none(),
        ..Default::default()
    };
    let mut points = Vec::new();
    let solve_row = |family: &str, m: u32, f: &vermem_sat::Cnf| -> (u64, bool) {
        let trace = reduce(f);
        let profile = InstanceProfile::of(&trace, Addr::ZERO);
        let (verdict, stats) = solve_backtracking_with_stats(&trace, Addr::ZERO, &cfg_capped);
        let verdict_str = match &verdict {
            vermem_coherence::Verdict::Coherent(_) => "coherent",
            vermem_coherence::Verdict::Incoherent(_) => "incoherent",
            vermem_coherence::Verdict::Unknown => "capped",
        };
        println!(
            "{:>10} {:>4} {:>6} {:>8} {:>12} {:>14} {:>12}",
            family,
            m,
            trace.num_ops(),
            profile.max_ops_per_proc,
            profile.max_writes_per_value,
            stats.states,
            verdict_str
        );
        (
            stats.states,
            matches!(verdict, vermem_coherence::Verdict::Unknown),
        )
    };

    // Satisfiable family: the search completes; states grow with m.
    let mut wall: Option<u32> = None;
    for m in [3u32, 4, 5, 6] {
        let f = vermem_sat::random::gen_forced_sat(&RandomSatConfig::three_sat(
            m,
            1.0,
            31 * u64::from(m),
        ));
        let (states, capped) = solve_row("SAT", m, &f);
        if capped {
            wall.get_or_insert(m);
        } else {
            points.push((f64::from(m), states as f64));
        }
    }
    // One over-constrained instance: the exponential wall.
    let f = gen_random_ksat(&RandomSatConfig::three_sat(3, 5.0, 93));
    let _ = solve_row("overcons", 3, &f);

    if points.len() >= 2 {
        println!(
            "mean states growth per +1 variable below the wall: ×{:.2}",
            mean_growth_ratio(&points)
        );
    }
    if let Some(m) = wall {
        println!(
            "search exceeded the {CAP}-state cap from m = {m}: the exponential wall \
             of an NP-complete cell"
        );
    }
}

// ---------------------------------------------------------------------------
// E-5.3: the headline complexity table with measured exponents.
// ---------------------------------------------------------------------------
fn e5_3_table() {
    header("E-5.3  Figure 5.3: complexity summary with measured growth exponents");
    println!(
        "{:<34} {:>14} {:>14} {:>10}",
        "case", "paper bound", "ours", "slope"
    );
    let sizes = [400usize, 800, 1600, 3200, 6400];

    // Row: 1 op/process, simple — paper O(n lg n), ours O(n).
    let slope = sweep(
        &sizes,
        |n| one_op_instance(n, false),
        |t| {
            assert!(one_op::solve_one_op(t, Addr::ZERO).is_coherent());
        },
    );
    row("1 op/process (simple R/W)", "O(n lg n)", "O(n)", slope);

    // Row: 1 op/process, RMW — paper O(n^2), ours O(n) (Eulerian path).
    let slope = sweep(
        &sizes,
        |n| one_op_instance(n, true),
        |t| {
            assert!(rmw::solve_rmw_one_op(t, Addr::ZERO).is_coherent());
        },
    );
    row("1 op/process (RMW)", "O(n^2)", "O(n) Euler", slope);

    // Row: 1 write/value (read-map), simple — paper O(n), ours O(n).
    let slope = sweep(&sizes, readmap_instance, |t| {
        assert!(readmap::solve_readmap(t, Addr::ZERO).is_coherent());
    });
    row("1 write/value (simple)", "O(n)", "O(n)", slope);

    // Row: read-map with plain writes and RMWs mixed — the paper has
    // separate simple and RMW cells only; ours O(n) chain contraction.
    let slope = sweep(&sizes, mixed_readmap_instance, |t| {
        assert!(readmap::solve_readmap(t, Addr::ZERO).is_coherent());
    });
    row("1 write/value (mixed R/W + RMW)", "poly", "O(n)", slope);

    // Row: RMW read-map — paper O(n lg n), ours O(n) forced chain.
    let slope = sweep(&sizes, rmw_chain_instance, |t| {
        assert!(rmw::solve_rmw_readmap(t, Addr::ZERO).is_coherent());
    });
    row("1 write/value (RMW chain)", "O(n lg n)", "O(n)", slope);

    // Row: constant processes — paper O(n^k); memoized search, k = 3.
    let slope = sweep(
        &[200, 400, 800, 1600],
        |n| {
            gen_sc_trace(&GenConfig {
                procs: 3,
                total_ops: n,
                addrs: 1,
                value_reuse: 0.5,
                seed: n as u64,
                ..Default::default()
            })
            .0
        },
        |t| {
            assert!(solve_backtracking(t, Addr::ZERO, &SearchConfig::default()).is_coherent());
        },
    );
    row("constant processes (k=3)", "O(n^k)", "memoized DFS", slope);

    // Rows: write order given — paper O(n^2) simple / O(n) all-RMW. The
    // instance (trace + order) is prebuilt so only the solve is timed.
    for (label, claim, all_rmw) in [
        ("write-order given (simple)", "O(n^2)", false),
        ("write-order given (RMW)", "O(n)", true),
    ] {
        let mut points = Vec::new();
        for &n in &sizes {
            let (trace, order) = write_order_instance(n, all_rmw);
            let secs = median_secs(5, || {
                assert!(solve_with_write_order(&trace, Addr::ZERO, &order).is_coherent());
            });
            points.push((n as f64, secs));
        }
        row(label, claim, claim, loglog_slope(&points));
    }

    println!(
        "\nNP-complete rows (3+ ops/process, 2+ writes/value; 2 RMWs/process,\n\
         3 writes/value) are demonstrated by the E-5.1/E-5.2 state blow-up;\n\
         the open cells of the paper (§7) have no algorithm to measure."
    );
}

fn row(case: &str, paper: &str, ours: &str, slope: f64) {
    println!("{case:<34} {paper:>14} {ours:>14} {slope:>10.2}");
}

fn sweep(
    sizes: &[usize],
    mut build: impl FnMut(usize) -> Trace,
    mut solve: impl FnMut(&Trace),
) -> f64 {
    let mut points = Vec::new();
    for &n in sizes {
        let trace = build(n);
        let secs = median_secs(5, || solve(&trace));
        points.push((n as f64, secs));
    }
    loglog_slope(&points)
}

/// n singleton processes: writes of ~n/2 distinct values (each twice, so the
/// read-map row does not apply), plus reads of those values / the initial
/// value. All-RMW variant builds an Eulerian cycle of RMWs.
fn one_op_instance(n: usize, all_rmw: bool) -> Trace {
    use vermem_trace::{Op, ProcessHistory};
    let mut histories = Vec::with_capacity(n);
    if all_rmw {
        // n single-RMW processes forming one long cycle 0→1→…→0 so an
        // Eulerian path exists from d_I = 0.
        for i in 0..n {
            let next = if i + 1 == n { 0 } else { i as u64 + 1 };
            histories.push(ProcessHistory::from_ops([Op::rw(i as u64, next)]));
        }
    } else {
        // Write/read pairs share a value; each value is written ~twice.
        let vals = (n / 4).max(1);
        for i in 0..n {
            let v = 1 + ((i / 2) % vals) as u64;
            histories.push(ProcessHistory::from_ops([if i % 2 == 0 {
                Op::w(v)
            } else {
                Op::r(v)
            }]));
        }
    }
    Trace::from_histories(histories)
}

/// A unique-write chain across 4 processes: W(1..n) round-robin with reads
/// of the previous value inserted after each write.
fn readmap_instance(n: usize) -> Trace {
    use vermem_trace::{Op, ProcessHistory};
    let procs = 4;
    let mut hists = vec![Vec::new(); procs];
    for i in 0..n / 2 {
        let v = i as u64 + 1;
        hists[i % procs].push(Op::w(v));
        hists[(i + 1) % procs].push(Op::r(v));
    }
    Trace::from_histories(hists.into_iter().map(ProcessHistory::from_ops))
}

/// A unique-value run mixing plain writes and RMWs across 4 processes:
/// every third write is plain and starts a chain that the next two RMWs
/// extend, and another process reads each value right after it is written.
fn mixed_readmap_instance(n: usize) -> Trace {
    use vermem_trace::{Op, ProcessHistory};
    let procs = 4;
    let mut hists = vec![Vec::new(); procs];
    for i in 0..n / 2 {
        let v = i as u64 + 1;
        let op = if i % 3 == 0 {
            Op::w(v)
        } else {
            Op::rw(v - 1, v)
        };
        hists[i % procs].push(op);
        hists[(i + 1) % procs].push(Op::r(v));
    }
    Trace::from_histories(hists.into_iter().map(ProcessHistory::from_ops))
}

/// A forced RMW chain 0→1→…→n split round-robin over 4 processes in
/// program order.
fn rmw_chain_instance(n: usize) -> Trace {
    use vermem_trace::{Op, ProcessHistory};
    let procs = 4;
    let mut hists = vec![Vec::new(); procs];
    for i in 0..n {
        hists[i % procs].push(Op::rw(i as u64, i as u64 + 1));
    }
    Trace::from_histories(hists.into_iter().map(ProcessHistory::from_ops))
}

/// A generated coherent trace plus its committed write order.
fn write_order_instance(n: usize, all_rmw: bool) -> (Trace, Vec<OpRef>) {
    let cfg = if all_rmw {
        GenConfig::all_rmw(4, n, n as u64)
    } else {
        GenConfig {
            procs: 4,
            total_ops: n,
            value_reuse: 0.5,
            seed: n as u64,
            ..Default::default()
        }
    };
    let (trace, witness) = gen_sc_trace(&cfg);
    let order: Vec<OpRef> = witness
        .refs()
        .iter()
        .copied()
        .filter(|&r| trace.op(r).unwrap().is_writing())
        .collect();
    (trace, order)
}

// ---------------------------------------------------------------------------
// E-6.1: the LRC-synchronized reduction (Figure 6.1).
// ---------------------------------------------------------------------------
fn e6_1_lrc() {
    header("E-6.1  Figure 6.1: LRC-synchronized SAT → VMC");
    println!(
        "{:>4} {:>10} {:>10} {:>10} {:>8}",
        "m", "sync ops", "SAT", "LRC ok", "agree"
    );
    for m in [3u32, 4, 5] {
        let f = gen_random_ksat(&RandomSatConfig::three_sat(m, 4.0, 11 * u64::from(m)));
        let sat = solve_cdcl(&f).is_sat();
        let red = reduce_sat_to_lrc(&f);
        let verdict = vermem_consistency::lrc::verify_lrc_fully_synchronized(
            &red.sync_trace,
            vermem_reductions::lrc::LOCK,
        )
        .expect("fully synchronized by construction");
        let ops: usize = red
            .sync_trace
            .histories()
            .iter()
            .map(|h| h.ops().len())
            .sum();
        println!(
            "{:>4} {:>10} {:>10} {:>10} {:>8}",
            m,
            ops,
            sat,
            verdict.is_coherent(),
            sat == verdict.is_coherent()
        );
    }
}

// ---------------------------------------------------------------------------
// E-6.2 / E-6.3: SAT → VSCC; the coherence promise holds by construction.
// ---------------------------------------------------------------------------
fn e6_2_vscc() {
    header("E-6.2/E-6.3  Figure 6.2: SAT → VSCC (coherence promise, Figure 6.3)");
    println!(
        "{:>4} {:>6} {:>6} {:>10} {:>10} {:>10} {:>8}",
        "m", "procs", "addrs", "coherent", "SAT", "SC", "agree"
    );
    for m in [3u32, 4, 5] {
        let f = gen_random_ksat(&RandomSatConfig::three_sat(m, 4.0, 13 * u64::from(m)));
        let sat = solve_cdcl(&f).is_sat();
        let red = reduce_sat_to_vscc(&f);
        let coherent = vermem_coherence::verify_execution(&red.trace).is_coherent();
        let sc = solve_sc_backtracking(&red.trace, &KernelConfig::default()).is_consistent();
        println!(
            "{:>4} {:>6} {:>6} {:>10} {:>10} {:>10} {:>8}",
            m,
            red.trace.num_procs(),
            red.trace.addresses().len(),
            coherent,
            sat,
            sc,
            sat == sc
        );
        assert!(
            coherent,
            "Figure 6.3: the promise must hold by construction"
        );
    }
}

// ---------------------------------------------------------------------------
// E-VSCC-HARD: coherence (polynomial per address) vs exact VSC time.
// ---------------------------------------------------------------------------
fn e_vscc_hardness() {
    header("E-VSCC  §6.3: verifying coherence is cheap; SC stays hard after it");
    println!(
        "{:>4} {:>8} {:>16} {:>16} {:>10}",
        "m", "ops", "coherence (µs)", "exact VSC (µs)", "merge?"
    );
    for m in [3u32, 4, 5] {
        let f = gen_random_ksat(&RandomSatConfig::three_sat(m, 4.5, 17 * u64::from(m)));
        let red = reduce_sat_to_vscc(&f);
        let t0 = Instant::now();
        let verdict = vermem_coherence::verify_execution(&red.trace);
        let coh_us = t0.elapsed().as_secs_f64() * 1e6;
        let vermem_coherence::ExecutionVerdict::Coherent(schedules) = verdict else {
            panic!("promise holds by construction");
        };
        let merged = matches!(
            merge_coherent_schedules(&red.trace, &schedules),
            MergeOutcome::Merged(_)
        );
        let t1 = Instant::now();
        let _ = solve_sc_backtracking(&red.trace, &KernelConfig::default());
        let vsc_us = t1.elapsed().as_secs_f64() * 1e6;
        println!(
            "{m:>4} {:>8} {coh_us:>16.1} {vsc_us:>16.1} {merged:>10}",
            red.trace.num_ops()
        );
    }
}

// ---------------------------------------------------------------------------
// E-OPEN: empirical reconnaissance of the §7 open cells.
// ---------------------------------------------------------------------------
fn e_open_problems() {
    use vermem_coherence::open_problems::{probe_open_cell, OpenCell};
    header("E-OPEN  §7 open problems: exact-search difficulty on random instances");
    println!(
        "{:<28} {:>6} {:>8} {:>12} {:>10} {:>10}",
        "cell", "procs", "samples", "max states", "coherent", "incoherent"
    );
    for procs in [4usize, 8, 12, 16] {
        let (ms, c, i) = probe_open_cell(OpenCell::TwoSimpleOpsPerProc, procs, 30, 11);
        println!(
            "{:<28} {procs:>6} {:>8} {ms:>12} {c:>10} {i:>10}",
            "2 simple ops/process", 30
        );
    }
    for procs in [4usize, 8, 16, 32] {
        let (ms, c, i) = probe_open_cell(OpenCell::RmwTwoWritesPerValue, procs, 30, 13);
        println!(
            "{:<28} {procs:>6} {:>8} {ms:>12} {c:>10} {i:>10}",
            "RMW, ≤2 writes/value", 30
        );
    }
    println!(
        "interpretation: rapid state growth in a cell is evidence (not proof)\n\
         toward hardness; sustained mildness hints at tractability (§7). In our\n\
         probes the 2-simple-ops cell blows up quickly under naive search while\n\
         the RMW ≤2-writes cell stays mild."
    );
}

// ---------------------------------------------------------------------------
// E-ONLINE: the streaming checker — throughput and detection latency.
// ---------------------------------------------------------------------------
fn e_online_checker() {
    header("E-ONLINE  streaming verification: throughput and detection latency");
    println!("{:>8} {:>14} {:>16}", "events", "verify (µs)", "events/µs");
    for &instrs in &[1_000usize, 4_000, 16_000, 64_000] {
        let program = random_program(&WorkloadConfig {
            cpus: 4,
            instrs_per_cpu: instrs / 4,
            addrs: 4,
            write_fraction: 0.45,
            rmw_fraction: 0.1,
            seed: instrs as u64,
        });
        let cap = Machine::run(
            &program,
            MachineConfig {
                seed: 3,
                ..Default::default()
            },
        );
        let t = Instant::now();
        let mut v = vermem_coherence::OnlineVerifier::new();
        for &(proc, op) in &cap.event_log {
            v.observe(proc, op);
        }
        assert!(v.finish().is_empty(), "healthy run must be clean");
        let us = t.elapsed().as_secs_f64() * 1e6;
        println!(
            "{:>8} {:>14.1} {:>16.2}",
            cap.event_log.len(),
            us,
            cap.event_log.len() as f64 / us
        );
    }

    // Detection latency distribution on faulty counter runs.
    let mut latencies: Vec<u64> = Vec::new();
    for seed in 0..60 {
        let cap = Machine::run(
            &shared_counter(4, 10),
            MachineConfig {
                seed,
                faults: vec![FaultPlan {
                    kind: FaultKind::DropInvalidation { victim_cpu: 1 },
                    at_step: 10,
                }],
                ..Default::default()
            },
        );
        let mut v = vermem_coherence::OnlineVerifier::new();
        for &(proc, op) in &cap.event_log {
            v.observe(proc, op);
        }
        for viol in v.finish() {
            latencies.push(viol.detected_at - viol.issued_at);
        }
    }
    if latencies.is_empty() {
        println!("no faulty run produced a detection (all masked)");
    } else {
        latencies.sort_unstable();
        println!(
            "detection latency over {} violations: median {} events, p90 {} events, max {}",
            latencies.len(),
            latencies[latencies.len() / 2],
            latencies[latencies.len() * 9 / 10],
            latencies.last().unwrap()
        );
    }
}

// ---------------------------------------------------------------------------
// E-PAR: the parallel per-address engine (thread ladder), with optional
// machine-readable receipts (BENCH_vmc.json).
// ---------------------------------------------------------------------------
struct ParPoint {
    jobs: usize,
    secs: f64,
    ops_per_sec: f64,
    speedup: f64,
}

struct ParCase {
    name: String,
    ops: usize,
    addrs: usize,
    points: Vec<ParPoint>,
}

/// One row of the E-PRUNE inference-layer ablation: a blow-up instance
/// solved under one [`PruneConfig`], with every prune counter recorded.
struct PruneRow {
    case: String,
    config: &'static str,
    secs: f64,
    states: u64,
    memo_hits: u64,
    memo_misses: u64,
    window_prunes: u64,
    symmetry_prunes: u64,
    nogood_hits: u64,
    nogoods_learned: u64,
    verdict: &'static str,
}

/// One row of E-KERNEL: an operational consistency machine (SC / TSO /
/// PSO) on the shared exact-search kernel, timed, with its key-allocation
/// count recorded.
struct ModelKernelRow {
    model: &'static str,
    case: String,
    secs: f64,
    states: u64,
    memo_misses: u64,
    key_allocs: u64,
    verdict: &'static str,
}

/// Enabled-vs-disabled cost of the observability layer on a state-capped
/// E-5.2 blow-up instance (every state records into the depth histogram
/// when enabled, so this is the worst case for the hot path).
struct ObsOverhead {
    case: &'static str,
    median_secs_disabled: f64,
    median_secs_enabled: f64,
    enabled_overhead_pct: f64,
}

/// One row of the E-TIER ablation: a trace family verified under one tier
/// pipeline (`closure,exact` vs `exact`), with per-tier address accounting
/// and verdict counts. Verdicts are bit-identical across pipelines by
/// construction (asserted); only the accounting and wall time may differ.
struct TierRow {
    family: &'static str,
    tier: &'static str,
    traces: usize,
    addresses: u64,
    frontline_decided: u64,
    escalated: u64,
    median_secs: f64,
    coherent: usize,
    incoherent: usize,
    unknown: usize,
}

fn e_par_scaling(write_json: bool) {
    header("E-PAR  parallel per-address verification: thread ladder + search receipts");
    let fast = std::env::var("VERMEM_BENCH_FAST").is_ok();
    let reps = if fast { 3 } else { 7 };
    let host = vermem_util::pool::available_jobs();
    println!("host parallelism: {host} (ladder rungs above it measure overhead, not speedup)");

    let verifier = VmcVerifier::new();
    let mut cases = Vec::new();
    let sizes: &[(usize, usize)] = if fast {
        &[(512, 16)]
    } else {
        &[(2048, 16), (8192, 64), (32768, 64)]
    };
    for &(ops, addrs) in sizes {
        let t = gen_sc_trace(&GenConfig {
            procs: 4,
            total_ops: ops,
            addrs,
            value_reuse: 0.5,
            seed: (ops ^ addrs) as u64,
            ..Default::default()
        })
        .0;
        cases.push(par_case(
            format!("sc-4p-{ops}ops-{addrs}addrs"),
            &t,
            &verifier,
            reps,
        ));
    }
    let instrs = if fast { 512 } else { 4096 };
    let program = random_program(&WorkloadConfig {
        cpus: 4,
        instrs_per_cpu: instrs / 4,
        addrs: 16,
        write_fraction: 0.45,
        rmw_fraction: 0.1,
        seed: instrs as u64,
    });
    let cap = Machine::run(&program, MachineConfig::default());
    cases.push(par_case(
        format!("sim-4cpu-{instrs}instrs"),
        &cap.trace,
        &verifier,
        reps,
    ));

    println!(
        "{:>26} {:>8} {:>6} {:>5} {:>12} {:>12} {:>9}",
        "case", "ops", "addrs", "jobs", "median (ms)", "ops/s", "speedup"
    );
    for c in &cases {
        for p in &c.points {
            println!(
                "{:>26} {:>8} {:>6} {:>5} {:>12.3} {:>12.0} {:>8.2}x",
                c.name,
                c.ops,
                c.addrs,
                p.jobs,
                p.secs * 1e3,
                p.ops_per_sec,
                p.speedup
            );
        }
    }

    let prune = prune_ablation(reps, fast);
    println!("\nE-PRUNE inference-layer ablation (single thread, same instances):");
    print_prune_table(&prune);

    let model_kernel = model_kernel_bench(reps, fast);
    println!("\nE-KERNEL operational machines on the shared kernel:");
    print_model_kernel_table(&model_kernel);

    let tier = tier_ablation(reps, fast);
    println!("\nE-TIER tiered verification (closure frontline vs exact-only):");
    print_tier_table(&tier);

    let (axiom, ra_probe) = axiom_ablation(reps, fast);
    println!("\nE-AXIOM declared models (operational compiler vs SAT vs legacy):");
    print_axiom_table(&axiom, &ra_probe);

    let (estream, bounded) = estream_bench(reps, fast);
    println!("\nE-STREAM sharded bounded-memory streaming engine:");
    print_estream_table(&estream, &bounded);

    let obs = obs_overhead_probe(reps, fast);
    println!(
        "\nobservability overhead ({}): disabled {:.3} ms, enabled {:.3} ms ({:+.2}%)",
        obs.case,
        obs.median_secs_disabled * 1e3,
        obs.median_secs_enabled * 1e3,
        obs.enabled_overhead_pct
    );

    let live_obs = live_obs_probe(reps, fast);
    println!(
        "live telemetry overhead ({} streams, {} events): off {:.3} ms, \
         on {:.3} ms ({:+.2}%), {} forensic bundle(s)",
        live_obs.streams,
        live_obs.events,
        live_obs.median_secs_off * 1e3,
        live_obs.median_secs_on * 1e3,
        live_obs.enabled_overhead_pct,
        live_obs.forensic_bundles
    );

    if write_json {
        let path = "BENCH_vmc.json";
        std::fs::write(
            path,
            bench_json(
                host,
                &cases,
                &prune,
                &model_kernel,
                &tier,
                &axiom,
                &ra_probe,
                &estream,
                &bounded,
                &obs,
                &live_obs,
            ),
        )
        .expect("write BENCH_vmc.json");
        println!("\nwrote {path}");
    }
}

/// E-KERNEL: the VSC / TSO / PSO operational machines all run on the shared
/// exact-search kernel; this times each on contended generated workloads and
/// records its key allocations. Memoization is integral to the kernel, so
/// every state is a memo miss; no probe allocates, so a search allocates at
/// most one key per state, and none when every key fits two words.
fn model_kernel_bench(reps: usize, fast: bool) -> Vec<ModelKernelRow> {
    let ops = if fast { 16 } else { 48 };
    let instances: [(String, Trace); 2] = [
        (
            // Multi-address workload: memo keys exceed two words, so the
            // kernel tier interns them (one allocation per *fresh* state).
            format!("gen-3p-{ops}ops-2addrs"),
            gen_sc_trace(&GenConfig {
                procs: 3,
                total_ops: ops,
                addrs: 2,
                value_reuse: 0.6,
                seed: 4242,
                ..Default::default()
            })
            .0,
        ),
        (
            // Single-address workload: SC keys fit two words and the fast
            // memo tier allocates nothing at all.
            format!("gen-3p-{ops}ops-1addr"),
            gen_sc_trace(&GenConfig {
                procs: 3,
                total_ops: ops,
                addrs: 1,
                value_reuse: 0.7,
                seed: 99,
                ..Default::default()
            })
            .0,
        ),
    ];
    let cfg = KernelConfig::default();
    let models: [MemoryModel; 3] = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];
    let mut rows = Vec::new();
    for (case, trace) in &instances {
        for model in models {
            // One instrumented run for stats + the key-alloc counter
            // (delta of the global obs counter around the run).
            let was = vermem_util::obs::enabled();
            vermem_util::obs::set_enabled(true);
            let allocs_before = key_alloc_counter();
            let (verdict, stats) = verify_model_operational(trace, model, &cfg);
            let key_allocs = key_alloc_counter() - allocs_before;
            vermem_util::obs::set_enabled(was);
            if !was {
                vermem_util::obs::reset();
            }
            let verdict_str = if verdict.is_consistent() {
                "consistent"
            } else if verdict.is_violating() {
                "violating"
            } else {
                "unknown"
            };
            assert_eq!(
                stats.memo_misses, stats.states,
                "{case}/{model}: every kernel state is a memo miss"
            );
            assert!(
                key_allocs <= stats.states,
                "{case}/{model}: more key allocations than states ({key_allocs} > {})",
                stats.states
            );
            let secs = median_secs(reps, || {
                let _ = verify_model_operational(trace, model, &cfg);
            })
            .max(1e-12);
            rows.push(ModelKernelRow {
                model: model.name(),
                case: case.clone(),
                secs,
                states: stats.states,
                memo_misses: stats.memo_misses,
                key_allocs,
                verdict: verdict_str,
            });
        }
    }
    rows
}

/// Read the cumulative `kernel.memo.key_allocs` counter from the global
/// observability registry (0 if never recorded).
fn key_alloc_counter() -> u64 {
    vermem_util::obs::snapshot()
        .counters
        .get("kernel.memo.key_allocs")
        .copied()
        .unwrap_or(0)
}

fn print_model_kernel_table(rows: &[ModelKernelRow]) {
    println!(
        "{:>22} {:>6} {:>12} {:>9} {:>9} {:>10} {:>11}",
        "case", "model", "median (ms)", "states", "misses", "key allocs", "verdict"
    );
    for r in rows {
        println!(
            "{:>22} {:>6} {:>12.3} {:>9} {:>9} {:>10} {:>11}",
            r.case,
            r.model,
            r.secs * 1e3,
            r.states,
            r.memo_misses,
            r.key_allocs,
            r.verdict
        );
    }
}

/// Console-only entry for E-KERNEL (`experiments ekernel`); the `--json`
/// receipt run includes the same rows in BENCH_vmc.json.
fn e_kernel() {
    header("E-KERNEL  one exact-search kernel: SC/TSO/PSO");
    let fast = std::env::var("VERMEM_BENCH_FAST").is_ok();
    let reps = if fast { 3 } else { 7 };
    let rows = model_kernel_bench(reps, fast);
    print_model_kernel_table(&rows);
}

/// The E-TIER trace families: realistic protocol captures (healthy and
/// fault-injected MESI runs), SC-generated traces, and the litmus corpus.
/// The healthy-sim family uses the same workload shape as the
/// `tier_differential` suite, so the committed receipt and the test gate
/// measure the same population.
fn tier_families(fast: bool) -> Vec<(&'static str, Vec<Trace>)> {
    let healthy_seeds = if fast { 4 } else { 16 };
    let fault_seeds = if fast { 2 } else { 5 };
    let gen_seeds = if fast { 2 } else { 6 };
    let healthy: Vec<Trace> = (0..healthy_seeds)
        .map(|seed| {
            Machine::run(
                &random_program(&WorkloadConfig {
                    cpus: 4,
                    instrs_per_cpu: 30,
                    addrs: 4,
                    write_fraction: 0.45,
                    rmw_fraction: 0.1,
                    seed,
                }),
                MachineConfig {
                    seed,
                    ..Default::default()
                },
            )
            .trace
        })
        .collect();
    let generated: Vec<Trace> = (0..gen_seeds)
        .map(|seed| {
            gen_sc_trace(&GenConfig {
                procs: 4,
                total_ops: 240,
                addrs: 6,
                value_reuse: 0.5,
                seed,
                ..Default::default()
            })
            .0
        })
        .collect();
    let litmus: Vec<Trace> = vermem_consistency::litmus::all_litmus_tests()
        .into_iter()
        .map(|t| t.trace)
        .collect();
    let kinds = [
        FaultKind::CorruptFill {
            cpu: 1,
            xor: 0xDEAD_0000,
        },
        FaultKind::LostWrite { cpu: 0 },
        FaultKind::StaleFill { cpu: 1 },
        FaultKind::DropInvalidation { victim_cpu: 2 },
    ];
    let faulty: Vec<Trace> = kinds
        .into_iter()
        .flat_map(|kind| {
            (0..fault_seeds).map(move |seed| {
                Machine::run(
                    &random_program(&WorkloadConfig {
                        cpus: 4,
                        instrs_per_cpu: 25,
                        addrs: 4,
                        write_fraction: 0.5,
                        rmw_fraction: 0.0,
                        seed: 700 + seed,
                    }),
                    MachineConfig {
                        seed,
                        faults: vec![FaultPlan { kind, at_step: 8 }],
                        ..Default::default()
                    },
                )
                .trace
            })
        })
        .collect();
    vec![
        ("healthy-sim", healthy),
        ("generated", generated),
        ("litmus", litmus),
        ("fault-injected", faulty),
    ]
}

/// E-TIER: the tiered-verification ablation. Each family is verified under
/// the default `closure,exact` pipeline and the `exact`-only ablation;
/// verdicts must match bit-for-bit (asserted — the differential suite
/// proves the same at every thread count), while the accounting shows how
/// many addresses the polynomial frontline decided without escalation.
fn tier_ablation(reps: usize, fast: bool) -> Vec<TierRow> {
    let families = tier_families(fast);
    let configs: [(&'static str, TierConfig); 2] = [
        ("closure,exact", TierConfig::tiered()),
        ("exact", TierConfig::exact_only()),
    ];
    let mut rows = Vec::new();
    for (family, traces) in &families {
        let mut per_config_verdicts: Vec<Vec<bool>> = Vec::new();
        for (spec, tier) in configs {
            let verifier = VmcVerifier {
                tier,
                ..VmcVerifier::new()
            };
            let mut tiers = TierStats::default();
            let mut coherent = 0;
            let mut incoherent = 0;
            let mut unknown = 0;
            let mut verdicts = Vec::with_capacity(traces.len());
            for t in traces {
                let report = verify_execution_par(t, &verifier, 1);
                tiers.absorb(&report.tiers);
                match &report.verdict {
                    vermem_coherence::ExecutionVerdict::Coherent(_) => coherent += 1,
                    vermem_coherence::ExecutionVerdict::Incoherent(_) => incoherent += 1,
                    vermem_coherence::ExecutionVerdict::Unknown { .. } => unknown += 1,
                }
                verdicts.push(report.is_coherent());
            }
            per_config_verdicts.push(verdicts);
            let median_secs = median_secs(reps, || {
                for t in traces {
                    let _ = verify_execution_par(t, &verifier, 1);
                }
            })
            .max(1e-12);
            rows.push(TierRow {
                family,
                tier: spec,
                traces: traces.len(),
                addresses: tiers.total(),
                frontline_decided: tiers.frontline_decided,
                escalated: tiers.escalated,
                median_secs,
                coherent,
                incoherent,
                unknown,
            });
        }
        assert!(
            per_config_verdicts.windows(2).all(|w| w[0] == w[1]),
            "{family}: tier pipelines must agree on every verdict"
        );
    }
    rows
}

fn print_tier_table(rows: &[TierRow]) {
    println!(
        "{:>15} {:>14} {:>7} {:>6} {:>10} {:>10} {:>12} {:>5} {:>5} {:>5}",
        "family",
        "tier",
        "traces",
        "addrs",
        "frontline",
        "escalated",
        "median (ms)",
        "coh",
        "inc",
        "unk"
    );
    for r in rows {
        println!(
            "{:>15} {:>14} {:>7} {:>6} {:>10} {:>10} {:>12.3} {:>5} {:>5} {:>5}",
            r.family,
            r.tier,
            r.traces,
            r.addresses,
            r.frontline_decided,
            r.escalated,
            r.median_secs * 1e3,
            r.coherent,
            r.incoherent,
            r.unknown
        );
    }
    // Headline: the frontline share of the realistic healthy family.
    if let Some(r) = rows
        .iter()
        .find(|r| r.family == "healthy-sim" && r.tier == "closure,exact")
    {
        let pct = 100.0 * r.frontline_decided as f64 / (r.addresses.max(1)) as f64;
        println!(
            "healthy-sim: frontline decided {}/{} addresses ({pct:.1}%) without escalation",
            r.frontline_decided, r.addresses
        );
    }
}

/// Console-only entry for the E-TIER ablation (`experiments etier`); the
/// `--json` receipt run includes the same rows in BENCH_vmc.json.
fn e_tier() {
    header("E-TIER  tiered verification: closure frontline vs exact-only");
    let fast = std::env::var("VERMEM_BENCH_FAST").is_ok();
    let reps = if fast { 3 } else { 7 };
    let rows = tier_ablation(reps, fast);
    print_tier_table(&rows);
}

/// One row of the E-AXIOM ablation: one declared model (`ModelSpec`) run
/// through one of its engines over one trace family, with verdict-class
/// counts. Parity is asserted in-harness: every engine must match the SAT
/// oracle on consistency, and the compiled engine must be bit-identical
/// (verdict value *and* `SearchStats`) to the verbatim legacy machines for
/// the three machine-backed base models.
struct AxiomRow {
    model: &'static str,
    engine: &'static str,
    family: &'static str,
    traces: usize,
    median_secs: f64,
    consistent: usize,
    violating: usize,
    unknown: usize,
}

/// The RA polynomial-tier decision-rate probe: healthy generated traces
/// with no value reuse (every read names a unique writer), the population
/// behind the verify.sh >= 90% decision-rate gate. The tier never decides
/// against the exact-only pipeline (asserted per trace).
struct RaFrontlineProbe {
    traces: usize,
    frontline_decided: usize,
    decision_rate: f64,
}

/// The E-AXIOM trace families: the litmus corpus, healthy SC-generated
/// workloads, and fault-injected mutations of the latter (the violating
/// side of the differential).
fn axiom_families(fast: bool) -> Vec<(&'static str, Vec<Trace>)> {
    let litmus: Vec<Trace> = vermem_consistency::litmus::all_litmus_tests()
        .into_iter()
        .map(|t| t.trace)
        .collect();
    let gen_seeds = if fast { 2 } else { 5 };
    let generated: Vec<Trace> = (0..gen_seeds)
        .map(|seed| {
            gen_sc_trace(&GenConfig {
                procs: 3,
                total_ops: 12,
                addrs: 2,
                value_reuse: 0.5,
                seed: 70_000 + seed,
                ..Default::default()
            })
            .0
        })
        .collect();
    let kinds = [
        ViolationKind::CorruptReadValue,
        ViolationKind::StaleRead,
        ViolationKind::LostWrite,
        ViolationKind::ReorderAdjacent,
    ];
    let fault_seeds = if fast { 1 } else { 2 };
    let faulty: Vec<Trace> = kinds
        .into_iter()
        .flat_map(|kind| {
            (0..fault_seeds).filter_map(move |seed| {
                let (t, _) = gen_sc_trace(&GenConfig {
                    procs: 3,
                    total_ops: 12,
                    addrs: 2,
                    value_reuse: 0.6,
                    seed: 71_000 + seed,
                    ..Default::default()
                });
                inject_violation(&t, kind, 72_000 + seed).map(|(bad, _)| bad)
            })
        })
        .collect();
    vec![
        ("litmus", litmus),
        ("generated", generated),
        ("fault-injected", faulty),
    ]
}

/// E-AXIOM: every declared model through each engine that supports it,
/// timed per (family, model, engine), with the compiled/SAT/legacy parity
/// contract re-asserted on every trace the rows are built from.
fn axiom_ablation(reps: usize, fast: bool) -> (Vec<AxiomRow>, RaFrontlineProbe) {
    let families = axiom_families(fast);
    let mut rows = Vec::new();
    for (family, traces) in &families {
        for id in ModelId::ALL {
            // SAT-oracle consistency bits, computed once per (family, model).
            let oracle: Vec<bool> = traces
                .iter()
                .map(|t| {
                    verify_axiom(
                        t,
                        id,
                        &AxiomConfig {
                            engine: Engine::Sat,
                            ..AxiomConfig::default()
                        },
                    )
                    .verdict
                    .is_consistent()
                })
                .collect();
            for engine in [Engine::Compiled, Engine::Legacy, Engine::Sat] {
                if !engine.supports(id) {
                    continue;
                }
                let cfg = AxiomConfig {
                    engine,
                    ..AxiomConfig::default()
                };
                let (mut consistent, mut violating, mut unknown) = (0usize, 0usize, 0usize);
                for (t, &sat_ok) in traces.iter().zip(&oracle) {
                    let report = verify_axiom(t, id, &cfg);
                    if report.verdict.is_consistent() {
                        consistent += 1;
                    } else if report.verdict.is_violating() {
                        violating += 1;
                    } else {
                        unknown += 1;
                    }
                    assert_eq!(
                        report.verdict.is_consistent(),
                        sat_ok,
                        "E-AXIOM: {} via {} drifts from the SAT oracle ({family})",
                        id.name(),
                        engine.name()
                    );
                    // Bit-identity vs the verbatim legacy machines (the
                    // CoherenceOnly legacy dispatch is itself the SAT
                    // oracle, so only the machine-backed models compare).
                    if engine == Engine::Legacy
                        && matches!(id, ModelId::Sc | ModelId::Tso | ModelId::Pso)
                    {
                        let compiled = verify_axiom(t, id, &AxiomConfig::default());
                        assert_eq!(
                            compiled.verdict,
                            report.verdict,
                            "E-AXIOM: {} compiled/legacy verdict drift ({family})",
                            id.name()
                        );
                        assert_eq!(
                            compiled.stats,
                            report.stats,
                            "E-AXIOM: {} compiled/legacy stats drift ({family})",
                            id.name()
                        );
                    }
                }
                let secs = median_secs(reps, || {
                    for t in traces.iter() {
                        let _ = verify_axiom(t, id, &cfg);
                    }
                })
                .max(1e-12);
                rows.push(AxiomRow {
                    model: id.name(),
                    engine: engine.name(),
                    family,
                    traces: traces.len(),
                    median_secs: secs,
                    consistent,
                    violating,
                    unknown,
                });
            }
        }
    }
    let probe_traces = if fast { 8 } else { 24 };
    let mut decided = 0usize;
    for seed in 0..probe_traces as u64 {
        let (t, _) = gen_sc_trace(&GenConfig {
            procs: 3,
            total_ops: 16,
            addrs: 3,
            value_reuse: 0.0,
            seed: 73_000 + seed,
            ..Default::default()
        });
        let tiered = verify_axiom(&t, ModelId::Ra, &AxiomConfig::default());
        let exact = verify_axiom(
            &t,
            ModelId::Ra,
            &AxiomConfig {
                tier: TierConfig::exact_only(),
                ..AxiomConfig::default()
            },
        );
        assert_eq!(
            tiered.verdict.is_consistent(),
            exact.verdict.is_consistent(),
            "E-AXIOM: RA frontline masked the exact verdict (seed {seed})"
        );
        if matches!(tiered.tier, vermem_coherence::closure::Tier::Frontline) {
            decided += 1;
        }
    }
    let probe = RaFrontlineProbe {
        traces: probe_traces,
        frontline_decided: decided,
        decision_rate: decided as f64 / probe_traces as f64,
    };
    (rows, probe)
}

fn print_axiom_table(rows: &[AxiomRow], probe: &RaFrontlineProbe) {
    println!(
        "{:>15} {:>9} {:>9} {:>7} {:>12} {:>11} {:>10} {:>8}",
        "family", "model", "engine", "traces", "median (ms)", "consistent", "violating", "unknown"
    );
    for r in rows {
        println!(
            "{:>15} {:>9} {:>9} {:>7} {:>12.3} {:>11} {:>10} {:>8}",
            r.family,
            r.model,
            r.engine,
            r.traces,
            r.median_secs * 1e3,
            r.consistent,
            r.violating,
            r.unknown
        );
    }
    println!(
        "RA frontline decided {}/{} healthy unique-value traces ({:.0}%)",
        probe.frontline_decided,
        probe.traces,
        probe.decision_rate * 100.0
    );
}

/// Console-only entry for the E-AXIOM ablation (`experiments eaxiom`);
/// the `--json` receipt run includes the same rows in BENCH_vmc.json.
fn e_axiom() {
    header("E-AXIOM  declared models: operational compiler vs SAT vs legacy machines");
    let fast = std::env::var("VERMEM_BENCH_FAST").is_ok();
    let reps = if fast { 3 } else { 7 };
    let (rows, probe) = axiom_ablation(reps, fast);
    print_axiom_table(&rows, &probe);
}

/// One row of the E-STREAM receipt: the sharded bounded-memory streaming
/// engine (`coherence::stream`) over N concurrent v3 event streams (half
/// healthy, half fault-injected so the p99 detection-latency receipt has a
/// data source), with batch verdict parity asserted per stream.
struct EstreamRow {
    streams: usize,
    window: usize,
    window_slack: usize,
    jobs: usize,
    events: u64,
    median_secs: f64,
    sustained_ops_per_sec: f64,
    detections: usize,
    /// `None` when the row saw no detections — serialized as JSON `null`
    /// (a 0 would read as "instant detection", which is a lie).
    p99_detect_latency_us: Option<u64>,
    peak_retained_windows: u64,
    incoherent: usize,
    verdict_parity: bool,
}

/// The bounded-memory demonstration: a periodic synthetic event stream at
/// R rounds and 10R rounds retains an **identical** peak number of
/// windows — memory is O(window × addresses), independent of length.
struct BoundedMemoryProbe {
    window: usize,
    events: u64,
    peak_retained_windows: u64,
    events_10x: u64,
    peak_retained_windows_10x: u64,
    /// Peaks with the flight recorder enabled: the forensic ring is
    /// counted into `peak_retained_windows`, so these are higher than the
    /// plain peaks but must be equally length-invariant.
    recorder_peak_retained_windows: u64,
    recorder_peak_retained_windows_10x: u64,
}

/// N sim captures for one E-STREAM row: odd-indexed streams carry a
/// corrupt-fill protocol fault (detections + incoherent verdicts), even
/// ones are healthy.
fn estream_captures(streams: usize, instrs_per_cpu: usize) -> Vec<vermem_sim::CapturedExecution> {
    (0..streams)
        .map(|i| {
            let seed = 40 + i as u64;
            let faults = if i % 2 == 1 {
                vec![FaultPlan {
                    kind: FaultKind::CorruptFill {
                        cpu: 1,
                        xor: 0xDEAD_0000,
                    },
                    at_step: 6,
                }]
            } else {
                Vec::new()
            };
            Machine::run(
                &random_program(&WorkloadConfig {
                    cpus: 4,
                    instrs_per_cpu,
                    addrs: 4,
                    write_fraction: 0.45,
                    rmw_fraction: 0.0,
                    seed,
                }),
                MachineConfig {
                    seed,
                    faults,
                    ..Default::default()
                },
            )
        })
        .collect()
}

/// A perfectly periodic 2-process v3 event stream (unique-value write/read
/// ping-pong over `addrs` addresses): after warm-up the retained state is
/// periodic, so the peak is exactly length-invariant.
fn periodic_stream(rounds: usize, addrs: u32) -> Vec<u8> {
    use std::collections::BTreeMap;
    use vermem_trace::{Op, ProcId, Value};
    let mut initials = BTreeMap::new();
    let mut finals = BTreeMap::new();
    let mut events = Vec::with_capacity(rounds * addrs as usize * 2);
    let mut v = 1u64;
    for _ in 0..rounds {
        for a in 0..addrs {
            events.push((ProcId(0), Op::write(a, v)));
            events.push((ProcId(1), Op::read(a, v)));
            finals.insert(Addr(a), Value(v));
            v += 1;
        }
    }
    for a in 0..addrs {
        initials.insert(Addr(a), Value(0));
    }
    vermem_trace::binary::encode_event_stream(2, &initials, &finals, &events)
}

/// E-STREAM: sustained streaming throughput + p99 detection latency at
/// 1/4/16 concurrent streams, with per-stream batch verdict parity
/// (asserted) and the peak-retained-windows receipt that `verify.sh`
/// gates against `streams × window_slack`.
fn estream_bench(reps: usize, fast: bool) -> (Vec<EstreamRow>, BoundedMemoryProbe) {
    const WINDOW: usize = 256;
    const SLACK: usize = 16;
    let instrs = if fast { 30 } else { 120 };
    let config = || vermem_coherence::StreamConfig {
        window: Some(WINDOW),
        jobs: 1,
        temporal: true,
        verifier: VmcVerifier::new(),
        recorder: None,
    };
    let mut rows = Vec::new();
    for streams in [1usize, 4, 16] {
        let caps = estream_captures(streams, instrs);
        let byte_streams: Vec<Vec<u8>> = caps
            .iter()
            .map(|c| vermem_sim::event_stream_bytes(c).expect("SC capture streams"))
            .collect();
        // One instrumented pass for the receipt fields + batch parity.
        let mut events = 0u64;
        let mut peak = 0u64;
        let mut detections = 0usize;
        let mut latencies: Vec<u64> = Vec::new();
        let mut incoherent = 0usize;
        let mut parity = true;
        for (cap, bytes) in caps.iter().zip(&byte_streams) {
            let report =
                vermem_coherence::verify_stream_bytes(bytes, config()).expect("stream decodes");
            let batch = verify_execution_par(&cap.trace, &VmcVerifier::new(), 1);
            parity &= report.verdict.matches_batch(&batch.verdict);
            events += report.events;
            peak += report.metrics.peak_retained_windows;
            detections += report.detections.len();
            latencies.extend_from_slice(&report.detect_latencies_us);
            if !report.is_coherent() {
                incoherent += 1;
            }
        }
        assert!(
            parity,
            "E-STREAM: streaming verdicts must be bit-identical to batch"
        );
        assert!(
            peak <= (streams * SLACK) as u64,
            "E-STREAM: peak retained windows {peak} exceeds {streams} × {SLACK}"
        );
        let secs = median_secs(reps, || {
            for bytes in &byte_streams {
                let report =
                    vermem_coherence::verify_stream_bytes(bytes, config()).expect("stream decodes");
                assert!(report.events > 0);
            }
        })
        .max(1e-12);
        rows.push(EstreamRow {
            streams,
            window: WINDOW,
            window_slack: SLACK,
            jobs: 1,
            events,
            median_secs: secs,
            sustained_ops_per_sec: events as f64 / secs,
            detections,
            p99_detect_latency_us: vermem_coherence::stream::percentile(&latencies, 99),
            peak_retained_windows: peak,
            incoherent,
            verdict_parity: parity,
        });
    }

    // Bounded memory: same periodic workload at R and 10R rounds must
    // retain an identical peak (asserted here, gated again by verify.sh).
    const PROBE_WINDOW: usize = 64;
    let rounds = if fast { 400 } else { 2_000 };
    let probe_run = |rounds: usize, recorder: Option<vermem_coherence::RecorderConfig>| {
        let bytes = periodic_stream(rounds, 3);
        let report = vermem_coherence::verify_stream_bytes(
            &bytes,
            vermem_coherence::StreamConfig {
                window: Some(PROBE_WINDOW),
                jobs: 1,
                temporal: true,
                verifier: VmcVerifier::new(),
                recorder,
            },
        )
        .expect("stream decodes");
        assert!(report.is_coherent(), "periodic stream is coherent");
        (report.events, report.metrics.peak_retained_windows)
    };
    let (events, peak) = probe_run(rounds, None);
    let (events_10x, peak_10x) = probe_run(rounds * 10, None);
    assert_eq!(
        peak, peak_10x,
        "peak retained windows must be independent of stream length"
    );
    // Same gate with the flight recorder on: its per-shard ring is charged
    // to peak_retained_windows and must stay length-invariant too.
    let recorder = || Some(vermem_coherence::RecorderConfig::default());
    let (_, rec_peak) = probe_run(rounds, recorder());
    let (_, rec_peak_10x) = probe_run(rounds * 10, recorder());
    assert_eq!(
        rec_peak, rec_peak_10x,
        "recorder-on peak retained windows must be independent of stream length"
    );
    (
        rows,
        BoundedMemoryProbe {
            window: PROBE_WINDOW,
            events,
            peak_retained_windows: peak,
            events_10x,
            peak_retained_windows_10x: peak_10x,
            recorder_peak_retained_windows: rec_peak,
            recorder_peak_retained_windows_10x: rec_peak_10x,
        },
    )
}

fn print_estream_table(rows: &[EstreamRow], probe: &BoundedMemoryProbe) {
    println!(
        "{:>8} {:>7} {:>8} {:>12} {:>12} {:>7} {:>9} {:>9} {:>4} {:>7}",
        "streams",
        "window",
        "events",
        "median (ms)",
        "ops/s",
        "det",
        "p99 (us)",
        "peak win",
        "inc",
        "parity"
    );
    for r in rows {
        println!(
            "{:>8} {:>7} {:>8} {:>12.3} {:>12.0} {:>7} {:>9} {:>9} {:>4} {:>7}",
            r.streams,
            r.window,
            r.events,
            r.median_secs * 1e3,
            r.sustained_ops_per_sec,
            r.detections,
            r.p99_detect_latency_us
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
            r.peak_retained_windows,
            r.incoherent,
            r.verdict_parity
        );
    }
    println!(
        "bounded memory (window {}): {} events peak {} windows; 10x length \
         ({} events) peak {} windows; recorder-on peaks {} / {}",
        probe.window,
        probe.events,
        probe.peak_retained_windows,
        probe.events_10x,
        probe.peak_retained_windows_10x,
        probe.recorder_peak_retained_windows,
        probe.recorder_peak_retained_windows_10x
    );
}

/// Console-only entry for the E-STREAM family (`experiments estream`); the
/// `--json` receipt run includes the same rows in BENCH_vmc.json.
fn e_stream() {
    header("E-STREAM  sharded bounded-memory streaming verification");
    let fast = std::env::var("VERMEM_BENCH_FAST").is_ok();
    let reps = if fast { 3 } else { 7 };
    let (rows, probe) = estream_bench(reps, fast);
    print_estream_table(&rows, &probe);
}

/// Measure the exact search on the E-5.2 over-constrained instance with the
/// observability layer off and on. The off run is the production default;
/// the delta is what `--metrics`/`--trace-out` cost. Restores the previous
/// enabled state (the probe may run inside a `--metrics` session).
fn obs_overhead_probe(reps: usize, fast: bool) -> ObsOverhead {
    let cap: u64 = if fast { 50_000 } else { 500_000 };
    // Pruning off so the probe keeps exercising the full capped state set
    // (the worst case for per-state obs cost), as in the PR-3 receipt.
    let cfg = SearchConfig {
        max_states: Some(cap),
        prune: PruneConfig::none(),
        ..Default::default()
    };
    let overcons = gen_random_ksat(&RandomSatConfig::three_sat(3, 5.0, 93));
    let trace = reduce_3sat_rmw(&overcons).trace;
    let was = vermem_util::obs::enabled();

    vermem_util::obs::set_enabled(false);
    let off = median_secs(reps, || {
        let _ = solve_backtracking(&trace, Addr::ZERO, &cfg);
    })
    .max(1e-12);

    vermem_util::obs::set_enabled(true);
    let on = median_secs(reps, || {
        let _ = solve_backtracking(&trace, Addr::ZERO, &cfg);
    })
    .max(1e-12);

    vermem_util::obs::set_enabled(was);
    if !was {
        // Not inside a `--metrics` session: drop what the probe recorded.
        vermem_util::obs::reset();
    }
    ObsOverhead {
        case: "e5.2-overcons-capped",
        median_secs_disabled: off,
        median_secs_enabled: on,
        enabled_overhead_pct: (on / off - 1.0) * 100.0,
    }
}

/// Live-telemetry cost on the streaming engine: the E-STREAM workload run
/// plain vs with the whole observability stack enabled — per-shard flight
/// recorder plus a rolling [`TimeSeries`] fed per stream — with verdict,
/// stats and tier identity asserted between the two runs.
struct LiveObsProbe {
    streams: usize,
    events: u64,
    forensic_bundles: usize,
    median_secs_off: f64,
    median_secs_on: f64,
    enabled_overhead_pct: f64,
}

use vermem_util::obs::timeseries::TimeSeries;

fn live_obs_probe(reps: usize, fast: bool) -> LiveObsProbe {
    let streams = 4usize;
    let instrs = if fast { 30 } else { 120 };
    let caps = estream_captures(streams, instrs);
    let byte_streams: Vec<Vec<u8>> = caps
        .iter()
        .map(|c| vermem_sim::event_stream_bytes(c).expect("SC capture streams"))
        .collect();
    let config = |recorder| vermem_coherence::StreamConfig {
        window: Some(256),
        jobs: 1,
        temporal: true,
        verifier: VmcVerifier::new(),
        recorder,
    };
    let recorder = || Some(vermem_coherence::RecorderConfig::default());

    // Identity pass: telemetry on vs off must agree on everything the
    // verifier reports (the obs-on/off contract, gated by verify.sh).
    let mut events = 0u64;
    let mut bundles = 0usize;
    for bytes in &byte_streams {
        let off = vermem_coherence::verify_stream_bytes(bytes, config(None)).expect("decodes");
        let on = vermem_coherence::verify_stream_bytes(bytes, config(recorder())).expect("decodes");
        assert_eq!(off.verdict, on.verdict, "recorder changed the verdict");
        assert_eq!(off.stats, on.stats, "recorder changed the search stats");
        assert_eq!(off.tiers, on.tiers, "recorder changed the tier accounting");
        events += off.events;
        bundles += on.forensics.len();
    }

    let off = median_secs(reps, || {
        for bytes in &byte_streams {
            let report =
                vermem_coherence::verify_stream_bytes(bytes, config(None)).expect("decodes");
            assert!(report.events > 0);
        }
    })
    .max(1e-12);
    let series = TimeSeries::new(8, 0);
    let mut clock = 0u64;
    let on = median_secs(reps, || {
        for bytes in &byte_streams {
            let report =
                vermem_coherence::verify_stream_bytes(bytes, config(recorder())).expect("decodes");
            series.record(report.events);
        }
        clock += 1_000_000;
        series.rotate(clock);
    })
    .max(1e-12);
    LiveObsProbe {
        streams,
        events,
        forensic_bundles: bundles,
        median_secs_off: off,
        median_secs_on: on,
        enabled_overhead_pct: (on / off - 1.0) * 100.0,
    }
}

/// Run the jobs ladder on one trace, asserting the verdict is identical to
/// the sequential engine at every rung (the determinism contract).
fn par_case(name: String, trace: &Trace, verifier: &VmcVerifier, reps: usize) -> ParCase {
    let expected = vermem_coherence::verify_execution_with(trace, verifier);
    let mut points = Vec::new();
    let mut t1: Option<f64> = None;
    for jobs in [1usize, 2, 4, 8] {
        let secs = median_secs(reps, || {
            let report = verify_execution_par(trace, verifier, jobs);
            assert_eq!(
                report.verdict, expected,
                "determinism violated at {jobs} jobs"
            );
        })
        .max(1e-12);
        let base = *t1.get_or_insert(secs);
        points.push(ParPoint {
            jobs,
            secs,
            ops_per_sec: trace.num_ops() as f64 / secs,
            speedup: base / secs,
        });
    }
    ParCase {
        name,
        ops: trace.num_ops(),
        addrs: trace.addresses().len(),
        points,
    }
}

/// E-PRUNE: the PR-4 inference-layer ablation on the E-5.1/E-5.2 blow-up
/// instances. Each technique runs alone and all together, against the
/// unpruned baseline, under one state cap. All
/// configurations must agree on the verdict (they provably do — the
/// assertion enforces it), and every pruned configuration must explore at
/// most the baseline's states (monotonicity).
fn prune_ablation(reps: usize, fast: bool) -> Vec<PruneRow> {
    let cap: u64 = if fast { 50_000 } else { 500_000 };
    let configs: [(&'static str, PruneConfig); 5] = [
        ("none", PruneConfig::none()),
        ("windows", PruneConfig::parse("windows").unwrap()),
        ("symmetry", PruneConfig::parse("symmetry").unwrap()),
        ("nogoods", PruneConfig::parse("nogoods").unwrap()),
        ("all", PruneConfig::all()),
    ];
    let wall = vermem_sat::random::gen_forced_sat(&RandomSatConfig::three_sat(6, 1.0, 31 * 6));
    let overcons = gen_random_ksat(&RandomSatConfig::three_sat(3, 5.0, 93));
    let instances: [(String, Trace); 3] = [
        (
            "e5.1-m6-wall".to_string(),
            reduce_3sat_restricted(&wall).trace,
        ),
        (
            "e5.1-overcons".to_string(),
            reduce_3sat_restricted(&overcons).trace,
        ),
        (
            "e5.2-overcons".to_string(),
            reduce_3sat_rmw(&overcons).trace,
        ),
    ];
    let mut rows = Vec::new();
    for (case, trace) in &instances {
        let mut baseline_states: Option<u64> = None;
        let mut decided_verdicts: Vec<bool> = Vec::new();
        for (name, prune) in &configs {
            let cfg = SearchConfig {
                max_states: Some(cap),
                prune: *prune,
                ..Default::default()
            };
            let (verdict, stats) = solve_backtracking_with_stats(trace, Addr::ZERO, &cfg);
            let verdict_str = match &verdict {
                vermem_coherence::Verdict::Coherent(_) => "coherent",
                vermem_coherence::Verdict::Incoherent(_) => "incoherent",
                vermem_coherence::Verdict::Unknown => "capped",
            };
            // Verdict parity among configurations that decided (a capped
            // run decides nothing, so it constrains nothing).
            if let vermem_coherence::Verdict::Coherent(_)
            | vermem_coherence::Verdict::Incoherent(_) = &verdict
            {
                decided_verdicts.push(verdict.is_coherent());
            }
            // States monotonicity vs the unpruned baseline.
            match (*name, baseline_states) {
                ("none", _) => baseline_states = Some(stats.states),
                (_, Some(base)) => assert!(
                    stats.states <= base,
                    "{case}/{name}: pruned search explored more states ({} > {base})",
                    stats.states
                ),
                _ => unreachable!("baseline row runs first"),
            }
            let secs = median_secs(reps, || {
                let _ = solve_backtracking(trace, Addr::ZERO, &cfg);
            })
            .max(1e-12);
            rows.push(PruneRow {
                case: case.clone(),
                config: name,
                secs,
                states: stats.states,
                memo_hits: stats.memo_hits,
                memo_misses: stats.memo_misses,
                window_prunes: stats.window_prunes,
                symmetry_prunes: stats.symmetry_prunes,
                nogood_hits: stats.nogood_hits,
                nogoods_learned: stats.nogoods_learned,
                verdict: verdict_str,
            });
        }
        assert!(
            decided_verdicts.windows(2).all(|w| w[0] == w[1]),
            "prune configurations disagree on {case}"
        );
    }
    rows
}

fn print_prune_table(rows: &[PruneRow]) {
    println!(
        "{:>14} {:>9} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "case",
        "config",
        "median (ms)",
        "states",
        "win.pr",
        "sym.pr",
        "ng.hits",
        "ng.learn",
        "hits",
        "verdict"
    );
    for r in rows {
        println!(
            "{:>14} {:>9} {:>12.3} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
            r.case,
            r.config,
            r.secs * 1e3,
            r.states,
            r.window_prunes,
            r.symmetry_prunes,
            r.nogood_hits,
            r.nogoods_learned,
            r.memo_hits,
            r.verdict
        );
    }
    // Headline: states-explored reduction of `all` vs `none` per case.
    for case in ["e5.1-m6-wall", "e5.1-overcons", "e5.2-overcons"] {
        let states_of = |cfg: &str| {
            rows.iter()
                .find(|r| r.case == case && r.config == cfg)
                .map(|r| r.states)
        };
        if let (Some(none), Some(all)) = (states_of("none"), states_of("all")) {
            let ratio = none as f64 / (all.max(1)) as f64;
            println!("{case}: states {none} -> {all} ({ratio:.1}x fewer with --prune=all)");
        }
    }
}

/// Console-only entry for the E-PRUNE ablation (`experiments eprune`); the
/// `--json` receipt run includes the same rows in BENCH_vmc.json.
fn e_prune() {
    header("E-PRUNE  inference-layer ablation: windows / symmetry / nogoods");
    let fast = std::env::var("VERMEM_BENCH_FAST").is_ok();
    let reps = if fast { 3 } else { 7 };
    let rows = prune_ablation(reps, fast);
    print_prune_table(&rows);
}

/// Hand-rolled JSON (the workspace is dependency-free): all strings are
/// internally generated identifiers, so no escaping is needed.
#[allow(clippy::too_many_arguments)]
fn bench_json(
    host: usize,
    cases: &[ParCase],
    prune: &[PruneRow],
    model_kernel: &[ModelKernelRow],
    tier: &[TierRow],
    axiom: &[AxiomRow],
    ra_probe: &RaFrontlineProbe,
    estream: &[EstreamRow],
    bounded: &BoundedMemoryProbe,
    obs: &ObsOverhead,
    live_obs: &LiveObsProbe,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"vermem-bench-vmc/v10\",\n");
    s.push_str(&format!("  \"host_parallelism\": {host},\n"));
    s.push_str("  \"par_verify\": [\n");
    for (i, c) in cases.iter().enumerate() {
        // Bench honesty: every case records the host parallelism it ran
        // under, and each ladder point above it is flagged so downstream
        // readers chart it as scheduling overhead, not scaling.
        s.push_str(&format!(
            "    {{\"case\": \"{}\", \"ops\": {}, \"addresses\": {}, \
             \"host_parallelism\": {host}, \"points\": [",
            c.name, c.ops, c.addrs
        ));
        for (j, p) in c.points.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"jobs\": {}, \"median_secs\": {:.9}, \"ops_per_sec\": {:.1}, \
                 \"speedup_vs_1\": {:.4}, \"overhead_only\": {}}}",
                p.jobs,
                p.secs,
                p.ops_per_sec,
                p.speedup,
                p.jobs > host
            ));
        }
        s.push_str("]}");
        s.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"prune_ablation\": [\n");
    for (i, r) in prune.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"case\": \"{}\", \"config\": \"{}\", \"median_secs\": {:.9}, \
             \"states\": {}, \"memo_hits\": {}, \"memo_misses\": {}, \
             \"window_prunes\": {}, \"symmetry_prunes\": {}, \"nogood_hits\": {}, \
             \"nogoods_learned\": {}, \"verdict\": \"{}\"}}",
            r.case,
            r.config,
            r.secs,
            r.states,
            r.memo_hits,
            r.memo_misses,
            r.window_prunes,
            r.symmetry_prunes,
            r.nogood_hits,
            r.nogoods_learned,
            r.verdict
        ));
        s.push_str(if i + 1 < prune.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"model_kernel\": [\n");
    for (i, r) in model_kernel.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"model\": \"{}\", \"case\": \"{}\", \
             \"median_secs\": {:.9}, \"states\": {}, \"memo_misses\": {}, \
             \"key_allocs\": {}, \"verdict\": \"{}\"}}",
            r.model, r.case, r.secs, r.states, r.memo_misses, r.key_allocs, r.verdict
        ));
        s.push_str(if i + 1 < model_kernel.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str("  \"tier_ablation\": [\n");
    for (i, r) in tier.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"family\": \"{}\", \"tier\": \"{}\", \"traces\": {}, \
             \"addresses\": {}, \"frontline_decided\": {}, \"escalated\": {}, \
             \"median_secs\": {:.9}, \"coherent\": {}, \"incoherent\": {}, \
             \"unknown\": {}}}",
            r.family,
            r.tier,
            r.traces,
            r.addresses,
            r.frontline_decided,
            r.escalated,
            r.median_secs,
            r.coherent,
            r.incoherent,
            r.unknown
        ));
        s.push_str(if i + 1 < tier.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"eaxiom\": [\n");
    for (i, r) in axiom.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"model\": \"{}\", \"engine\": \"{}\", \"family\": \"{}\", \
             \"traces\": {}, \"median_secs\": {:.9}, \"consistent\": {}, \
             \"violating\": {}, \"unknown\": {}}}",
            r.model,
            r.engine,
            r.family,
            r.traces,
            r.median_secs,
            r.consistent,
            r.violating,
            r.unknown
        ));
        s.push_str(if i + 1 < axiom.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"eaxiom_ra_frontline\": {{\"traces\": {}, \"frontline_decided\": {}, \
         \"decision_rate\": {:.4}}},\n",
        ra_probe.traces, ra_probe.frontline_decided, ra_probe.decision_rate
    ));
    s.push_str("  \"estream\": [\n");
    for (i, r) in estream.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"streams\": {}, \"window\": {}, \"window_slack\": {}, \
             \"jobs\": {}, \"events\": {}, \"median_secs\": {:.9}, \
             \"sustained_ops_per_sec\": {:.1}, \"detections\": {}, \
             \"p99_detect_latency_us\": {}, \"peak_retained_windows\": {}, \
             \"incoherent\": {}, \"verdict_parity\": {}}}",
            r.streams,
            r.window,
            r.window_slack,
            r.jobs,
            r.events,
            r.median_secs,
            r.sustained_ops_per_sec,
            r.detections,
            r.p99_detect_latency_us
                .map_or_else(|| "null".to_string(), |v| v.to_string()),
            r.peak_retained_windows,
            r.incoherent,
            r.verdict_parity
        ));
        s.push_str(if i + 1 < estream.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"estream_bounded_memory\": {{\"window\": {}, \"events\": {}, \
         \"peak_retained_windows\": {}, \"events_10x\": {}, \
         \"peak_retained_windows_10x\": {}, \
         \"recorder_peak_retained_windows\": {}, \
         \"recorder_peak_retained_windows_10x\": {}}},\n",
        bounded.window,
        bounded.events,
        bounded.peak_retained_windows,
        bounded.events_10x,
        bounded.peak_retained_windows_10x,
        bounded.recorder_peak_retained_windows,
        bounded.recorder_peak_retained_windows_10x
    ));
    s.push_str(&format!(
        "  \"obs_overhead\": {{\"case\": \"{}\", \"median_secs_disabled\": {:.9}, \
         \"median_secs_enabled\": {:.9}, \"enabled_overhead_pct\": {:.4}}},\n",
        obs.case, obs.median_secs_disabled, obs.median_secs_enabled, obs.enabled_overhead_pct
    ));
    s.push_str(&format!(
        "  \"e_live_obs\": {{\"streams\": {}, \"events\": {}, \
         \"forensic_bundles\": {}, \"median_secs_off\": {:.9}, \
         \"median_secs_on\": {:.9}, \"enabled_overhead_pct\": {:.4}, \
         \"verdict_identical\": true}}\n",
        live_obs.streams,
        live_obs.events,
        live_obs.forensic_bundles,
        live_obs.median_secs_off,
        live_obs.median_secs_on,
        live_obs.enabled_overhead_pct
    ));
    s.push_str("}\n");
    s
}

// ---------------------------------------------------------------------------
// E-SIM: dynamic verification of the MESI machine with fault injection.
// ---------------------------------------------------------------------------
fn e_sim_detection() {
    header("E-SIM  dynamic verification: detection rates by fault class");
    const RUNS: u64 = 40;
    let mut false_pos = 0;
    for seed in 0..RUNS {
        let program = random_program(&WorkloadConfig {
            cpus: 4,
            instrs_per_cpu: 40,
            addrs: 3,
            write_fraction: 0.45,
            rmw_fraction: 0.1,
            seed,
        });
        let cap = Machine::run(
            &program,
            MachineConfig {
                seed,
                ..Default::default()
            },
        );
        if !vermem_coherence::verify_execution(&cap.trace).is_coherent() {
            false_pos += 1;
        }
    }
    println!("healthy-run false positives: {false_pos}/{RUNS}");
    println!(
        "{:<36} {:>10} {:>12}",
        "fault class", "workload", "detected"
    );
    let cases: [(&str, FaultKind, bool); 4] = [
        (
            "corrupt fill",
            FaultKind::CorruptFill {
                cpu: 1,
                xor: 0xBEEF_0000,
            },
            false,
        ),
        (
            "dropped invalidation",
            FaultKind::DropInvalidation { victim_cpu: 2 },
            true,
        ),
        ("lost write", FaultKind::LostWrite { cpu: 0 }, false),
        ("stale fill", FaultKind::StaleFill { cpu: 1 }, true),
    ];
    // The per-class sweeps are independent; fan them out across threads.
    let results: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = cases
            .iter()
            .map(|&(_, kind, counter)| {
                scope.spawn(move || {
                    let mut hits = 0;
                    for seed in 0..RUNS {
                        let program = if counter {
                            shared_counter(4, 10)
                        } else {
                            random_program(&WorkloadConfig {
                                cpus: 4,
                                instrs_per_cpu: 40,
                                addrs: 3,
                                write_fraction: 0.45,
                                rmw_fraction: 0.0,
                                seed,
                            })
                        };
                        let cap = Machine::run(
                            &program,
                            MachineConfig {
                                seed,
                                faults: vec![FaultPlan { kind, at_step: 12 }],
                                ..Default::default()
                            },
                        );
                        if !vermem_coherence::verify_execution(&cap.trace).is_coherent() {
                            hits += 1;
                        }
                    }
                    (hits, RUNS as usize)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for ((name, _, counter), (hits, total)) in cases.iter().zip(results) {
        let wl = if *counter { "counter" } else { "random" };
        println!("{name:<36} {wl:>10} {hits:>9}/{total}");
    }

    // §5.2 in the pipeline: write-order verification of big healthy runs.
    println!("\nwrite-order (§5.2) verification of healthy runs:");
    println!("{:>8} {:>16}", "ops", "verify (µs)");
    for &instrs in &[200usize, 400, 800, 1600] {
        let program = random_program(&WorkloadConfig {
            cpus: 4,
            instrs_per_cpu: instrs / 4,
            addrs: 2,
            write_fraction: 0.5,
            rmw_fraction: 0.0,
            seed: instrs as u64,
        });
        let cap = Machine::run(
            &program,
            MachineConfig {
                seed: 9,
                ..Default::default()
            },
        );
        let t = Instant::now();
        for (addr, order) in &cap.write_order {
            assert!(solve_with_write_order(&cap.trace, *addr, order).is_coherent());
        }
        println!(
            "{:>8} {:>16.1}",
            cap.trace.num_ops(),
            t.elapsed().as_secs_f64() * 1e6
        );
    }
}
