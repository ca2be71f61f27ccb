//! Output pin for the closure frontline and the escalated exact search.
//!
//! Generates a seeded multi-writer corpus shaped like the `verify-reuse`
//! benchmark workload (`gen_sc_trace` with 4 processes and value reuse 0.5,
//! every fourth trace fault-injected), plus a few shapes that reach the
//! other regimes of `windows::analyze`: addresses above the deep-rule op
//! cap, RMW-bearing addresses, and tiny ones. For every address it renders
//! the full `closure::analyze_ops` outcome — witness schedule, violation,
//! or every op's surviving window — and, for escalated addresses, the
//! `solve_escalated_ops_with_stats` verdict, witness and `SearchStats`.
//! Everything is folded into one FNV-1a hash that must equal a committed
//! constant: any rewrite of the closure fixpoint or the exact DFS has to
//! reproduce its outputs bit for bit.

use vermem_coherence::backtrack::solve_escalated_ops_with_stats;
use vermem_coherence::closure::{analyze_ops, ClosureOutcome};
use vermem_coherence::{PruneConfig, SearchConfig, SearchStats, Verdict};
use vermem_trace::gen::{gen_sc_trace, inject_violation, GenConfig, ViolationKind};
use vermem_trace::{AddrIndex, AddrOps, Schedule};

/// FNV-1a, 64-bit: a fixed, platform-independent fold.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn schedule(&mut self, s: &Schedule) {
        self.word(s.refs().len() as u64);
        for r in s.refs() {
            self.word(u64::from(r.proc.0));
            self.word(u64::from(r.index));
        }
    }
}

/// Per-address exact-search budget, as in the `verify-reuse` workload: a
/// minority of escalated addresses end Unknown, which is pinned too.
const MAX_STATES: u64 = 2_000;

/// `(procs, total ops, addrs, rmw fraction)` of the generated shapes.
const SHAPES: [(usize, usize, usize, f64); 4] = [
    // The verify-reuse shape: ~37 ops per address, deep rules on.
    (4, 900, 24, 0.0),
    // ~300 ops per address: above the deep-rule cap.
    (4, 600, 2, 0.0),
    // RMW pigeonhole, RMW buckets of the fast accept.
    (4, 240, 6, 0.15),
    // Small, constraint-dense addresses.
    (3, 30, 1, 0.0),
];

const INJECTIONS: [ViolationKind; 4] = [
    ViolationKind::CorruptReadValue,
    ViolationKind::StaleRead,
    ViolationKind::LostWrite,
    ViolationKind::ReorderAdjacent,
];

#[derive(Default)]
struct Tally {
    coherent: u64,
    violation: u64,
    escalated: u64,
    unknown: u64,
}

fn fold_address(h: &mut Fnv, ops: &AddrOps, cfg: &SearchConfig, tally: &mut Tally) {
    h.word(u64::from(ops.addr().0));
    let (outcome, pre) = analyze_ops(ops);
    h.bytes(format!("{pre:?}").as_bytes());
    match outcome {
        ClosureOutcome::Coherent(s) => {
            tally.coherent += 1;
            h.bytes(b"C");
            h.schedule(&s);
        }
        ClosureOutcome::Violation(v) => {
            tally.violation += 1;
            h.bytes(b"V");
            h.bytes(format!("{v:?}").as_bytes());
        }
        ClosureOutcome::Escalate(table) => {
            tally.escalated += 1;
            h.bytes(b"E");
            for (p, hist) in ops.per_proc().iter().enumerate() {
                for j in 0..hist.len() as u32 {
                    let (lo, hi) = table.window(p, j);
                    h.word(u64::from(lo));
                    h.word(u64::from(hi));
                }
            }
            let (verdict, stats) = solve_escalated_ops_with_stats(ops, cfg, Some(table));
            tally.unknown += u64::from(verdict == Verdict::Unknown);
            fold_verdict(h, &verdict, &stats);
            // The same residue without windows, symmetry, nogoods or hot
            // move ordering: the bare memoized DFS and its move order.
            let bare = SearchConfig {
                prune: PruneConfig::none(),
                hot_move_ordering: false,
                ..*cfg
            };
            let (verdict, stats) = solve_escalated_ops_with_stats(ops, &bare, None);
            fold_verdict(h, &verdict, &stats);
        }
    }
}

fn fold_verdict(h: &mut Fnv, verdict: &Verdict, stats: &SearchStats) {
    h.bytes(format!("{stats:?}").as_bytes());
    match verdict {
        Verdict::Coherent(s) => {
            h.bytes(b"c");
            h.schedule(s);
        }
        Verdict::Incoherent(v) => {
            h.bytes(b"i");
            h.bytes(format!("{v:?}").as_bytes());
        }
        Verdict::Unknown => h.bytes(b"u"),
    }
}

#[test]
fn closure_and_escalated_outputs_are_pinned() {
    let cfg = SearchConfig {
        max_states: Some(MAX_STATES),
        ..SearchConfig::default()
    };
    let mut h = Fnv::new();
    let mut tally = Tally::default();
    for id in 0..96usize {
        let (procs, total_ops, addrs, rmw) = SHAPES[(id / 4) % SHAPES.len()];
        let seed = 0x5EED_0000 + id as u64;
        let (trace, _) = gen_sc_trace(&GenConfig {
            procs,
            total_ops,
            addrs,
            write_fraction: 0.5,
            rmw_fraction: rmw,
            value_reuse: 0.5,
            seed,
        });
        let trace = if id % 4 == 3 {
            let kind = INJECTIONS[(id / 16) % INJECTIONS.len()];
            inject_violation(&trace, kind, seed ^ 0xFA17).map_or(trace, |(bad, _)| bad)
        } else {
            trace
        };
        let index = AddrIndex::build(&trace);
        for ops in index.iter() {
            fold_address(&mut h, ops, &cfg, &mut tally);
        }
    }
    // The corpus must exercise every outcome for the pin to bite.
    assert!(tally.coherent > 0, "no closure fast-accepts");
    assert!(tally.violation > 0, "no closure violations");
    assert!(tally.escalated > 0, "no escalations");
    assert!(tally.unknown > 0, "no budgeted Unknowns");
    println!(
        "closure pin: {} coherent, {} violation, {} escalated ({} unknown), hash {:#018x}",
        tally.coherent, tally.violation, tally.escalated, tally.unknown, h.0
    );
    assert_eq!(h.0, 0x10d3_30d9_07bf_0735, "closure/exact outputs drifted");
}
