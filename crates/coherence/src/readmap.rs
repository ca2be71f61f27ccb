//! VMC with a known read-map (Figure 5.3 row "1 Write/Value"): linear-time
//! verification when every data value is written at most once and nothing
//! re-installs the initial value `d_I`, so every read — and every RMW's
//! read component — is bound to its unique writer. Plain reads/writes,
//! RMWs and any mix of the two take the same path.
//!
//! **RMW-chain contraction.** Call the writes (plain or RMW) *nodes*, plus
//! a virtual node for `d_I`. An RMW that reads value `v` observes memory
//! holding `v`, so the last write before it is `v`'s unique writer: the RMW
//! fuses onto that write and immediately follows it in write order. Hence
//! two RMWs reading one value cannot both be served, and following "the RMW
//! that reads me" from the `d_I` node or from a plain write traces disjoint
//! *chains*; an RMW left over sits on a value cycle of RMWs that nothing
//! ever starts, and is unservable. Both cases are
//! [`ViolationKind::BrokenRmwChain`].
//!
//! A chain plus the reads of its values is a *super-block* with a fixed
//! slot order: the head write, the reads of its value, the next RMW, the
//! reads of that value, and so on. A super-block is contiguous in every
//! coherent schedule: its writes are consecutive in write order (each RMW
//! immediately follows the write it reads), and every operation between
//! the head and the next chain's head either writes a chain value or reads
//! the value memory holds, which is a chain value. So a coherent schedule
//! exists iff
//!
//! * program order never decreases by slot within a super-block (a
//!   violation is a two-op [`ViolationKind::PrecedenceCycle`]);
//! * the super-block precedence graph induced by program order is acyclic
//!   with the `d_I` super-block first, since `d_I` is never rewritten (a
//!   cycle is reported as the program-order pairs that induce the edges of
//!   one cycle of that graph); and
//! * the writer of a required final value ends its chain and that chain can
//!   come last.
//!
//! The schedule emits super-blocks in topological order, each slot by
//! slot, reads of one value in `(proc, index)` order. Everything is O(n)
//! modulo hashing of values. The dispatcher still sends all-RMW addresses
//! to the forced-chain solver in [`crate::rmw`]; this solver decides them
//! too.

use crate::verdict::{Verdict, Violation, ViolationKind};
use vermem_trace::{check_coherent_schedule, Addr, AddrOps, Op, OpRef, Schedule, Trace, Value};
use vermem_util::hash::FxHashMap;

/// True if the read-map fast path applies to the operations at `addr`:
/// every value written at most once (RMW write components included), and
/// no write re-installs the initial value (which would make read binding
/// ambiguous).
pub fn applicable(trace: &Trace, addr: Addr) -> bool {
    applicable_ops(&AddrOps::of(trace, addr))
}

/// As [`applicable`], decided in O(values) from the cached structure of a
/// pre-built per-address index entry (no trace scan).
pub fn applicable_ops(ops: &AddrOps) -> bool {
    ops.max_writes_per_value() <= 1 && ops.writes_of(ops.initial()) == 0
}

/// Decide coherence at `addr` assuming [`applicable`]. O(n) modulo hashing.
///
/// # Panics
/// Debug-asserts applicability; behaviour is unspecified otherwise.
pub fn solve_readmap(trace: &Trace, addr: Addr) -> Verdict {
    let verdict = solve_readmap_ops(&AddrOps::of(trace, addr));
    if let Verdict::Coherent(witness) = &verdict {
        debug_assert!(
            check_coherent_schedule(trace, addr, witness).is_ok(),
            "read-map solver produced invalid witness"
        );
    }
    verdict
}

/// Sentinel for "no node / no chain / no op".
const NONE: u32 = u32::MAX;

/// A write (or the virtual `d_I` write, node 0) and its place in the
/// contracted chains.
#[derive(Clone, Copy)]
struct Node {
    /// The writing op; `None` for the `d_I` node.
    writer: Option<OpRef>,
    /// The writer is an RMW, so the node cannot head a chain.
    rmw: bool,
    /// The RMW that reads this node's value.
    next: u32,
    /// The super-block (chain) holding the node.
    chain: u32,
    /// Position in the chain (0 = head).
    slot: u32,
    /// First plain read of the node's value, as a flat op index; the rest
    /// follow through `next_read`.
    first_read: u32,
}

/// As [`solve_readmap`], on a pre-built per-address index entry.
pub fn solve_readmap_ops(indexed: &AddrOps) -> Verdict {
    debug_assert!(
        applicable_ops(indexed),
        "read-map fast path preconditions violated"
    );
    let addr = indexed.addr();
    let initial = indexed.initial();
    let incoherent = |kind| Verdict::Incoherent(Violation { addr, kind });

    // Ops are numbered in flat order: proc-major, program order, which is
    // also `OpRef` order. Node 0 is the virtual `d_I` write; node w+1
    // belongs to the w-th writing op.
    let mut nodes: Vec<Node> = Vec::with_capacity(indexed.write_counts().len() + 1);
    let mut node_of_value: FxHashMap<Value, u32> =
        FxHashMap::with_capacity_and_hasher(indexed.write_counts().len(), Default::default());
    let new_node = |writer, rmw| Node {
        writer,
        rmw,
        next: NONE,
        chain: NONE,
        slot: 0,
        first_read: NONE,
    };
    nodes.push(new_node(None, false));
    for (r, op) in indexed.iter() {
        if let Some(v) = op.written_value() {
            node_of_value.insert(v, nodes.len() as u32);
            nodes.push(new_node(Some(r), op.is_rmw()));
        }
    }

    // Bind every op to a node — a writer to its own, a plain read to the
    // writer of its value — and fuse each RMW onto the write it reads.
    // `bound[i]` is `node << 1 | is_plain_read`. An unwritten read value
    // is reported first, as `precheck_ops` orders it.
    let mut refs: Vec<OpRef> = Vec::with_capacity(indexed.num_ops());
    let mut bound: Vec<u32> = Vec::with_capacity(indexed.num_ops());
    let mut shared_read: Option<Value> = None;
    let mut own = 0u32;
    for (r, op) in indexed.iter() {
        let source = match op.read_value() {
            None => 0,
            Some(v) if v == initial => 0,
            Some(v) => match node_of_value.get(&v) {
                Some(&k) => k,
                None => return incoherent(ViolationKind::NoWriterForValue { read: r, value: v }),
            },
        };
        refs.push(r);
        match op {
            Op::Read { .. } => bound.push(source << 1 | 1),
            Op::Write { .. } => {
                own += 1;
                bound.push(own << 1);
            }
            Op::Rmw { read, .. } => {
                own += 1;
                bound.push(own << 1);
                let pred = &mut nodes[source as usize].next;
                if *pred == NONE {
                    *pred = own;
                } else if shared_read.is_none() {
                    shared_read = Some(read);
                }
            }
        }
    }
    let final_node = match indexed.final_value() {
        None => None,
        Some(f) if nodes.len() == 1 && f == initial => Some(0),
        Some(f) => match node_of_value.get(&f) {
            Some(&k) => Some(k as usize),
            None => return incoherent(ViolationKind::FinalValueUnwritable { value: f }),
        },
    };
    let broken = |detail| incoherent(ViolationKind::BrokenRmwChain { detail });
    if let Some(v) = shared_read {
        return broken(format!("two RMWs read {v:?}, which is available only once"));
    }

    // Contract chains into super-blocks: walk from every chain head (d_I
    // and each plain write), numbering slots. Chain 0 is the d_I chain.
    let mut heads: Vec<u32> = Vec::new();
    let mut chained = 0usize;
    for head in 0..nodes.len() {
        if nodes[head].rmw {
            continue;
        }
        let chain = heads.len() as u32;
        heads.push(head as u32);
        let (mut k, mut slot) = (head as u32, 0u32);
        while k != NONE {
            let node = &mut nodes[k as usize];
            node.chain = chain;
            node.slot = slot;
            slot += 1;
            k = node.next;
        }
        chained += slot as usize;
    }
    if chained != nodes.len() {
        return broken(format!(
            "{} RMWs form a value cycle that neither the initial value nor a plain write starts",
            nodes.len() - chained
        ));
    }
    let chains = heads.len();

    // Slot order within a super-block: a write opens its slot, the reads of
    // its value follow it.
    let chain = |i: usize| nodes[(bound[i] >> 1) as usize].chain;
    let key = |i: usize| 2 * nodes[(bound[i] >> 1) as usize].slot + (bound[i] & 1);

    // Program order: within a super-block it must follow slot order; across
    // super-blocks it yields the precedence edges. The d_I chain precedes
    // every other chain.
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(chains + indexed.num_ops());
    edges.extend((1..chains as u32).map(|c| (0, c)));
    let mut end = 0usize;
    for pp in indexed.per_proc() {
        let range = end..end + pp.len();
        end = range.end;
        for i in range.skip(1) {
            let (a, b) = (chain(i - 1), chain(i));
            if a != b {
                edges.push((a, b));
            } else if key(i - 1) > key(i) {
                return incoherent(ViolationKind::PrecedenceCycle {
                    cycle: vec![refs[i - 1], refs[i]],
                });
            }
        }
    }
    let graph = Csr::new(chains, &edges);

    // The final value's writer must end its chain, and nothing may be
    // forced after that chain.
    let final_chain = match final_node {
        None => NONE,
        Some(k) => {
            let node = nodes[k];
            if node.next != NONE || !graph.succ(node.chain).is_empty() {
                let value = indexed.final_value().expect("final node");
                return incoherent(ViolationKind::FinalValueUnwritable { value });
            }
            node.chain
        }
    };

    // Kahn's algorithm, holding the final chain back until the end.
    let mut indeg = vec![0u32; chains];
    for &(_, b) in &edges {
        indeg[b as usize] += 1;
    }
    let mut stack: Vec<u32> = (0..chains as u32)
        .filter(|&c| indeg[c as usize] == 0 && c != final_chain)
        .collect();
    let mut order: Vec<u32> = Vec::with_capacity(chains);
    while let Some(c) = stack.pop() {
        order.push(c);
        for &d in graph.succ(c) {
            indeg[d as usize] -= 1;
            if indeg[d as usize] == 0 && d != final_chain {
                stack.push(d);
            }
        }
    }
    if final_chain != NONE && indeg[final_chain as usize] == 0 {
        order.push(final_chain);
    }
    if order.len() != chains {
        let cycle = graph.residual_cycle(&indeg);
        return incoherent(ViolationKind::PrecedenceCycle {
            cycle: cycle_witness(indexed, &refs, &cycle, chain),
        });
    }

    // Thread each node's plain reads into a list; building it backwards
    // leaves every list in `OpRef` order.
    let mut next_read = vec![NONE; refs.len()];
    for i in (0..refs.len()).rev() {
        if bound[i] & 1 == 1 {
            let node = &mut nodes[(bound[i] >> 1) as usize];
            next_read[i] = node.first_read;
            node.first_read = i as u32;
        }
    }
    let mut schedule: Vec<OpRef> = Vec::with_capacity(refs.len());
    for &c in &order {
        let mut k = heads[c as usize];
        while k != NONE {
            let node = &nodes[k as usize];
            schedule.extend(node.writer);
            let mut i = node.first_read;
            while i != NONE {
                schedule.push(refs[i as usize]);
                i = next_read[i as usize];
            }
            k = node.next;
        }
    }
    Verdict::Coherent(Schedule::from_refs(schedule))
}

/// A compressed adjacency list over super-blocks.
struct Csr {
    start: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    fn new(nodes: usize, edges: &[(u32, u32)]) -> Csr {
        // Count out-degrees, turn them into range ends, then fill each
        // range back to front so `start` ends up at the range starts.
        let mut start = vec![0u32; nodes + 1];
        for &(a, _) in edges {
            start[a as usize] += 1;
        }
        for c in 1..=nodes {
            start[c] += start[c - 1];
        }
        let mut targets = vec![0u32; edges.len()];
        for &(a, b) in edges.iter().rev() {
            start[a as usize] -= 1;
            targets[start[a as usize] as usize] = b;
        }
        Csr { start, targets }
    }

    fn succ(&self, c: u32) -> &[u32] {
        &self.targets[self.start[c as usize] as usize..self.start[c as usize + 1] as usize]
    }

    /// One cycle of the graph left after Kahn's algorithm stalled, in edge
    /// order. A node that Kahn never emitted and that has a successor (so
    /// it is not the held-back final chain) still has in-degree, hence a
    /// predecessor Kahn never emitted either. Walking such predecessors
    /// backwards must revisit a node; the revisited stretch is a cycle.
    fn residual_cycle(&self, indeg: &[u32]) -> Vec<u32> {
        let nodes = indeg.len();
        let mut pred = vec![NONE; nodes];
        for a in (0..nodes as u32).filter(|&a| indeg[a as usize] > 0) {
            for &b in self.succ(a) {
                pred[b as usize] = a;
            }
        }
        let start = (0..nodes as u32)
            .find(|&c| pred[c as usize] != NONE)
            .expect("a stalled topological sort leaves a node on a cycle");
        let mut seen_at = vec![NONE; nodes];
        let mut walk: Vec<u32> = Vec::new();
        let mut c = start;
        while seen_at[c as usize] == NONE {
            seen_at[c as usize] = walk.len() as u32;
            walk.push(c);
            c = pred[c as usize];
        }
        let mut cycle = walk.split_off(seen_at[c as usize] as usize);
        cycle.reverse();
        cycle
    }
}

/// The operations behind a super-block cycle: for each edge that program
/// order induces, the consecutive pair that induces it. (The edge out of
/// the `d_I` super-block, if the cycle uses it, is the initial-value rule
/// and has no such pair.)
fn cycle_witness(
    indexed: &AddrOps,
    refs: &[OpRef],
    cycle: &[u32],
    chain: impl Fn(usize) -> u32,
) -> Vec<OpRef> {
    let mut pos = FxHashMap::default();
    for (p, &c) in cycle.iter().enumerate() {
        pos.insert(c, p);
    }
    let mut pair: Vec<Option<(usize, usize)>> = vec![None; cycle.len()];
    let mut start = 0usize;
    for pp in indexed.per_proc() {
        let range = start..start + pp.len();
        start = range.end;
        for i in range.skip(1) {
            let (a, b) = (chain(i - 1), chain(i));
            if let Some(&p) = pos.get(&a) {
                if cycle[(p + 1) % cycle.len()] == b && pair[p].is_none() {
                    pair[p] = Some((i - 1, i));
                }
            }
        }
    }
    pair.into_iter()
        .flatten()
        .flat_map(|(a, b)| [refs[a], refs[b]])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack::{precheck_ops, solve_backtracking, SearchConfig};
    use vermem_trace::TraceBuilder;
    use vermem_util::prop::PropConfig;
    use vermem_util::rng::StdRng;
    use vermem_util::{prop_assert, prop_assert_eq, prop_check};

    fn kind(t: &Trace) -> ViolationKind {
        solve_readmap(t, Addr::ZERO)
            .violation()
            .expect("incoherent")
            .kind
            .clone()
    }

    #[test]
    fn applicability() {
        let ok = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64)])
            .build();
        assert!(applicable(&ok, Addr::ZERO));
        let dup = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(1u64)])
            .build();
        assert!(!applicable(&dup, Addr::ZERO));
        let rmw = TraceBuilder::new().proc([Op::rw(0u64, 1u64)]).build();
        assert!(applicable(&rmw, Addr::ZERO));
        let mixed = TraceBuilder::new()
            .proc([Op::w(1u64), Op::rw(1u64, 2u64)])
            .proc([Op::r(2u64)])
            .build();
        assert!(applicable(&mixed, Addr::ZERO));
        let dup_rmw = TraceBuilder::new()
            .proc([Op::w(1u64), Op::rw(1u64, 1u64)])
            .build();
        assert!(!applicable(&dup_rmw, Addr::ZERO));
        let rewrites_initial = TraceBuilder::new().proc([Op::w(0u64)]).build();
        assert!(!applicable(&rewrites_initial, Addr::ZERO));
        let rmw_rewrites_initial = TraceBuilder::new().proc([Op::rw(0u64, 0u64)]).build();
        assert!(!applicable(&rmw_rewrites_initial, Addr::ZERO));
    }

    #[test]
    fn coherent_chain() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64), Op::r(1u64)])
            .build();
        // Blocks {W1,R1-reads}, {W2,...}: P0 needs B1<B2, P1 needs B2<B1 →
        // cycle → incoherent. (Matches exact solver.)
        assert!(matches!(kind(&t), ViolationKind::PrecedenceCycle { .. }));
        let exact = solve_backtracking(&t, Addr::ZERO, &SearchConfig::default());
        assert!(exact.is_incoherent());
    }

    #[test]
    fn coherent_case_with_witness() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::w(2u64)])
            .proc([Op::r(1u64), Op::r(2u64)])
            .build();
        let v = solve_readmap(&t, Addr::ZERO);
        let s = v.schedule().expect("coherent");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn read_before_own_writer_incoherent() {
        let t = TraceBuilder::new().proc([Op::r(1u64), Op::w(1u64)]).build();
        let cycle = vec![OpRef::new(0u16, 0), OpRef::new(0u16, 1)];
        assert_eq!(kind(&t), ViolationKind::PrecedenceCycle { cycle });
    }

    #[test]
    fn initial_reads_precede_writes() {
        let t = TraceBuilder::new()
            .proc([Op::w(5u64)])
            .proc([Op::r(0u64), Op::r(5u64)])
            .build();
        let v = solve_readmap(&t, Addr::ZERO);
        let s = v.schedule().expect("coherent");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn initial_read_after_write_program_order_incoherent() {
        // P0: W(5) then R(0): the initial-read must precede all writes but
        // follows one in program order.
        let t = TraceBuilder::new().proc([Op::w(5u64), Op::r(0u64)]).build();
        assert!(solve_readmap(&t, Addr::ZERO).is_incoherent());
    }

    #[test]
    fn final_value_placement() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(2u64)])
            .final_value(0u32, 1u64)
            .build();
        let v = solve_readmap(&t, Addr::ZERO);
        let s = v.schedule().expect("coherent");
        check_coherent_schedule(&t, Addr::ZERO, s).unwrap();
    }

    #[test]
    fn final_value_with_outgoing_constraint_incoherent() {
        // P0: W(1) then W(2): final must be 1, but W(1) precedes W(2) in
        // program order → W(1)'s block can't be last.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::w(2u64)])
            .final_value(0u32, 1u64)
            .build();
        assert!(solve_readmap(&t, Addr::ZERO).is_incoherent());
    }

    #[test]
    fn mixed_chain_schedules_each_rmw_right_after_its_source() {
        // W(1) → RW(1,2) → RW(2,3) form one super-block; W(9) another.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64), Op::w(9u64)])
            .proc([Op::r(1u64), Op::rw(1u64, 2u64), Op::r(3u64)])
            .proc([Op::r(0u64), Op::rw(2u64, 3u64), Op::r(9u64)])
            .final_value(0u32, 9u64)
            .build();
        let v = solve_readmap(&t, Addr::ZERO);
        check_coherent_schedule(&t, Addr::ZERO, v.schedule().expect("coherent")).unwrap();
    }

    #[test]
    fn rmw_fused_onto_an_overwritten_value_incoherent() {
        // P1 reads 1 after its own RMW already replaced 1 with 2: inside
        // the super-block the read's slot precedes the RMW's.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::rw(1u64, 2u64), Op::r(1u64)])
            .build();
        let cycle = vec![OpRef::new(1u16, 0), OpRef::new(1u16, 1)];
        assert_eq!(kind(&t), ViolationKind::PrecedenceCycle { cycle });
    }

    #[test]
    fn two_rmws_reading_one_value_break_the_chain() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::rw(1u64, 2u64)])
            .proc([Op::rw(1u64, 3u64)])
            .build();
        let ViolationKind::BrokenRmwChain { detail } = kind(&t) else {
            panic!("expected a broken chain");
        };
        assert!(detail.starts_with("two RMWs read"), "{detail}");
    }

    #[test]
    fn unreachable_rmw_cycle_breaks_the_chain() {
        // 5 → 6 → 5 is a value cycle of RMWs that nothing starts.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::rw(5u64, 6u64)])
            .proc([Op::rw(6u64, 5u64)])
            .build();
        assert!(matches!(kind(&t), ViolationKind::BrokenRmwChain { .. }));
        let own = TraceBuilder::new().proc([Op::rw(7u64, 7u64)]).build();
        let ViolationKind::BrokenRmwChain { detail } = kind(&own) else {
            panic!("expected a broken chain");
        };
        assert!(detail.contains("value cycle"), "{detail}");
    }

    #[test]
    fn final_value_overwritten_by_an_rmw_incoherent() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::rw(1u64, 2u64)])
            .final_value(0u32, 1u64)
            .build();
        assert_eq!(
            kind(&t),
            ViolationKind::FinalValueUnwritable { value: Value(1) }
        );
    }

    #[test]
    fn cycle_witness_skips_blocks_downstream_of_the_cycle() {
        // Blocks of 1 and 2 form a cycle; W(3)'s block only follows it.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::w(2u64)])
            .proc([Op::r(2u64), Op::r(1u64), Op::w(3u64)])
            .build();
        let ViolationKind::PrecedenceCycle { cycle } = kind(&t) else {
            panic!("expected a precedence cycle");
        };
        assert!(!cycle.contains(&OpRef::new(1u16, 2)), "{cycle:?}");
        assert_eq!(forced_cycle(&t, &cycle), Ok(()));
    }

    #[test]
    fn agrees_with_exact_on_random_unique_write_instances() {
        use vermem_util::rng::StdRng;
        for seed in 0..100u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let procs = rng.gen_range(1..=4);
            let mut next_val = 1u64;
            let mut written: Vec<u64> = Vec::new();
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=4);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            let v = next_val;
                            next_val += 1;
                            written.push(v);
                            Op::w(v)
                        } else if !written.is_empty() && rng.gen_bool(0.8) {
                            Op::r(written[rng.gen_range(0..written.len())])
                        } else {
                            Op::r(0u64)
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            if !applicable(&t, Addr::ZERO) {
                continue;
            }
            let fast = solve_readmap(&t, Addr::ZERO);
            let exact = solve_backtracking(&t, Addr::ZERO, &SearchConfig::default());
            assert_eq!(
                fast.is_coherent(),
                exact.is_coherent(),
                "divergence on seed {seed}: {t:?}"
            );
        }
    }

    /// A random small unique-value history at address 0 (`d_I` = 0): a
    /// serial run that is coherent by construction, in which plain writes
    /// and RMWs draw fresh values, then optionally one mutation (a read
    /// retargeted or two adjacent ops of a process swapped) and optionally
    /// a required final value that may be wrong.
    fn gen_history(rng: &mut StdRng, size: usize) -> Trace {
        let (write_p, rmw_p) = match rng.gen_range(0..3u32) {
            0 => (0.4, 0.0),  // plain only
            1 => (0.0, 1.0),  // RMW only
            _ => (0.25, 0.3), // mixed
        };
        let procs = rng.gen_range(1..=3usize);
        let mut hist: Vec<Vec<Op>> = vec![Vec::new(); procs];
        let (mut cur, mut fresh) = (0u64, 1u64);
        for _ in 0..rng.gen_range(1..=size.clamp(1, 8)) {
            let p = rng.gen_range(0..procs);
            let op = if rng.gen_bool(rmw_p) {
                Op::rw(cur, fresh)
            } else if rng.gen_bool(write_p) {
                Op::w(fresh)
            } else {
                hist[p].push(Op::r(cur));
                continue;
            };
            cur = fresh;
            fresh += 1;
            hist[p].push(op);
        }
        if rng.gen_bool(0.5) {
            let p = rng.gen_range(0..procs);
            let n = hist[p].len();
            if n >= 2 && rng.gen_bool(0.5) {
                let i = rng.gen_range(0..n - 1);
                hist[p].swap(i, i + 1);
            } else if n >= 1 {
                let i = rng.gen_range(0..n);
                let v = rng.gen_range(0..fresh);
                hist[p][i] = match hist[p][i] {
                    Op::Rmw { write, .. } => Op::rw(v, write),
                    Op::Read { .. } => Op::r(v),
                    w => w,
                };
            }
        }
        let mut b = TraceBuilder::new();
        for h in hist {
            b = b.proc(h);
        }
        match rng.gen_range(0..3u32) {
            0 => b.build(),
            1 => b.final_value(0u32, cur).build(),
            _ => b.final_value(0u32, rng.gen_range(0..fresh)).build(),
        }
    }

    #[test]
    fn prop_agrees_with_backtracking_on_unique_value_histories() {
        let (mut coherent, mut incoherent) = (0u32, 0u32);
        prop_check!(
            PropConfig::with_cases(3000).max_size(10),
            gen_history,
            |t: &Trace| {
                prop_assert!(applicable(t, Addr::ZERO));
                let fast = solve_readmap(t, Addr::ZERO);
                let exact = solve_backtracking(t, Addr::ZERO, &SearchConfig::default());
                prop_assert_eq!(fast.is_coherent(), exact.is_coherent());
                if let Some(v) = precheck_ops(&AddrOps::of(t, Addr::ZERO)) {
                    prop_assert_eq!(fast.violation(), Some(&v));
                }
                match &fast {
                    Verdict::Coherent(s) => {
                        coherent += 1;
                        check_coherent_schedule(t, Addr::ZERO, s)
                            .map_err(|e| format!("bad witness {s:?}: {e}"))?;
                    }
                    Verdict::Incoherent(v) => {
                        incoherent += 1;
                        if let ViolationKind::PrecedenceCycle { cycle } = &v.kind {
                            forced_cycle(t, cycle)?;
                        }
                    }
                    Verdict::Unknown => return Err("read-map returned Unknown".into()),
                }
                Ok(())
            }
        );
        assert!(
            coherent > 500 && incoherent > 500,
            "{coherent}/{incoherent}"
        );
    }

    /// Check a `PrecedenceCycle` witness against an independent reading of
    /// what program order and reads-from force. Ops glue into *blocks*
    /// through reads-from (a read, or an RMW, joins the writer of the value
    /// it reads; `d_I` is block `None`). The witness lists program-order
    /// pairs `(a, b)`: either one pair inside one block whose RMW depth
    /// puts `b` first, or pairs crossing blocks that close a cycle, where
    /// the `d_I` block may hand over to any block (it precedes them all).
    fn forced_cycle(t: &Trace, witness: &[OpRef]) -> Result<(), String> {
        let ops: Vec<(OpRef, Op)> = t.iter_ops().collect();
        let writer = |v: Value| ops.iter().position(|(_, op)| op.written_value() == Some(v));
        // (block head, RMW depth) of the writer that serves value `v`.
        let serve = |mut v: Value| -> (Option<usize>, usize) {
            let mut depth = 0;
            while let Some(w) = writer(v) {
                match ops[w].1 {
                    Op::Rmw { read, .. } if depth <= ops.len() => {
                        v = read;
                        depth += 1;
                    }
                    _ => return (Some(w), depth),
                }
            }
            (None, depth)
        };
        // Block and in-block position of an op: writes open their slot.
        let place = |r: OpRef| -> (Option<usize>, usize) {
            let op = t.op(r).expect("witness op exists");
            let (head, depth) = serve(op.written_value().or(op.read_value()).unwrap());
            (head, 2 * depth + usize::from(!op.is_writing()))
        };
        prop_assert!(
            !witness.is_empty() && witness.len().is_multiple_of(2),
            "{witness:?}"
        );
        let pairs: Vec<(OpRef, OpRef)> = witness.chunks(2).map(|p| (p[0], p[1])).collect();
        for &(a, b) in &pairs {
            prop_assert!(a.proc == b.proc && a.index < b.index, "not po: {a:?} {b:?}");
        }
        let (a, b) = pairs[0];
        let ((ba, ka), (bb, kb)) = (place(a), place(b));
        if pairs.len() == 1 && ba == bb {
            prop_assert!(
                kb < ka,
                "same-block pair {a:?} {b:?} is not out of slot order"
            );
            return Ok(());
        }
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let next = pairs[(i + 1) % pairs.len()].0;
            prop_assert!(
                place(a).0 != place(b).0,
                "pair inside one block: {witness:?}"
            );
            let (from, to) = (place(b).0, place(next).0);
            prop_assert!(from == to || from.is_none(), "open cycle: {witness:?}");
        }
        Ok(())
    }
}
