//! Feasibility-interval propagation for the exact VMC search.
//!
//! Roy et al. ("Fast and Generalized Polynomial Time Memory Consistency
//! Verification", PAPERS.md) observe that practical verifiers win by
//! *inference before enumeration*: compute, for every operation, a window
//! of schedule positions it could legally occupy, and for every read the
//! set of writes that could serve it; tighten both to a fixpoint; and only
//! then enumerate. This module is that inference layer for VMC:
//!
//! * **Serving candidates.** A read of value `v` can only be served by the
//!   initial value (when no program-order-earlier write of its own process
//!   exists and `v = d_I`) or by a write of `v` that is not forced after
//!   it. Own-process writes are filtered hard: only the *last* write
//!   program-order-before the read can serve it (any earlier one is
//!   shadowed), and every foreign serving write must land *after* that
//!   last own-process write.
//! * **RMW pigeonhole.** Distinct atomic read-modify-writes observing the
//!   same value always have distinct "suppliers" (the latest write before
//!   an RMW is unique, and an RMW is itself a write), so more RMW reads of
//!   `v` than writes of `v` (plus one for `d_I`) is immediately
//!   incoherent. This is the paper's "hardness needs repeated values"
//!   observation turned into a rejection rule.
//! * **Position windows.** Every op gets `[lo, hi]` bounds on its schedule
//!   position from program order, tightened by longest-path propagation
//!   over the *must-precede* graph (program order plus forced serving
//!   edges from singleton candidate sets). A must-precede cycle, an empty
//!   window, or an emptied candidate set proves incoherence without any
//!   search ([`WindowOutcome::Infeasible`]).
//! * **fr-edge propagation** (TSOtool-style, cf. Roy et al.). A read `r`
//!   with a *unique* serving candidate `w` sits between `w` and the next
//!   write, so `r` must precede every write ordered after `w`, and every
//!   write ordered before `r` must precede `w`. A read that can only see
//!   the initial value precedes every write. Symmetrically, a candidate
//!   dies when another write provably lands between it and the read (it
//!   can no longer be the *latest* write before the read). These rules
//!   feed the same fixpoint: new edges tighten windows, tighter windows
//!   kill candidates, dead candidates force more edges. A cycle derived
//!   this way is a polynomial incoherence proof.
//! * **Final-value edge.** When the dumped final value has a unique
//!   writer, that write is the last write of every coherent schedule, so
//!   every other write must precede it.
//! * **Fast accept.** When the must-precede graph is acyclic, a
//!   deterministic *value-aware* topological simulation runs: released
//!   reads of the current value are absorbed first, an RMW consuming the
//!   current value outranks plain writes, remaining writes go in
//!   `(lo, hi, id)` window order. If the simulation is a coherent
//!   schedule, the instance is decided positively with that witness
//!   ([`WindowOutcome::Schedule`]) — again without search.
//!
//! Everything here computes **necessary** conditions: a window/candidate
//! is only discarded when *no* coherent schedule can use it, so pruning a
//! DFS branch that schedules an op outside its surviving window
//! ([`WindowTable::allows`]) never loses a witness, and `Infeasible` is
//! always a true incoherence proof. Soundness arguments are spelled out in
//! DESIGN.md §4b.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vermem_trace::{AddrOps, Op, OpRef, Value};
use vermem_util::bitset::{self, BitRow, BitSet};
use vermem_util::densemap::DenseMap;

/// Per-operation feasible position windows, indexed densely by
/// `(process, program-order index)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowTable {
    offsets: Vec<u32>,
    lo: Vec<u32>,
    hi: Vec<u32>,
}

impl WindowTable {
    /// Dense id of the `idx`-th op of process `proc`.
    #[inline]
    fn id(&self, proc: usize, idx: u32) -> usize {
        self.offsets[proc] as usize + idx as usize
    }

    /// True if the op may occupy schedule position `pos` (0-based) in
    /// *some* coherent schedule, as far as the propagated windows know.
    /// A `false` answer is a proof: no coherent schedule places it there.
    #[inline]
    pub fn allows(&self, proc: usize, idx: u32, pos: usize) -> bool {
        let i = self.id(proc, idx);
        (self.lo[i] as usize) <= pos && pos <= (self.hi[i] as usize)
    }

    /// The `[lo, hi]` window of the `idx`-th op of process `proc`.
    pub fn window(&self, proc: usize, idx: u32) -> (u32, u32) {
        let i = self.id(proc, idx);
        (self.lo[i], self.hi[i])
    }
}

/// Result of the polynomial window pre-pass.
#[derive(Clone, Debug)]
pub enum WindowOutcome {
    /// Proven incoherent: a candidate set emptied, a window emptied, the
    /// RMW pigeonhole failed, or the must-precede graph is cyclic.
    Infeasible,
    /// Proven coherent: the must-precede topological order simulates as a
    /// coherent schedule (a verified witness, in original-trace refs).
    Schedule(Vec<OpRef>),
    /// Undecided: surviving windows for DFS branch pruning.
    Table(WindowTable),
}

/// Candidate-set budget: above this many (read, candidate-write) pairs the
/// fixpoint is skipped and only program-order windows are returned, so the
/// pre-pass stays linear-ish on adversarial value distributions.
const MAX_CANDIDATE_PAIRS: usize = 1 << 22;

/// Fixpoint round cap. Each round only shrinks windows and candidate
/// sets, so convergence is guaranteed; the cap bounds worst-case cost
/// (stopping early merely prunes less — still sound).
const MAX_ROUNDS: usize = 32;

/// Deep-rule budget. The quadratic-ish rules — fr-edge propagation (a
/// transitive closure of the must-precede graph each round), the
/// final-value write fan-out, and the init-read fan-out — only pay for
/// themselves on small, constraint-dense addresses; above this many ops
/// per address they are skipped and the cheap linear fixpoint still runs
/// (skipping only prunes less — still sound).
const MAX_DEEP_OPS: usize = 256;

/// Largest address whose buffers the per-thread scratch keeps for reuse.
const MAX_RETAINED_OPS: usize = 1 << 14;

/// Sentinel "no value id" in the per-op dense value-id columns.
const NO_VAL: u32 = u32::MAX;

/// Fast-accept priority key: lowest `(lo, hi, id)` first.
type ReadyKey = Reverse<(u32, u32, u32)>;

/// The must-precede graph with edge deduplication. Up to `MAX_DEEP_OPS`
/// ops the edge set is an `n × n` bit matrix; above it a sparse
/// open-addressed set keyed `(a << 32) | b`, so a 100k-op address never
/// allocates `n²` bits. The deep rules re-probe every fr edge each round,
/// and there a bit test beats a hash probe: with the sparse set alone
/// for every `n`, the closure's self-time on the `verify-reuse`
/// benchmark corpus rose from 369 to 492 ms per pass (medians of seven
/// alternating runs on a 2-vCPU x86-64 guest).
#[derive(Default)]
struct Graph {
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
    dense: BitSet,
    sparse: DenseMap<u64, ()>,
    /// Op count of the current address.
    n: usize,
    is_dense: bool,
}

impl Graph {
    /// Re-shape to `n` ops with no edges, keeping every buffer.
    fn reset(&mut self, n: usize) {
        if !self.is_dense {
            // Remove the previous address's edges one by one: clearing the
            // whole table would cost its high-water capacity per address.
            for (a, succs) in self.succs[..self.n].iter().enumerate() {
                for &b in succs {
                    self.sparse.remove(edge_key(a as u32, b));
                }
            }
        }
        for adj in [&mut self.succs, &mut self.preds] {
            if adj.len() < n {
                adj.resize_with(n, Vec::new);
            }
            adj[..n].iter_mut().for_each(Vec::clear);
        }
        self.n = n;
        self.is_dense = n <= MAX_DEEP_OPS;
        if self.is_dense {
            self.dense.reset(n, n);
        }
    }

    /// Record `a → b` unless already present. Returns true when the edge
    /// is new.
    fn add(&mut self, a: u32, b: u32) -> bool {
        if a == b {
            return false;
        }
        let new = if self.is_dense {
            let (a, b) = (a as usize, b as usize);
            let new = !self.dense.test(a, b);
            if new {
                self.dense.set(a, b);
            }
            new
        } else {
            self.sparse.insert(edge_key(a, b), ()).is_none()
        };
        if new {
            self.succs[a as usize].push(b);
            self.preds[b as usize].push(a);
        }
        new
    }
}

/// Sparse edge-set key of `a → b`.
fn edge_key(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

struct ReadInfo {
    /// Dense id of the read (or RMW read component).
    id: u32,
    /// Dense id of the last own-process write strictly program-order
    /// before the read, if any. Only it (among own-process writes) can
    /// serve the read, and every foreign serving write must land after it.
    prev_write: Option<u32>,
    /// True while the initial value `d_I` remains a viable server.
    has_init: bool,
    /// Surviving candidate serving writes (dense ids):
    /// `cand_pool[start..start + len]`.
    start: usize,
    len: usize,
}

/// Reusable per-thread scratch for the whole analysis. Every address
/// re-shapes these to its geometry and clears in place; memory is
/// allocated only when an address outgrows the thread's high-water mark,
/// so steady-state analysis allocates nothing beyond its returned value.
#[derive(Default)]
struct Scratch {
    /// Ops in dense-id order: `(process, ref, op)`.
    flat: Vec<(usize, OpRef, Op)>,
    /// Sorted, deduplicated values of the address; a value's dense id is
    /// its index here.
    vals: Vec<Value>,
    /// Dense id of each op's read value ([`NO_VAL`] for plain writes).
    read_vid: Vec<u32>,
    /// Dense id of each op's written value ([`NO_VAL`] for plain reads).
    write_vid: Vec<u32>,
    /// Writers per value id, CSR: value `v`'s writers are
    /// `writer_ids[writer_start[v]..writer_start[v + 1]]`, ascending.
    writer_start: Vec<u32>,
    writer_ids: Vec<u32>,
    /// RMW reads per value id (the pigeonhole count).
    rmw_reads: Vec<u32>,
    /// Dense ids of the writing ops, and the same set as a bit row.
    write_ids: Vec<u32>,
    write_mask: BitRow,
    /// Reads (and RMW read components) with their candidate ranges.
    reads: Vec<ReadInfo>,
    /// Every read's candidate serving writes, one range per read.
    cand_pool: Vec<u32>,
    /// Position windows.
    lo: Vec<u32>,
    hi: Vec<u32>,
    graph: Graph,
    /// In-degrees of the must-precede graph (topological sort).
    indeg: Vec<u32>,
    /// Zero-in-degree work stack (topological sort).
    queue: Vec<u32>,
    /// The round's topological order.
    order: Vec<u32>,
    /// Transitive closure: row `i` holds the ops provably after `i`.
    reach: BitSet,
    /// Its transpose: row `i` holds the ops provably before `i`.
    pred_reach: BitSet,
    /// Writes that must precede the read under scrutiny.
    writes_before: BitRow,
    /// Fast-accept buckets per value id: released plain reads and RMWs
    /// waiting for their read value.
    ready_reads: Vec<BinaryHeap<ReadyKey>>,
    ready_rmws: Vec<BinaryHeap<ReadyKey>>,
    /// Released plain writes (always eligible).
    ready_writes: BinaryHeap<ReadyKey>,
    /// The fast-accept simulation's schedule (dense ids).
    sched: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run feasibility-interval propagation on one address's operations.
///
/// Call after [`crate::backtrack::precheck_ops`] (the precheck handles
/// never-written values and unproducible finals; this pass assumes nothing
/// beyond that and re-proves what it needs).
pub fn analyze(ops: &AddrOps) -> WindowOutcome {
    SCRATCH.with(|s| {
        let mut scratch = s.borrow_mut();
        let out = analyze_with(ops, &mut scratch);
        if ops.num_ops() > MAX_RETAINED_OPS {
            // One huge address must not pin its O(n) buffers in this
            // thread for the rest of its life.
            *scratch = Scratch::default();
        }
        out
    })
}

fn analyze_with(ops: &AddrOps, scratch: &mut Scratch) -> WindowOutcome {
    let Scratch {
        flat,
        vals,
        read_vid,
        write_vid,
        writer_start,
        writer_ids,
        rmw_reads,
        write_ids,
        write_mask,
        reads,
        cand_pool,
        lo,
        hi,
        graph,
        indeg,
        queue,
        order,
        reach,
        pred_reach,
        writes_before,
        ready_reads,
        ready_rmws,
        ready_writes,
        sched,
    } = scratch;
    let per_proc = ops.per_proc();
    let n = ops.num_ops();
    let initial = ops.initial();

    // Dense layout, with program-order position bounds.
    flat.clear();
    lo.clear();
    hi.clear();
    for (p, h) in per_proc.iter().enumerate() {
        let len = h.len() as u32;
        for (j, &(r, op)) in h.iter().enumerate() {
            let j = j as u32;
            flat.push((p, r, op));
            lo.push(j);
            hi.push(n as u32 - (len - j));
        }
    }

    // Dense value ids.
    vals.clear();
    for &(_, _, op) in flat.iter() {
        vals.extend(op.read_value());
        vals.extend(op.written_value());
    }
    vals.sort_unstable();
    vals.dedup();
    let vid = |v: Value| vals.binary_search(&v).map_or(NO_VAL, |i| i as u32);
    read_vid.clear();
    write_vid.clear();
    for &(_, _, op) in flat.iter() {
        read_vid.push(op.read_value().map_or(NO_VAL, vid));
        write_vid.push(op.written_value().map_or(NO_VAL, vid));
    }
    let nvals = vals.len();

    // Writers per value (CSR), and the RMW pigeonhole.
    writer_start.clear();
    writer_start.resize(nvals + 1, 0);
    rmw_reads.clear();
    rmw_reads.resize(nvals, 0);
    write_ids.clear();
    for (i, &(_, _, op)) in flat.iter().enumerate() {
        if op.is_writing() {
            write_ids.push(i as u32);
            writer_start[write_vid[i] as usize + 1] += 1;
        }
        if op.is_rmw() {
            rmw_reads[read_vid[i] as usize] += 1;
        }
    }
    for v in 0..nvals {
        writer_start[v + 1] += writer_start[v];
    }
    writer_ids.clear();
    writer_ids.resize(write_ids.len(), 0);
    for &w in write_ids.iter() {
        let slot = &mut writer_start[write_vid[w as usize] as usize];
        writer_ids[*slot as usize] = w;
        *slot += 1;
    }
    // The fill advanced each start to its successor's; shift back.
    writer_start.rotate_right(1);
    writer_start[0] = 0;
    let writers = |v: u32| -> &[u32] {
        if v == NO_VAL {
            return &[];
        }
        let v = v as usize;
        &writer_ids[writer_start[v] as usize..writer_start[v + 1] as usize]
    };
    for (v, &consumers) in rmw_reads.iter().enumerate() {
        let supply = writers(v as u32).len() + usize::from(vals[v] == initial);
        if consumers as usize > supply {
            // More atomic observers of `v` than distinct suppliers: the
            // latest-write-before an RMW is unique per RMW (an RMW is
            // itself a write), so this is a pigeonhole contradiction.
            return WindowOutcome::Infeasible;
        }
    }

    // Initial serving-candidate sets.
    reads.clear();
    cand_pool.clear();
    let mut id = 0u32;
    for (p, h) in per_proc.iter().enumerate() {
        let mut prev_write: Option<u32> = None;
        for &(_, op) in h {
            if let Some(v) = op.read_value() {
                let has_init = v == initial && prev_write.is_none();
                let start = cand_pool.len();
                for &w in writers(read_vid[id as usize]) {
                    if w == id {
                        continue; // an RMW cannot serve its own read
                    }
                    if flat[w as usize].0 == p && prev_write != Some(w) {
                        // Own-process writes other than the last one
                        // before the read are shadowed by it (or are
                        // program-order after the read).
                        continue;
                    }
                    cand_pool.push(w);
                }
                let len = cand_pool.len() - start;
                if len == 0 && !has_init {
                    return WindowOutcome::Infeasible;
                }
                reads.push(ReadInfo {
                    id,
                    prev_write,
                    has_init,
                    start,
                    len,
                });
            }
            if op.is_writing() {
                prev_write = Some(id);
            }
            id += 1;
        }
    }
    let pairs = cand_pool.len();

    // Must-precede graph: program order seeds it; forced serving, fr, and
    // final-value edges join during the fixpoint.
    graph.reset(n);
    for i in 1..n {
        if flat[i].0 == flat[i - 1].0 {
            graph.add(i as u32 - 1, i as u32);
        }
    }

    let skip_fixpoint = pairs > MAX_CANDIDATE_PAIRS;
    let deep = !skip_fixpoint && n <= MAX_DEEP_OPS;
    if deep {
        write_mask.reset(n);
        for &w in write_ids.iter() {
            write_mask.set(w as usize);
        }
    }

    // Final-value edge: the last write of every coherent schedule produces
    // the dumped final value, so a *unique* writer of that value must
    // follow every other write (an O(writes) fan-out — deep rule). No
    // writer at all is a contradiction unless the final value is the
    // (never overwritten) initial value; that check is always on.
    if let Some(f) = ops.final_value() {
        match writers(vid(f)) {
            &[wf] if deep => {
                for &w in write_ids.iter() {
                    graph.add(w, wf);
                }
            }
            [] if f != initial || !write_ids.is_empty() => {
                return WindowOutcome::Infeasible;
            }
            _ => {}
        }
    }

    let mut rounds = 0;
    let mut changed = true;
    while changed && rounds < MAX_ROUNDS && !skip_fixpoint {
        changed = false;
        rounds += 1;
        let (succs, preds) = (&graph.succs[..n], &graph.preds[..n]);

        // Longest-path window tightening over the must-precede DAG.
        order.clear();
        indeg.clear();
        indeg.extend(preds.iter().map(|p| p.len() as u32));
        queue.clear();
        queue.extend((0..n as u32).filter(|&i| indeg[i as usize] == 0));
        while let Some(i) = queue.pop() {
            order.push(i);
            for &s in &succs[i as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() < n {
            return WindowOutcome::Infeasible; // must-precede cycle
        }
        for &i in order.iter() {
            for &pr in &preds[i as usize] {
                let bound = lo[pr as usize] + 1;
                if bound > lo[i as usize] {
                    lo[i as usize] = bound;
                    changed = true;
                }
            }
        }
        for &i in order.iter().rev() {
            for &s in &succs[i as usize] {
                let bound = hi[s as usize].saturating_sub(1);
                if bound < hi[i as usize] {
                    hi[i as usize] = bound;
                    changed = true;
                }
            }
        }
        if lo.iter().zip(hi.iter()).any(|(l, h)| l > h) {
            return WindowOutcome::Infeasible;
        }

        // Transitive closure of this round's must-precede snapshot and its
        // transpose, for the fr rules. Row `i` of `reach` holds the ops
        // strictly after `i` in every schedule, row `i` of `pred_reach`
        // the ops strictly before it. Successor (predecessor) rows are
        // final by the time `i` is visited in reverse (forward)
        // topological order, so each row accumulates in place.
        if deep {
            reach.reset(n, n);
            pred_reach.reset(n, n);
            for &i in order.iter().rev() {
                for &s in &succs[i as usize] {
                    reach.set(i as usize, s as usize);
                    reach.union_row(i as usize, s as usize);
                }
            }
            for &i in order.iter() {
                for &pr in &preds[i as usize] {
                    pred_reach.set(i as usize, pr as usize);
                    pred_reach.union_row(i as usize, pr as usize);
                }
            }
        }

        // Candidate filtering + forced serving edges + fr propagation.
        for r in reads.iter_mut() {
            let rid = r.id as usize;
            let prev = r.prev_write;
            // Writes that must precede this read (fr rules below).
            if deep {
                writes_before.assign_and(pred_reach.row(rid), write_mask.words());
            }
            let (start, before) = (r.start, r.len);
            let mut kept = start;
            for k in start..start + before {
                let w = cand_pool[k];
                let wid = w as usize;
                // The serving write must be strictly before the read...
                let alive = lo[wid] < hi[rid]
                    // ...strictly after the last own-process write...
                    && prev.is_none_or(|pw| w == pw || lo[pw as usize] < hi[wid])
                    // ...and the *latest* write before the read: it is
                    // dead when another write provably lands between the
                    // two.
                    && !(deep && reach.row_intersects(wid, writes_before.words()));
                if alive {
                    cand_pool[kept] = w;
                    kept += 1;
                }
            }
            r.len = kept - start;
            if r.len != before {
                changed = true;
            }
            if r.len == 0 && !r.has_init {
                return WindowOutcome::Infeasible;
            }
            if !r.has_init && r.len == 1 {
                let w = cand_pool[start];
                changed |= graph.add(w, r.id);
                if let Some(pw) = r.prev_write {
                    if pw != w {
                        changed |= graph.add(pw, w);
                    }
                }
                if deep {
                    // fr edges: the read sits between its unique server
                    // `w` and the next write, so it precedes every write
                    // ordered after `w`, and every write ordered before
                    // the read precedes `w`.
                    for w2 in bitset::ones_and(reach.row(w as usize), write_mask.words()) {
                        if w2 != rid {
                            changed |= graph.add(r.id, w2 as u32);
                        }
                    }
                    for w2 in bitset::ones(writes_before.words()) {
                        if w2 != w as usize && w2 != rid {
                            changed |= graph.add(w2 as u32, w);
                        }
                    }
                }
            }
            if deep && r.has_init && r.len == 0 {
                // Must read the initial value, which no write re-produces
                // (any such write would be a candidate): the read precedes
                // every write (O(writes) fan-out per such read — deep rule).
                for &w2 in write_ids.iter() {
                    changed |= graph.add(r.id, w2);
                }
            }
        }
    }

    // Fast accept: a value-aware greedy simulation of the must-precede
    // graph. Reads are *absorbed* as soon as they are released and match
    // the current value (the same admissible move the exact search makes
    // greedily); an RMW whose read matches the current value outranks any
    // plain write (skipping it could strand the RMW behind an overwrite);
    // remaining writes go in deterministic `(lo, hi, id)` window order.
    // Success is self-certifying — every scheduled read was checked
    // against the value it sees, so the order is itself the witness
    // schedule. Failure just falls through to DFS.
    if n > 0 && !skip_fixpoint {
        let (succs, preds) = (&graph.succs[..n], &graph.preds[..n]);
        indeg.clear();
        indeg.extend(preds.iter().map(|p| p.len() as u32));
        // Released-but-unscheduled ops, bucketed by what can unblock them:
        // plain reads and RMWs wait for their read value to become
        // current; plain writes are always eligible.
        for buckets in [&mut *ready_reads, &mut *ready_rmws] {
            if buckets.len() < nvals {
                buckets.resize_with(nvals, BinaryHeap::new);
            }
            buckets[..nvals].iter_mut().for_each(BinaryHeap::clear);
        }
        ready_writes.clear();
        let release = |i: u32,
                       reads: &mut [BinaryHeap<ReadyKey>],
                       rmws: &mut [BinaryHeap<ReadyKey>],
                       writes: &mut BinaryHeap<ReadyKey>| {
            let i_ = i as usize;
            let key = Reverse((lo[i_], hi[i_], i));
            match (read_vid[i_], write_vid[i_]) {
                (NO_VAL, _) => writes.push(key),
                (v, NO_VAL) => reads[v as usize].push(key),
                (v, _) => rmws[v as usize].push(key),
            }
        };
        for i in 0..n as u32 {
            if indeg[i as usize] == 0 {
                release(i, ready_reads, ready_rmws, ready_writes);
            }
        }
        let pop = |buckets: &mut [BinaryHeap<ReadyKey>], v: u32| {
            buckets
                .get_mut(v as usize)?
                .pop()
                .map(|Reverse((_, _, i))| i)
        };
        sched.clear();
        let mut current = initial;
        let mut current_vid = vid(initial);
        while sched.len() < n {
            // Absorb phase first, then the RMW consuming the current
            // value, then the lowest-window plain write.
            let next = pop(ready_reads, current_vid)
                .or_else(|| pop(ready_rmws, current_vid))
                .or_else(|| ready_writes.pop().map(|Reverse((_, _, i))| i));
            let Some(i) = next else {
                break; // released ops all wait on a value nobody can produce now
            };
            if let Some(v) = flat[i as usize].2.written_value() {
                current = v;
                current_vid = write_vid[i as usize];
            }
            sched.push(i);
            for &s in &succs[i as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    release(s, ready_reads, ready_rmws, ready_writes);
                }
            }
        }
        if sched.len() == n && ops.final_value().is_none_or(|f| f == current) {
            return WindowOutcome::Schedule(sched.iter().map(|&i| flat[i as usize].1).collect());
        }
    }

    let offsets = per_proc
        .iter()
        .scan(0u32, |acc, h| {
            let start = *acc;
            *acc += h.len() as u32;
            Some(start)
        })
        .collect();
    WindowOutcome::Table(WindowTable {
        offsets,
        lo: lo.clone(),
        hi: hi.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_trace::{Addr, TraceBuilder};

    fn analyze_trace(t: &vermem_trace::Trace) -> WindowOutcome {
        analyze(&AddrOps::of(t, Addr::ZERO))
    }

    #[test]
    fn simple_coherent_instance_fast_accepts() {
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::r(1u64)])
            .build();
        match analyze_trace(&t) {
            WindowOutcome::Schedule(s) => {
                let sched = vermem_trace::Schedule::from_refs(s);
                vermem_trace::check_coherent_schedule(&t, Addr::ZERO, &sched).unwrap();
            }
            other => panic!("expected fast accept, got {other:?}"),
        }
    }

    #[test]
    fn sparse_edge_set_empties_between_addresses() {
        let n = MAX_DEEP_OPS + 10;
        let last = n as u32 - 1;
        let mut g = Graph::default();
        g.reset(n);
        assert!(g.add(0, last) && g.add(last, 1));
        assert!(!g.add(0, last), "duplicate edge");
        // Sparse to sparse, and sparse to dense and back: no edge of an
        // earlier address survives into the next one.
        g.reset(n);
        assert_eq!(g.sparse.len(), 0);
        assert!(g.add(0, last));
        g.reset(4);
        assert_eq!(g.sparse.len(), 0);
        g.reset(n);
        assert!(g.add(0, last) && g.add(last, 1));
        assert_eq!(g.sparse.len(), 2);
    }

    #[test]
    fn rmw_pigeonhole_rejects() {
        // Three RMWs observe value 1 but only one write of 1 exists (and
        // the initial value is 0): pigeonhole contradiction.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::rw(1u64, 2u64)])
            .proc([Op::rw(1u64, 3u64)])
            .proc([Op::rw(1u64, 4u64)])
            .build();
        assert!(matches!(analyze_trace(&t), WindowOutcome::Infeasible));
    }

    #[test]
    fn forced_cycle_rejects() {
        // P0: W(1) R(2); P1: W(2) R(1). Each read has a unique foreign
        // serving write and a shadowing own-process write, forcing
        // W(1) < W(2) (to serve R(1) after W(1)... precisely: serving
        // edges W(2)->R(2), W(1)->R(1) plus after-own-write edges
        // W(1)->W(2) and W(2)->W(1) — a must-precede cycle.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64), Op::r(1u64)])
            .build();
        assert!(matches!(analyze_trace(&t), WindowOutcome::Infeasible));
    }

    #[test]
    fn own_process_shadowing_filters_candidates() {
        // P0: W(1) W(2) R(1) — the only write of 1 is shadowed by W(2),
        // so R(1) has no server (initial is 0).
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::w(2u64), Op::r(1u64)])
            .build();
        assert!(matches!(analyze_trace(&t), WindowOutcome::Infeasible));
    }

    #[test]
    fn forced_serving_edges_prove_incoherence_without_search() {
        // P0: W(1) R(2) W(2); P1: W(2) R(1) W(1). Own-process shadowing
        // leaves each read a *unique* foreign server, and the forced
        // after-own-write edges W(1)→W(2) and W(2)→W(1) form a
        // must-precede cycle: incoherent, decided polynomially.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64), Op::w(2u64)])
            .proc([Op::w(2u64), Op::r(1u64), Op::w(1u64)])
            .build();
        assert!(matches!(analyze_trace(&t), WindowOutcome::Infeasible));
    }

    #[test]
    fn undecided_instance_returns_windows_covering_program_order() {
        // Whether the value-aware simulation decides this instance or
        // falls back to a table, both outcomes must be well-formed: a
        // returned schedule is a verified witness, returned windows cover
        // program order.
        let t = TraceBuilder::new()
            .proc([Op::w(1u64), Op::w(2u64)])
            .proc([Op::r(1u64), Op::r(2u64)])
            .build();
        match analyze_trace(&t) {
            WindowOutcome::Table(w) => {
                // Program-order bounds always hold.
                for p in 0..2 {
                    for j in 0..2u32 {
                        let (lo, hi) = w.window(p, j);
                        assert!(lo >= j && hi <= 2 + j && lo <= hi, "({p},{j}) {lo}..{hi}");
                    }
                }
            }
            WindowOutcome::Schedule(s) => {
                let sched = vermem_trace::Schedule::from_refs(s);
                vermem_trace::check_coherent_schedule(&t, Addr::ZERO, &sched).unwrap();
            }
            WindowOutcome::Infeasible => panic!("instance is coherent"),
        }
    }

    #[test]
    fn never_rejects_coherent_instances() {
        use vermem_trace::gen::gen_hard_coherent;
        for seed in 0..40u64 {
            let (t, _) = gen_hard_coherent(4, 6, 2, seed);
            match analyze_trace(&t) {
                WindowOutcome::Infeasible => panic!("rejected coherent instance, seed {seed}"),
                WindowOutcome::Schedule(s) => {
                    let sched = vermem_trace::Schedule::from_refs(s);
                    vermem_trace::check_coherent_schedule(&t, Addr::ZERO, &sched)
                        .unwrap_or_else(|e| panic!("bad fast-accept witness, seed {seed}: {e:?}"));
                }
                WindowOutcome::Table(_) => {}
            }
        }
    }

    #[test]
    fn empty_address_yields_empty_schedule_or_table() {
        let t = TraceBuilder::new().proc([]).build();
        match analyze_trace(&t) {
            WindowOutcome::Infeasible => panic!("empty is coherent"),
            WindowOutcome::Schedule(s) => assert!(s.is_empty()),
            WindowOutcome::Table(_) => {}
        }
    }
}
