//! # vermem-coherence
//!
//! The core of the `vermem` suite: deciding **Verifying Memory Coherence**
//! (VMC, Definition 4.1 of Cantin, Lipasti & Smith) — given the per-process
//! histories of an execution and an address, does a coherent schedule of
//! the operations at that address exist?
//!
//! VMC is NP-complete (Theorem 4.2), so this crate pairs exact solvers with
//! every polynomial special case from the paper's Figure 5.3:
//!
//! | Figure 5.3 case | module | entry point |
//! |---|---|---|
//! | general (NP-complete) | [`backtrack`] | [`solve_backtracking`] |
//! | general via SAT | [`sat_encode`] | [`solve_sat`] |
//! | constant #processes, O(n^k) | [`backtrack`] (memoized) | [`solve_backtracking`] |
//! | 1 write/value (read-map), plain or mixed R/W + RMW, O(n) | [`readmap`] | [`readmap::solve_readmap`] |
//! | 1 op/process simple, O(n lg n) | [`one_op`] | [`one_op::solve_one_op`] |
//! | 1 op/process RMW, O(n²)→O(n) | [`rmw`] | [`rmw::solve_rmw_one_op`] |
//! | RMW read-map, O(n lg n)→O(n) | [`rmw`] | [`rmw::solve_rmw_readmap`] |
//! | write order given, O(n²)/O(n) (§5.2) | [`write_order`] | [`solve_with_write_order`] |
//!
//! The [`verify`] entry point classifies the instance (via
//! [`vermem_trace::classify`]) and dispatches to the cheapest applicable
//! algorithm; [`verify_execution`] applies it per address, which by the
//! definition in §3 decides coherence of the whole execution.
//!
//! ## Tiered verification
//!
//! By default the general (NP-complete) case no longer goes straight to
//! the exact search: a polynomial constraint-**closure** frontline
//! ([`closure`], TSOtool-style per Roy et al.) runs first and decides most
//! real addresses outright, escalating only ambiguous residues to the
//! exact tier — with the already-computed constraint table, so nothing is
//! analyzed twice. [`TierConfig`] selects the pipeline
//! (`closure,exact`, the default, vs the `exact` ablation); verdicts and
//! [`SearchStats`] are bit-identical either way (soundness argument in
//! DESIGN.md §4d), and [`par::ExecutionReport::tiers`] reports how many
//! addresses each tier decided.
//!
//! ## Streaming verification (`vermem serve`)
//!
//! Batch verification assumes the whole trace is in hand. The [`stream`]
//! module drops that assumption: [`StreamVerifier`] ingests length-prefixed
//! v3 binary event chunks from N concurrent streams, shards work per
//! address, and holds memory **bounded** by `streams × window_slack`
//! retained windows regardless of stream length — closed windows are
//! verified through the same tiered pipeline and discarded. Detections
//! surface while the stream is still running (the p99 detection latency is
//! a first-class receipt), verdicts are bit-identical to a batch run over
//! the same events, and the ingest hot path runs on dense-slab tables
//! with no per-event allocation once they reach their working set. An optional
//! flight recorder ([`RecorderConfig`]) keeps a per-shard ring of recent
//! windows and emits [`ForensicBundle`] JSONL on each detection.
//!
//! ## The exact-search kernel and declared memory models
//!
//! The exponential tier itself is one reusable engine: [`kernel`] owns the
//! memo table, packed/interned keys, state budget and cancellation, and
//! searches anything implementing [`TransitionSystem`]. The VMC
//! backtracking solver is one client; the `vermem-consistency` crate's
//! *axiom framework* is another — memory models (SC, TSO, PSO, RA,
//! ARM-dob, coherence-only) are declared as `ModelSpec` **data** (relation
//! generators plus acyclicity/irreflexivity axioms) and lowered by an
//! operational compiler onto this kernel, or by a SAT compiler onto CNF as
//! a differential oracle:
//!
//! ```
//! use vermem_consistency::{verify_axiom, AxiomConfig, Engine, ModelId};
//! use vermem_trace::{Op, TraceBuilder};
//!
//! // Dekker's store-buffering idiom: both processes buffer a flag write,
//! // then read the other flag as 0 — forbidden under SC, allowed by TSO.
//! let sb = TraceBuilder::new()
//!     .proc(vec![Op::write(0, 1), Op::read(1, 0)])
//!     .proc(vec![Op::write(1, 1), Op::read(0, 0)])
//!     .build();
//! let sc = verify_axiom(&sb, ModelId::Sc, &AxiomConfig::default());
//! let tso = verify_axiom(&sb, ModelId::Tso, &AxiomConfig::default());
//! assert!(!sc.verdict.is_consistent());
//! assert!(tso.verdict.is_consistent());
//!
//! // The SAT compiler lowers the *same* ModelSpec declaration to CNF.
//! let sat = AxiomConfig { engine: Engine::Sat, ..AxiomConfig::default() };
//! assert!(!verify_axiom(&sb, ModelId::Sc, &sat).verdict.is_consistent());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backtrack;
pub mod closure;
pub mod explain;
pub mod kernel;
pub mod one_op;
pub mod online;
pub mod open_problems;
pub mod par;
pub mod readmap;
pub mod rmw;
pub mod sat_encode;
pub mod stream;
mod verdict;
pub mod windows;
pub mod write_order;

pub use backtrack::{
    solve_backtracking, solve_backtracking_with_stats, PruneConfig, SearchConfig, SearchStats,
};
pub use closure::{ClosureOutcome, Tier, TierStats};
pub use explain::{minimize_incoherent_core, ExplainConfig, MinimalCore};
pub use kernel::{KernelConfig, KernelOutcome, TransitionSystem};
pub use online::{OnlineCause, OnlineVerifier, OnlineViolation};
pub use par::{verify_execution_par, ExecutionReport};
pub use sat_encode::{encode_vmc, solve_sat, solve_sat_certified, VmcEncoding};
pub use stream::{
    verify_stream_bytes, CoreCertificate, ForensicBundle, RecorderConfig, RingEntry, StreamConfig,
    StreamMetrics, StreamReport, StreamVerdict, StreamVerifier, FORENSIC_SCHEMA,
};
pub use verdict::{Verdict, Violation, ViolationKind};
pub use write_order::solve_with_write_order;

use std::collections::BTreeMap;
use vermem_trace::{Addr, AddrIndex, AddrOps, Schedule, Trace};

/// Which algorithm the dispatcher selected for an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Linear read-map algorithm (1 write/value, `d_I` never rewritten):
    /// plain reads/writes, or plain ops mixed with RMWs contracted into
    /// chains.
    ReadMap,
    /// Forced-chain algorithm (all RMW, 1 write/value).
    RmwReadMap,
    /// Grouped construction (1 simple op per process).
    OneOpPerProc,
    /// Eulerian path (1 RMW per process).
    RmwOneOp,
    /// Memoized exhaustive search (general case; polynomial for constant k).
    Backtracking,
    /// CNF encoding solved with the CDCL solver.
    SatEncoding,
}

/// Solver strategy for the general (NP-complete) case.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Use polynomial fast paths when applicable, backtracking otherwise.
    #[default]
    Auto,
    /// Always use the memoized backtracking solver.
    Backtracking,
    /// Always use the SAT encoding.
    Sat,
}

/// Which verification tiers run, and in what order (`--tier` on the CLI).
///
/// The default pipeline is `closure,exact`: the polynomial constraint
/// closure ([`closure`]) fronts the exact search, which only sees
/// escalated residues. `exact` is the ablation baseline that sends every
/// general instance straight to the exponential tier. The Figure 5.3
/// polynomial fast paths are part of the dispatcher, not a tier, so they
/// run (and count as frontline-decided) under both configurations;
/// verdicts and [`SearchStats`] are bit-identical under both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierConfig {
    /// Run the closure frontline before the exact search on general
    /// instances. Only effective while `search.prune.windows` is on: the
    /// frontline *is* the window-inference pass, so `--prune=none` (and
    /// any windows-off ablation) disables it to keep ablation semantics.
    pub frontline: bool,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig::tiered()
    }
}

impl TierConfig {
    /// The default `closure,exact` pipeline.
    pub fn tiered() -> Self {
        TierConfig { frontline: true }
    }

    /// The `exact` ablation: every general instance goes straight to the
    /// exact search.
    pub fn exact_only() -> Self {
        TierConfig { frontline: false }
    }

    /// Parse a CLI spec: `closure,exact` (the default) or `exact`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec.trim() {
            "closure,exact" => Ok(Self::tiered()),
            "exact" => Ok(Self::exact_only()),
            other => Err(format!(
                "unknown tier pipeline '{other}' (expected closure,exact or exact)"
            )),
        }
    }

    /// Canonical spec string (`closure,exact` or `exact`).
    pub fn spec(&self) -> &'static str {
        if self.frontline {
            "closure,exact"
        } else {
            "exact"
        }
    }
}

/// A configured VMC verifier.
#[derive(Clone, Copy, Debug, Default)]
pub struct VmcVerifier {
    /// Strategy for hard instances.
    pub strategy: Strategy,
    /// Budget for the backtracking search.
    pub search: SearchConfig,
    /// Tier pipeline (closure frontline on/off). Defaults to tiered.
    pub tier: TierConfig,
}

impl VmcVerifier {
    /// Verifier with default settings (auto dispatch, unlimited search).
    pub fn new() -> Self {
        Self::default()
    }

    /// Which algorithm [`VmcVerifier::verify`] would run on this instance.
    pub fn select(&self, trace: &Trace, addr: Addr) -> Algorithm {
        self.select_ops(&AddrOps::of(trace, addr))
    }

    /// As [`VmcVerifier::select`], from a pre-built per-address index entry.
    /// All applicability checks read the entry's cached structure, so
    /// selection costs O(procs + values) instead of O(total trace ops).
    pub fn select_ops(&self, ops: &AddrOps) -> Algorithm {
        match self.strategy {
            Strategy::Backtracking => Algorithm::Backtracking,
            Strategy::Sat => Algorithm::SatEncoding,
            Strategy::Auto => {
                // All-RMW unique-value addresses keep the forced chain; the
                // read-map solver takes plain and mixed ones (and the empty
                // address, as before).
                if rmw::readmap_applicable_ops(ops) && ops.has_rmw() {
                    Algorithm::RmwReadMap
                } else if readmap::applicable_ops(ops) {
                    Algorithm::ReadMap
                } else if one_op::applicable_ops(ops) {
                    Algorithm::OneOpPerProc
                } else if rmw::one_op_applicable_ops(ops) {
                    Algorithm::RmwOneOp
                } else {
                    Algorithm::Backtracking
                }
            }
        }
    }

    /// Decide coherence of the operations of `trace` at `addr`.
    pub fn verify(&self, trace: &Trace, addr: Addr) -> Verdict {
        self.verify_ops(trace, &AddrOps::of(trace, addr))
    }

    /// As [`VmcVerifier::verify`], also returning the backtracking search
    /// statistics (zero for the polynomial fast paths).
    pub fn verify_with_stats(&self, trace: &Trace, addr: Addr) -> (Verdict, SearchStats) {
        self.verify_ops_with_stats(trace, &AddrOps::of(trace, addr))
    }

    /// As [`VmcVerifier::verify`], on a pre-built per-address index entry
    /// (`trace` is only consulted by the SAT strategy and by debug witness
    /// checking — no full-trace rescans on the hot path).
    pub fn verify_ops(&self, trace: &Trace, ops: &AddrOps) -> Verdict {
        self.verify_ops_with_stats(trace, ops).0
    }

    /// As [`VmcVerifier::verify_ops`], also returning the backtracking
    /// search statistics (zero for the polynomial fast paths).
    pub fn verify_ops_with_stats(&self, trace: &Trace, ops: &AddrOps) -> (Verdict, SearchStats) {
        let (verdict, stats, _) = self.verify_ops_tiered(trace, ops);
        (verdict, stats)
    }

    /// The tiered entry point: as [`VmcVerifier::verify_ops_with_stats`],
    /// also reporting which [`Tier`] decided the address.
    ///
    /// On general instances with the frontline enabled (the default), the
    /// polynomial [`closure`] runs first; only an ambiguous residue is
    /// escalated to the exact search — together with the already-computed
    /// constraint table, so the fixpoint is never analyzed twice. The
    /// verdict and stats are bit-identical to the exact-only pipeline on
    /// every input (DESIGN.md §4d), and a budget [`Verdict::Unknown`] from
    /// the exact tier always passes through unmasked.
    ///
    /// ```
    /// use vermem_coherence::{Tier, TierConfig, VmcVerifier};
    /// use vermem_trace::{Addr, AddrOps, Op, TraceBuilder};
    /// let trace = TraceBuilder::new()
    ///     .proc([Op::w(1u64), Op::r(1u64), Op::r(2u64)])
    ///     .proc([Op::w(2u64), Op::w(1u64)])
    ///     .build();
    /// let ops = AddrOps::of(&trace, Addr::ZERO);
    /// let tiered = VmcVerifier::new(); // closure,exact by default
    /// let (verdict, stats, tier) = tiered.verify_ops_tiered(&trace, &ops);
    /// let exact = VmcVerifier { tier: TierConfig::exact_only(), ..VmcVerifier::new() };
    /// let (v2, s2, t2) = exact.verify_ops_tiered(&trace, &ops);
    /// assert_eq!((verdict, stats), (v2, s2)); // bit-identical verdicts
    /// assert_eq!(t2, Tier::Exact); // but the ablation skipped the frontline
    /// ```
    pub fn verify_ops_tiered(&self, trace: &Trace, ops: &AddrOps) -> (Verdict, SearchStats, Tier) {
        self.verify_ops_tiered_inner(Some(trace), ops)
    }

    /// As [`VmcVerifier::verify_ops_tiered`], without a backing [`Trace`].
    ///
    /// Every algorithm except the SAT encoding works entirely from the
    /// [`AddrOps`] entry, so a caller that only has per-address operation
    /// lists — the streaming engine re-materialising a pinned address —
    /// gets the same verdict, [`SearchStats`], and [`Tier`] the batch path
    /// produces for an equal entry (bit-identical by construction: it *is*
    /// the same dispatch). The witness debug check (which needs the trace)
    /// is skipped.
    ///
    /// # Panics
    ///
    /// If the verifier is configured with [`Strategy::Sat`], which encodes
    /// from the full trace; detached callers must reject that strategy up
    /// front.
    pub fn verify_ops_detached(&self, ops: &AddrOps) -> (Verdict, SearchStats, Tier) {
        assert!(
            self.strategy != Strategy::Sat,
            "Strategy::Sat needs a backing trace; detached verification does not support it"
        );
        self.verify_ops_tiered_inner(None, ops)
    }

    fn verify_ops_tiered_inner(
        &self,
        trace: Option<&Trace>,
        ops: &AddrOps,
    ) -> (Verdict, SearchStats, Tier) {
        use vermem_util::obs;
        let record = obs::enabled();
        let t0 = if record { obs::now_us() } else { 0 };
        let out = match self.select_ops(ops) {
            Algorithm::ReadMap => (
                readmap::solve_readmap_ops(ops),
                SearchStats::default(),
                Tier::Frontline,
            ),
            Algorithm::RmwReadMap => (
                rmw::solve_rmw_readmap_ops(ops),
                SearchStats::default(),
                Tier::Frontline,
            ),
            Algorithm::OneOpPerProc => (
                one_op::solve_one_op_ops(ops),
                SearchStats::default(),
                Tier::Frontline,
            ),
            Algorithm::RmwOneOp => (
                rmw::solve_rmw_one_op_ops(ops),
                SearchStats::default(),
                Tier::Frontline,
            ),
            Algorithm::Backtracking => {
                // The frontline *is* the precheck + window-inference pass;
                // with `prune.windows` off the exact search would not run
                // it either, so eligibility follows the prune knob.
                if self.tier.frontline && self.search.prune.windows {
                    match closure::analyze_ops(ops) {
                        (ClosureOutcome::Coherent(s), stats) => {
                            (Verdict::Coherent(s), stats, Tier::Frontline)
                        }
                        (ClosureOutcome::Violation(v), stats) => {
                            (Verdict::Incoherent(v), stats, Tier::Frontline)
                        }
                        (ClosureOutcome::Escalate(table), _) => {
                            let (v, s) = backtrack::solve_escalated_ops_with_stats(
                                ops,
                                &self.search,
                                Some(table),
                            );
                            (v, s, Tier::Exact)
                        }
                    }
                } else {
                    let (v, s) = backtrack::solve_backtracking_ops_with_stats(ops, &self.search);
                    (v, s, Tier::Exact)
                }
            }
            Algorithm::SatEncoding => (
                solve_sat(
                    trace.expect("Strategy::Sat rejected by detached entry point"),
                    ops.addr(),
                ),
                SearchStats::default(),
                Tier::Exact,
            ),
        };
        if record {
            // Per-tier accounting: decided counts plus a latency histogram
            // per deciding tier (escalated addresses land in the exact
            // histogram with their full frontline + search duration).
            let dur = obs::now_us().saturating_sub(t0);
            match out.2 {
                Tier::Frontline => {
                    obs::counter_add("tier.frontline.decided", 1);
                    obs::histogram_record("tier.frontline.us", dur);
                }
                Tier::Exact => {
                    obs::counter_add("tier.escalated", 1);
                    obs::histogram_record("tier.exact.us", dur);
                }
            }
        }
        if let (Verdict::Coherent(witness), Some(trace)) = (&out.0, trace) {
            debug_assert!(
                vermem_trace::check_coherent_schedule(trace, ops.addr(), witness).is_ok(),
                "solver produced invalid witness"
            );
        }
        out
    }
}

/// Decide coherence at `addr` with default settings.
///
/// ```
/// use vermem_trace::{Addr, Op, TraceBuilder};
/// // P0 wrote 1 then observed 2; P1 wrote 2: coherent (P1's write lands
/// // between P0's two operations).
/// let trace = TraceBuilder::new()
///     .proc([Op::w(1u64), Op::r(2u64)])
///     .proc([Op::w(2u64)])
///     .build();
/// assert!(vermem_coherence::verify(&trace, Addr::ZERO).is_coherent());
///
/// // A value regression is impossible in any interleaving.
/// let corr = TraceBuilder::new()
///     .proc([Op::w(1u64), Op::w(2u64)])
///     .proc([Op::r(2u64), Op::r(1u64)])
///     .build();
/// assert!(vermem_coherence::verify(&corr, Addr::ZERO).is_incoherent());
/// ```
pub fn verify(trace: &Trace, addr: Addr) -> Verdict {
    VmcVerifier::new().verify(trace, addr)
}

/// Outcome of verifying a whole execution: per-address witness schedules,
/// or the first violation found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecutionVerdict {
    /// Every address has a coherent schedule (the execution is coherent, §3).
    Coherent(BTreeMap<Addr, Schedule>),
    /// Some address has no coherent schedule.
    Incoherent(Violation),
    /// A budget ran out before the answer was known at some address.
    Unknown {
        /// The address whose verification was inconclusive.
        addr: Addr,
    },
}

impl ExecutionVerdict {
    /// True if the execution is coherent.
    pub fn is_coherent(&self) -> bool {
        matches!(self, ExecutionVerdict::Coherent(_))
    }
}

/// Verify coherence of every address of an execution (the paper's §3
/// definition: a coherent schedule must exist per address).
///
/// ```
/// use vermem_trace::{Op, TraceBuilder};
/// let trace = TraceBuilder::new()
///     .proc([Op::write(0u32, 1u64), Op::write(1u32, 2u64)])
///     .proc([Op::read(0u32, 1u64), Op::read(1u32, 2u64)])
///     .build();
/// assert!(vermem_coherence::verify_execution(&trace).is_coherent());
/// ```
pub fn verify_execution(trace: &Trace) -> ExecutionVerdict {
    verify_execution_with(trace, &VmcVerifier::new())
}

/// As [`verify_execution`], with explicit verifier settings.
///
/// Builds the [`AddrIndex`] once (a single O(ops) pass) and hands each
/// solver its pre-indexed entry, so whole-execution setup no longer costs
/// O(addresses × ops). Address order matches [`Trace::addresses`], so the
/// first reported violation is unchanged from the historical per-address
/// loop.
pub fn verify_execution_with(trace: &Trace, verifier: &VmcVerifier) -> ExecutionVerdict {
    let index = AddrIndex::build(trace);
    let mut witnesses = BTreeMap::new();
    for ops in index.iter() {
        match verifier.verify_ops(trace, ops) {
            Verdict::Coherent(s) => {
                witnesses.insert(ops.addr(), s);
            }
            Verdict::Incoherent(v) => return ExecutionVerdict::Incoherent(v),
            Verdict::Unknown => return ExecutionVerdict::Unknown { addr: ops.addr() },
        }
    }
    ExecutionVerdict::Coherent(witnesses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vermem_trace::{check_coherent_schedule, Op, TraceBuilder};

    #[test]
    fn dispatcher_selects_fast_paths() {
        let v = VmcVerifier::new();
        let readmap = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(2u64)])
            .proc([Op::w(2u64)])
            .build();
        assert_eq!(v.select(&readmap, Addr::ZERO), Algorithm::ReadMap);

        let rmw_chain = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64), Op::rw(1u64, 2u64)])
            .build();
        assert_eq!(v.select(&rmw_chain, Addr::ZERO), Algorithm::RmwReadMap);

        let mixed = TraceBuilder::new()
            .proc([Op::w(1u64), Op::rw(1u64, 2u64)])
            .proc([Op::r(2u64)])
            .build();
        assert_eq!(v.select(&mixed, Addr::ZERO), Algorithm::ReadMap);

        let one_op = TraceBuilder::new()
            .proc([Op::w(1u64)])
            .proc([Op::w(1u64)])
            .proc([Op::r(1u64)])
            .build();
        assert_eq!(v.select(&one_op, Addr::ZERO), Algorithm::OneOpPerProc);

        let euler = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64)])
            .proc([Op::rw(1u64, 0u64)])
            .build();
        assert_eq!(v.select(&euler, Addr::ZERO), Algorithm::RmwOneOp);

        let hard = TraceBuilder::new()
            .proc([Op::w(1u64), Op::r(1u64), Op::w(2u64)])
            .proc([Op::w(1u64), Op::r(2u64), Op::w(2u64)])
            .build();
        assert_eq!(v.select(&hard, Addr::ZERO), Algorithm::Backtracking);
    }

    /// Every instance that the Figure 5.3 classifier puts in the polynomial
    /// "1 write/value" row, with `d_I` never rewritten, reaches a fast path
    /// rather than the exact search — plain, mixed or all-RMW alike.
    #[test]
    fn dispatcher_follows_the_classifier_on_one_write_per_value() {
        use vermem_trace::classify::{InstanceProfile, KnownComplexity};
        use vermem_trace::gen::{gen_sc_trace, GenConfig};
        let v = VmcVerifier::new();
        let mut mixed = 0;
        for seed in 0..40u64 {
            let (t, _) = gen_sc_trace(&GenConfig {
                procs: 2 + (seed % 3) as usize,
                total_ops: 24 + (seed % 5) as usize * 8,
                addrs: 3,
                write_fraction: 0.3,
                rmw_fraction: 0.1 + (seed % 4) as f64 * 0.2,
                value_reuse: 0.0,
                seed,
            });
            for ops in AddrIndex::build(&t).iter() {
                let profile = InstanceProfile::of_ops(ops);
                let polynomial = matches!(
                    profile.known_complexity(),
                    KnownComplexity::Linear | KnownComplexity::Linearithmic
                );
                if polynomial
                    && profile.max_writes_per_value <= 1
                    && ops.writes_of(ops.initial()) == 0
                {
                    mixed += usize::from(ops.has_rmw() && !ops.all_rmw());
                    assert_ne!(
                        v.select_ops(ops),
                        Algorithm::Backtracking,
                        "seed {seed} addr {:?}: {profile:?}",
                        ops.addr()
                    );
                }
            }
        }
        assert!(mixed > 20, "only {mixed} mixed instances generated");
    }

    #[test]
    fn strategies_force_algorithm() {
        let t = TraceBuilder::new().proc([Op::w(1u64)]).build();
        let bt = VmcVerifier {
            strategy: Strategy::Backtracking,
            ..Default::default()
        };
        assert_eq!(bt.select(&t, Addr::ZERO), Algorithm::Backtracking);
        let sat = VmcVerifier {
            strategy: Strategy::Sat,
            ..Default::default()
        };
        assert_eq!(sat.select(&t, Addr::ZERO), Algorithm::SatEncoding);
    }

    #[test]
    fn verify_execution_multi_address() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64), Op::write(1u32, 2u64)])
            .proc([Op::read(0u32, 1u64), Op::read(1u32, 2u64)])
            .build();
        match verify_execution(&t) {
            ExecutionVerdict::Coherent(w) => {
                assert_eq!(w.len(), 2);
                for (&addr, s) in &w {
                    check_coherent_schedule(&t, addr, s).unwrap();
                }
            }
            other => panic!("expected coherent, got {other:?}"),
        }
    }

    #[test]
    fn verify_execution_detects_per_address_violation() {
        let t = TraceBuilder::new()
            .proc([Op::write(0u32, 1u64)])
            .proc([Op::read(1u32, 9u64)]) // address 1 never written, 9 != d_I
            .build();
        match verify_execution(&t) {
            ExecutionVerdict::Incoherent(v) => assert_eq!(v.addr, Addr(1)),
            other => panic!("expected incoherent, got {other:?}"),
        }
    }

    #[test]
    fn all_strategies_agree_on_random_instances() {
        use vermem_util::rng::StdRng;
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(9000 + seed);
            let procs = rng.gen_range(1..=3);
            let mut b = TraceBuilder::new();
            for _ in 0..procs {
                let len = rng.gen_range(0..=4);
                let ops: Vec<Op> = (0..len)
                    .map(|_| {
                        let v = rng.gen_range(0..3u64);
                        match rng.gen_range(0..3) {
                            0 => Op::r(v),
                            1 => Op::w(v),
                            _ => Op::rw(v, rng.gen_range(0..3u64)),
                        }
                    })
                    .collect();
                b = b.proc(ops);
            }
            let t = b.build();
            let auto = verify(&t, Addr::ZERO).is_coherent();
            let bt = VmcVerifier {
                strategy: Strategy::Backtracking,
                ..Default::default()
            }
            .verify(&t, Addr::ZERO)
            .is_coherent();
            let sat = VmcVerifier {
                strategy: Strategy::Sat,
                ..Default::default()
            }
            .verify(&t, Addr::ZERO)
            .is_coherent();
            assert_eq!(auto, bt, "auto vs backtracking, seed {seed}: {t:?}");
            assert_eq!(auto, sat, "auto vs sat, seed {seed}: {t:?}");
        }
    }
}
