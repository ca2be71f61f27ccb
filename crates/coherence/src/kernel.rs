//! The model-agnostic exact-search kernel: **one** memoized backtracking
//! engine under every operational consistency search.
//!
//! The paper's §6 lifts VMC hardness to the whole consistency family (VSC,
//! VSCC, TSO, ...), and the verifiers for those models are instances of a
//! single parameterized search (cf. Chini & Saivasan's consistency-algorithm
//! framework): explore the reachable states of an operational machine,
//! memoize states already refuted, accept when every operation has
//! committed. This module is that search, extracted from the engineering
//! substrate of [`crate::backtrack`] and exposed behind the
//! [`TransitionSystem`] trait so the VSC interleaving machine and the
//! TSO/PSO store-buffer machines (in `vermem-consistency`) run on the same
//! memo, budget, cancellation, statistics and observability stack as the
//! production VMC engine.
//!
//! ## What the kernel owns vs. what the system owns
//!
//! The **kernel** owns the commit schedule, the visited-state memo, the
//! state budget, the [`CancelToken`] poll, [`SearchStats`] and the
//! batch-flushed observability counters. The **system** owns the machine
//! state (frontiers, store buffers, memory) and defines: which moves are
//! enabled (in preferred exploration order), how to apply/undo one move,
//! which pending reads can be absorbed for free, when a state is accepting,
//! a sound feasibility check, and — critically — the *canonical state key*.
//!
//! ## Key-canonicalization contract
//!
//! [`TransitionSystem::state_key`] must emit an **injective** encoding of
//! the post-absorption search state into `u64` words: two states may
//! produce the same word sequence only if they are the same state
//! (variable-length parts must be length-prefixed). The kernel never
//! hashes a key down to fewer bits than the system emitted — short keys
//! (≤ 2 words) are stored verbatim in a zero-allocation
//! [`FxHashSet`] tier, longer keys are interned exactly once through
//! [`SliceInterner`] and re-probed by dense id — because a colliding
//! "already visited" answer would be an unsound refutation. No probe
//! allocates: a state costs at most one allocation, when its long key is
//! first interned.

use crate::backtrack::SearchStats;
use vermem_trace::OpRef;
use vermem_util::hash::FxHashSet;
use vermem_util::intern::SliceInterner;
use vermem_util::obs;
use vermem_util::pool::CancelToken;

/// Budget and ablation knobs for a kernel search. Flipping any knob
/// changes performance only, never verdicts.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Maximum distinct states to visit before giving up with
    /// [`KernelOutcome::BudgetExhausted`]. `None` = unlimited.
    pub max_states: Option<u64>,
    /// Sound feasibility pruning ([`TransitionSystem::infeasible`]):
    /// refute states from which no completion can exist (counted in
    /// [`SearchStats::window_prunes`]). On by default.
    pub feasibility: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            max_states: None,
            feasibility: true,
        }
    }
}

impl KernelConfig {
    /// Config with a state budget and all optimizations at their defaults.
    pub fn with_budget(max_states: u64) -> Self {
        KernelConfig {
            max_states: Some(max_states),
            ..Default::default()
        }
    }
}

/// How a kernel search ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelOutcome {
    /// An accepting run exists; the commit order (a model witness
    /// schedule) is attached.
    Accepted(Vec<OpRef>),
    /// The full reachable state space was explored without acceptance:
    /// the trace is *not* reachable under the system's semantics.
    Refuted,
    /// The state budget ran out before an answer was known.
    BudgetExhausted,
    /// The [`CancelToken`] fired before an answer was known.
    Cancelled,
}

/// An operational consistency machine, explored by [`run_search`].
///
/// Implementations own the mutable machine state; the kernel drives it
/// strictly in apply/undo (LIFO) discipline, so implementations may store
/// undo information inside [`TransitionSystem::Move`] captured at
/// enumeration time.
pub trait TransitionSystem {
    /// One branching move, cheap to copy. Enumeration-time state (e.g. the
    /// memory value a drain will overwrite) may be embedded for undo.
    type Move: Copy;

    /// Number of commits a complete run performs (= total operations).
    fn total_commits(&self) -> usize;

    /// Called only when every operation has committed: is the machine
    /// quiescent and are the final-value constraints satisfied?
    fn accepting(&self) -> bool;

    /// Greedily commit every *zero-effect* enabled move — pending reads
    /// that match current memory and are not blocked — pushing committed
    /// refs onto `commits`. Must be verdict-preserving (the exchange
    /// argument: a zero-effect commit changes no machine state and only
    /// enables more moves) and must push only moves undoable by
    /// [`TransitionSystem::retract_read`].
    fn absorb(&mut self, commits: &mut Vec<OpRef>);

    /// Undo one absorbed read (the kernel pops them in reverse order).
    fn retract_read(&mut self, r: OpRef);

    /// Sound refutation: `true` only if **no** completion can exist from
    /// this state (e.g. a frontier read demands a value with zero
    /// remaining supply). Consulted when [`KernelConfig::feasibility`] is
    /// on; counted in [`SearchStats::window_prunes`].
    fn infeasible(&self) -> bool;

    /// Emit the canonical state key (see the module docs for the
    /// injectivity contract). `key` arrives empty.
    fn state_key(&self, key: &mut Vec<u64>);

    /// Should the kernel memoize visited states? Default `true`.
    ///
    /// Systems whose state is uniquely determined by the path of moves
    /// that reached it (tree-shaped state graphs — e.g. monotone
    /// witness-construction searches where every decision is recorded
    /// forever) may return `false`: no state is ever reachable twice, so
    /// the memo could never hit and probing it is pure overhead. With
    /// memoization off the kernel skips key construction entirely;
    /// [`SearchStats::memo_hits`] and [`SearchStats::memo_misses`] stay 0
    /// while [`SearchStats::states`] still counts every search node (so
    /// budgets keep their meaning).
    fn memoize(&self) -> bool {
        true
    }

    /// Enumerate the enabled state-changing moves, in preferred
    /// exploration order (first pushed is explored first).
    fn enabled_moves(&self, moves: &mut Vec<Self::Move>);

    /// Apply `mv`; returns the operation it commits, if any (store-buffer
    /// writes commit at drain, not at issue).
    fn apply(&mut self, mv: Self::Move) -> Option<OpRef>;

    /// Reverse [`TransitionSystem::apply`]`(mv)`. Called with the machine
    /// exactly in the post-apply state.
    fn undo(&mut self, mv: Self::Move);
}

/// Pack a per-process frontier into key words: one byte per process in a
/// single word when the instance shape allows (`packed`, decided once per
/// instance via [`frontier_packs`]), one word per process otherwise.
pub fn encode_frontier(frontier: &[u32], packed: bool, key: &mut Vec<u64>) {
    if packed {
        let mut word = 0u64;
        for (p, &f) in frontier.iter().enumerate() {
            debug_assert!(f <= u8::MAX as u32 && p < 8, "packed key precondition");
            word |= u64::from(f) << (8 * p);
        }
        key.push(word);
    } else {
        key.extend(frontier.iter().map(|&f| u64::from(f)));
    }
}

/// True when every frontier of this instance packs into one `u64`:
/// at most 8 processes with at most 255 operations each.
pub fn frontier_packs(history_lens: impl ExactSizeIterator<Item = usize>) -> bool {
    history_lens.len() <= 8 && {
        let mut ok = true;
        for len in history_lens {
            ok &= len <= u8::MAX as usize;
        }
        ok
    }
}

/// The visited-state set: two Fx-hashed tiers. Keys of ≤ 2 words live
/// length-tagged in a flat set (zero allocations per probe); longer keys are
/// interned once and never re-allocated. Keys of different length are never
/// equal, so routing by length preserves exactness.
#[derive(Default)]
struct Memo {
    small: FxHashSet<(u64, u64, u8)>,
    long: SliceInterner<u64>,
}

impl Memo {
    /// Record `key`; true iff it was not already present.
    fn insert(&mut self, key: &[u64]) -> bool {
        match *key {
            [] => self.small.insert((0, 0, 0)),
            [a] => self.small.insert((a, 0, 1)),
            [a, b] => self.small.insert((a, b, 2)),
            _ => self.long.intern(key).1,
        }
    }
}

/// Run the memoized backtracking search over `sys`.
///
/// The returned [`SearchStats`] obey the same contract as the VMC
/// engine's: always-on, deterministic, identical whether observability is
/// enabled or not, with `memo_misses == states` for memoizing systems
/// (memoization is integral to the kernel; systems that opt out via
/// [`TransitionSystem::memoize`] report `memo_hits == memo_misses == 0`). One observability batch-flush happens per call — never
/// per state — under the same `search.*` counter names the VMC engine
/// uses, plus `kernel.memo.*` for the key-tier accounting.
pub fn run_search<S: TransitionSystem>(
    sys: &mut S,
    cfg: &KernelConfig,
    cancel: Option<&CancelToken>,
) -> (KernelOutcome, SearchStats) {
    let total = sys.total_commits();
    let memoize = sys.memoize();
    let mut kernel = Kernel {
        sys,
        memo: Memo::default(),
        memoize,
        commits: Vec::with_capacity(total),
        total,
        max_states: cfg.max_states,
        feasibility: cfg.feasibility,
        cancel,
        stats: SearchStats::default(),
        budget_hit: false,
        cancelled: false,
        key_scratch: Vec::new(),
        depth_hist: if obs::enabled() {
            Some(obs::Histogram::new())
        } else {
            None
        },
    };
    let found = kernel.dfs();
    let Kernel {
        memo,
        commits,
        stats,
        budget_hit,
        cancelled,
        depth_hist,
        ..
    } = kernel;

    if obs::enabled() {
        obs::counter_add("search.states", stats.states);
        obs::counter_add("search.branches", stats.branches);
        obs::counter_add("search.memo.hits", stats.memo_hits);
        obs::counter_add("search.memo.misses", stats.memo_misses);
        obs::counter_add("search.window.prunes", stats.window_prunes);
        // One allocation per distinct long key; short keys never allocate.
        obs::counter_add("kernel.memo.key_allocs", memo.long.allocations());
        if let Some(h) = &depth_hist {
            obs::merge_histogram("search.depth", h);
        }
    }

    let outcome = if found {
        debug_assert_eq!(commits.len(), total, "accepting run must be complete");
        KernelOutcome::Accepted(commits)
    } else if cancelled {
        KernelOutcome::Cancelled
    } else if budget_hit {
        KernelOutcome::BudgetExhausted
    } else {
        KernelOutcome::Refuted
    };
    (outcome, stats)
}

/// Poll the cancel token once per this many states.
const CANCEL_POLL_MASK: u64 = 0x3FF;

struct Kernel<'a, S: TransitionSystem> {
    sys: &'a mut S,
    memo: Memo,
    /// Cached [`TransitionSystem::memoize`] answer for this run.
    memoize: bool,
    commits: Vec<OpRef>,
    total: usize,
    max_states: Option<u64>,
    feasibility: bool,
    cancel: Option<&'a CancelToken>,
    stats: SearchStats,
    budget_hit: bool,
    cancelled: bool,
    /// Key-construction scratch: probing allocates nothing beyond the
    /// memo's own storage.
    key_scratch: Vec<u64>,
    /// `Some` only while observability is enabled: per-state commit
    /// depths, batch-merged into the registry at solve end.
    depth_hist: Option<obs::Histogram>,
}

impl<S: TransitionSystem> Kernel<'_, S> {
    /// Returns true if an accepting run was found (left in `self.commits`).
    fn dfs(&mut self) -> bool {
        // Greedy absorption of zero-effect moves.
        let absorbed_base = self.commits.len();
        self.sys.absorb(&mut self.commits);

        macro_rules! fail {
            () => {{
                while self.commits.len() > absorbed_base {
                    let r = self.commits.pop().expect("non-empty");
                    self.sys.retract_read(r);
                }
                return false;
            }};
        }

        // Completion check.
        if self.commits.len() == self.total {
            if self.sys.accepting() {
                return true;
            }
            fail!();
        }

        // Memoization: one exact probe per state (skipped entirely for
        // tree-shaped systems that opted out — their memo never hits).
        if self.memoize {
            let mut key = std::mem::take(&mut self.key_scratch);
            key.clear();
            self.sys.state_key(&mut key);
            let fresh = self.memo.insert(&key);
            self.key_scratch = key;
            if !fresh {
                self.stats.memo_hits += 1;
                fail!();
            }
            self.stats.memo_misses += 1;
        }
        self.stats.states += 1;
        if let Some(h) = &mut self.depth_hist {
            h.record(self.commits.len() as u64);
        }

        // Budget and cooperative cancellation.
        if let Some(max) = self.max_states {
            if self.stats.states > max {
                self.budget_hit = true;
                fail!();
            }
        }
        if let Some(c) = self.cancel {
            if self.stats.states & CANCEL_POLL_MASK == 0 && c.is_cancelled() {
                self.cancelled = true;
                fail!();
            }
        }

        // Sound feasibility refutation (the per-model frontier bound).
        if self.feasibility && self.sys.infeasible() {
            self.stats.window_prunes += 1;
            fail!();
        }

        let mut moves = Vec::new();
        self.sys.enabled_moves(&mut moves);
        for mv in moves {
            self.stats.branches += 1;
            let committed = self.sys.apply(mv);
            if let Some(r) = committed {
                self.commits.push(r);
            }
            if self.dfs() {
                return true;
            }
            if committed.is_some() {
                self.commits.pop();
            }
            self.sys.undo(mv);
        }
        fail!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy system: `n` independent counters, each stepped to 2, with an
    /// optional "forbidden" full state making the instance refutable.
    /// Commit refs are (proc, step).
    struct Counters {
        vals: Vec<u32>,
        limit: u32,
        accept: bool,
    }

    impl TransitionSystem for Counters {
        type Move = usize;

        fn total_commits(&self) -> usize {
            self.vals.len() * self.limit as usize
        }
        fn accepting(&self) -> bool {
            self.accept
        }
        fn absorb(&mut self, _commits: &mut Vec<OpRef>) {}
        fn retract_read(&mut self, _r: OpRef) {
            unreachable!("no absorption in the toy system")
        }
        fn infeasible(&self) -> bool {
            false
        }
        fn state_key(&self, key: &mut Vec<u64>) {
            key.extend(self.vals.iter().map(|&v| u64::from(v)));
        }
        fn enabled_moves(&self, moves: &mut Vec<usize>) {
            for (p, &v) in self.vals.iter().enumerate() {
                if v < self.limit {
                    moves.push(p);
                }
            }
        }
        fn apply(&mut self, p: usize) -> Option<OpRef> {
            let step = self.vals[p];
            self.vals[p] += 1;
            Some(OpRef::new(p as u16, step))
        }
        fn undo(&mut self, p: usize) {
            self.vals[p] -= 1;
        }
    }

    #[test]
    fn accepting_run_has_full_commit_order() {
        let mut sys = Counters {
            vals: vec![0; 3],
            limit: 2,
            accept: true,
        };
        let (outcome, stats) = run_search(&mut sys, &KernelConfig::default(), None);
        match outcome {
            KernelOutcome::Accepted(commits) => assert_eq!(commits.len(), 6),
            other => panic!("expected accepted, got {other:?}"),
        }
        assert!(stats.states > 0);
        assert_eq!(stats.memo_misses, stats.states);
    }

    #[test]
    fn refutation_memoizes_the_full_lattice() {
        // 3 counters to 2 with acceptance off: the memoized search visits
        // each interior lattice point exactly once — 3^3 = 27 states minus
        // the full corner (completion is checked before memoization).
        let mut sys = Counters {
            vals: vec![0; 3],
            limit: 2,
            accept: false,
        };
        let (outcome, stats) = run_search(&mut sys, &KernelConfig::default(), None);
        assert_eq!(outcome, KernelOutcome::Refuted);
        assert_eq!(stats.states, 26);
        assert!(stats.memo_hits > 0, "lattice re-entries must hit the memo");
    }

    #[test]
    fn memo_insert_matches_an_exact_set() {
        // Random keys of 0–4 words over a tiny alphabet, so one leading
        // word recurs at every length: `[a]`, `[a, 0]`, `[a, 0, 0]` are
        // three different keys in three different places of the memo.
        // Every answer must match an exact set of whole keys.
        use std::collections::BTreeSet;
        use vermem_util::rng::StdRng;
        const WORDS: [u64; 4] = [0, 1, 7, u64::MAX];
        let mut rng = StdRng::seed_from_u64(0x3e30);
        let mut memo = Memo::default();
        let mut reference: BTreeSet<Vec<u64>> = BTreeSet::new();
        for _ in 0..20_000 {
            let len = rng.gen_range(0..=4usize);
            let key: Vec<u64> = (0..len).map(|_| WORDS[rng.gen_range(0..4usize)]).collect();
            assert_eq!(memo.insert(&key), reference.insert(key.clone()), "{key:?}");
            let a = WORDS[rng.gen_range(0..4usize)];
            for key in [vec![a], vec![a, 0], vec![a, 0, 0]] {
                assert_eq!(memo.insert(&key), reference.insert(key.clone()), "{key:?}");
            }
        }
        assert_eq!(reference.len(), 341, "every key of 0-4 words was drawn");
        let long = reference.iter().filter(|k| k.len() > 2).count() as u64;
        assert_eq!(
            memo.long.allocations(),
            long,
            "one allocation per distinct long key"
        );
    }

    /// [`Counters`] with memoization opted out: the diamond lattice is
    /// re-explored as a tree.
    struct TreeCounters(Counters);

    impl TransitionSystem for TreeCounters {
        type Move = usize;

        fn total_commits(&self) -> usize {
            self.0.total_commits()
        }
        fn accepting(&self) -> bool {
            self.0.accepting()
        }
        fn absorb(&mut self, commits: &mut Vec<OpRef>) {
            self.0.absorb(commits)
        }
        fn retract_read(&mut self, r: OpRef) {
            self.0.retract_read(r)
        }
        fn infeasible(&self) -> bool {
            self.0.infeasible()
        }
        fn state_key(&self, key: &mut Vec<u64>) {
            self.0.state_key(key)
        }
        fn memoize(&self) -> bool {
            false
        }
        fn enabled_moves(&self, moves: &mut Vec<usize>) {
            self.0.enabled_moves(moves)
        }
        fn apply(&mut self, p: usize) -> Option<OpRef> {
            self.0.apply(p)
        }
        fn undo(&mut self, p: usize) {
            self.0.undo(p)
        }
    }

    #[test]
    fn memoize_opt_out_counts_states_without_memo_traffic() {
        let mut sys = TreeCounters(Counters {
            vals: vec![0; 3],
            limit: 2,
            accept: false,
        });
        let (outcome, stats) = run_search(&mut sys, &KernelConfig::default(), None);
        assert_eq!(outcome, KernelOutcome::Refuted);
        assert_eq!(stats.memo_hits, 0, "no probes at all without memoization");
        assert_eq!(stats.memo_misses, 0);
        // The 3-counter lattice re-explored as a tree visits strictly more
        // nodes than the 26 memoized interior points.
        assert!(stats.states > 26, "tree exploration, not lattice");

        // Budgets still bite without a memo.
        let mut sys = TreeCounters(Counters {
            vals: vec![0; 4],
            limit: 2,
            accept: false,
        });
        let (outcome, stats) = run_search(&mut sys, &KernelConfig::with_budget(5), None);
        assert_eq!(outcome, KernelOutcome::BudgetExhausted);
        assert!(stats.states > 5);
    }

    #[test]
    fn budget_reports_exhaustion() {
        let mut sys = Counters {
            vals: vec![0; 4],
            limit: 2,
            accept: false,
        };
        let (outcome, stats) = run_search(&mut sys, &KernelConfig::with_budget(5), None);
        assert_eq!(outcome, KernelOutcome::BudgetExhausted);
        // Past the cap every fresh state is pruned immediately, so the
        // overshoot is bounded by the open siblings (same contract as the
        // VMC engine's budget).
        assert!(stats.states > 5, "cap must have been crossed");
        let full = {
            let mut sys = Counters {
                vals: vec![0; 4],
                limit: 2,
                accept: false,
            };
            run_search(&mut sys, &KernelConfig::default(), None)
                .1
                .states
        };
        assert!(stats.states < full, "budget must truncate the search");
    }

    #[test]
    fn pre_cancelled_token_aborts() {
        // The poll mask means tiny searches may finish before the first
        // poll; use a space big enough to cross it.
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut sys = Counters {
            vals: vec![0; 7],
            limit: 3,
            accept: false,
        };
        let (outcome, _) = run_search(&mut sys, &KernelConfig::default(), Some(&cancel));
        assert_eq!(outcome, KernelOutcome::Cancelled);
    }

    #[test]
    fn key_allocs_small_tier_is_zero() {
        let mut sys = Counters {
            vals: vec![0; 2],
            limit: 2,
            accept: false,
        };
        let cfg = KernelConfig::default();
        let mut memo_probe = Memo::default();
        assert!(memo_probe.insert(&[1, 2]));
        assert!(!memo_probe.insert(&[1, 2]));
        assert_eq!(
            memo_probe.long.allocations(),
            0,
            "2-word keys never allocate"
        );
        assert!(memo_probe.insert(&[1, 2, 3]));
        assert_eq!(memo_probe.long.allocations(), 1);

        let (_, stats) = run_search(&mut sys, &cfg, None);
        assert!(stats.states > 0);
    }

    #[test]
    fn memo_tiers_never_cross_collide() {
        let mut memo = Memo::default();
        // Same leading words, different lengths: all distinct keys.
        assert!(memo.insert(&[]));
        assert!(memo.insert(&[0]));
        assert!(memo.insert(&[0, 0]));
        assert!(memo.insert(&[0, 0, 0]));
        assert!(memo.insert(&[0, 0, 0, 0]));
        assert!(!memo.insert(&[0, 0, 0]));
        assert!(!memo.insert(&[]));
    }

    #[test]
    fn frontier_packing_helpers() {
        let mut key = Vec::new();
        encode_frontier(&[1, 2, 3], true, &mut key);
        assert_eq!(key, vec![1 | (2 << 8) | (3 << 16)]);
        key.clear();
        encode_frontier(&[1, 2, 3], false, &mut key);
        assert_eq!(key, vec![1, 2, 3]);
        assert!(frontier_packs([4usize, 255].into_iter()));
        assert!(!frontier_packs([256usize].into_iter()));
        assert!(!frontier_packs(vec![1usize; 9].into_iter()));
    }
}
