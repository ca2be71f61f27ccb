//! `verify-sim`, `verify-plain` and `verify-reuse`: one binary v2 file per
//! input, decoded with `binary::decode_trace` and verified with
//! `verify_execution_par(.., 1)`.

use crate::layers::{Layer, Layers};
use crate::workload::{Bench, Corpus};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use vermem_coherence::backtrack::solve_escalated_ops_with_stats;
use vermem_coherence::closure::{analyze_ops, ClosureOutcome, Tier, TierStats};
use vermem_coherence::{
    one_op, readmap, rmw, verify_execution_par, Algorithm, ExecutionReport, ExecutionVerdict,
    SearchConfig, SearchStats, Verdict, VmcVerifier,
};
use vermem_trace::binary::decode_trace;
use vermem_trace::{check_coherent_schedule, AddrIndex, Schedule, Trace};

/// Exact-search state budget of `verify-reuse` (per address). Sized so a
/// minority of files end Unknown.
pub const REUSE_MAX_STATES: u64 = 2_000;

/// A VMC workload over a corpus of v2 files.
pub struct Vmc {
    corpus: Corpus,
    verifier: VmcVerifier,
}

/// What the traced run must reproduce: the verdict (violations in full),
/// a digest of the witness schedules, and the summed stats and tiers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmcSummary {
    verdict: String,
    witnesses: u64,
    stats: SearchStats,
    tiers: TierStats,
}

impl Vmc {
    /// Workload over `corpus`; `max_states` bounds each exact search.
    pub fn new(corpus: Corpus, max_states: Option<u64>) -> Vmc {
        let verifier = VmcVerifier {
            search: SearchConfig {
                max_states,
                ..SearchConfig::default()
            },
            ..VmcVerifier::new()
        };
        // The traced run mirrors the tiered dispatch, which needs both.
        assert!(verifier.tier.frontline && verifier.search.prune.windows);
        Vmc { corpus, verifier }
    }

    fn load(&self, i: usize) -> Result<Vec<u8>, String> {
        std::fs::read(self.corpus.path(i)).map_err(|e| format!("input {i}: {e}"))
    }
}

fn digest(witnesses: &BTreeMap<vermem_trace::Addr, Schedule>) -> u64 {
    let mut h = DefaultHasher::new();
    for (addr, s) in witnesses {
        addr.0.hash(&mut h);
        for r in s.refs() {
            (r.proc.0, r.index).hash(&mut h);
        }
    }
    h.finish()
}

fn summarize(verdict: &ExecutionVerdict, stats: SearchStats, tiers: TierStats) -> VmcSummary {
    VmcSummary {
        verdict: crate::corpus::render_execution(verdict),
        witnesses: match verdict {
            ExecutionVerdict::Coherent(w) => digest(w),
            _ => 0,
        },
        stats,
        tiers,
    }
}

impl Bench for Vmc {
    type Output = (Trace, ExecutionReport);
    type Summary = VmcSummary;

    fn inputs(&self) -> usize {
        self.corpus.manifest.entries.len()
    }

    fn ops(&self, i: usize) -> u64 {
        self.corpus.manifest.entries[i].ops
    }

    fn run(&self, i: usize) -> Result<Self::Output, String> {
        let bytes = self.load(i)?;
        let trace = decode_trace(&bytes).map_err(|e| format!("input {i}: {e}"))?;
        let report = verify_execution_par(&trace, &self.verifier, 1);
        Ok((trace, report))
    }

    fn traced(&self, i: usize, layers: &mut Layers) -> Result<VmcSummary, String> {
        let bytes = layers.time(Layer::IoRead, || self.load(i))?;
        let trace = layers
            .time(Layer::Decode, || decode_trace(&bytes))
            .map_err(|e| format!("input {i}: {e}"))?;
        layers.counts.decoded_bytes += bytes.len() as u64;
        let index = layers.time(Layer::Index, || AddrIndex::build(&trace));
        let v = &self.verifier;
        let mut witnesses = BTreeMap::new();
        let mut stats = SearchStats::default();
        let mut tiers = TierStats::default();
        for ops in index.iter() {
            let fast = |layers: &mut Layers, f: fn(&vermem_trace::AddrOps) -> Verdict| {
                layers.counts.fastpath_addrs += 1;
                let verdict = layers.time(Layer::Fastpath, || f(ops));
                (verdict, SearchStats::default(), Tier::Frontline)
            };
            let (verdict, s, tier) = match layers.time(Layer::Fastpath, || v.select_ops(ops)) {
                Algorithm::ReadMap => fast(layers, readmap::solve_readmap_ops),
                Algorithm::RmwReadMap => fast(layers, rmw::solve_rmw_readmap_ops),
                Algorithm::OneOpPerProc => fast(layers, one_op::solve_one_op_ops),
                Algorithm::RmwOneOp => fast(layers, rmw::solve_rmw_one_op_ops),
                Algorithm::Backtracking => match layers.time(Layer::Closure, || analyze_ops(ops)) {
                    (ClosureOutcome::Coherent(w), s) => {
                        layers.counts.closure_decided += 1;
                        (Verdict::Coherent(w), s, Tier::Frontline)
                    }
                    (ClosureOutcome::Violation(x), s) => {
                        layers.counts.closure_decided += 1;
                        (Verdict::Incoherent(x), s, Tier::Frontline)
                    }
                    (ClosureOutcome::Escalate(table), _) => {
                        layers.counts.closure_escalated += 1;
                        let (verdict, s) = layers.time(Layer::Exact, || {
                            solve_escalated_ops_with_stats(ops, &v.search, Some(table))
                        });
                        let c = &mut layers.counts;
                        c.exact_states += s.states;
                        c.exact_memo_hits += s.memo_hits;
                        c.exact_memo_misses += s.memo_misses;
                        c.exact_prunes += s.window_prunes + s.symmetry_prunes + s.nogood_hits;
                        c.exact_unknown += u64::from(verdict == Verdict::Unknown);
                        (verdict, s, Tier::Exact)
                    }
                },
                Algorithm::SatEncoding => return Err("SAT strategy is not benchmarked".into()),
            };
            stats.absorb(&s);
            tiers.record(tier);
            match verdict {
                Verdict::Coherent(w) => {
                    witnesses.insert(ops.addr(), w);
                }
                Verdict::Incoherent(x) => {
                    return Ok(summarize(&ExecutionVerdict::Incoherent(x), stats, tiers))
                }
                Verdict::Unknown => {
                    let verdict = ExecutionVerdict::Unknown { addr: ops.addr() };
                    return Ok(summarize(&verdict, stats, tiers));
                }
            }
        }
        Ok(summarize(
            &ExecutionVerdict::Coherent(witnesses),
            stats,
            tiers,
        ))
    }

    fn check(&self, i: usize, (trace, report): &Self::Output) -> Result<(), String> {
        let entry = &self.corpus.manifest.entries[i];
        let verdict = &report.verdict;
        match entry.expected.as_str() {
            "coherent" if matches!(verdict, ExecutionVerdict::Incoherent(_)) => {
                return Err(format!(
                    "input {i}: coherent by construction, reported {verdict:?}"
                ))
            }
            "incoherent" if verdict.is_coherent() => {
                return Err(format!("input {i}: guaranteed injection reported coherent"))
            }
            "coherent" | "incoherent" | "any" => {}
            other => return Err(format!("input {i}: unknown expectation {other:?}")),
        }
        if let ExecutionVerdict::Coherent(witnesses) = verdict {
            let addrs = trace.addresses();
            if witnesses.len() != addrs.len() {
                return Err(format!(
                    "input {i}: witnesses for {} of {} addresses",
                    witnesses.len(),
                    addrs.len()
                ));
            }
            for (&addr, schedule) in witnesses {
                check_coherent_schedule(trace, addr, schedule)
                    .map_err(|e| format!("input {i}: witness at address {}: {e}", addr.0))?;
            }
        }
        Ok(())
    }

    fn summary(&self, _: usize, (_, report): &Self::Output) -> VmcSummary {
        summarize(&report.verdict, report.stats, report.tiers)
    }

    fn decided(&self, s: &VmcSummary) -> bool {
        !s.verdict.starts_with("unknown")
    }
}
