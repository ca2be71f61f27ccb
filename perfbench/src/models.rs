//! `sc-models`: every trace is checked with `verify_axiom` under TSO, RA and
//! ARM-dob on the compiled engine and under SC on the SAT engine. One input
//! is one (trace, model) check.

use crate::layers::{Layer, Layers};
use crate::workload::{Bench, Corpus, MODEL_CHECKS};
use std::hash::{DefaultHasher, Hash, Hasher};
use vermem_coherence::closure::Tier;
use vermem_coherence::{KernelConfig, SearchStats, TierConfig};
use vermem_consistency::axiom::{
    check_witness, encode_spec, ra_fast, spec, verify_axiom, AxiomConfig, AxiomReport, Engine,
    ModelId,
};
use vermem_consistency::{
    check_model_schedule, precheck_sc, ConsistencyVerdict, ConsistencyViolation, MemoryModel,
    ViolationClass,
};
use vermem_sat::{CdclSolver, SatResult};
use vermem_trace::binary::decode_trace;
use vermem_trace::Trace;

/// Kernel state budget of every compiled check.
const KERNEL_MAX_STATES: u64 = 1_000;

/// The model-checking workload.
pub struct Models {
    corpus: Corpus,
    configs: [AxiomConfig; MODEL_CHECKS.len()],
}

/// What the traced run must reproduce. SAT checks compare the verdict
/// class and violation only: the schedule a SAT witness serializes to is
/// built inside the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelSummary {
    verdict: String,
    schedule: u64,
    stats: SearchStats,
    tier: Tier,
}

impl Models {
    /// Workload over `corpus`.
    pub fn new(corpus: Corpus) -> Models {
        Models {
            corpus,
            configs: MODEL_CHECKS.map(|(_, engine)| AxiomConfig {
                engine,
                kernel: KernelConfig::with_budget(KERNEL_MAX_STATES),
                tier: TierConfig::tiered(),
            }),
        }
    }

    fn check_of(i: usize) -> (usize, ModelId, Engine) {
        let c = i % MODEL_CHECKS.len();
        (c, MODEL_CHECKS[c].0, MODEL_CHECKS[c].1)
    }

    fn load(&self, i: usize) -> Result<Vec<u8>, String> {
        std::fs::read(self.corpus.path(i / MODEL_CHECKS.len()))
            .map_err(|e| format!("input {i}: {e}"))
    }

    /// The manifest's SAT-oracle class for check `i`: `'c'` or `'v'`.
    fn expected(&self, i: usize) -> Result<char, String> {
        let entry = &self.corpus.manifest.entries[i / MODEL_CHECKS.len()];
        let (_, model, _) = Models::check_of(i);
        let key = format!("{}=", model.name());
        entry
            .expected
            .split(',')
            .find_map(|kv| kv.strip_prefix(key.as_str()))
            .and_then(|v| v.chars().next())
            .ok_or_else(|| format!("input {i}: manifest has no {} verdict", model.name()))
    }
}

fn render(verdict: &ConsistencyVerdict) -> String {
    match verdict {
        ConsistencyVerdict::Consistent(_) => "consistent".into(),
        ConsistencyVerdict::Violating(v) => format!("violating:{v:?}"),
        ConsistencyVerdict::Unknown { .. } => "unknown".into(),
    }
}

fn summarize(
    verdict: &ConsistencyVerdict,
    engine: Engine,
    stats: SearchStats,
    tier: Tier,
) -> ModelSummary {
    let schedule = match (verdict, engine) {
        (ConsistencyVerdict::Consistent(s), Engine::Compiled) => {
            let mut h = DefaultHasher::new();
            for r in s.refs() {
                (r.proc.0, r.index).hash(&mut h);
            }
            h.finish()
        }
        _ => 0,
    };
    ModelSummary {
        verdict: render(verdict),
        schedule,
        stats,
        tier,
    }
}

impl Bench for Models {
    type Output = (Trace, AxiomReport);
    type Summary = ModelSummary;

    fn inputs(&self) -> usize {
        self.corpus.manifest.entries.len() * MODEL_CHECKS.len()
    }

    fn ops(&self, i: usize) -> u64 {
        self.corpus.manifest.entries[i / MODEL_CHECKS.len()].ops
    }

    fn run(&self, i: usize) -> Result<Self::Output, String> {
        let (c, model, _) = Models::check_of(i);
        let bytes = self.load(i)?;
        let trace = decode_trace(&bytes).map_err(|e| format!("input {i}: {e}"))?;
        let report = verify_axiom(&trace, model, &self.configs[c]);
        Ok((trace, report))
    }

    fn traced(&self, i: usize, layers: &mut Layers) -> Result<ModelSummary, String> {
        let (c, model, engine) = Models::check_of(i);
        let bytes = layers.time(Layer::IoRead, || self.load(i))?;
        let trace = layers
            .time(Layer::Decode, || decode_trace(&bytes))
            .map_err(|e| format!("input {i}: {e}"))?;
        layers.counts.decoded_bytes += bytes.len() as u64;
        let precheck_tier = match engine {
            Engine::Sat => Tier::Exact,
            _ => Tier::Frontline,
        };
        if let Some(v) = layers.time(Layer::Precheck, || precheck_sc(&trace)) {
            let verdict = ConsistencyVerdict::Violating(v);
            return Ok(summarize(
                &verdict,
                engine,
                SearchStats::default(),
                precheck_tier,
            ));
        }
        if engine == Engine::Sat {
            let sp = spec(model);
            let enc = layers.time(Layer::SatEncode, || encode_spec(&trace, sp));
            layers.counts.sat_clauses += enc.cnf().num_clauses() as u64;
            let consistent = if enc.trivially_unsat() {
                false
            } else {
                // The engine also serializes the witness into a schedule
                // (`witness_schedule`, not public); this span checks the
                // witness instead, so it leaves that cost out.
                let (consistent, st) = layers.time(Layer::SatSolve, || {
                    let mut solver = CdclSolver::new(enc.cnf());
                    let consistent = match solver.solve() {
                        SatResult::Sat(m) => {
                            check_witness(&trace, sp, &enc.decode(&m)).map(|()| true)
                        }
                        SatResult::Unsat => Ok(false),
                    };
                    // Freeing the encoding is part of the engine's work.
                    drop(enc);
                    (consistent, solver.stats())
                });
                layers.counts.sat_conflicts += st.conflicts;
                layers.counts.sat_decisions += st.decisions;
                layers.counts.sat_propagations += st.propagations;
                consistent.map_err(|e| format!("input {i}: SAT witness rejected: {e}"))?
            };
            // The engine reports an unsatisfiable encoding as this violation.
            let verdict = if consistent {
                "consistent".to_string()
            } else {
                render(&ConsistencyVerdict::Violating(ConsistencyViolation {
                    class: ViolationClass::NoConsistentSchedule,
                }))
            };
            return Ok(ModelSummary {
                verdict,
                schedule: 0,
                stats: SearchStats::default(),
                tier: Tier::Exact,
            });
        }
        let cfg = &self.configs[c];
        if model == ModelId::Ra && cfg.tier.frontline {
            layers.counts.ra_fast_attempted += 1;
            if let ra_fast::FastOutcome::Decided(verdict) =
                layers.time(Layer::RaFast, || ra_fast::try_decide(&trace))
            {
                layers.counts.ra_fast_decided += 1;
                return Ok(summarize(
                    &verdict,
                    engine,
                    SearchStats::default(),
                    Tier::Frontline,
                ));
            }
        }
        // The exact tier alone: the compiled search `verify_axiom` runs
        // after an escalation. The search itself (`solve_compiled`) is not
        // public, so this span also repeats the precheck that passed above.
        let exact = AxiomConfig {
            tier: TierConfig::exact_only(),
            ..*cfg
        };
        let report = layers.time(Layer::Kernel, || verify_axiom(&trace, model, &exact));
        let k = &mut layers.counts;
        k.kernel_states += report.stats.states;
        k.kernel_memo_hits += report.stats.memo_hits;
        k.kernel_unknown += u64::from(matches!(report.verdict, ConsistencyVerdict::Unknown { .. }));
        Ok(summarize(
            &report.verdict,
            engine,
            report.stats,
            report.tier,
        ))
    }

    fn check(&self, i: usize, (trace, report): &Self::Output) -> Result<(), String> {
        let (_, model, _) = Models::check_of(i);
        let entry = &self.corpus.manifest.entries[i / MODEL_CHECKS.len()];
        let name = model.name();
        let verdict = &report.verdict;
        let want = self.expected(i)?;
        if want == 'c' && verdict.is_violating() || want == 'v' && verdict.is_consistent() {
            return Err(format!(
                "input {i}: {name} verdict {} disagrees with the SAT oracle",
                render(verdict)
            ));
        }
        if entry.source.contains("construction") && verdict.is_violating() {
            return Err(format!(
                "input {i}: SC by construction, {name} reported a violation"
            ));
        }
        if entry.source.contains("injection") && verdict.is_consistent() {
            return Err(format!(
                "input {i}: guaranteed injection, {name} reported consistent"
            ));
        }
        // RA and ARM-dob schedules have no public checker; their verdicts
        // rest on the manifest's SAT verdicts above, whose witnesses
        // `check_witness` validated at generation.
        if let ConsistencyVerdict::Consistent(schedule) = verdict {
            let serial = match model {
                ModelId::Sc => Some(MemoryModel::Sc),
                ModelId::Tso => Some(MemoryModel::Tso),
                _ => None,
            };
            if let Some(m) = serial {
                check_model_schedule(trace, m, schedule)
                    .map_err(|e| format!("input {i}: {name} witness: {e}"))?;
            }
        }
        Ok(())
    }

    fn summary(&self, i: usize, (_, report): &Self::Output) -> ModelSummary {
        let (_, _, engine) = Models::check_of(i);
        summarize(&report.verdict, engine, report.stats, report.tier)
    }

    fn decided(&self, s: &ModelSummary) -> bool {
        s.verdict != "unknown"
    }
}
