//! Seeded corpus generation.
//!
//! Every workload's inputs are written once per (seed, parameters) into a
//! directory of binary files plus a [`Manifest`]; the timed phase only reads
//! those files. Faults are placed by input position (every tenth or every
//! fourth input), so each corpus carries the same fault share whatever the
//! seed, and the seed varies the traces themselves.
//!
//! Expected verdicts, and where they come from:
//!
//! * `construction` — the generator cannot produce a violation: fault-free
//!   simulator runs and `gen_sc_trace` without injection are coherent and
//!   sequentially consistent.
//! * `injection` — `inject_violation` reported `guaranteed`: the input is
//!   incoherent (and so violates every model).
//! * `batch` — the batch engine's verdict on the same events, which a
//!   stream verdict must equal.
//! * `sat` — per-model verdicts from the SAT compiler, each satisfying
//!   assignment decoded and validated by `axiom::check_witness`.
//! * `none` — a fault that may be masked; only witnesses are checked.

use crate::manifest::{Entry, Manifest};
use crate::workload::{Workload, MODEL_CHECKS};
use std::path::Path;
use vermem_coherence::{verify_execution_par, ExecutionVerdict, VmcVerifier};
use vermem_consistency::axiom::{check_witness, encode_spec, spec};
use vermem_consistency::precheck_sc;
use vermem_sat::{CdclSolver, SatResult};
use vermem_sim::{FaultKind, FaultPlan, Machine, MachineConfig, WorkloadConfig};
use vermem_trace::binary::{decode_trace, encode_trace};
use vermem_trace::gen::{gen_sc_trace, inject_violation, GenConfig, ViolationKind};
use vermem_trace::Trace;
use vermem_util::rng::StdRng;

/// Shape of one workload's corpus.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of input files.
    pub files: usize,
    /// Processes (simulated CPUs) per trace.
    pub procs: usize,
    /// Operations per trace.
    pub ops: usize,
    /// Shared addresses per trace.
    pub addrs: usize,
    /// Probability that an operation is an RMW.
    pub rmw: f64,
    /// Probability that a write reuses an earlier value (generated traces).
    pub value_reuse: f64,
    /// One input in this many carries an injected fault.
    pub fault_every: usize,
    /// Which protocol fault a faulty simulator run carries.
    pub sim_fault: SimFault,
}

/// The protocol fault of a faulty simulator run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimFault {
    /// The four fault kinds in rotation, armed in the first half of the
    /// run; many are masked and leave the trace coherent.
    Mixed,
    /// A corrupted cache fill armed in the third quarter of the run: it was
    /// detected in 60 of 60 trial streams of this shape, late enough that
    /// the address had retired ops, so every faulty stream goes through the
    /// replay pass. With the mixed faults the replayed streams were a
    /// seed-dependent 2–6% of the corpus, right at the p90 of per-stream
    /// latency.
    LateCorruptFill,
}

impl Params {
    /// The fixed corpus shape of `workload`.
    pub fn of(workload: Workload) -> Params {
        match workload {
            Workload::VerifySim => Params {
                files: 300,
                procs: 4,
                ops: 1200,
                addrs: 48,
                rmw: 0.1,
                value_reuse: 0.0,
                fault_every: 10,
                sim_fault: SimFault::Mixed,
            },
            Workload::VerifyPlain => Params {
                files: 300,
                procs: 4,
                ops: 4800,
                addrs: 48,
                rmw: 0.0,
                value_reuse: 0.0,
                fault_every: 10,
                sim_fault: SimFault::Mixed,
            },
            Workload::VerifyReuse => Params {
                files: 400,
                procs: 4,
                ops: 900,
                addrs: 24,
                rmw: 0.0,
                value_reuse: 0.5,
                fault_every: 4,
                sim_fault: SimFault::Mixed,
            },
            Workload::ScModels => Params {
                files: 400,
                procs: 3,
                ops: 24,
                addrs: 2,
                rmw: 0.0,
                value_reuse: 0.5,
                fault_every: 4,
                sim_fault: SimFault::Mixed,
            },
            Workload::ServeStream => Params {
                files: 300,
                procs: 4,
                ops: 12_800,
                addrs: 64,
                rmw: 0.0,
                value_reuse: 0.0,
                fault_every: 4,
                sim_fault: SimFault::LateCorruptFill,
            },
        }
    }

    /// Fingerprint recorded in the manifest and the corpus directory name,
    /// so a changed shape never reuses a stale corpus.
    pub fn fingerprint(&self) -> String {
        format!(
            "f{}-p{}-o{}-a{}-rmw{}-reuse{}-fault1in{}-{:?}",
            self.files,
            self.procs,
            self.ops,
            self.addrs,
            self.rmw,
            self.value_reuse,
            self.fault_every,
            self.sim_fault
        )
    }
}

/// Per-input seed: the corpus seed mixed with the input position.
fn input_seed(seed: u64, id: usize) -> u64 {
    let mut x = seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 29)
}

/// Render a batch verdict in the manifest's spelling.
pub(crate) fn render_execution(v: &ExecutionVerdict) -> String {
    match v {
        ExecutionVerdict::Coherent(_) => "coherent".into(),
        ExecutionVerdict::Incoherent(v) => format!("incoherent:{v:?}"),
        ExecutionVerdict::Unknown { addr } => format!("unknown:{}", addr.0),
    }
}

const INJECTIONS: [ViolationKind; 4] = [
    ViolationKind::CorruptReadValue,
    ViolationKind::StaleRead,
    ViolationKind::LostWrite,
    ViolationKind::ReorderAdjacent,
];

/// A generated SC trace, with every `fault_every`-th one fault-injected.
/// Returns the trace and its (expected, source) pair for VMC.
fn generated(p: &Params, id: usize, s: u64) -> (Trace, &'static str, &'static str) {
    let (trace, _) = gen_sc_trace(&GenConfig {
        procs: p.procs,
        total_ops: p.ops,
        addrs: p.addrs,
        write_fraction: 0.5,
        rmw_fraction: p.rmw,
        value_reuse: p.value_reuse,
        seed: s,
    });
    if id % p.fault_every == p.fault_every - 1 {
        let kind = INJECTIONS[(id / p.fault_every) % INJECTIONS.len()];
        if let Some((bad, inj)) = inject_violation(&trace, kind, s ^ 0xFA17) {
            return if inj.guaranteed {
                (bad, "incoherent", "injection")
            } else {
                (bad, "any", "none")
            };
        }
    }
    (trace, "coherent", "construction")
}

/// A MESI simulator run, with every `fault_every`-th one carrying a single
/// protocol fault.
fn simulated(p: &Params, id: usize, s: u64) -> (vermem_sim::CapturedExecution, bool) {
    let program = vermem_sim::random_program(&WorkloadConfig {
        cpus: p.procs,
        instrs_per_cpu: p.ops.div_ceil(p.procs),
        addrs: p.addrs,
        write_fraction: 0.45,
        rmw_fraction: p.rmw,
        seed: s,
    });
    let faulty = id % p.fault_every == p.fault_every - 1;
    let faults = if faulty {
        let mut rng = StdRng::seed_from_u64(s ^ 0xFA17);
        let cpu = rng.gen_range(0..p.procs);
        let ops = p.ops as u64;
        let corrupt = FaultKind::CorruptFill {
            cpu,
            xor: 0xDEAD_0000,
        };
        let (kind, at_step) = match p.sim_fault {
            SimFault::Mixed => {
                let kind = match (id / p.fault_every) % 4 {
                    0 => corrupt,
                    1 => FaultKind::LostWrite { cpu },
                    2 => FaultKind::DropInvalidation { victim_cpu: cpu },
                    _ => FaultKind::StaleFill { cpu },
                };
                (kind, rng.gen_range(0..ops / 2))
            }
            SimFault::LateCorruptFill => (corrupt, rng.gen_range(ops / 2..ops * 3 / 4)),
        };
        vec![FaultPlan { kind, at_step }]
    } else {
        Vec::new()
    };
    let cap = Machine::run(
        &program,
        MachineConfig {
            seed: s,
            faults,
            ..Default::default()
        },
    );
    (cap, faulty)
}

/// SAT-oracle verdict of `trace` under `model`: `c` (consistent, witness
/// validated by `check_witness`) or `v` (violating).
fn sat_oracle(trace: &Trace, model: vermem_consistency::axiom::ModelId) -> char {
    if precheck_sc(trace).is_some() {
        return 'v';
    }
    let sp = spec(model);
    let enc = encode_spec(trace, sp);
    if enc.trivially_unsat() {
        return 'v';
    }
    match CdclSolver::new(enc.cnf()).solve() {
        SatResult::Sat(m) => {
            let w = enc.decode(&m);
            check_witness(trace, sp, &w).expect("SAT witness fails the reference evaluator");
            'c'
        }
        SatResult::Unsat => 'v',
    }
}

/// Generate the corpus of `workload` at `seed` into `dir` and return its
/// manifest (also written to `dir/manifest.tsv`).
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<Manifest, String> {
    let p = Params::of(workload);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    // The manifest is written last: a corpus without one is incomplete.
    let manifest_path = dir.join("manifest.tsv");
    if manifest_path.exists() {
        std::fs::remove_file(&manifest_path)
            .map_err(|e| format!("cannot replace manifest: {e}"))?;
    }
    let mut entries = Vec::with_capacity(p.files);
    for id in 0..p.files {
        let s = input_seed(seed, id);
        let (bytes, ops, expected, source) = match workload {
            Workload::VerifySim | Workload::VerifyPlain => {
                let (cap, faulty) = simulated(&p, id, s);
                let (expected, source) = if faulty {
                    ("any", "none")
                } else {
                    ("coherent", "construction")
                };
                let bytes = encode_trace(&cap.trace);
                (bytes, cap.trace.num_ops(), expected.into(), source.into())
            }
            Workload::VerifyReuse => {
                let (trace, expected, source) = generated(&p, id, s);
                let bytes = encode_trace(&trace);
                (bytes, trace.num_ops(), expected.into(), source.into())
            }
            Workload::ScModels => {
                // Half the traces use unique values, which load the RA fast
                // tier; the other half reuse values.
                let mut shape = p.clone();
                if id % 2 == 0 {
                    shape.value_reuse = 0.0;
                }
                let (trace, _, class) = generated(&shape, id, s);
                let verdicts: Vec<String> = MODEL_CHECKS
                    .iter()
                    .map(|&(model, _)| format!("{}={}", model.name(), sat_oracle(&trace, model)))
                    .collect();
                let source = match class {
                    "construction" | "injection" => format!("sat+{class}"),
                    _ => "sat".to_string(),
                };
                (
                    encode_trace(&trace),
                    trace.num_ops(),
                    verdicts.join(","),
                    source,
                )
            }
            Workload::ServeStream => {
                let (cap, faulty) = simulated(&p, id, s);
                let bytes = vermem_sim::event_stream_bytes(&cap)
                    .map_err(|e| format!("stream {id}: {e}"))?;
                // The batch verdict on exactly these bytes.
                let trace = decode_trace(&bytes).map_err(|e| format!("stream {id}: {e}"))?;
                let batch = verify_execution_par(&trace, &VmcVerifier::new(), 1);
                let source = if faulty {
                    "batch"
                } else {
                    "batch+construction"
                };
                let ops = trace.num_ops();
                (bytes, ops, render_execution(&batch.verdict), source.into())
            }
        };
        let file = format!("{id:04}.bin");
        std::fs::write(dir.join(&file), &bytes).map_err(|e| format!("cannot write {file}: {e}"))?;
        entries.push(Entry {
            id,
            file,
            ops: ops as u64,
            bytes: bytes.len() as u64,
            expected,
            source,
        });
    }
    let manifest = Manifest {
        workload: workload.name().to_string(),
        seed,
        params: p.fingerprint(),
        entries,
    };
    std::fs::write(manifest_path, manifest.to_text())
        .map_err(|e| format!("cannot write manifest: {e}"))?;
    Ok(manifest)
}
