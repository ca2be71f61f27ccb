//! The five workloads and the interface the harness drives them through.

use crate::layers::Layers;
use crate::manifest::Manifest;
use std::path::{Path, PathBuf};
use vermem_consistency::axiom::{Engine, ModelId};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Unique-value MESI traces, binary v2, `verify_execution_par(.., 1)`.
    VerifySim,
    /// The same MESI traces with no RMW: the Figure 5.3 read-map fast path
    /// decides every address.
    VerifyPlain,
    /// Multi-writer generated traces under a state budget.
    VerifyReuse,
    /// Small traces checked under TSO, RA, ARM-dob (compiled) and SC (SAT).
    ScModels,
    /// v3 event logs through the bounded-window `StreamVerifier`.
    ServeStream,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 5] = [
        Workload::VerifySim,
        Workload::VerifyPlain,
        Workload::VerifyReuse,
        Workload::ScModels,
        Workload::ServeStream,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VerifySim => "verify-sim",
            Workload::VerifyPlain => "verify-plain",
            Workload::VerifyReuse => "verify-reuse",
            Workload::ScModels => "sc-models",
            Workload::ServeStream => "serve-stream",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The (model, engine) checks `sc-models` runs on every trace, in order.
pub const MODEL_CHECKS: [(ModelId, Engine); 4] = [
    (ModelId::Tso, Engine::Compiled),
    (ModelId::Ra, Engine::Compiled),
    (ModelId::ArmDob, Engine::Compiled),
    (ModelId::Sc, Engine::Sat),
];

/// A corpus on disk: its directory and manifest.
pub struct Corpus {
    /// Directory holding the input files.
    pub dir: PathBuf,
    /// The parsed manifest.
    pub manifest: Manifest,
}

impl Corpus {
    /// Load the manifest of the corpus in `dir`.
    pub fn load(dir: &Path) -> Result<Corpus, String> {
        let path = dir.join("manifest.tsv");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(Corpus {
            dir: dir.to_path_buf(),
            manifest: Manifest::parse(&text)?,
        })
    }

    /// Path of input file `id`.
    pub fn path(&self, id: usize) -> PathBuf {
        self.dir.join(&self.manifest.entries[id].file)
    }
}

/// One workload's inputs and how to verify, trace and check them.
///
/// An *input* is what one latency sample times: a file, a (trace, model)
/// check, or a stream.
pub trait Bench {
    /// Everything an untraced run produces for one input.
    type Output;
    /// The parts of an output the traced run must reproduce exactly.
    type Summary: PartialEq + std::fmt::Debug;

    /// Inputs per corpus pass.
    fn inputs(&self) -> usize;
    /// Trace operations input `i` verifies.
    fn ops(&self, i: usize) -> u64;
    /// Bytes in, verdict out, untraced.
    fn run(&self, i: usize) -> Result<Self::Output, String>;
    /// The same work through each layer's public functions, with spans.
    fn traced(&self, i: usize, layers: &mut Layers) -> Result<Self::Summary, String>;
    /// Output checks (outside the timed region).
    fn check(&self, i: usize, out: &Self::Output) -> Result<(), String>;
    /// Reduce an output to its summary.
    fn summary(&self, i: usize, out: &Self::Output) -> Self::Summary;
    /// True if the summary carries a definite verdict.
    fn decided(&self, s: &Self::Summary) -> bool;
}
