//! Per-layer accounting for the traced run.
//!
//! Spans are recorded from the benchmark's side, around the calls into each
//! layer's public functions; the program itself is not instrumented. A
//! layer's self time is the summed duration of its spans (the spans of one
//! input never nest, except the stream decode pass — see
//! [`crate::stream`]).

use std::time::{Duration, Instant};

/// The layers a traced run attributes time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Reading input bytes from the corpus files.
    IoRead,
    /// `binary::decode_trace`, or `ChunkReader::next_batch` for streams.
    Decode,
    /// `AddrIndex::build`.
    Index,
    /// `VmcVerifier::select_ops` plus the Figure 5.3 read-map, RMW and
    /// one-op solvers.
    Fastpath,
    /// `closure::analyze_ops`.
    Closure,
    /// `backtrack::solve_escalated_ops_with_stats`.
    Exact,
    /// `precheck_sc`, the per-address precheck every model engine runs.
    Precheck,
    /// `axiom::ra_fast::try_decide`.
    RaFast,
    /// The compiled exact search of `verify_axiom` (kernel).
    Kernel,
    /// `axiom::encode_spec`.
    SatEncode,
    /// `CdclSolver::new` + `solve`, plus witness decode and check.
    SatSolve,
    /// `StreamVerifier::ingest`, minus the decode it performs.
    StreamIngest,
    /// `StreamVerifier::end_input`.
    StreamEndInput,
    /// `StreamVerifier::ingest_replay`.
    StreamReplay,
    /// `StreamVerifier::finish`.
    StreamFinish,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 15] = [
        Layer::IoRead,
        Layer::Decode,
        Layer::Index,
        Layer::Fastpath,
        Layer::Closure,
        Layer::Exact,
        Layer::Precheck,
        Layer::RaFast,
        Layer::Kernel,
        Layer::SatEncode,
        Layer::SatSolve,
        Layer::StreamIngest,
        Layer::StreamEndInput,
        Layer::StreamReplay,
        Layer::StreamFinish,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::IoRead => "io.read",
            Layer::Decode => "trace.decode",
            Layer::Index => "trace.index",
            Layer::Fastpath => "coherence.fastpath",
            Layer::Closure => "coherence.closure",
            Layer::Exact => "coherence.exact",
            Layer::Precheck => "consistency.precheck",
            Layer::RaFast => "consistency.ra_fast",
            Layer::Kernel => "consistency.kernel",
            Layer::SatEncode => "sat.encode",
            Layer::SatSolve => "sat.solve",
            Layer::StreamIngest => "stream.ingest",
            Layer::StreamEndInput => "stream.end_input",
            Layer::StreamReplay => "stream.replay",
            Layer::StreamFinish => "stream.finish",
        }
    }
}

/// Work counts of one corpus pass. Deterministic for a given corpus.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Bytes the decode layer consumed.
    pub decoded_bytes: u64,
    /// Addresses decided by a Figure 5.3 fast path.
    pub fastpath_addrs: u64,
    /// Addresses the closure frontline decided.
    pub closure_decided: u64,
    /// Addresses the closure frontline escalated.
    pub closure_escalated: u64,
    /// States the exact VMC search visited.
    pub exact_states: u64,
    /// Memo hits of the exact VMC search.
    pub exact_memo_hits: u64,
    /// Memo misses of the exact VMC search.
    pub exact_memo_misses: u64,
    /// Window + symmetry + nogood prunes of the exact VMC search.
    pub exact_prunes: u64,
    /// Escalated addresses that ended Unknown at the state budget.
    pub exact_unknown: u64,
    /// Checks that reached the RA fast tier.
    pub ra_fast_attempted: u64,
    /// Checks the RA fast tier decided.
    pub ra_fast_decided: u64,
    /// States the compiled model search visited.
    pub kernel_states: u64,
    /// Memo hits of the compiled model search.
    pub kernel_memo_hits: u64,
    /// Model checks that ended Unknown at the kernel budget.
    pub kernel_unknown: u64,
    /// Clauses the SAT compiler emitted.
    pub sat_clauses: u64,
    /// CDCL conflicts.
    pub sat_conflicts: u64,
    /// CDCL decisions.
    pub sat_decisions: u64,
    /// CDCL propagations.
    pub sat_propagations: u64,
    /// Stream addresses sealed by their summary.
    pub stream_sealed_addrs: u64,
    /// Stream addresses escalated to the exact tiered kernel.
    pub stream_exact_addrs: u64,
    /// Escalated stream addresses re-materialized by replay.
    pub stream_replayed_addrs: u64,
    /// Raw stream ops dropped by window retirement.
    pub stream_retired_ops: u64,
    /// Largest per-stream peak of retained units.
    pub stream_peak_retained_units: u64,
}

/// Span times and counts of a traced run.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    self_time: [Duration; Layer::ALL.len()],
    /// Counts of the current pass.
    pub counts: Counts,
    /// Per-chunk `StreamVerifier::ingest` durations.
    pub chunk_times: Vec<Duration>,
    /// Time of twin passes that re-measure work nested inside another
    /// span; excluded from the traced wall time.
    pub excluded: Duration,
}

impl Layers {
    /// Run `f` inside a span of `layer`.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.add(layer, t0.elapsed());
        out
    }

    /// Add `d` to `layer`'s self time.
    #[inline]
    pub fn add(&mut self, layer: Layer, d: Duration) {
        self.self_time[layer as usize] += d;
    }

    /// Summed self time of `layer`.
    pub fn self_time(&self, layer: Layer) -> Duration {
        self.self_time[layer as usize]
    }

    /// Summed self time of every layer.
    pub fn total(&self) -> Duration {
        self.self_time.iter().sum()
    }
}
