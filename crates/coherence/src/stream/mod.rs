//! Sharded bounded-memory streaming verification — the engine behind
//! `vermem serve`.
//!
//! The paper's introduction motivates coherence verification as an *online
//! hardware error detector*; [`crate::online`] is the single-threaded
//! prototype of that idea, but it never retires state and only understands
//! one in-memory event feed. This module turns it into a real engine:
//!
//! * **Input** is the binary wire format, fed in arbitrary chunks through
//!   [`vermem_trace::binary::ChunkReader`] — both v2 batch files and v3
//!   interleaved event streams, with records split anywhere.
//! * **Sharding**: events are routed per-address onto `jobs` worker
//!   threads over bounded SPSC queues ([`vermem_util::pool::spsc_channel`],
//!   backpressure visible on the `pool.spsc.queue` gauge). Addresses are
//!   independent (§3: coherence is a per-address property), so a shard owns
//!   its addresses outright and no cross-shard synchronization exists.
//! * **Windowed retirement**: each address keeps (a) a greedy §5.2
//!   placement monitor — the *summary*: committed-value slots, a read-map
//!   frontier of per-process cursors, deferred reads — and (b) a retention
//!   buffer of the raw ops. Once the buffer outgrows the configured window
//!   while the address is still on the polynomial fast path, the raw ops
//!   are **retired** (dropped, counted in `retired_bytes`) and the summary
//!   alone carries the verification forward; committed slots below every
//!   process's frontier are retired the same way. Memory is O(window ×
//!   live addresses) regardless of stream length.
//! * **Escalation preserves bit-identical verdicts**: any address the
//!   summary cannot seal (RMWs, duplicate written values, writes of the
//!   initial value, an unplaced read, a final-value mismatch) is *pinned*
//!   and handed to the exact tiered kernel at end of stream, on exactly
//!   the ops the batch [`vermem_trace::AddrIndex`] would have produced —
//!   from the retention buffer when it survived, or re-collected by a
//!   second [`StreamVerifier::ingest_replay`] pass when it was retired.
//!   The final reduction walks addresses in ascending order and stops at
//!   the first failure, mirroring [`crate::verify_execution_par`], so the
//!   verdict, first [`Violation`], [`SearchStats`] and [`TierStats`] are
//!   bit-identical to the batch engine at every `jobs` and window setting.
//!
//! ## Why a sealed summary is sound
//!
//! A *sealed-clean* address satisfies: no RMWs, no value written twice, no
//! write of the initial value (the read-map class of Figure 5.3), every
//! read greedily placed, no deferred reads left, and the declared final
//! value equal to the last committed write. The greedy placement *is* a
//! coherent schedule for the address — commit order as the write order,
//! each read inserted at its placed slot — so the address is coherent; and
//! because the class lies inside the one the batch dispatcher sends to the
//! (complete) read-map solver, the batch verdict is `Coherent` with
//! `Tier::Frontline` and zero search stats: precisely what the sealed path
//! reports. Every other case goes through the same dispatcher the batch
//! engine runs: a Figure 5.3 fast path where one applies (the read-map
//! solver for any unique-value address, plain or mixed), the closure and
//! the exact kernel otherwise. Retirement never flips a verdict: dropping raw ops is only
//! a bet that the address will seal — if it later pins, the ops are
//! re-materialized losslessly by the replay pass; retiring committed slots
//! below the global read frontier can at worst make the monitor *defer* a
//! read that batch placement would have served, which pins the address and
//! escalates it (extra work, never a wrong answer).
//!
//! Detection events ([`OnlineViolation`]) and their issue→detect latency
//! gap are recorded only when the stream is declared *temporal*
//! ([`StreamConfig::temporal`]) — i.e. the interleaving is the machine's
//! commit order, where "the greedy monitor got stuck" is meaningful as a
//! hardware error detection. They are metrics, not verdicts: the verdict
//! always comes from the sealed/exact reduction above.

//! ## Dense hot paths
//!
//! Ingest runs on dense, index-addressed storage: the open-addressing
//! Fx-hash maps, slabs and arenas of [`vermem_util::densemap`],
//! per-process cursor vectors, and block decode through
//! [`ChunkReader::next_batch`] — no SipHash, and no per-event heap
//! allocation once the tables reach their working set (the one table that
//! grows with the stream is described in `stream/tables.rs`).

mod tables;

use crate::explain::{minimize_incoherent_core, ExplainConfig};
use crate::online::{OnlineCause, OnlineViolation};
use crate::verdict::Verdict;
use crate::{SearchConfig, SearchStats, Strategy, Tier, TierStats, Violation, VmcVerifier};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::thread::JoinHandle;
use tables::{Router, Tables};
use vermem_trace::binary::{ChunkReader, DecodeError, StreamEvent};
use vermem_trace::{Addr, AddrOps, Op, OpRef, ProcId, ProcessHistory, Trace, Value};
use vermem_util::densemap::DenseMap;
use vermem_util::json::JsonWriter;
use vermem_util::obs;
use vermem_util::pool::{available_jobs, scoped_map, spsc_channel, CancelToken, SpscSender};

/// Events per routed batch handed to a shard queue.
const BATCH: usize = 256;
/// Batches in flight per shard before the router blocks (backpressure).
const QUEUE_CAP: usize = 8;
/// Maximum detection events retained in a report.
const DETECTION_CAP: usize = 1024;
/// Maximum latency samples retained per shard.
const LATENCY_CAP: usize = 65_536;
/// Accounting quantum for `peak_retained_windows` when no window is set.
const UNBOUNDED_SLAB: usize = 4096;
/// Maximum forensic bundles captured per shard, and per run after the
/// end-of-stream merge. Bundles carry op payloads and a budgeted solve
/// each, so the cap sits far below `DETECTION_CAP`.
const FORENSIC_CAP: usize = 32;

/// Schema tag on every [`ForensicBundle::to_json`] document.
pub const FORENSIC_SCHEMA: &str = "vermem-forensic/v1";

/// Configuration for a [`StreamVerifier`].
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Retention window in ops per address: once an address buffers more
    /// raw ops than this while still on the polynomial fast path, the
    /// buffer is retired. `None` retains everything (no replay ever
    /// needed, memory grows with the stream).
    pub window: Option<usize>,
    /// Worker shards (`0` = [`available_jobs`]). `1` runs inline on the
    /// ingesting thread — the deterministic baseline the differential
    /// tests compare against.
    pub jobs: usize,
    /// Whether the event interleaving is the machine's temporal commit
    /// order. Gates detection-event and latency recording (a proc-major v2
    /// file is a valid op multiset but its interleaving carries no timing,
    /// so monitor stalls there are not "detections").
    pub temporal: bool,
    /// The tiered verifier escalated addresses fall through to. Must not
    /// be [`Strategy::Sat`] (the SAT encoder needs a whole trace).
    pub verifier: VmcVerifier,
    /// Flight recorder: `Some` keeps a bounded per-shard ring of recent
    /// events and captures a [`ForensicBundle`] on every detection event
    /// (temporal streams only — detections are temporal-gated). `None`
    /// (the default) records nothing. Never changes verdicts, stats, or
    /// tiers; the ring's footprint is counted inside
    /// [`StreamMetrics::peak_retained_windows`].
    pub recorder: Option<RecorderConfig>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: None,
            jobs: 1,
            temporal: true,
            verifier: VmcVerifier::new(),
            recorder: None,
        }
    }
}

/// Flight-recorder knobs (see [`StreamConfig::recorder`]).
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Capacity of the per-shard recent-event ring, and the per-process
    /// cap on retained window ops copied into a bundle. `0` disables the
    /// ring (bundles then carry certificates only).
    pub ring: usize,
    /// Search-state budget for the per-detection certificate solve and
    /// core minimization (`None` = unlimited). Detections fire mid-stream
    /// on the hot path, so the default keeps each capture cheap.
    pub core_budget: Option<u64>,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            ring: 256,
            core_budget: Some(20_000),
        }
    }
}

/// One event retained by the flight-recorder ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingEntry {
    /// Global stream sequence number of the event.
    pub seq: u64,
    /// The operation's reference (process, program-order index).
    pub op_ref: OpRef,
    /// The operation itself.
    pub op: Op,
}

/// A minimal incoherent core extracted from the retained window at
/// detection time, with refs mapped back to the original stream
/// coordinates.
#[derive(Clone, Debug)]
pub struct CoreCertificate {
    /// Kept operations, as references into the *original* stream.
    pub kept: Vec<OpRef>,
    /// The violation the core exhibits.
    pub violation: Violation,
}

/// The forensic record captured for one detection event: everything an
/// operator needs to reconstruct *why* the monitor flagged the stream,
/// without re-running it.
///
/// Bundles are diagnostics, not verdicts: capture reads the address state
/// and runs a *budget-bounded* certificate solve on a clone of the
/// retained ops, so enabling the recorder never perturbs the verdict,
/// [`SearchStats`], or [`TierStats`] of the run (the differential suites
/// prove this bit-identically).
#[derive(Clone, Debug)]
pub struct ForensicBundle {
    /// The detection event this bundle explains.
    pub violation: OnlineViolation,
    /// Obs-clock microseconds at which the offending op was observed.
    pub issued_us: u64,
    /// Obs-clock microseconds at which the violation became certain.
    pub detected_us: u64,
    /// The retained window at the violating address: per process, the
    /// most recent [`RecorderConfig::ring`] buffered ops (empty when the
    /// window had already been retired).
    pub window_ops: Vec<(OpRef, Op)>,
    /// The shard's recent-event ring at capture time (all addresses),
    /// oldest first.
    pub recent: Vec<RingEntry>,
    /// Which tier the budgeted certificate solve decided the retained
    /// window with (`None` when no ops were retained to solve).
    pub tier: Option<Tier>,
    /// The minimized incoherent core, when the retained window is itself
    /// provably incoherent within [`RecorderConfig::core_budget`].
    pub core: Option<CoreCertificate>,
}

impl ForensicBundle {
    /// Render the bundle as one JSON object — one line of the
    /// `--forensics` JSONL file (schema [`FORENSIC_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let v = &self.violation;
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string(FORENSIC_SCHEMA);
        w.key("addr").u64(u64::from(v.addr.0));
        w.key("proc").u64(u64::from(v.proc.0));
        w.key("value").u64(v.value.0);
        w.key("cause").string(match v.cause {
            OnlineCause::RmwMismatch => "rmw-mismatch",
            OnlineCause::WindowClosed => "window-closed",
            OnlineCause::EndOfStream => "end-of-stream",
        });
        w.key("issued_at").u64(v.issued_at);
        w.key("detected_at").u64(v.detected_at);
        w.key("issued_us").u64(self.issued_us);
        w.key("detected_us").u64(self.detected_us);
        w.key("latency_us")
            .u64(self.detected_us.saturating_sub(self.issued_us));
        w.key("window_ops").begin_array();
        for &(r, op) in &self.window_ops {
            w.begin_object();
            w.key("proc").u64(u64::from(r.proc.0));
            w.key("index").u64(u64::from(r.index));
            w.key("op").string(&op.to_string());
            w.end_object();
        }
        w.end_array();
        w.key("recent").begin_array();
        for e in &self.recent {
            w.begin_object();
            w.key("seq").u64(e.seq);
            w.key("proc").u64(u64::from(e.op_ref.proc.0));
            w.key("index").u64(u64::from(e.op_ref.index));
            w.key("op").string(&e.op.to_string());
            w.end_object();
        }
        w.end_array();
        match self.tier {
            Some(Tier::Frontline) => w.key("tier").string("frontline"),
            Some(Tier::Exact) => w.key("tier").string("exact"),
            None => w.key("tier").null(),
        };
        match &self.core {
            Some(core) => {
                w.key("core").begin_object();
                w.key("violation").string(&core.violation.to_string());
                w.key("kept").begin_array();
                for r in &core.kept {
                    w.begin_object();
                    w.key("proc").u64(u64::from(r.proc.0));
                    w.key("index").u64(u64::from(r.index));
                    w.end_object();
                }
                w.end_array();
                w.end_object();
            }
            None => {
                w.key("core").null();
            }
        }
        w.end_object();
        w.finish()
    }
}

/// Build one forensic bundle from the address state at detection time.
///
/// `with_final` gates the declared final value into the certificate
/// solve: mid-stream the final constraint is not yet meaningful (the
/// stream is still running), so only end-of-stream captures apply it.
fn capture_bundle(
    rec: &RecorderConfig,
    state: &AddrStream,
    violation: OnlineViolation,
    issued_us: u64,
    detected_us: u64,
    recent: Vec<RingEntry>,
    with_final: bool,
) -> ForensicBundle {
    let mut window_ops: Vec<(OpRef, Op)> = Vec::new();
    for list in &state.buffer {
        let skip = list.len().saturating_sub(rec.ring);
        window_ops.extend(list[skip..].iter().copied());
    }
    window_ops.sort_by_key(|(r, _)| (r.proc.0, r.index));

    let (tier, core) = if state.buffer_ops == 0 {
        (None, None)
    } else {
        let final_value = if with_final { state.final_value } else { None };
        let probe = VmcVerifier {
            search: SearchConfig {
                max_states: rec.core_budget,
                ..SearchConfig::default()
            },
            ..VmcVerifier::new()
        };
        let ops = AddrOps::from_parts(
            violation.addr,
            state.initial,
            final_value,
            state.buffer.clone(),
        );
        let (verdict, _, tier) = probe.verify_ops_detached(&ops);
        let core = if matches!(verdict, Verdict::Incoherent(_)) {
            // Rebuild the retained window as a trace; every op is at the
            // violating address, so the minimizer's projected refs index
            // straight into `state.buffer[proc]`.
            let mut trace = Trace::from_histories(
                state
                    .buffer
                    .iter()
                    .map(|h| h.iter().map(|&(_, op)| op).collect::<ProcessHistory>()),
            );
            trace.set_initial(violation.addr, state.initial);
            if let Some(f) = final_value {
                trace.set_final(violation.addr, f);
            }
            minimize_incoherent_core(
                &trace,
                violation.addr,
                &ExplainConfig {
                    max_states: rec.core_budget,
                },
            )
            .map(|mc| CoreCertificate {
                kept: mc
                    .kept
                    .iter()
                    .map(|r| state.buffer[usize::from(r.proc.0)][r.index as usize].0)
                    .collect(),
                violation: mc.violation,
            })
        } else {
            None
        };
        (Some(tier), core)
    };

    ForensicBundle {
        violation,
        issued_us,
        detected_us,
        window_ops,
        recent,
        tier,
        core,
    }
}

/// The witness-free verdict of a streaming run.
///
/// Sealed addresses prove coherence without materializing a schedule, so —
/// unlike [`crate::ExecutionVerdict`] — the coherent arm carries no
/// witnesses. The failure arms are bit-identical to the batch engine's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamVerdict {
    /// Every address admits a coherent schedule.
    Coherent,
    /// The first failing address (in ascending address order) with the
    /// same [`Violation`] the batch engine reports.
    Incoherent(Violation),
    /// The exact kernel exhausted its budget on `addr` (first such
    /// address in ascending order).
    Unknown {
        /// The address whose verification was inconclusive.
        addr: Addr,
    },
}

impl StreamVerdict {
    /// True if the stream verified coherent.
    pub fn is_coherent(&self) -> bool {
        matches!(self, StreamVerdict::Coherent)
    }

    /// True if this verdict agrees with a batch [`crate::ExecutionVerdict`]
    /// (modulo the witness schedules the streaming engine never builds).
    pub fn matches_batch(&self, batch: &crate::ExecutionVerdict) -> bool {
        match (self, batch) {
            (StreamVerdict::Coherent, crate::ExecutionVerdict::Coherent(_)) => true,
            (StreamVerdict::Incoherent(a), crate::ExecutionVerdict::Incoherent(b)) => a == b,
            (StreamVerdict::Unknown { addr }, crate::ExecutionVerdict::Unknown { addr: b }) => {
                addr == b
            }
            _ => false,
        }
    }
}

/// Memory/retirement accounting for a streaming run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamMetrics {
    /// The configured retention window.
    pub window: Option<usize>,
    /// Peak of `ceil(retained units / window)` summed per shard: the
    /// bounded-memory gate. Independent of stream *length* once steady
    /// state is reached (gated in `scripts/verify.sh`).
    pub peak_retained_windows: u64,
    /// Peak retained units (buffered ops + live slots + deferred reads).
    pub peak_retained_units: u64,
    /// Raw ops dropped by window retirement.
    pub retired_ops: u64,
    /// Encoded bytes those ops occupied (the retired-bytes counter).
    pub retired_bytes: u64,
    /// Committed-value slots retired below the global read frontier.
    pub retired_slots: u64,
    /// Addresses decided by their sealed summary alone (no exact solve,
    /// no raw ops at end of stream).
    pub sealed_addresses: usize,
    /// Addresses escalated to the exact tiered kernel.
    pub exact_addresses: usize,
    /// Escalated addresses whose ops had been retired and were
    /// re-materialized by the replay pass.
    pub replayed_addresses: usize,
}

/// Outcome of a streaming verification run.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// The deterministic verdict (bit-identical to batch; see module docs).
    pub verdict: StreamVerdict,
    /// Per-address [`SearchStats`] summed in ascending address order up to
    /// and including the reported failure — same contract as
    /// [`crate::ExecutionReport::stats`].
    pub stats: SearchStats,
    /// Per-tier accounting over the same deterministic address prefix.
    pub tiers: TierStats,
    /// Distinct addresses that carried operations.
    pub addresses: usize,
    /// Operation events consumed.
    pub events: u64,
    /// Worker count actually used.
    pub jobs: usize,
    /// Detection events (temporal streams only), sorted by detection
    /// order; capped at a fixed size.
    pub detections: Vec<OnlineViolation>,
    /// Issue→detect wall-clock gaps in microseconds, one per detection
    /// event observed (temporal streams only; uncapped ordering not
    /// meaningful — use [`StreamReport::p99_detect_latency_us`]).
    pub detect_latencies_us: Vec<u64>,
    /// Retirement/memory accounting.
    pub metrics: StreamMetrics,
    /// Flight-recorder bundles, one per captured detection event
    /// ([`StreamConfig::recorder`]; empty when the recorder is off).
    /// Sorted like `detections`, capped at a small fixed count.
    pub forensics: Vec<ForensicBundle>,
}

impl StreamReport {
    /// True if the stream verified coherent.
    pub fn is_coherent(&self) -> bool {
        self.verdict.is_coherent()
    }

    /// The 99th-percentile issue→detect latency, if any detections fired.
    pub fn p99_detect_latency_us(&self) -> Option<u64> {
        percentile(&self.detect_latencies_us, 99)
    }
}

std::thread_local! {
    /// Reusable scratch for [`percentile`]: the quickselect works on a
    /// copy, and per-stream reporting queries several percentiles over the
    /// same (large) latency array, so the copy's allocation is kept.
    static PERCENTILE_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The `p`-th percentile (nearest-rank) of `samples`, if non-empty.
///
/// O(n) via [`slice::select_nth_unstable`] on a reusable thread-local
/// scratch copy — equivalent to sorting and indexing `rank - 1`, without
/// the O(n log n) sort or a fresh allocation per query.
pub fn percentile(samples: &[u64], p: u64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((samples.len() as u64 * p).div_ceil(100)).max(1) as usize;
    PERCENTILE_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        scratch.clear();
        scratch.extend_from_slice(samples);
        let (_, &mut v, _) = scratch.select_nth_unstable(rank - 1);
        Some(v)
    })
}

/// A deferred read waiting for its serving write to commit.
#[derive(Clone, Debug)]
struct PendingRead {
    proc: ProcId,
    value: Value,
    issued_at: u64,
    issued_us: u64,
}

/// Per-address streaming state: the greedy §5.2 monitor (summary), the
/// read-map class bits, and the raw-op retention buffer.
struct AddrStream {
    initial: Value,
    final_value: Option<Value>,
    // --- summary: the greedy placement monitor (cf. `crate::online`) ---
    /// Committed writes so far; slot `s` (0-based over `0..=slots_len`)
    /// denotes "after `s` writes".
    slots_len: usize,
    /// Lowest slot still live; slots below were retired.
    live_from: usize,
    /// Values of the live slots `max(1, live_from)..=slots_len` (slot 0
    /// carries `initial` and has no entry here).
    live_values: VecDeque<Value>,
    /// Value of the most recent committed write.
    last_value: Option<Value>,
    /// The placement index, per-process cursors, deferred-read queues, and
    /// write counts. The write-count table is O(distinct written values),
    /// the one per-address map retirement does not bound (disclosed in
    /// DESIGN.md).
    tables: Tables,
    pending_total: usize,
    /// Reusable scratch for the per-write deferred-read retry loop.
    retry_procs: Vec<u16>,
    // --- read-map class bits (exact, kept for the whole stream) ---
    rmw_seen: bool,
    dup_value: bool,
    wrote_initial: bool,
    /// The exact kernel must decide this address at end of stream.
    pinned: bool,
    /// The retention buffer was retired; escalation needs a replay pass.
    dropped: bool,
    // --- retention buffer ---
    /// Raw ops per process, in program order — exactly what
    /// [`AddrOps::from_parts`] needs to reproduce the batch index entry.
    buffer: Vec<Vec<(OpRef, Op)>>,
    buffer_ops: usize,
    buffer_bytes: u64,
    // --- accounting (cached for O(1) shard-level deltas) ---
    units: usize,
    windows: u64,
}

impl AddrStream {
    fn new(procs: usize, initial: Value, final_value: Option<Value>) -> AddrStream {
        AddrStream {
            initial,
            final_value,
            slots_len: 0,
            live_from: 0,
            live_values: VecDeque::new(),
            last_value: None,
            tables: Tables::new(procs, initial),
            pending_total: 0,
            retry_procs: Vec::new(),
            rmw_seen: false,
            dup_value: false,
            wrote_initial: false,
            pinned: false,
            dropped: false,
            buffer: vec![Vec::new(); procs],
            buffer_ops: 0,
            buffer_bytes: 0,
            units: 0,
            windows: 0,
        }
    }

    /// Track the Figure 5.3 read-map class; exiting it pins the address.
    fn class_track(&mut self, op: &Op) {
        if op.is_rmw() {
            self.rmw_seen = true;
        }
        if let Some(v) = op.written_value() {
            if self.tables.bump_write(v) > 1 {
                self.dup_value = true;
            }
            if v == self.initial {
                self.wrote_initial = true;
            }
        }
        if self.rmw_seen || self.dup_value || self.wrote_initial {
            self.pinned = true;
        }
    }

    fn on_read(&mut self, seq: u64, proc: ProcId, value: Value, temporal: bool) {
        // The issue timestamp is only needed for latency accounting on
        // reads that actually defer — keep the clock off the hot path.
        let stamp = || if temporal { obs::now_us() } else { 0 };
        if !self.tables.pending(proc.0).is_empty() {
            // Preserve program order behind an already-deferred read.
            self.tables.pending_push(
                proc.0,
                PendingRead {
                    proc,
                    value,
                    issued_at: seq,
                    issued_us: stamp(),
                },
            );
            self.pending_total += 1;
            return;
        }
        let min = self.tables.cursor(proc.0).unwrap_or(0);
        match self.tables.place(self.slots_len, value, min) {
            Some(slot) => {
                self.tables.set_cursor(proc.0, slot);
            }
            None => {
                self.tables.pending_push(
                    proc.0,
                    PendingRead {
                        proc,
                        value,
                        issued_at: seq,
                        issued_us: stamp(),
                    },
                );
                self.pending_total += 1;
            }
        }
    }

    fn on_write(&mut self, seq: u64, addr: Addr, proc: ProcId, value: Value, sink: &mut Sink) {
        // The writer's own deferred reads' windows close now: they can
        // never be served, so the address escalates (and, on temporal
        // streams, the stall is reported as a detection).
        if !self.tables.pending(proc.0).is_empty() {
            let mut stale_queue = self.tables.pending_take(proc.0);
            for stale in stale_queue.drain(..) {
                self.pending_total -= 1;
                self.pinned = true;
                sink.report(
                    OnlineViolation {
                        detected_at: seq,
                        issued_at: stale.issued_at,
                        proc: stale.proc,
                        addr,
                        value: stale.value,
                        cause: OnlineCause::WindowClosed,
                    },
                    stale.issued_us,
                );
            }
            self.tables.pending_restore(proc.0, stale_queue);
        }

        // Commit the write as a new slot.
        let slot = self.slots_len + 1;
        self.slots_len = slot;
        self.live_values.push_back(value);
        self.tables.commit_slot(value, slot);
        self.last_value = Some(value);
        let cursor = self.tables.cursor(proc.0).unwrap_or(0).max(slot);
        self.tables.set_cursor(proc.0, cursor);

        // Retry deferred reads of every process, in program order, stopping
        // at the first that still cannot be placed. Processes are
        // independent here (each retry touches only its own cursor), so
        // the proc listing order cannot affect the outcome.
        let mut retry = std::mem::take(&mut self.retry_procs);
        retry.clear();
        self.tables.pending_procs(&mut retry);
        for &p in &retry {
            let mut min = self.tables.cursor(p).unwrap_or(0);
            let mut placed = 0;
            for pr in self.tables.pending(p) {
                match self.tables.place(self.slots_len, pr.value, min) {
                    Some(slot) => {
                        min = slot;
                        placed += 1;
                    }
                    None => break,
                }
            }
            if placed > 0 {
                self.tables.set_cursor(p, min);
                self.tables.pending_pop_front(p, placed);
                self.pending_total -= placed;
            }
        }
        self.retry_procs = retry;
    }

    fn monitor(&mut self, seq: u64, addr: Addr, proc: ProcId, op: Op, sink: &mut Sink) {
        match op {
            Op::Read { value, .. } => self.on_read(seq, proc, value, sink.temporal),
            Op::Write { value, .. } => self.on_write(seq, addr, proc, value, sink),
            Op::Rmw { read, write, .. } => {
                // The read component binds to the immediately preceding
                // committed value.
                let current = self.last_value.unwrap_or(self.initial);
                if current != read {
                    self.pinned = true;
                    sink.report(
                        OnlineViolation {
                            detected_at: seq,
                            issued_at: seq,
                            proc,
                            addr,
                            value: read,
                            cause: OnlineCause::RmwMismatch,
                        },
                        if sink.temporal { obs::now_us() } else { 0 },
                    );
                }
                self.on_write(seq, addr, proc, write, sink);
            }
        }
    }

    /// Apply window retirement; returns `(ops, bytes, slots)` retired.
    fn retire(&mut self, window: usize) -> (u64, u64, u64) {
        let mut retired = (0u64, 0u64, 0u64);
        // Raw ops: only while the address is still expected to seal —
        // pinned addresses keep their buffer so escalation can skip the
        // replay pass (unless it was already dropped).
        if !self.pinned && self.buffer_ops > window {
            retired.0 = self.buffer_ops as u64;
            retired.1 = self.buffer_bytes;
            for queue in &mut self.buffer {
                queue.clear();
            }
            self.buffer_ops = 0;
            self.buffer_bytes = 0;
            self.dropped = true;
        }
        // Committed slots: everything below every process's cursor can no
        // longer serve any read of a process this address has seen. A
        // process arriving later may still have wanted one — then its read
        // defers, the address pins, and the exact kernel (with replayed
        // ops) decides: slower, never wrong.
        if self.slots_len - self.live_from > window {
            let floor = self.tables.cursor_floor();
            while self.live_from < floor {
                if self.live_from == 0 {
                    self.tables.retire_slot(self.initial, 0);
                } else {
                    let value = self.live_values.pop_front().expect("live slot value");
                    self.tables.retire_slot(value, self.live_from);
                }
                self.live_from += 1;
                retired.2 += 1;
            }
        }
        retired
    }

    fn current_units(&self) -> usize {
        self.buffer_ops + (self.slots_len - self.live_from) + self.pending_total
    }

    /// The summary alone proves this address coherent (see module docs).
    fn sealed_clean(&self) -> bool {
        if self.pinned || self.pending_total > 0 {
            return false;
        }
        debug_assert!(!self.rmw_seen && !self.dup_value && !self.wrote_initial);
        match self.final_value {
            None => true,
            Some(f) => f == self.last_value.unwrap_or(self.initial),
        }
    }
}

/// Detection-event collector handed into the monitor.
struct Sink<'a> {
    temporal: bool,
    detections: &'a mut Vec<OnlineViolation>,
    latencies_us: &'a mut Vec<u64>,
    /// `(issued_us, detected_us)` per retained detection, index-aligned
    /// with `detections` — the flight recorder's timing source.
    meta: &'a mut Vec<(u64, u64)>,
}

impl Sink<'_> {
    fn report(&mut self, violation: OnlineViolation, issued_us: u64) {
        if !self.temporal {
            return;
        }
        let now = obs::now_us();
        if self.latencies_us.len() < LATENCY_CAP {
            self.latencies_us.push(now.saturating_sub(issued_us));
        }
        if self.detections.len() < DETECTION_CAP {
            self.detections.push(violation);
            self.meta.push((issued_us, now));
        }
    }
}

/// One routed operation event.
struct RoutedOp {
    addr: Addr,
    op_ref: OpRef,
    op: Op,
    bytes: u32,
    seq: u64,
    /// `(initial, final)` on the first event touching this address.
    meta: Option<(Value, Option<Value>)>,
}

/// A worker's world: the addresses it owns plus its accounting.
struct Shard {
    window: Option<usize>,
    quantum: usize,
    temporal: bool,
    procs: usize,
    recorder: Option<RecorderConfig>,
    addrs: DenseMap<u32, AddrStream>,
    detections: Vec<OnlineViolation>,
    latencies_us: Vec<u64>,
    /// `(issued_us, detected_us)` aligned with `detections`.
    detect_meta: Vec<(u64, u64)>,
    /// Flight-recorder ring of the shard's most recent routed events.
    ring: VecDeque<RingEntry>,
    /// Captured forensic bundles (capped at [`FORENSIC_CAP`]).
    bundles: Vec<ForensicBundle>,
    /// Cached ring footprint for O(1) accounting deltas (the ring counts
    /// toward `cur_units`/`cur_windows` like a pseudo-address).
    ring_units: usize,
    ring_windows: u64,
    cur_units: u64,
    peak_units: u64,
    cur_windows: u64,
    peak_windows: u64,
    retired_ops: u64,
    retired_bytes: u64,
    retired_slots: u64,
}

impl Shard {
    fn new(
        window: Option<usize>,
        temporal: bool,
        procs: usize,
        recorder: Option<RecorderConfig>,
    ) -> Shard {
        Shard {
            window,
            quantum: window.unwrap_or(UNBOUNDED_SLAB).max(1),
            temporal,
            procs,
            recorder,
            addrs: DenseMap::new(),
            detections: Vec::new(),
            latencies_us: Vec::new(),
            detect_meta: Vec::new(),
            ring: VecDeque::new(),
            bundles: Vec::new(),
            ring_units: 0,
            ring_windows: 0,
            cur_units: 0,
            peak_units: 0,
            cur_windows: 0,
            peak_windows: 0,
            retired_ops: 0,
            retired_bytes: 0,
            retired_slots: 0,
        }
    }

    fn apply(&mut self, event: RoutedOp) {
        if let Some(rec) = &self.recorder {
            if rec.ring > 0 {
                if self.ring.len() == rec.ring {
                    self.ring.pop_front();
                }
                self.ring.push_back(RingEntry {
                    seq: event.seq,
                    op_ref: event.op_ref,
                    op: event.op,
                });
            }
        }
        let detections_before = self.detections.len();

        let procs = self.procs;
        let state = self.addrs.get_or_insert_with(event.addr.0, || {
            let (initial, final_value) = event.meta.unwrap_or((Value::INITIAL, None));
            AddrStream::new(procs, initial, final_value)
        });

        state.class_track(&event.op);
        if !(state.pinned && state.dropped) {
            state.buffer[usize::from(event.op_ref.proc.0)].push((event.op_ref, event.op));
            state.buffer_ops += 1;
            state.buffer_bytes += u64::from(event.bytes);
        }

        let mut sink = Sink {
            temporal: self.temporal,
            detections: &mut self.detections,
            latencies_us: &mut self.latencies_us,
            meta: &mut self.detect_meta,
        };
        state.monitor(
            event.seq,
            event.addr,
            event.op_ref.proc,
            event.op,
            &mut sink,
        );

        if let Some(window) = self.window {
            let (ops, bytes, slots) = state.retire(window);
            if ops > 0 {
                self.retired_ops += ops;
                self.retired_bytes += bytes;
                obs::counter_add("stream.retired_ops", ops);
                obs::counter_add("stream.retired_bytes", bytes);
            }
            if slots > 0 {
                self.retired_slots += slots;
                obs::counter_add("stream.retired_slots", slots);
            }
        }

        // O(1) retained-footprint accounting via cached per-address values.
        let units = state.current_units();
        let windows = units.div_ceil(self.quantum) as u64;
        self.cur_units += units as u64;
        self.cur_units -= state.units as u64;
        self.cur_windows += windows;
        self.cur_windows -= state.windows;
        state.units = units;
        if state.windows != windows {
            state.windows = windows;
            obs::gauge_set("stream.retained_windows", self.cur_windows);
        }
        // The recorder ring counts toward the retained footprint exactly
        // like an address's retention buffer.
        if self.ring.len() != self.ring_units {
            let units = self.ring.len();
            let windows = (units as u64).div_ceil(self.quantum as u64);
            self.cur_units += units as u64;
            self.cur_units -= self.ring_units as u64;
            self.cur_windows += windows;
            self.cur_windows -= self.ring_windows;
            self.ring_units = units;
            self.ring_windows = windows;
        }
        self.peak_units = self.peak_units.max(self.cur_units);
        self.peak_windows = self.peak_windows.max(self.cur_windows);

        if self.recorder.is_some() && self.detections.len() > detections_before {
            self.capture(event.addr, detections_before);
        }
    }

    /// Capture forensic bundles for the detections `from..` (all raised by
    /// the event just applied, hence all at `addr`).
    fn capture(&mut self, addr: Addr, from: usize) {
        // `RecorderConfig` and `OnlineViolation` are `Copy`: capture takes
        // no clones of configuration or detections (the op payloads in the
        // bundle are the only owned data).
        let rec = self.recorder.expect("recorder on");
        let Some(state) = self.addrs.get(addr.0) else {
            return;
        };
        let recent: Vec<RingEntry> = self.ring.iter().copied().collect();
        let mut fresh = Vec::new();
        for i in from..self.detections.len() {
            if self.bundles.len() + fresh.len() >= FORENSIC_CAP {
                break;
            }
            let (issued_us, detected_us) = self.detect_meta.get(i).copied().unwrap_or((0, 0));
            fresh.push(capture_bundle(
                &rec,
                state,
                self.detections[i],
                issued_us,
                detected_us,
                recent.clone(),
                false,
            ));
        }
        self.bundles.extend(fresh);
    }
}

/// Everything frozen at end of input, awaiting (optional) replay and the
/// final reduction.
struct Ended {
    merged: BTreeMap<Addr, AddrStream>,
    detections: Vec<OnlineViolation>,
    latencies_us: Vec<u64>,
    forensics: Vec<ForensicBundle>,
    metrics: StreamMetrics,
    replay_set: BTreeSet<Addr>,
    replay_reader: ChunkReader,
    replay_store: BTreeMap<Addr, Vec<Vec<(OpRef, Op)>>>,
}

/// A shard lane: its queue sender, the router-side batch under
/// construction, and the worker handle.
struct Lane {
    sender: SpscSender<Vec<RoutedOp>>,
    batch: Vec<RoutedOp>,
    handle: JoinHandle<Shard>,
}

/// The sharded bounded-memory streaming verification engine.
///
/// Lifecycle: [`ingest`](StreamVerifier::ingest) chunks →
/// [`end_input`](StreamVerifier::end_input) → if
/// [`needs_replay`](StreamVerifier::needs_replay), re-feed the same bytes
/// through [`ingest_replay`](StreamVerifier::ingest_replay) →
/// [`finish`](StreamVerifier::finish). [`verify_stream_bytes`] wraps the
/// whole dance for in-memory streams.
pub struct StreamVerifier {
    window: Option<usize>,
    jobs: usize,
    temporal: bool,
    verifier: VmcVerifier,
    recorder: Option<RecorderConfig>,
    reader: ChunkReader,
    procs: Option<u16>,
    seq: u64,
    router: Router,
    inline: Option<Shard>,
    lanes: Vec<Lane>,
    ended: Option<Ended>,
    /// Reusable block-decode buffer.
    scratch_events: Vec<StreamEvent>,
}

impl StreamVerifier {
    /// A fresh engine. Panics if the configured strategy is
    /// [`Strategy::Sat`] — the SAT encoder needs a whole backing trace,
    /// which a stream never materializes.
    pub fn new(config: StreamConfig) -> StreamVerifier {
        assert!(
            config.verifier.strategy != Strategy::Sat,
            "Strategy::Sat needs a whole backing trace; the streaming engine \
             supports Auto and Backtracking"
        );
        let jobs = if config.jobs == 0 {
            available_jobs()
        } else {
            config.jobs
        }
        .max(1);
        StreamVerifier {
            window: config.window,
            jobs,
            temporal: config.temporal,
            verifier: config.verifier,
            recorder: config.recorder,
            reader: ChunkReader::new(),
            procs: None,
            seq: 0,
            router: Router::default(),
            inline: None,
            lanes: Vec::new(),
            ended: None,
            scratch_events: Vec::new(),
        }
    }

    /// Worker count in use (after resolving `jobs == 0`).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Operation events consumed so far.
    pub fn events(&self) -> u64 {
        self.seq
    }

    /// Feed the next chunk of the binary stream (any chunking, including
    /// mid-record splits). Decodes and routes every complete event.
    pub fn ingest(&mut self, chunk: &[u8]) -> Result<(), DecodeError> {
        assert!(self.ended.is_none(), "ingest after end_input");
        self.reader.feed(chunk);
        // Block decode: `next_batch` amortizes the per-event framing cost;
        // completed events are routed even when the batch ends in a decode
        // error, so every event up to the failing record is routed.
        let mut events = std::mem::take(&mut self.scratch_events);
        loop {
            events.clear();
            let decoded = self.reader.next_batch(&mut events, BATCH);
            for event in events.drain(..) {
                self.route(event);
            }
            match decoded {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    self.scratch_events = events;
                    return Err(e);
                }
            }
        }
        self.scratch_events = events;
        Ok(())
    }

    fn route(&mut self, event: StreamEvent) {
        match event {
            StreamEvent::Begin { procs, .. } => {
                self.procs = Some(procs);
                if self.jobs == 1 {
                    self.inline = Some(Shard::new(
                        self.window,
                        self.temporal,
                        usize::from(procs),
                        self.recorder,
                    ));
                } else {
                    for i in 0..self.jobs {
                        let (tx, rx) = spsc_channel::<Vec<RoutedOp>>(QUEUE_CAP);
                        let (window, temporal) = (self.window, self.temporal);
                        let recorder = self.recorder;
                        let handle = std::thread::Builder::new()
                            .name(format!("vermem-stream-{i}"))
                            .spawn(move || {
                                let mut shard =
                                    Shard::new(window, temporal, usize::from(procs), recorder);
                                while let Some(batch) = rx.recv() {
                                    for routed in batch {
                                        shard.apply(routed);
                                    }
                                }
                                shard
                            })
                            .expect("spawn stream shard");
                        self.lanes.push(Lane {
                            sender: tx,
                            batch: Vec::with_capacity(BATCH),
                            handle,
                        });
                    }
                }
            }
            StreamEvent::Init { addr, value } => {
                self.router.set_initial(addr, value);
            }
            StreamEvent::Final { addr, value } => {
                self.router.set_final(addr, value);
            }
            StreamEvent::Op { op_ref, op, bytes } => {
                let addr = op.addr();
                let meta = self.router.first_touch(addr);
                let routed = RoutedOp {
                    addr,
                    op_ref,
                    op,
                    bytes,
                    seq: self.seq,
                    meta,
                };
                self.seq += 1;
                if let Some(shard) = self.inline.as_mut() {
                    shard.apply(routed);
                } else {
                    let lane_count = self.lanes.len();
                    let lane = &mut self.lanes[shard_of(addr, lane_count)];
                    lane.batch.push(routed);
                    if lane.batch.len() >= BATCH {
                        let batch = std::mem::replace(&mut lane.batch, Vec::with_capacity(BATCH));
                        // A send error means the worker died; its panic
                        // resurfaces at join time in `end_input`.
                        let _ = lane.sender.send(batch);
                    }
                }
                if self.seq.is_multiple_of(4096) && obs::enabled() {
                    obs::gauge_set("stream.ingested_events", self.seq);
                }
            }
        }
    }

    /// Declare end of input: validates the stream ended on a record
    /// boundary, drains the shards, flushes still-deferred reads as
    /// end-of-stream detections, and computes which addresses need a
    /// replay pass.
    pub fn end_input(&mut self) -> Result<(), DecodeError> {
        assert!(self.ended.is_none(), "end_input called twice");
        self.reader.finish()?;

        let mut shards: Vec<Shard> = Vec::new();
        if let Some(shard) = self.inline.take() {
            shards.push(shard);
        }
        for lane in self.lanes.drain(..) {
            let Lane {
                sender,
                batch,
                handle,
            } = lane;
            if !batch.is_empty() {
                let _ = sender.send(batch);
            }
            sender.close();
            shards.push(handle.join().expect("stream shard panicked"));
        }

        let mut merged: BTreeMap<Addr, AddrStream> = BTreeMap::new();
        let mut detections: Vec<OnlineViolation> = Vec::new();
        let mut latencies_us: Vec<u64> = Vec::new();
        let mut forensics: Vec<ForensicBundle> = Vec::new();
        let mut ring: Vec<RingEntry> = Vec::new();
        let mut metrics = StreamMetrics {
            window: self.window,
            ..StreamMetrics::default()
        };
        for mut shard in shards {
            metrics.peak_retained_windows += shard.peak_windows;
            metrics.peak_retained_units += shard.peak_units;
            metrics.retired_ops += shard.retired_ops;
            metrics.retired_bytes += shard.retired_bytes;
            metrics.retired_slots += shard.retired_slots;
            detections.extend(shard.detections);
            latencies_us.extend(shard.latencies_us);
            forensics.extend(shard.bundles);
            ring.extend(shard.ring);
            merged.extend(shard.addrs.drain().map(|(a, state)| (Addr(a), state)));
        }
        ring.sort_by_key(|e| e.seq);

        // End of stream: any still-deferred read pins its address (and on
        // temporal streams surfaces as a detection, exactly like
        // `OnlineVerifier::finish`). Queues drain in ascending proc order,
        // so the capped forensic captures are deterministic.
        let end = self.seq;
        let now = obs::now_us();
        let recorder = self.recorder;
        let mut stragglers: Vec<OnlineViolation> = Vec::new();
        let mut straggler_procs: Vec<u16> = Vec::new();
        for (&addr, state) in merged.iter_mut() {
            if state.pending_total == 0 {
                continue;
            }
            state.pinned = true;
            straggler_procs.clear();
            state.tables.pending_procs(&mut straggler_procs);
            let mut drained: Vec<PendingRead> = Vec::new();
            for &p in &straggler_procs {
                let mut queue = state.tables.pending_take(p);
                drained.append(&mut queue);
                state.tables.pending_restore(p, queue);
            }
            state.pending_total = 0;
            for pr in drained {
                if self.temporal && latencies_us.len() < LATENCY_CAP {
                    latencies_us.push(now.saturating_sub(pr.issued_us));
                }
                let violation = OnlineViolation {
                    detected_at: end,
                    issued_at: pr.issued_at,
                    proc: pr.proc,
                    addr,
                    value: pr.value,
                    cause: OnlineCause::EndOfStream,
                };
                if self.temporal {
                    if let Some(rec) = &recorder {
                        if forensics.len() < FORENSIC_CAP {
                            let recent = ring[ring.len().saturating_sub(rec.ring)..].to_vec();
                            forensics.push(capture_bundle(
                                rec,
                                state,
                                violation,
                                pr.issued_us,
                                now,
                                recent,
                                true,
                            ));
                        }
                    }
                }
                stragglers.push(violation);
            }
        }
        if self.temporal {
            stragglers.sort_by_key(|v| (v.detected_at, v.issued_at, v.addr.0, v.proc.0));
            detections.extend(stragglers);
        }
        detections.sort_by_key(|v| (v.detected_at, v.issued_at, v.addr.0, v.proc.0));
        detections.truncate(DETECTION_CAP);
        forensics.sort_by_key(|b| {
            let v = &b.violation;
            (v.detected_at, v.issued_at, v.addr.0, v.proc.0)
        });
        forensics.truncate(FORENSIC_CAP);

        let replay_set: BTreeSet<Addr> = merged
            .iter()
            .filter(|(_, s)| s.dropped && !s.sealed_clean())
            .map(|(&a, _)| a)
            .collect();

        self.ended = Some(Ended {
            merged,
            detections,
            latencies_us,
            forensics,
            metrics,
            replay_set,
            replay_reader: ChunkReader::new(),
            replay_store: BTreeMap::new(),
        });
        Ok(())
    }

    /// True if some escalated address had its retention buffer retired:
    /// the caller must re-feed the stream through
    /// [`ingest_replay`](StreamVerifier::ingest_replay) before
    /// [`finish`](StreamVerifier::finish).
    pub fn needs_replay(&self) -> bool {
        let ended = self.ended.as_ref().expect("call end_input first");
        !ended
            .replay_set
            .is_subset(&ended.replay_store.keys().copied().collect())
    }

    /// The addresses whose raw ops must be re-materialized.
    pub fn replay_addrs(&self) -> Vec<Addr> {
        let ended = self.ended.as_ref().expect("call end_input first");
        ended.replay_set.iter().copied().collect()
    }

    /// Second pass over the same stream bytes: re-collects the raw ops of
    /// replay addresses only (every other event is decoded and discarded).
    pub fn ingest_replay(&mut self, chunk: &[u8]) -> Result<(), DecodeError> {
        let procs = usize::from(self.procs.unwrap_or(0));
        let ended = self
            .ended
            .as_mut()
            .expect("call end_input before ingest_replay");
        ended.replay_reader.feed(chunk);
        loop {
            match ended.replay_reader.next() {
                Ok(Some(StreamEvent::Op { op_ref, op, .. })) => {
                    let addr = op.addr();
                    if ended.replay_set.contains(&addr) {
                        let lists = ended
                            .replay_store
                            .entry(addr)
                            .or_insert_with(|| vec![Vec::new(); procs]);
                        lists[usize::from(op_ref.proc.0)].push((op_ref, op));
                    }
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(DecodeError::NeedMoreBytes) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Run the final reduction and produce the report.
    ///
    /// Sealed addresses are decided by their summary; every other address
    /// is solved by the exact tiered kernel (fanned out over the
    /// work-stealing pool, reduced in ascending address order with the
    /// same first-failure determinism as [`crate::verify_execution_par`]).
    ///
    /// Panics if a replay was needed but not provided.
    pub fn finish(mut self) -> StreamReport {
        let mut ended = self.ended.take().expect("call end_input before finish");

        let mut span = vermem_util::span!("stream.finish");

        // Lay the addresses out in ascending order, materializing the op
        // sets of escalated addresses (from the retention buffer, or from
        // the replay store when the buffer was retired).
        enum Slot {
            Sealed,
            Exact(usize),
        }
        let mut layout: Vec<(Addr, Slot)> = Vec::with_capacity(ended.merged.len());
        let mut exact: Vec<AddrOps> = Vec::new();
        let mut metrics = ended.metrics;
        for (addr, mut state) in std::mem::take(&mut ended.merged) {
            if state.sealed_clean() {
                metrics.sealed_addresses += 1;
                layout.push((addr, Slot::Sealed));
                continue;
            }
            let lists = if !state.dropped {
                std::mem::take(&mut state.buffer)
            } else {
                metrics.replayed_addresses += 1;
                ended.replay_store.remove(&addr).unwrap_or_else(|| {
                    panic!(
                        "address {addr:?} escalated after its window was retired; \
                         re-feed the stream via ingest_replay before finish"
                    )
                })
            };
            let ops = AddrOps::from_parts(addr, state.initial, state.final_value, lists);
            layout.push((addr, Slot::Exact(exact.len())));
            exact.push(ops);
        }
        metrics.exact_addresses = exact.len();

        if span.is_recording() {
            span.arg("addresses", layout.len() as u64);
            span.arg("sealed", metrics.sealed_addresses as u64);
            span.arg("exact", exact.len() as u64);
        }

        // Fan the escalated addresses out, then reduce in address order —
        // the same determinism dance as `verify_execution_par`.
        let verifier = &self.verifier;
        let cancel = CancelToken::new();
        let mut results = scoped_map(self.jobs, exact.len(), &cancel, |i| {
            let out = verifier.verify_ops_detached(&exact[i]);
            if !matches!(out.0, Verdict::Coherent(_)) {
                cancel.cancel();
            }
            out
        });

        let mut stats = SearchStats::default();
        let mut tiers = TierStats::default();
        let mut verdict = StreamVerdict::Coherent;
        for (addr, slot) in layout.iter() {
            match slot {
                Slot::Sealed => tiers.record(Tier::Frontline),
                Slot::Exact(i) => {
                    let (v, s, tier) = results[*i]
                        .take()
                        .unwrap_or_else(|| verifier.verify_ops_detached(&exact[*i]));
                    stats.absorb(&s);
                    tiers.record(tier);
                    match v {
                        Verdict::Coherent(_) => {}
                        Verdict::Incoherent(violation) => {
                            verdict = StreamVerdict::Incoherent(violation);
                            break;
                        }
                        Verdict::Unknown => {
                            verdict = StreamVerdict::Unknown { addr: *addr };
                            break;
                        }
                    }
                }
            }
        }

        StreamReport {
            verdict,
            stats,
            tiers,
            addresses: layout.len(),
            events: self.seq,
            jobs: self.jobs,
            detections: ended.detections,
            detect_latencies_us: ended.latencies_us,
            metrics,
            forensics: ended.forensics,
        }
    }
}

/// Deterministic address→shard assignment (Fibonacci-hash the address).
fn shard_of(addr: Addr, shards: usize) -> usize {
    let h = u64::from(addr.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards
}

/// One-shot convenience: stream `bytes` through a [`StreamVerifier`],
/// running the replay pass automatically when retirement requires it.
pub fn verify_stream_bytes(
    bytes: &[u8],
    config: StreamConfig,
) -> Result<StreamReport, DecodeError> {
    let mut engine = StreamVerifier::new(config);
    engine.ingest(bytes)?;
    engine.end_input()?;
    if engine.needs_replay() {
        engine.ingest_replay(bytes)?;
    }
    Ok(engine.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_execution_par, ExecutionVerdict};
    use vermem_trace::binary::{encode_event_stream, encode_trace};
    use vermem_trace::{Trace, TraceBuilder};

    fn config(window: Option<usize>, jobs: usize, temporal: bool) -> StreamConfig {
        StreamConfig {
            window,
            jobs,
            temporal,
            verifier: VmcVerifier::new(),
            recorder: None,
        }
    }

    fn recording(window: Option<usize>, jobs: usize, temporal: bool) -> StreamConfig {
        StreamConfig {
            recorder: Some(RecorderConfig::default()),
            ..config(window, jobs, temporal)
        }
    }

    /// Batch-vs-stream parity on a v2 (proc-major) encoding of `trace`.
    fn assert_parity(trace: &Trace, window: Option<usize>, jobs: usize, tag: &str) {
        let bytes = encode_trace(trace);
        let batch = verify_execution_par(trace, &VmcVerifier::new(), 1);
        let report = verify_stream_bytes(&bytes, config(window, jobs, false)).expect("decode");
        assert!(
            report.verdict.matches_batch(&batch.verdict),
            "{tag}: stream {:?} vs batch {:?}",
            report.verdict,
            batch.verdict
        );
        assert_eq!(report.stats, batch.stats, "{tag}: stats");
        assert_eq!(report.tiers, batch.tiers, "{tag}: tiers");
        assert_eq!(report.addresses, batch.addresses, "{tag}: addresses");
    }

    fn gen_trace(seed: u64) -> Trace {
        let (t, _) = vermem_trace::gen::gen_sc_trace(&vermem_trace::gen::GenConfig {
            procs: 4,
            total_ops: 160,
            addrs: 7,
            seed,
            ..Default::default()
        });
        t
    }

    #[test]
    fn sealed_stream_is_coherent_with_frontline_tier() {
        // Unique written values, reads in commit order: every address
        // seals; no exact solve, no stats, all frontline.
        let mut events = Vec::new();
        for a in 0..4u32 {
            events.push((ProcId(0), Op::write(a, u64::from(a) + 1)));
            events.push((ProcId(1), Op::read(a, u64::from(a) + 1)));
        }
        let bytes = encode_event_stream(2, &BTreeMap::new(), &BTreeMap::new(), &events);
        let report = verify_stream_bytes(&bytes, config(Some(2), 1, true)).expect("decode");
        assert!(report.is_coherent());
        assert_eq!(report.addresses, 4);
        assert_eq!(report.metrics.sealed_addresses, 4);
        assert_eq!(report.metrics.exact_addresses, 0);
        assert_eq!(report.stats, SearchStats::default());
        assert_eq!(report.tiers.frontline_decided, 4);
        assert_eq!(report.tiers.escalated, 0);
        assert!(report.detections.is_empty());
    }

    #[test]
    fn parity_on_generated_traces_across_windows_and_jobs() {
        for seed in 0..6u64 {
            let t = gen_trace(seed);
            for window in [Some(4), Some(64), None] {
                for jobs in [1, 2] {
                    assert_parity(
                        &t,
                        window,
                        jobs,
                        &format!("seed {seed} w {window:?} j {jobs}"),
                    );
                }
            }
        }
    }

    #[test]
    fn first_violation_is_batch_identical() {
        // Two independent violations (addresses 3 and 7): the stream must
        // report address 3's violation, like the batch engine.
        let t = TraceBuilder::new()
            .proc([
                Op::write(3u32, 1u64),
                Op::write(7u32, 1u64),
                Op::write(5u32, 2u64),
            ])
            .proc([
                Op::read(7u32, 9u64),
                Op::read(3u32, 8u64),
                Op::read(5u32, 2u64),
            ])
            .build();
        let batch = verify_execution_par(&t, &VmcVerifier::new(), 1);
        let violation = match &batch.verdict {
            ExecutionVerdict::Incoherent(v) => v.clone(),
            other => panic!("expected incoherent, got {other:?}"),
        };
        for jobs in [1, 2, 8] {
            let report =
                verify_stream_bytes(&encode_trace(&t), config(Some(1), jobs, false)).expect("ok");
            assert_eq!(
                report.verdict,
                StreamVerdict::Incoherent(violation.clone()),
                "jobs {jobs}"
            );
            assert_eq!(report.stats, batch.stats, "jobs {jobs}");
            assert_eq!(report.tiers, batch.tiers, "jobs {jobs}");
        }
    }

    #[test]
    fn report_is_window_and_jobs_invariant() {
        let t = gen_trace(42);
        let bytes = encode_trace(&t);
        let baseline = verify_stream_bytes(&bytes, config(None, 1, false)).expect("ok");
        for window in [Some(1), Some(2), Some(16), None] {
            for jobs in [1, 2, 8] {
                let report = verify_stream_bytes(&bytes, config(window, jobs, false)).expect("ok");
                assert_eq!(report.verdict, baseline.verdict, "w {window:?} j {jobs}");
                assert_eq!(report.stats, baseline.stats, "w {window:?} j {jobs}");
                assert_eq!(report.tiers, baseline.tiers, "w {window:?} j {jobs}");
            }
        }
    }

    /// A long sealing stream: one writer of unique values, one reader in
    /// lockstep, `addrs` addresses round-robin.
    fn sealing_stream(addrs: u32, rounds: u64) -> Vec<u8> {
        let mut events = Vec::new();
        for i in 0..rounds {
            let a = (i % u64::from(addrs)) as u32;
            events.push((ProcId(0), Op::write(a, i + 1)));
            events.push((ProcId(1), Op::read(a, i + 1)));
        }
        encode_event_stream(2, &BTreeMap::new(), &BTreeMap::new(), &events)
    }

    #[test]
    fn retained_memory_is_independent_of_stream_length() {
        let short = verify_stream_bytes(&sealing_stream(3, 2_000), config(Some(16), 1, true))
            .expect("decode");
        let long = verify_stream_bytes(&sealing_stream(3, 20_000), config(Some(16), 1, true))
            .expect("decode");
        assert!(short.is_coherent() && long.is_coherent());
        assert_eq!(
            short.metrics.peak_retained_windows, long.metrics.peak_retained_windows,
            "peak retained windows must not grow with stream length"
        );
        assert!(long.metrics.retired_ops > short.metrics.retired_ops);
        assert!(long.metrics.retired_bytes > short.metrics.retired_bytes);
        assert!(long.metrics.retired_slots > short.metrics.retired_slots);
        assert_eq!(long.metrics.sealed_addresses, 3);
    }

    #[test]
    fn replay_rematerializes_retired_escalations() {
        // Address 0 seals; address 1 writes a duplicate value *after* a
        // long unique-value prefix has been retired, so its exact solve
        // needs the replay pass.
        let mut events = Vec::new();
        for i in 0..200u64 {
            events.push((ProcId(0), Op::write(0u32, i + 1)));
            events.push((ProcId(1), Op::read(0u32, i + 1)));
            events.push((ProcId(0), Op::write(1u32, i + 1000)));
        }
        events.push((ProcId(0), Op::write(1u32, 1000u64))); // duplicate of round 0
        events.push((ProcId(1), Op::read(1u32, 1000u64)));
        let bytes = encode_event_stream(2, &BTreeMap::new(), &BTreeMap::new(), &events);

        let mut engine = StreamVerifier::new(config(Some(8), 1, true));
        engine.ingest(&bytes).expect("decode");
        engine.end_input().expect("clean end");
        assert!(engine.needs_replay());
        assert_eq!(engine.replay_addrs(), vec![Addr(1)]);
        engine.ingest_replay(&bytes).expect("replay decode");
        assert!(!engine.needs_replay());
        let report = engine.finish();
        assert!(report.is_coherent(), "verdict {:?}", report.verdict);
        assert_eq!(report.metrics.sealed_addresses, 1);
        assert_eq!(report.metrics.exact_addresses, 1);
        assert_eq!(report.metrics.replayed_addresses, 1);
        assert!(report.metrics.retired_ops > 0);
    }

    #[test]
    fn chunked_ingest_matches_one_shot() {
        let t = gen_trace(7);
        let bytes = encode_trace(&t);
        let oneshot = verify_stream_bytes(&bytes, config(Some(8), 1, false)).expect("ok");
        for chunk in [1usize, 3, 17, 1024] {
            let mut engine = StreamVerifier::new(config(Some(8), 1, false));
            for piece in bytes.chunks(chunk) {
                engine.ingest(piece).expect("decode");
            }
            engine.end_input().expect("clean end");
            if engine.needs_replay() {
                for piece in bytes.chunks(chunk) {
                    engine.ingest_replay(piece).expect("replay decode");
                }
            }
            let report = engine.finish();
            assert_eq!(report.verdict, oneshot.verdict, "chunk {chunk}");
            assert_eq!(report.stats, oneshot.stats, "chunk {chunk}");
            assert_eq!(report.tiers, oneshot.tiers, "chunk {chunk}");
        }
    }

    #[test]
    fn temporal_stream_reports_detections_with_latency() {
        // P1 defers a read of a never-written value, then commits its own
        // write: the window closes — a detection — and the address
        // escalates to the exact kernel, which confirms the violation.
        let events = vec![
            (ProcId(0), Op::w(1u64)),
            (ProcId(1), Op::r(9u64)),
            (ProcId(1), Op::w(2u64)),
        ];
        let bytes = encode_event_stream(2, &BTreeMap::new(), &BTreeMap::new(), &events);
        let report = verify_stream_bytes(&bytes, config(None, 1, true)).expect("decode");
        assert!(!report.is_coherent());
        assert_eq!(report.detections.len(), 1);
        assert_eq!(report.detections[0].cause, OnlineCause::WindowClosed);
        assert_eq!(report.detections[0].detected_at, 2);
        assert_eq!(report.detections[0].issued_at, 1);
        assert_eq!(report.detect_latencies_us.len(), 1);
        assert!(report.p99_detect_latency_us().is_some());
    }

    #[test]
    fn non_temporal_stream_suppresses_detections_but_not_verdicts() {
        let events = vec![
            (ProcId(0), Op::w(1u64)),
            (ProcId(1), Op::r(9u64)),
            (ProcId(1), Op::w(2u64)),
        ];
        let bytes = encode_event_stream(2, &BTreeMap::new(), &BTreeMap::new(), &events);
        let report = verify_stream_bytes(&bytes, config(None, 1, false)).expect("decode");
        assert!(!report.is_coherent());
        assert!(report.detections.is_empty());
        assert!(report.detect_latencies_us.is_empty());
    }

    #[test]
    fn rmw_streams_escalate_and_match_batch() {
        // A coherent RMW increment chain: never sealable (RMW pins), so it
        // exercises the exact fallthrough.
        let t = TraceBuilder::new()
            .proc([Op::rw(0u64, 1u64), Op::rw(2u64, 3u64)])
            .proc([Op::rw(1u64, 2u64), Op::rw(3u64, 4u64)])
            .build();
        assert_parity(&t, Some(1), 1, "rmw chain");
        let report = verify_stream_bytes(&encode_trace(&t), config(Some(1), 1, false)).expect("ok");
        assert_eq!(report.metrics.sealed_addresses, 0);
        assert_eq!(report.metrics.exact_addresses, 1);
    }

    #[test]
    fn initial_and_final_values_are_honored() {
        let mut initials = BTreeMap::new();
        initials.insert(Addr(0), Value(5));
        let mut finals = BTreeMap::new();
        finals.insert(Addr(0), Value(7));
        let events = vec![(ProcId(0), Op::r(5u64)), (ProcId(0), Op::w(7u64))];
        let bytes = encode_event_stream(1, &initials, &finals, &events);
        let report = verify_stream_bytes(&bytes, config(None, 1, true)).expect("decode");
        assert!(report.is_coherent());
        assert_eq!(report.metrics.sealed_addresses, 1);

        // Final mismatch: the summary refuses to seal and the exact kernel
        // rules.
        let mut finals = BTreeMap::new();
        finals.insert(Addr(0), Value(9));
        let bytes = encode_event_stream(1, &initials, &finals, &events);
        let report = verify_stream_bytes(&bytes, config(None, 1, true)).expect("decode");
        assert!(!report.is_coherent());
        assert_eq!(report.metrics.sealed_addresses, 0);
    }

    #[test]
    #[should_panic(expected = "Strategy::Sat")]
    fn sat_strategy_is_rejected() {
        let _ = StreamVerifier::new(StreamConfig {
            verifier: VmcVerifier {
                strategy: Strategy::Sat,
                ..VmcVerifier::new()
            },
            ..StreamConfig::default()
        });
    }

    #[test]
    fn recorder_changes_no_verdict_stats_or_tiers() {
        for seed in [3u64, 42] {
            let t = gen_trace(seed);
            let bytes = encode_trace(&t);
            for jobs in [1, 2, 8] {
                let off = verify_stream_bytes(&bytes, config(Some(8), jobs, true)).expect("ok");
                let on = verify_stream_bytes(&bytes, recording(Some(8), jobs, true)).expect("ok");
                assert_eq!(on.verdict, off.verdict, "seed {seed} jobs {jobs}");
                assert_eq!(on.stats, off.stats, "seed {seed} jobs {jobs}");
                assert_eq!(on.tiers, off.tiers, "seed {seed} jobs {jobs}");
                assert_eq!(on.addresses, off.addresses, "seed {seed} jobs {jobs}");
            }
        }
    }

    #[test]
    fn forensic_bundle_captures_window_core_and_timing() {
        // Same shape as `temporal_stream_reports_detections_with_latency`,
        // now with the flight recorder on: one WindowClosed detection, one
        // bundle with the retained ops, the ring, and a minimized core.
        let events = vec![
            (ProcId(0), Op::w(1u64)),
            (ProcId(1), Op::r(9u64)),
            (ProcId(1), Op::w(2u64)),
        ];
        let bytes = encode_event_stream(2, &BTreeMap::new(), &BTreeMap::new(), &events);
        let report = verify_stream_bytes(&bytes, recording(None, 1, true)).expect("decode");
        assert!(!report.is_coherent());
        assert_eq!(report.forensics.len(), 1);
        let b = &report.forensics[0];
        assert_eq!(b.violation, report.detections[0]);
        assert_eq!(b.violation.cause, OnlineCause::WindowClosed);
        assert!(b.detected_us >= b.issued_us);
        assert_eq!(b.recent.len(), 3, "whole stream fits the ring");
        assert_eq!(b.window_ops.len(), 3);
        assert_eq!(b.tier, Some(Tier::Frontline), "R9 is unservable on sight");
        let core = b.core.as_ref().expect("retained window is incoherent");
        assert!(!core.kept.is_empty());
        // Kept refs are in original stream coordinates: each one names a
        // retained window op.
        for r in &core.kept {
            assert!(b.window_ops.iter().any(|(wr, _)| wr == r), "{r:?}");
        }

        let parsed = vermem_util::json::parse_json(&b.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(|s| s.as_str()),
            Some(FORENSIC_SCHEMA)
        );
        assert_eq!(
            parsed.get("cause").and_then(|s| s.as_str()),
            Some("window-closed")
        );
        assert_eq!(
            parsed.get("tier").and_then(|s| s.as_str()),
            Some("frontline")
        );
        assert!(parsed
            .get("core")
            .and_then(|c| c.get("kept"))
            .and_then(|k| k.as_arr())
            .is_some_and(|k| !k.is_empty()));
    }

    #[test]
    fn end_of_stream_straggler_gets_a_bundle() {
        let events = vec![(ProcId(0), Op::w(1u64)), (ProcId(1), Op::r(9u64))];
        let bytes = encode_event_stream(2, &BTreeMap::new(), &BTreeMap::new(), &events);
        let report = verify_stream_bytes(&bytes, recording(None, 1, true)).expect("decode");
        assert!(!report.is_coherent());
        assert_eq!(report.detections.len(), 1);
        assert_eq!(report.detections[0].cause, OnlineCause::EndOfStream);
        assert_eq!(report.forensics.len(), 1);
        let b = &report.forensics[0];
        assert_eq!(b.violation, report.detections[0]);
        assert!(b.core.is_some());
    }

    #[test]
    fn non_temporal_recorder_captures_nothing() {
        let events = vec![
            (ProcId(0), Op::w(1u64)),
            (ProcId(1), Op::r(9u64)),
            (ProcId(1), Op::w(2u64)),
        ];
        let bytes = encode_event_stream(2, &BTreeMap::new(), &BTreeMap::new(), &events);
        let report = verify_stream_bytes(&bytes, recording(None, 1, false)).expect("decode");
        assert!(!report.is_coherent());
        assert!(report.forensics.is_empty());
    }

    #[test]
    fn recorder_ring_is_counted_and_stays_bounded() {
        let short = verify_stream_bytes(&sealing_stream(3, 2_000), recording(Some(16), 1, true))
            .expect("decode");
        let long = verify_stream_bytes(&sealing_stream(3, 20_000), recording(Some(16), 1, true))
            .expect("decode");
        assert!(short.is_coherent() && long.is_coherent());
        assert_eq!(
            short.metrics.peak_retained_windows, long.metrics.peak_retained_windows,
            "peak retained windows must not grow with stream length, ring included"
        );
        let off = verify_stream_bytes(&sealing_stream(3, 2_000), config(Some(16), 1, true))
            .expect("decode");
        assert!(
            short.metrics.peak_retained_windows > off.metrics.peak_retained_windows,
            "the forensic ring must be counted inside the bounded-memory contract \
             (recorder on {} vs off {})",
            short.metrics.peak_retained_windows,
            off.metrics.peak_retained_windows
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 99), None);
        assert_eq!(percentile(&[7], 99), Some(7));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 99), Some(99));
        assert_eq!(percentile(&v, 50), Some(50));
    }

    /// Two runs over the same bytes at different shard counts must produce
    /// the same report, field by field, except what depends on the shard
    /// layout or the clock: per-shard peaks are summed per shard, a bundle's
    /// `recent` ring is its shard's, and latencies are obs-clock readings
    /// (only their count compares).
    fn assert_jobs_invariant(a: &StreamReport, b: &StreamReport, tag: &str) {
        assert_eq!(a.verdict, b.verdict, "{tag}: verdict");
        assert_eq!(a.stats, b.stats, "{tag}: stats");
        assert_eq!(a.tiers, b.tiers, "{tag}: tiers");
        assert_eq!(a.addresses, b.addresses, "{tag}: addresses");
        assert_eq!(a.events, b.events, "{tag}: events");
        assert_eq!(a.detections, b.detections, "{tag}: detections");
        assert_eq!(
            a.detect_latencies_us.len(),
            b.detect_latencies_us.len(),
            "{tag}: latency count"
        );
        let per_address = |m: &StreamMetrics| StreamMetrics {
            peak_retained_windows: 0,
            peak_retained_units: 0,
            ..m.clone()
        };
        assert_eq!(
            per_address(&a.metrics),
            per_address(&b.metrics),
            "{tag}: metrics"
        );
        assert_eq!(a.forensics.len(), b.forensics.len(), "{tag}: bundle count");
        for (x, y) in a.forensics.iter().zip(&b.forensics) {
            assert_eq!(x.violation, y.violation, "{tag}: bundle violation");
            assert_eq!(x.window_ops, y.window_ops, "{tag}: bundle window ops");
            assert_eq!(x.tier, y.tier, "{tag}: bundle tier");
            let core = |c: &Option<CoreCertificate>| {
                c.as_ref().map(|c| (c.kept.clone(), c.violation.clone()))
            };
            assert_eq!(core(&x.core), core(&y.core), "{tag}: bundle core");
        }
    }

    #[test]
    fn violations_and_forensics_are_jobs_invariant() {
        // A read of a never-written value: a window-closed detection, an
        // end-of-stream straggler, forensics and the exact escalation.
        let events = vec![
            (ProcId(0), Op::w(1u64)),
            (ProcId(1), Op::r(9u64)),
            (ProcId(1), Op::w(2u64)),
            (ProcId(0), Op::r(2u64)),
            (ProcId(0), Op::write(1u32, 5u64)),
            (ProcId(1), Op::read(1u32, 6u64)),
        ];
        let bytes = encode_event_stream(2, &BTreeMap::new(), &BTreeMap::new(), &events);
        let base = verify_stream_bytes(&bytes, recording(None, 1, true)).expect("decode");
        assert!(!base.is_coherent());
        assert_eq!(base.detections.len(), 2);
        assert_eq!(base.forensics.len(), 2);
        for jobs in [2, 8] {
            let report = verify_stream_bytes(&bytes, recording(None, jobs, true)).expect("decode");
            assert_jobs_invariant(&base, &report, &format!("violating stream jobs {jobs}"));
        }
    }

    #[test]
    fn retirement_and_replay_are_jobs_invariant() {
        // A long sealing stream with a tight window retires ops and slots;
        // appending a duplicate write to one address after its prefix was
        // retired forces the replay pass.
        let sealing = sealing_stream(3, 2_000);
        let mut events = Vec::new();
        for i in 0..600u64 {
            let a = (i % 3) as u32;
            events.push((ProcId(0), Op::write(a, i + 1)));
            events.push((ProcId(1), Op::read(a, i + 1)));
        }
        events.push((ProcId(0), Op::write(1u32, 2u64)));
        let replaying = encode_event_stream(2, &BTreeMap::new(), &BTreeMap::new(), &events);
        for (name, bytes) in [("sealing", &sealing), ("replaying", &replaying)] {
            let base = verify_stream_bytes(bytes, config(Some(16), 1, true)).expect("decode");
            assert!(base.metrics.retired_ops > 0 && base.metrics.retired_slots > 0);
            for jobs in [2, 8] {
                let report = verify_stream_bytes(bytes, config(Some(16), jobs, true)).expect("ok");
                assert_jobs_invariant(&base, &report, &format!("{name} stream jobs {jobs}"));
            }
        }
        let replayed = verify_stream_bytes(&replaying, config(Some(16), 1, true)).expect("ok");
        assert_eq!(replayed.metrics.replayed_addresses, 1);
        assert_eq!(replayed.metrics.sealed_addresses, 2);
    }
}
