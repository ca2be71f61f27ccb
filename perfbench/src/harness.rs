//! The measurement loop shared by every workload.
//!
//! A run is: set-up, then whole corpus passes until the time budget is
//! spent (at least three). Every input is timed on its own, from opening
//! its file to its verdict; output checks run between inputs, outside the
//! timed region.
//!
//! Each input's time is its fastest over the run's passes (best of N). The
//! work per input is deterministic, so the fastest repetition is its cost
//! with the least interference. On a 2-vCPU KVM guest (Xeon, 2.1 GHz)
//! shared with other tenants, their memory traffic slowed these workloads
//! by 15–25% for tens of seconds at a time: a mean or median of passes
//! moved that much between runs, the best of N a few percent. The mean
//! rate over the whole timed phase is printed beside it.
//!
//! Set-up is measured the same way. It runs once before the first timed
//! input and again after every untraced pass, so its repetitions span the
//! run like the passes do; `setup_s` sums each warm-up input's fastest
//! time over those repetitions. Five set-ups back to back all fell in the
//! same host phase, and their median spread 15–40% between runs.
//!
//! A traced run alternates untraced and traced passes over the same inputs,
//! so host drift hits both alike, and asserts that every traced summary
//! equals the untraced one.

use crate::layers::{Counts, Layer, Layers};
use crate::stats::{median, percentile, quartiles};
use crate::workload::Bench;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Fewest untraced corpus passes a run makes.
const MIN_PASSES: usize = 3;
/// Failure messages printed per run.
const MAX_NOTES: usize = 10;

/// One reported metric.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Result of a run: correctness accounting, metrics, and diagnostic lines.
#[derive(Default)]
pub struct Outcome {
    /// Inputs in the corpus; each is attempted once per pass.
    pub attempted: u64,
    /// Inputs that failed an output check, errored, panicked, or
    /// disagreed with the first pass, on any pass. An input counts once
    /// however many of its attempts failed.
    pub failed: u64,
    /// Which inputs have failed so far.
    failed_inputs: Vec<bool>,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
    /// Lines printed before the JSON line.
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn fail(&mut self, i: usize, msg: String) {
        if !std::mem::replace(&mut self.failed_inputs[i], true) {
            self.failed += 1;
            if self.failed as usize <= MAX_NOTES {
                self.notes.push(format!("# FAILED {msg}"));
            }
        }
    }
}

/// Warm-up slice: the first inputs of the corpus, run untimed in set-up.
fn warm_slice(inputs: usize) -> usize {
    (inputs / 4).max(1)
}

fn attempt<T>(f: impl FnOnce() -> Result<T, String>, i: usize) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err(format!("input {i}: panicked")))
}

/// One set-up repetition: the warm-up slice, each input timed. (The
/// verifier configurations are plain values built with the workload; stream
/// engines are built per input, inside the timed region.)
fn setup_rep<B: Bench>(b: &B, setup: &mut Passes) {
    for i in 0..setup.best.len() {
        let t0 = Instant::now();
        let _ = attempt(|| b.run(i), i);
        setup.record(i, t0.elapsed().as_secs_f64());
    }
}

/// Timings of a series of passes.
struct Passes {
    /// Seconds per pass (summed input times).
    secs: Vec<f64>,
    /// Fastest seconds per input so far.
    best: Vec<f64>,
}

impl Passes {
    fn new(n: usize) -> Passes {
        Passes {
            secs: Vec::new(),
            best: vec![f64::INFINITY; n],
        }
    }

    fn record(&mut self, i: usize, secs: f64) {
        self.best[i] = self.best[i].min(secs);
        match self.secs.last_mut() {
            Some(total) if i > 0 => *total += secs,
            _ => self.secs.push(secs),
        }
    }

    fn best_total(&self) -> f64 {
        self.best.iter().sum()
    }
}

/// The untraced side of a run: timings, first-pass summaries, and how many
/// inputs got a definite verdict.
struct Untraced<S> {
    passes: Passes,
    first: Vec<Option<S>>,
    decided: u64,
}

fn untraced_pass<B: Bench>(b: &B, u: &mut Untraced<B::Summary>, out: &mut Outcome) {
    let pass = u.passes.secs.len();
    for i in 0..b.inputs() {
        let t0 = Instant::now();
        let result = attempt(|| b.run(i), i);
        u.passes.record(i, t0.elapsed().as_secs_f64());
        let verdict = result.and_then(|o| {
            let s = b.summary(i, &o);
            if pass == 0 {
                u.decided += u64::from(b.decided(&s));
                let checked = b.check(i, &o);
                u.first[i] = Some(s);
                checked
            } else if u.first[i].as_ref() != Some(&s) {
                Err(format!("input {i}: pass {pass} differs from pass 0: {s:?}"))
            } else {
                Ok(())
            }
        });
        if let Err(e) = verdict {
            out.fail(i, e);
        }
    }
}

/// The traced side of a run: timings, summed layer times, first-pass
/// counts.
struct Traced {
    passes: Passes,
    layers: Layers,
    counts: Option<Counts>,
}

fn traced_pass<B: Bench>(b: &B, t: &mut Traced, first: &[Option<B::Summary>], out: &mut Outcome) {
    for (i, want) in first.iter().enumerate() {
        let excluded = t.layers.excluded;
        let t0 = Instant::now();
        let result = attempt(|| b.traced(i, &mut t.layers), i);
        let dt = t0.elapsed().saturating_sub(t.layers.excluded - excluded);
        t.passes.record(i, dt.as_secs_f64());
        match result {
            Ok(s) if want.as_ref() == Some(&s) => {}
            Ok(s) => out.fail(
                i,
                format!("input {i}: traced run differs from untraced: {s:?}"),
            ),
            Err(e) => out.fail(i, e),
        }
    }
    t.counts.get_or_insert_with(|| t.layers.counts.clone());
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Measure `b` for `seconds`: end-to-end metrics, or with `trace` the
/// per-layer split.
pub fn measure<B: Bench>(b: &B, seconds: f64, trace: bool) -> Outcome {
    let n = b.inputs();
    let mut out = Outcome {
        attempted: n as u64,
        failed_inputs: vec![false; n],
        ..Outcome::default()
    };
    let mut setup = Passes::new(warm_slice(n));
    setup_rep(b, &mut setup);
    let pass_ops: u64 = (0..n).map(|i| b.ops(i)).sum();
    let budget = Duration::from_secs_f64(seconds);
    let mut u = Untraced {
        passes: Passes::new(n),
        first: (0..n).map(|_| None).collect(),
        decided: 0,
    };
    let mut t = Traced {
        passes: Passes::new(n),
        layers: Layers::default(),
        counts: None,
    };
    let start = Instant::now();
    loop {
        untraced_pass(b, &mut u, &mut out);
        if trace {
            traced_pass(b, &mut t, &u.first, &mut out);
        } else {
            setup_rep(b, &mut setup);
        }
        if u.passes.secs.len() >= MIN_PASSES && start.elapsed() >= budget {
            break;
        }
    }
    let pass_mean = u.passes.secs.iter().sum::<f64>() / u.passes.secs.len() as f64;
    let (q1, q3) = quartiles(&u.passes.secs).expect("at least two passes");
    out.notes.push(format!(
        "# untraced: {} passes of {n} inputs ({pass_ops} ops); pass seconds mean {pass_mean:.4} q1 {q1:.4} q3 {q3:.4}; mean rate {:.1} ops/s",
        u.passes.secs.len(),
        pass_ops as f64 / pass_mean
    ));
    if trace {
        layer_metrics(&mut out, &u.passes, &t);
        return out;
    }
    let latencies: Vec<f64> = u.passes.best.iter().map(|s| s * 1e3).collect();
    let p90 = percentile(&latencies, 90)
        .unwrap_or_else(|| panic!("{n} inputs leave fewer than 10 samples beyond p90"));
    out.notes.push(format!(
        "# latency samples: {n} inputs, each the best of {} passes",
        u.passes.secs.len()
    ));
    out.metric(
        "ops_per_s",
        pass_ops as f64 / u.passes.best_total(),
        "ops/s",
    );
    out.metric("verdict_ms_p50", median(&latencies).expect("inputs"), "ms");
    out.metric("verdict_ms_p90", p90, "ms");
    out.metric("decided_share", ratio(u.decided, n as u64), "ratio");
    let failed_share = ratio(out.failed, out.attempted);
    out.notes.push(format!(
        "# failed_share {failed_share} ({} of {n} inputs, {} attempts each)",
        out.failed,
        u.passes.secs.len()
    ));
    out.metric("ok_share", 1.0 - failed_share, "ratio");
    out.metric("setup_s", setup.best_total(), "s");
    out.notes.push(format!(
        "# setup_s: {} warm-up inputs, each the best of {} repetitions; repetition seconds {:?}",
        setup.best.len(),
        setup.secs.len(),
        setup.secs
    ));
    out.metric("peak_rss_mb", crate::probe::peak_rss_mb(), "MB");
    out
}

/// Per-layer metrics of a traced run. Layer self times are means per
/// traced pass, so they add up to the mean traced pass time;
/// `trace_overhead` compares best-of-N totals of the interleaved passes.
fn layer_metrics(out: &mut Outcome, u: &Passes, t: &Traced) {
    let passes = t.passes.secs.len() as f64;
    let wall: f64 = t.passes.secs.iter().sum();
    let per_pass_ms = |d: Duration| d.as_secs_f64() * 1e3 / passes;
    let wall_ms = wall * 1e3 / passes;
    out.notes.push(format!(
        "# traced: {} passes; traced pass ms {wall_ms:.4}",
        t.passes.secs.len()
    ));
    out.notes
        .push("# per-layer self time per traced pass:".into());
    for layer in Layer::ALL {
        let d = t.layers.self_time(layer);
        let share = d.as_secs_f64() / wall;
        out.notes.push(format!(
            "#   {:<22} self_ms {:>12.4}  share {share:.4}",
            layer.name(),
            per_pass_ms(d)
        ));
        // A layer a workload never enters would report a self time of
        // exactly 0 on every run; its share carries the same information.
        if matches!(layer, Layer::IoRead | Layer::Decode) {
            out.metric(&format!("{}.self_ms", layer.name()), per_pass_ms(d), "ms");
        } else {
            out.metric(&format!("{}.self_share", layer.name()), share, "ratio");
        }
    }
    let c = t.counts.as_ref().expect("at least one traced pass");
    let decode_s = t.layers.self_time(Layer::Decode).as_secs_f64();
    out.metric(
        "trace.decode.mb_per_s",
        c.decoded_bytes as f64 * passes / decode_s / 1e6,
        "MB/s",
    );
    // Signed: a negative value would show spans overlapping.
    out.metric(
        "unattributed_ms",
        wall_ms - per_pass_ms(t.layers.total()),
        "ms",
    );
    out.metric("traced.pass_ms", wall_ms, "ms");
    out.metric(
        "trace_overhead",
        t.passes.best_total() / u.best_total(),
        "ratio",
    );
    let chunk_ms: Vec<f64> = t
        .layers
        .chunk_times
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    out.notes.push(match percentile(&chunk_ms, 99) {
        Some(p99) => format!(
            "# stream.ingest.chunk_ms_p99 {p99} ms ({} chunks)",
            chunk_ms.len()
        ),
        None => format!(
            "# stream.ingest.chunk_ms_p99 n/a ({} chunks)",
            chunk_ms.len()
        ),
    });
    let counts: [(&str, f64, &'static str); 21] = [
        ("coherence.fastpath.addrs", c.fastpath_addrs as f64, "count"),
        (
            "coherence.closure.decided",
            c.closure_decided as f64,
            "count",
        ),
        (
            "coherence.closure.escalated",
            c.closure_escalated as f64,
            "count",
        ),
        (
            "coherence.closure.decide_ratio",
            ratio(c.closure_decided, c.closure_decided + c.closure_escalated),
            "ratio",
        ),
        ("coherence.exact.states", c.exact_states as f64, "count"),
        (
            "coherence.exact.memo_hit_ratio",
            ratio(c.exact_memo_hits, c.exact_memo_hits + c.exact_memo_misses),
            "ratio",
        ),
        ("coherence.exact.prunes", c.exact_prunes as f64, "count"),
        ("coherence.exact.unknown", c.exact_unknown as f64, "count"),
        (
            "consistency.ra_fast.decide_ratio",
            ratio(c.ra_fast_decided, c.ra_fast_attempted),
            "ratio",
        ),
        ("consistency.kernel.states", c.kernel_states as f64, "count"),
        (
            "consistency.kernel.memo_hits",
            c.kernel_memo_hits as f64,
            "count",
        ),
        (
            "consistency.kernel.unknown",
            c.kernel_unknown as f64,
            "count",
        ),
        ("sat.encode.clauses", c.sat_clauses as f64, "count"),
        ("sat.conflicts", c.sat_conflicts as f64, "count"),
        ("sat.decisions", c.sat_decisions as f64, "count"),
        ("sat.propagations", c.sat_propagations as f64, "count"),
        ("stream.sealed_addrs", c.stream_sealed_addrs as f64, "count"),
        ("stream.exact_addrs", c.stream_exact_addrs as f64, "count"),
        (
            "stream.replayed_addrs",
            c.stream_replayed_addrs as f64,
            "count",
        ),
        ("stream.retired_ops", c.stream_retired_ops as f64, "count"),
        (
            "stream.peak_retained_units",
            c.stream_peak_retained_units as f64,
            "count",
        ),
    ];
    for (name, value, unit) in counts {
        out.metric(name, value, unit);
    }
}
