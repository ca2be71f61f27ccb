//! `serve-stream`: each v3 event log is read from disk in fixed-size chunks
//! and fed to `StreamVerifier::ingest`, then `end_input`, then
//! `ingest_replay` when the engine asks for it, then `finish`.
//!
//! Decode happens inside `ingest`, where the benchmark cannot put a span.
//! The traced run therefore decodes every chunk a second time with a
//! decode-only `ChunkReader::next_batch` pass, counts that time as the
//! decode layer, subtracts it from the chunk's ingest time, and leaves the
//! twin pass out of the traced wall time.

use crate::layers::{Layer, Layers};
use crate::workload::{Bench, Corpus};
use std::fs::File;
use std::io::Read;
use std::time::{Duration, Instant};
use vermem_coherence::closure::TierStats;
use vermem_coherence::{
    SearchStats, StreamConfig, StreamMetrics, StreamReport, StreamVerdict, StreamVerifier,
    VmcVerifier,
};
use vermem_trace::binary::ChunkReader;

/// Bytes per read from the stream file.
const CHUNK_BYTES: usize = 4096;
/// Retention window in ops per address.
const WINDOW: usize = 64;

/// The streaming workload.
pub struct Stream {
    corpus: Corpus,
    config: StreamConfig,
}

/// What the traced run must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamSummary {
    verdict: String,
    stats: SearchStats,
    tiers: TierStats,
    metrics: StreamMetrics,
    events: u64,
    addresses: usize,
}

/// Render a stream verdict in the manifest's spelling (as the batch
/// verdict it must equal).
fn render(v: &StreamVerdict) -> String {
    match v {
        StreamVerdict::Coherent => "coherent".into(),
        StreamVerdict::Incoherent(v) => format!("incoherent:{v:?}"),
        StreamVerdict::Unknown { addr } => format!("unknown:{}", addr.0),
    }
}

/// Feed the file at `i` to `sink` in [`CHUNK_BYTES`] pieces.
fn for_each_chunk(
    stream: &Stream,
    i: usize,
    mut sink: impl FnMut(&[u8]) -> Result<(), String>,
) -> Result<(), String> {
    let path = stream.corpus.path(i);
    let mut file = File::open(&path).map_err(|e| format!("input {i}: {e}"))?;
    let mut buf = vec![0u8; CHUNK_BYTES];
    loop {
        let n = file.read(&mut buf).map_err(|e| format!("input {i}: {e}"))?;
        if n == 0 {
            return Ok(());
        }
        sink(&buf[..n])?;
    }
}

impl Stream {
    /// Workload over `corpus`.
    pub fn new(corpus: Corpus) -> Stream {
        Stream {
            corpus,
            config: StreamConfig {
                window: Some(WINDOW),
                jobs: 1,
                temporal: true,
                verifier: VmcVerifier::new(),
                ..StreamConfig::default()
            },
        }
    }
}

impl Bench for Stream {
    type Output = StreamReport;
    type Summary = StreamSummary;

    fn inputs(&self) -> usize {
        self.corpus.manifest.entries.len()
    }

    fn ops(&self, i: usize) -> u64 {
        self.corpus.manifest.entries[i].ops
    }

    fn run(&self, i: usize) -> Result<StreamReport, String> {
        let err = |e| format!("input {i}: {e}");
        let mut engine = StreamVerifier::new(self.config.clone());
        for_each_chunk(self, i, |c| engine.ingest(c).map_err(err))?;
        engine.end_input().map_err(err)?;
        if engine.needs_replay() {
            for_each_chunk(self, i, |c| engine.ingest_replay(c).map_err(err))?;
        }
        Ok(engine.finish())
    }

    fn traced(&self, i: usize, layers: &mut Layers) -> Result<StreamSummary, String> {
        let err = |e| format!("input {i}: {e}");
        let mut engine = StreamVerifier::new(self.config.clone());
        let mut twin = ChunkReader::new();
        let mut events = Vec::with_capacity(CHUNK_BYTES);
        // Chunks are read inside `for_each_chunk`; time the reads as the
        // gaps between sink calls.
        let mut last = Instant::now();
        let (mut ingest, mut decode) = (Duration::ZERO, Duration::ZERO);
        for_each_chunk(self, i, |c| {
            layers.add(Layer::IoRead, last.elapsed());
            let t0 = Instant::now();
            twin.feed(c);
            while twin.next_batch(&mut events, CHUNK_BYTES).map_err(err)? == CHUNK_BYTES {
                events.clear();
            }
            events.clear();
            decode += t0.elapsed();
            let t1 = Instant::now();
            let ingested = engine.ingest(c).map_err(err);
            let dt = t1.elapsed();
            ingest += dt;
            layers.chunk_times.push(dt);
            layers.counts.decoded_bytes += c.len() as u64;
            last = Instant::now();
            ingested
        })?;
        layers.add(Layer::IoRead, last.elapsed());
        layers.add(Layer::Decode, decode);
        layers.add(Layer::StreamIngest, ingest.saturating_sub(decode));
        layers.excluded += decode;
        layers
            .time(Layer::StreamEndInput, || engine.end_input())
            .map_err(err)?;
        if engine.needs_replay() {
            let mut last = Instant::now();
            for_each_chunk(self, i, |c| {
                layers.add(Layer::IoRead, last.elapsed());
                let replayed = layers.time(Layer::StreamReplay, || engine.ingest_replay(c));
                last = Instant::now();
                replayed.map_err(err)
            })?;
            layers.add(Layer::IoRead, last.elapsed());
        }
        let report = layers.time(Layer::StreamFinish, || engine.finish());
        let c = &mut layers.counts;
        let m = &report.metrics;
        c.stream_sealed_addrs += m.sealed_addresses as u64;
        c.stream_exact_addrs += m.exact_addresses as u64;
        c.stream_replayed_addrs += m.replayed_addresses as u64;
        c.stream_retired_ops += m.retired_ops;
        c.stream_peak_retained_units = c.stream_peak_retained_units.max(m.peak_retained_units);
        Ok(self.summary(i, &report))
    }

    fn check(&self, i: usize, report: &StreamReport) -> Result<(), String> {
        let entry = &self.corpus.manifest.entries[i];
        let got = render(&report.verdict);
        if got != entry.expected {
            return Err(format!(
                "input {i}: stream verdict {got} != batch verdict {}",
                entry.expected
            ));
        }
        if entry.source.contains("construction") && !report.is_coherent() {
            return Err(format!(
                "input {i}: coherent by construction, reported {got}"
            ));
        }
        if report.events != entry.ops {
            return Err(format!(
                "input {i}: {} events consumed of {}",
                report.events, entry.ops
            ));
        }
        Ok(())
    }

    fn summary(&self, _: usize, report: &StreamReport) -> StreamSummary {
        StreamSummary {
            verdict: render(&report.verdict),
            stats: report.stats,
            tiers: report.tiers,
            metrics: report.metrics.clone(),
            events: report.events,
            addresses: report.addresses,
        }
    }

    fn decided(&self, s: &StreamSummary) -> bool {
        !s.verdict.starts_with("unknown")
    }
}
