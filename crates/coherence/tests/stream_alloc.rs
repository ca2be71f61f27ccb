//! Counting-allocator harness for the dense streaming hot path.
//!
//! The dense-slab rework promises that steady-state ingest performs *no*
//! heap allocation: every table, queue, scratch buffer, and retention
//! vector reaches its working-set high-water mark during warmup and then
//! only reuses memory. This binary installs a counting
//! `#[global_allocator]` and asserts exactly that on a single-threaded
//! (`jobs = 1`) engine — warm up on the front of a long stream, then
//! require the allocation counter to stay put across the middle chunks.
//! (The library crates `forbid(unsafe_code)`; the allocator shim lives
//! here, in an integration-test binary, where the forbid does not apply.)
//!
//! The binary is `harness = false`: libtest's own threads (output
//! capture, timing) allocate and would race the process-global counter,
//! so the whole check runs as a plain single-threaded `main()`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use vermem_coherence::{StreamConfig, StreamVerifier, VmcVerifier};
use vermem_trace::binary::encode_event_stream;
use vermem_trace::{Op, ProcId};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Stream `events` through a `jobs = 1` engine with window 16: warm up on
/// the first quarter of the 4 KiB chunks, then require the allocation
/// counter to stay put over the middle half. Returns the measured events.
fn assert_steady_state_allocates_nothing(
    name: &str,
    procs: u16,
    events: &[(ProcId, Op)],
    temporal: bool,
) -> u64 {
    let bytes = encode_event_stream(procs, &BTreeMap::new(), &BTreeMap::new(), events);

    let mut engine = StreamVerifier::new(StreamConfig {
        window: Some(16),
        jobs: 1,
        temporal,
        verifier: VmcVerifier::new(),
        recorder: None,
    });

    const CHUNK: usize = 4096;
    let chunks: Vec<&[u8]> = bytes.chunks(CHUNK).collect();
    let warmup = chunks.len() / 4;
    let measured = chunks.len() * 3 / 4;

    for piece in &chunks[..warmup] {
        engine.ingest(piece).expect("stream decodes");
    }
    let warm_events = engine.events();
    assert!(
        warm_events > 10_000,
        "{name}: warmup must cover real ingest volume"
    );

    let before = allocs();
    for piece in &chunks[warmup..measured] {
        engine.ingest(piece).expect("stream decodes");
    }
    let delta = allocs() - before;
    let measured_events = engine.events() - warm_events;
    assert!(
        measured_events > 50_000,
        "{name}: measured span must be substantial"
    );
    assert_eq!(
        delta, 0,
        "{name}: dense steady-state ingest allocated {delta} times over {measured_events} events"
    );

    for piece in &chunks[measured..] {
        engine.ingest(piece).expect("stream decodes");
    }
    engine.end_input().expect("clean end of stream");
    assert!(
        !engine.needs_replay(),
        "{name}: sealed workload needs no replay"
    );
    let report = engine.finish();
    assert!(
        report.is_coherent(),
        "{name}: workload is coherent by construction"
    );
    assert_eq!(report.events, events.len() as u64);
    measured_events
}

fn main() {
    // A steady-state workload: one write, then a long run of reads of
    // that value alternating between two processes. Every read places
    // immediately (no deferred queues grow), the write-count and
    // placement tables stay at fixed size, and window retirement drains
    // the retention buffer in place — so after warmup the per-event path
    // has nothing left to grow.
    let mut events: Vec<(ProcId, Op)> = vec![(ProcId(0), Op::w(1u64))];
    for i in 0..200_000usize {
        events.push((ProcId((i % 2) as u16), Op::r(1u64)));
    }
    let n = assert_steady_state_allocates_nothing("one address", 2, &events, false);
    println!("stream_alloc: one address, {n} steady-state events allocated 0 times — ok");

    // The same promise across the address table, the router and the
    // detection path: 8 addresses, each written once, then rounds of reads
    // of every address spread over 3 processes, on a temporal stream.
    let mut events: Vec<(ProcId, Op)> = (0..8u32)
        .map(|a| (ProcId((a % 3) as u16), Op::write(a, u64::from(a) + 1)))
        .collect();
    for round in 0..60_000usize {
        for a in 0..8u32 {
            let proc = ((round * 8 + a as usize) % 3) as u16;
            events.push((ProcId(proc), Op::read(a, u64::from(a) + 1)));
        }
    }
    let n = assert_steady_state_allocates_nothing("eight addresses", 3, &events, true);
    println!("stream_alloc: eight addresses, {n} steady-state events allocated 0 times — ok");
}
