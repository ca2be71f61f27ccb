//! The ingest-path storage of the streaming engine.
//!
//! The per-event hot path touches four per-address tables (the placement
//! index, the per-process cursors, the deferred read queues, the
//! write-count class map) plus the router's first-touch initial/final
//! lookup. [`Tables`] and [`Router`] hold exactly those: open-addressing
//! Fx-hash maps ([`DenseMap`]), slab-allocated bucket lists with free-list
//! and arena reuse ([`Slab`], [`Arena`]), and plain per-process vectors.
//!
//! Once every structure has reached its working-set high-water mark,
//! ingest only reuses memory: no heap allocation and no SipHash per event
//! (asserted by the counting-allocator harness in `tests/stream_alloc.rs`
//! on workloads whose written values repeat). One table is not bounded
//! that way: `write_counts` holds one entry per distinct value written to
//! the address, in 24-byte slots at a load of at most 7/8, so on a stream
//! of unique values it keeps doubling mid-stream (30,000 unique writes to
//! one address leave it at 65,536 slots, 1.5 MiB). Window retirement does
//! not shrink it and [`super::StreamMetrics::peak_retained_windows`] does
//! not count it.

use super::PendingRead;
use std::collections::VecDeque;
use vermem_trace::{Addr, Value};
use vermem_util::densemap::{Arena, DenseMap, Slab};

/// Cursor sentinel: the process has not placed a read or committed a write
/// yet. Slots count committed writes, so a real cursor never reaches it.
const NO_CURSOR: usize = usize::MAX;

/// Per-address tables of the greedy placement monitor.
///
/// Slot lists are sorted ascending (slots commit in ascending order and
/// retire from the bottom); cursors use *presence* semantics — a process
/// has no cursor until its first placed read or own write, and
/// [`Tables::cursor_floor`] is the minimum over present cursors only.
pub(crate) struct Tables {
    /// `value → index into `buckets`` on the Fx hash stream.
    slot_lists: DenseMap<u64, u32>,
    /// The sorted live-slot list of each value with live slots.
    buckets: Slab<VecDeque<usize>>,
    /// Emptied bucket lists, shelved with their capacity for reuse.
    bucket_arena: Arena<VecDeque<usize>>,
    /// Per-process cursor, [`NO_CURSOR`] = absent.
    cursors: Vec<usize>,
    /// Per-process deferred reads, in program order.
    deferred: Vec<Vec<PendingRead>>,
    /// `value → times written` on the Fx hash stream.
    write_counts: DenseMap<u64, u32>,
}

impl Tables {
    /// Fresh tables for an address with `procs` processes, seeded with
    /// `initial` current at slot 0.
    pub(crate) fn new(procs: usize, initial: Value) -> Self {
        let mut t = Tables {
            slot_lists: DenseMap::new(),
            buckets: Slab::new(),
            bucket_arena: Arena::new(),
            cursors: vec![NO_CURSOR; procs],
            deferred: vec![Vec::new(); procs],
            write_counts: DenseMap::new(),
        };
        t.commit_slot(initial, 0);
        t
    }

    /// Earliest live slot in `min..=max_slot` where `value` is current.
    #[inline]
    pub(crate) fn place(&self, max_slot: usize, value: Value, min: usize) -> Option<usize> {
        let &idx = self.slot_lists.get(value.0)?;
        let slots = self.buckets.get(idx).expect("indexed bucket is live");
        let i = slots.partition_point(|&s| s < min);
        slots.get(i).copied().filter(|&s| s <= max_slot)
    }

    /// Record that `slot` committed `value` (strictly ascending slots).
    pub(crate) fn commit_slot(&mut self, value: Value, slot: usize) {
        match self.slot_lists.get(value.0) {
            Some(&idx) => self
                .buckets
                .get_mut(idx)
                .expect("indexed bucket is live")
                .push_back(slot),
            None => {
                let mut bucket = self.bucket_arena.alloc();
                bucket.push_back(slot);
                let idx = self.buckets.insert(bucket);
                self.slot_lists.insert(value.0, idx);
            }
        }
    }

    /// Drop retired `slot` (the globally lowest live slot) for `value`.
    pub(crate) fn retire_slot(&mut self, value: Value, slot: usize) {
        let Some(&idx) = self.slot_lists.get(value.0) else {
            return;
        };
        let bucket = self.buckets.get_mut(idx).expect("indexed bucket is live");
        debug_assert_eq!(bucket.front().copied(), Some(slot));
        bucket.pop_front();
        if bucket.is_empty() {
            self.slot_lists.remove(value.0);
            let bucket = self.buckets.remove(idx).expect("just emptied");
            self.bucket_arena.free(bucket);
        }
    }

    /// The cursor of `proc`, if it has one.
    #[inline]
    pub(crate) fn cursor(&self, proc: u16) -> Option<usize> {
        let c = self.cursors[usize::from(proc)];
        (c != NO_CURSOR).then_some(c)
    }

    /// Set (creating if absent) the cursor of `proc`.
    #[inline]
    pub(crate) fn set_cursor(&mut self, proc: u16, slot: usize) {
        debug_assert_ne!(slot, NO_CURSOR);
        self.cursors[usize::from(proc)] = slot;
    }

    /// Minimum over *present* cursors; `0` when no process has one.
    pub(crate) fn cursor_floor(&self) -> usize {
        self.cursors
            .iter()
            .copied()
            .filter(|&c| c != NO_CURSOR)
            .min()
            .unwrap_or(0)
    }

    /// The deferred reads of `proc` (empty slice when none).
    #[inline]
    pub(crate) fn pending(&self, proc: u16) -> &[PendingRead] {
        &self.deferred[usize::from(proc)]
    }

    /// Append a deferred read for `proc`.
    #[inline]
    pub(crate) fn pending_push(&mut self, proc: u16, pr: PendingRead) {
        self.deferred[usize::from(proc)].push(pr);
    }

    /// Remove the first `n` deferred reads of `proc`.
    pub(crate) fn pending_pop_front(&mut self, proc: u16, n: usize) {
        self.deferred[usize::from(proc)].drain(..n);
    }

    /// Move `proc`'s queue out wholesale (for drain-and-report loops that
    /// also need `&mut self`); pair with [`Tables::pending_restore`] to
    /// hand the emptied queue's capacity back.
    pub(crate) fn pending_take(&mut self, proc: u16) -> Vec<PendingRead> {
        std::mem::take(&mut self.deferred[usize::from(proc)])
    }

    /// Put a queue taken by [`Tables::pending_take`] back in place.
    pub(crate) fn pending_restore(&mut self, proc: u16, queue: Vec<PendingRead>) {
        self.deferred[usize::from(proc)] = queue;
    }

    /// Push the processes that hold deferred reads, ascending, onto `out`.
    pub(crate) fn pending_procs(&self, out: &mut Vec<u16>) {
        for (p, queue) in self.deferred.iter().enumerate() {
            if !queue.is_empty() {
                out.push(p as u16);
            }
        }
    }

    /// Increment and return the number of times `value` has been written.
    #[inline]
    pub(crate) fn bump_write(&mut self, value: Value) -> u32 {
        let count = self.write_counts.get_or_insert_with(value.0, || 0);
        *count += 1;
        *count
    }
}

/// Router-level tables: declared initial/final values plus the first-touch
/// address set, on the Fx hash stream.
#[derive(Default)]
pub(crate) struct Router {
    initials: DenseMap<u32, Value>,
    finals: DenseMap<u32, Value>,
    seen: DenseMap<u32, ()>,
}

impl Router {
    /// Record a declared initial value.
    pub(crate) fn set_initial(&mut self, addr: Addr, value: Value) {
        self.initials.insert(addr.0, value);
    }

    /// Record a declared final value.
    pub(crate) fn set_final(&mut self, addr: Addr, value: Value) {
        self.finals.insert(addr.0, value);
    }

    /// First touch of `addr`: record it and return its
    /// `(initial, declared final)`; `None` on every later touch.
    #[inline]
    pub(crate) fn first_touch(&mut self, addr: Addr) -> Option<(Value, Option<Value>)> {
        if self.seen.insert(addr.0, ()).is_some() {
            return None;
        }
        Some((
            self.initials.get(addr.0).copied().unwrap_or(Value::INITIAL),
            self.finals.get(addr.0).copied(),
        ))
    }
}
