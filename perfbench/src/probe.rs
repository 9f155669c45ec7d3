//! Observers placed at the library's public trait boundaries.
//!
//! Every layer is timed from outside, by a wrapper that forwards each
//! trait method to the layer it wraps:
//!
//! * [`Timed`] wraps an [`AccessMethod`]: per-call time by op class, the
//!   device time spent inside those calls, and (for the outermost
//!   wrapper) exact per-call samples plus a digest of every answer;
//! * [`TimedDevice`] wraps a [`BlockDevice`]: page reads and writes and
//!   the time spent in them;
//! * [`CountingSink`] is a [`TraceSink`] that counts the events the
//!   library emits (flushes, compactions, WAL syncs, shard dispatches).
//!
//! Wrappers never touch a cost tracker, so counted RO/UO/MO stay
//! bit-identical with and without them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rum_core::access::{AccessMethod, SpaceProfile};
use rum_core::trace::{EventKind, TraceSink};
use rum_core::{CostTracker, Key, Record, Result, Value};
use rum_storage::{BlockDevice, IoStats, PageBuf, PageId};

/// A statistic written by one thread at a time.
///
/// Each wrapper instance is driven through `&mut self` (a shard's wrapper
/// only by the thread currently holding that shard's lock), so a plain
/// load + store is enough and keeps the hot path free of atomic
/// read-modify-write instructions. Readers look only after the run.
#[derive(Default)]
pub struct Tally(AtomicU64);

impl Tally {
    #[inline]
    pub fn add(&self, v: u64) {
        let old = self.0.load(Ordering::Relaxed);
        self.0.store(old.wrapping_add(v), Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[inline]
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Page traffic through one [`TimedDevice`], counted only once the
/// owning stack's bulk load is done (see [`Timed::traced`]), so every
/// figure is op-phase traffic.
#[derive(Default)]
pub struct DeviceStats {
    counting: AtomicBool,
    pub reads: Tally,
    pub writes: Tally,
    pub read_ns: Tally,
    pub write_ns: Tally,
    /// Allocate, free and sync.
    pub other_ns: Tally,
}

impl DeviceStats {
    #[inline]
    fn counting(&self) -> bool {
        self.counting.load(Ordering::Relaxed)
    }

    /// Time spent in every timed call of the device.
    pub fn busy_ns(&self) -> u64 {
        self.read_ns.get() + self.write_ns.get() + self.other_ns.get()
    }

    pub fn pages(&self) -> u64 {
        self.reads.get() + self.writes.get()
    }
}

/// A [`BlockDevice`] that forwards every call and times the page I/O.
pub struct TimedDevice<D> {
    inner: D,
    stats: Arc<DeviceStats>,
}

impl<D: BlockDevice> TimedDevice<D> {
    pub fn new(inner: D, stats: Arc<DeviceStats>) -> Self {
        TimedDevice { inner, stats }
    }
}

impl<D: BlockDevice> BlockDevice for TimedDevice<D> {
    fn allocate(&mut self) -> Result<PageId> {
        if !self.stats.counting() {
            return self.inner.allocate();
        }
        let t0 = Instant::now();
        let out = self.inner.allocate();
        self.stats.other_ns.add(elapsed_ns(t0));
        out
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        if !self.stats.counting() {
            return self.inner.free(id);
        }
        let t0 = Instant::now();
        let out = self.inner.free(id);
        self.stats.other_ns.add(elapsed_ns(t0));
        out
    }

    fn read_page(&mut self, id: PageId) -> Result<PageBuf> {
        if !self.stats.counting() {
            return self.inner.read_page(id);
        }
        let t0 = Instant::now();
        let out = self.inner.read_page(id);
        self.stats.read_ns.add(elapsed_ns(t0));
        self.stats.reads.add(1);
        out
    }

    fn write_page(&mut self, id: PageId, page: &PageBuf) -> Result<()> {
        if !self.stats.counting() {
            return self.inner.write_page(id, page);
        }
        let t0 = Instant::now();
        let out = self.inner.write_page(id, page);
        self.stats.write_ns.add(elapsed_ns(t0));
        self.stats.writes.add(1);
        out
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }

    fn stats(&self) -> &Arc<IoStats> {
        self.inner.stats()
    }

    fn sync(&mut self) -> Result<()> {
        if !self.stats.counting() {
            return self.inner.sync();
        }
        let t0 = Instant::now();
        let out = self.inner.sync();
        self.stats.other_ns.add(elapsed_ns(t0));
        out
    }
}

/// Counts the structured events the library emits. Shared by every
/// layer of a stack (and by every shard), hence the atomic adds.
pub struct CountingSink {
    epoch: Instant,
    pub flushes: AtomicU64,
    pub compactions: AtomicU64,
    pub compaction_bytes: AtomicU64,
    pub wal_syncs: AtomicU64,
    pub wal_bytes: AtomicU64,
    pub dispatches: AtomicU64,
    pub dispatched_ops: AtomicU64,
    /// When the latest shard dispatch was emitted, ns since `epoch`.
    dispatched_at_ns: AtomicU64,
    /// The latest dispatch whose wait some shard's wrapper has charged.
    waited: AtomicU64,
}

impl CountingSink {
    pub fn new() -> Arc<Self> {
        Arc::new(CountingSink {
            epoch: Instant::now(),
            flushes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compaction_bytes: AtomicU64::new(0),
            wal_syncs: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            dispatches: AtomicU64::new(0),
            dispatched_ops: AtomicU64::new(0),
            dispatched_at_ns: AtomicU64::new(0),
            waited: AtomicU64::new(0),
        })
    }

    /// Flushes plus compactions so far: a write call during which this
    /// moves paid for background work.
    fn background_events(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed) + self.compactions.load(Ordering::Relaxed)
    }
}

fn detail(detail: &[(&'static str, u64)], name: &str) -> u64 {
    detail
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |&(_, v)| v)
}

impl TraceSink for CountingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, kind: EventKind, d: &[(&'static str, u64)]) {
        let add = |c: &AtomicU64, v: u64| {
            c.fetch_add(v, Ordering::Relaxed);
        };
        match kind {
            EventKind::LsmFlush => add(&self.flushes, 1),
            EventKind::LsmCompaction => {
                add(&self.compactions, 1);
                add(&self.compaction_bytes, detail(d, "bytes"));
            }
            EventKind::WalSync => {
                add(&self.wal_syncs, 1);
                add(&self.wal_bytes, detail(d, "bytes"));
            }
            EventKind::ShardDispatch => {
                let now = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.dispatched_at_ns.store(now, Ordering::Relaxed);
                add(&self.dispatched_ops, detail(d, "ops"));
                // Release pairs with the Acquire in `Timed::note_wait`: a
                // shard that sees the new count also sees its timestamp.
                self.dispatches.fetch_add(1, Ordering::Release);
            }
            _ => {}
        }
    }
}

/// What one [`Timed`] wrapper saw.
#[derive(Default)]
pub struct CallStats {
    pub read_ns: Tally,
    pub write_ns: Tally,
    /// Device time inside read / write calls (traced stacks only).
    pub read_device_ns: Tally,
    pub write_device_ns: Tally,
    /// Time of write calls during which a flush or compaction fired.
    pub stall_ns: Tally,
    /// Shard dispatch to the first call it carries, charged to the shard
    /// that makes that call.
    pub wait_ns: Tally,
    /// Wrapping sum of per-answer hashes; a sum, so answers split across
    /// shards add up to the same digest as the unsharded oracle's.
    pub digest: Tally,
    /// Calls that returned `Err`, and range answers out of order or out
    /// of bounds.
    pub errors: Tally,
    pub bad_ranges: Tally,
    /// Exact per-call latencies (outermost wrapper only), moved here when
    /// the wrapper is dropped.
    pub samples: Mutex<Samples>,
}

impl CallStats {
    pub fn total_ns(&self) -> u64 {
        self.read_ns.get() + self.write_ns.get()
    }
}

/// Per-call latencies in ns, by op class.
#[derive(Default)]
pub struct Samples {
    pub read: Vec<u32>,
    pub write: Vec<u32>,
}

/// Mix one answer into 64 bits (splitmix64 finalizer over the fields).
pub fn answer_hash(tag: u64, key: Key, value: Value) -> u64 {
    let mut z = tag
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(key)
        .rotate_left(23)
        ^ value;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub const TAG_HIT: u64 = 1;
pub const TAG_MISS: u64 = 2;
pub const TAG_RANGE: u64 = 3;

/// An [`AccessMethod`] that forwards every trait method and times the
/// calls that carry an operation.
pub struct Timed<M> {
    inner: M,
    stats: Arc<CallStats>,
    /// Outermost wrapper: keep per-call samples and digest the answers.
    outer: bool,
    samples: Samples,
    /// The timed devices of this stack, the one directly below the
    /// wrapped method first: that one splits each call into method self
    /// time and device time, and all of them start counting once the bulk
    /// load is done.
    devices: Vec<Arc<DeviceStats>>,
    sink: Option<Arc<CountingSink>>,
    seen_dispatches: u64,
}

impl<M: AccessMethod> Timed<M> {
    /// The outermost wrapper of a stack: its per-call samples are the
    /// benchmark's latencies and its answers are checked.
    pub fn outer(inner: M, stats: Arc<CallStats>) -> Self {
        Self::new(inner, stats, true)
    }

    /// A wrapper inside the stack: call-time totals only.
    pub fn inner(inner: M, stats: Arc<CallStats>) -> Self {
        Self::new(inner, stats, false)
    }

    fn new(inner: M, stats: Arc<CallStats>, outer: bool) -> Self {
        Timed {
            inner,
            stats,
            outer,
            samples: Samples::default(),
            devices: Vec::new(),
            sink: None,
            seen_dispatches: 0,
        }
    }

    /// Split call time against `devices` and watch `sink` for background
    /// work and shard dispatches (traced stacks).
    pub fn traced(mut self, devices: Vec<Arc<DeviceStats>>, sink: Arc<CountingSink>) -> Self {
        self.devices = devices;
        self.sink = Some(sink);
        self
    }

    /// On the first call of a new shard dispatch on any shard, charge the
    /// time since that dispatch as wait. Once per dispatch: the shards run
    /// one after another, so a later shard's first call also waited for
    /// the earlier shards' calls, which are already timed.
    #[inline]
    fn note_wait(&mut self, sink: &CountingSink) {
        let seen = sink.dispatches.load(Ordering::Acquire);
        if seen != self.seen_dispatches {
            self.seen_dispatches = seen;
            if sink.waited.swap(seen, Ordering::Relaxed) == seen {
                return;
            }
            let at = sink.dispatched_at_ns.load(Ordering::Relaxed);
            let now = u64::try_from(sink.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.stats.wait_ns.add(now.saturating_sub(at));
        }
    }

    #[inline]
    fn call<T>(&mut self, is_read: bool, f: impl FnOnce(&mut M) -> Result<T>) -> Result<T> {
        let sink = self.sink.take();
        if let Some(sink) = &sink {
            self.note_wait(sink);
        }
        let events0 = sink.as_ref().map(|s| s.background_events());
        let device0 = self.devices.first().map_or(0, |d| d.busy_ns());
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let ns = elapsed_ns(t0);
        let device_ns = self.devices.first().map_or(0, |d| d.busy_ns() - device0);
        let s = &self.stats;
        if is_read {
            s.read_ns.add(ns);
            s.read_device_ns.add(device_ns);
        } else {
            s.write_ns.add(ns);
            s.write_device_ns.add(device_ns);
            if let (Some(sink), Some(events0)) = (&sink, events0) {
                if sink.background_events() != events0 {
                    s.stall_ns.add(ns);
                }
            }
        }
        if self.outer {
            let sample = u32::try_from(ns).unwrap_or(u32::MAX);
            if is_read {
                self.samples.read.push(sample);
            } else {
                self.samples.write.push(sample);
            }
        }
        if out.is_err() {
            s.errors.add(1);
        }
        self.sink = sink;
        out
    }
}

impl<M> Drop for Timed<M> {
    fn drop(&mut self) {
        if self.outer {
            let mut shared = self
                .stats
                .samples
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            shared.read.append(&mut self.samples.read);
            shared.write.append(&mut self.samples.write);
        }
    }
}

impl<M: AccessMethod> AccessMethod for Timed<M> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        self.inner.tracker()
    }

    fn space_profile(&self) -> SpaceProfile {
        self.inner.space_profile()
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        let out = self.call(true, |m| m.get_impl(key));
        if self.outer {
            if let Ok(answer) = &out {
                self.stats.digest.add(match *answer {
                    Some(v) => answer_hash(TAG_HIT, key, v),
                    None => answer_hash(TAG_MISS, key, 0),
                });
            }
        }
        out
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        let out = self.call(true, |m| m.range_impl(lo, hi));
        if self.outer {
            if let Ok(records) = &out {
                let mut prev: Option<Key> = None;
                let mut sum = 0u64;
                for r in records {
                    if r.key < lo || r.key > hi || prev.is_some_and(|p| p >= r.key) {
                        self.stats.bad_ranges.add(1);
                        break;
                    }
                    prev = Some(r.key);
                    sum = sum.wrapping_add(answer_hash(TAG_RANGE, r.key, r.value));
                }
                self.stats.digest.add(sum);
            }
        }
        out
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        self.call(false, |m| m.insert_impl(key, value))
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        self.call(false, |m| m.update_impl(key, value))
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        self.call(false, |m| m.delete_impl(key))
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        let out = self.inner.bulk_load_impl(records);
        for d in &self.devices {
            d.counting.store(true, Ordering::Relaxed);
        }
        out
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.inner.set_trace_sink(sink);
    }

    fn try_heal(&mut self) -> Result<bool> {
        self.inner.try_heal()
    }
}
