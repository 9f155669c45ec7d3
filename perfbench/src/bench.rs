//! The workloads, the stacks they drive, and one repetition of a
//! workload through the library's public runners.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rum_btree::{BTree, BTreeConfig};
use rum_core::runner::{run_stream, run_stream_sharded, RumReport, DEFAULT_STREAM_BATCH};
use rum_core::workload::{KeyDist, Op, OpMix, OpStream, WorkloadSpec};
use rum_core::{AccessMethod, ShardedMethod};
use rum_lsm::{LsmConfig, LsmTree};
use rum_storage::{CheckedDevice, Durable, MemDevice};

use crate::probe::{
    answer_hash, CallStats, CountingSink, DeviceStats, Timed, TimedDevice, TAG_HIT, TAG_MISS,
    TAG_RANGE,
};

/// Shards of `sharded_balanced`.
const SHARDS: usize = 2;

/// Batch workers of `sharded_balanced`: one, so the shards run inline on
/// the runner's driver thread. A pool needs at least two workers, which
/// with the driver thread is more runnable threads than a two-core host
/// has; each ~2-op dispatch then wakes an idle worker, and the per-call
/// times measure the host's scheduler and its other tenants' cache
/// traffic (p50s spreading 25-40% between runs of the same code) rather
/// than the shards. Set explicitly, so `RUM_THREADS` cannot change it.
const SHARD_WORKERS: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Durable<LsmTree<CheckedDevice<MemDevice>>>`, write-heavy, uniform:
    /// memtable, flushes, compactions, WAL syncs and CRC seals.
    LsmWalIngest,
    /// `ShardedMethod` of two `BTree`s run inline, balanced mix with
    /// ranges, uniform: key-hash partition, per-shard calls and cost
    /// folding at about two ops a dispatch.
    ShardedBalanced,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::LsmWalIngest, Workload::ShardedBalanced];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LsmWalIngest => "lsm_wal_ingest",
            Workload::ShardedBalanced => "sharded_balanced",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated inputs: a pure function of the seed. `scale` divides
    /// the sizes (1 for the benchmark, more for the self-test).
    pub fn spec(self, seed: u64, scale: usize) -> WorkloadSpec {
        let (initial_records, operations, mix) = match self {
            Workload::LsmWalIngest => (200_000, 200_000, OpMix::WRITE_HEAVY),
            Workload::ShardedBalanced => (100_000, 50_000, OpMix::BALANCED),
        };
        WorkloadSpec {
            initial_records: initial_records / scale,
            operations: operations / scale,
            mix,
            dist: KeyDist::Uniform,
            seed,
            ..WorkloadSpec::default()
        }
    }

    fn shards(self) -> usize {
        match self {
            Workload::ShardedBalanced => SHARDS,
            _ => 1,
        }
    }
}

/// The observers of one repetition.
struct Probes {
    /// The outermost wrapper of each shard (one when unsharded).
    calls: Vec<Arc<CallStats>>,
    traced: Option<Traced>,
}

/// Observers that only the traced repetition installs.
struct Traced {
    sink: Arc<CountingSink>,
    /// The device directly below each shard's method.
    devices: Vec<Arc<DeviceStats>>,
    /// `lsm_wal_ingest`: the `LsmTree` call inside `Durable`, and the
    /// `MemDevice` below `CheckedDevice`.
    lsm: Option<Arc<CallStats>>,
    memdevice: Option<Arc<DeviceStats>>,
}

fn arcs<T: Default>(n: usize) -> Vec<Arc<T>> {
    (0..n).map(|_| Arc::default()).collect()
}

impl Probes {
    fn new(workload: Workload, traced: bool) -> Self {
        let shards = workload.shards();
        let lsm = workload == Workload::LsmWalIngest;
        Probes {
            calls: arcs(shards),
            traced: traced.then(|| Traced {
                sink: CountingSink::new(),
                devices: arcs(shards),
                lsm: lsm.then(Arc::default),
                memdevice: lsm.then(Arc::default),
            }),
        }
    }
}

/// The stack a repetition drives.
enum Stack {
    Single(Box<dyn AccessMethod>),
    Sharded(ShardedMethod),
}

impl Stack {
    fn method(&mut self) -> &mut dyn AccessMethod {
        match self {
            Stack::Single(m) => m.as_mut(),
            Stack::Sharded(m) => m,
        }
    }
}

fn btree(probes: &Probes, shard: usize) -> Box<dyn AccessMethod> {
    let calls = Arc::clone(&probes.calls[shard]);
    match &probes.traced {
        None => Box::new(Timed::outer(BTree::new(), calls)),
        Some(t) => {
            let device = Arc::clone(&t.devices[shard]);
            let tree = BTree::with_device(
                TimedDevice::new(MemDevice::new(), Arc::clone(&device)),
                BTreeConfig::default(),
            );
            Box::new(Timed::outer(tree, calls).traced(vec![device], Arc::clone(&t.sink)))
        }
    }
}

fn lsm_wal(probes: &Probes) -> Box<dyn AccessMethod> {
    let calls = Arc::clone(&probes.calls[0]);
    let Some(t) = &probes.traced else {
        let durable = Durable::new(|| {
            LsmTree::with_device(CheckedDevice::new(MemDevice::new()), LsmConfig::default())
        });
        return Box::new(Timed::outer(durable, calls));
    };
    let (lsm, checked, memdevice) = (
        t.lsm.clone().expect("lsm stack probes"),
        Arc::clone(&t.devices[0]),
        t.memdevice.clone().expect("lsm stack probes"),
    );
    let devices = vec![Arc::clone(&checked), Arc::clone(&memdevice)];
    let durable = Durable::new(move || {
        let device = TimedDevice::new(
            CheckedDevice::new(TimedDevice::new(MemDevice::new(), Arc::clone(&memdevice))),
            Arc::clone(&checked),
        );
        Timed::inner(
            LsmTree::with_device(device, LsmConfig::default()),
            Arc::clone(&lsm),
        )
    });
    Box::new(Timed::outer(durable, calls).traced(devices, Arc::clone(&t.sink)))
}

fn build(workload: Workload, probes: &Probes) -> Stack {
    let mut stack = match workload {
        Workload::LsmWalIngest => Stack::Single(lsm_wal(probes)),
        Workload::ShardedBalanced => Stack::Sharded(ShardedMethod::with_threads(
            SHARDS,
            SHARD_WORKERS,
            |i| btree(probes, i),
        )),
    };
    if let Some(t) = &probes.traced {
        stack.method().set_trace_sink(t.sink.clone());
    }
    stack
}

/// Set-up alone, as a repetition does it: stack construction,
/// `OpStream::new` and the bulk load. Returns seconds.
pub fn time_setup(workload: Workload, spec: &WorkloadSpec) -> Result<f64, String> {
    let probes = Probes::new(workload, false);
    let t0 = Instant::now();
    let mut stack = build(workload, &probes);
    let mut stream = OpStream::new(spec);
    stack
        .method()
        .bulk_load(&stream.take_initial())
        .map_err(|e| format!("{} bulk load: {e}", workload.name()))?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Exact nearest-rank quantile of `samples` (reordered in place), in µs.
fn quantile_us(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    f64::from(*v) / 1e3
}

macro_rules! totals {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Totals of the traced observers over one repetition; summed over
        /// repetitions before the per-layer ratios are taken.
        #[derive(Clone, Copy, Default, Debug)]
        pub struct Layers {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Layers {
            pub fn add(&mut self, o: &Layers) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

totals! {
    reps,
    read_ops,
    write_ops,
    wall_ns,
    /// `OpStream::next` alone, timed in a separate pass over the stream.
    gen_ns,
    /// Outermost calls, summed over shards.
    read_ns,
    write_ns,
    read_device_ns,
    write_device_ns,
    stall_ns,
    wait_ns,
    /// The `LsmTree` calls inside `Durable`.
    lsm_ns,
    /// The device directly below each method (around `CheckedDevice` on
    /// the LSM stack), summed over shards.
    top_device_ns,
    top_device_pages,
    /// The bottom `MemDevice`.
    device_reads,
    device_writes,
    device_read_ns,
    device_write_ns,
    device_ns,
    flushes,
    compactions,
    compaction_bytes,
    wal_syncs,
    wal_bytes,
    dispatches,
    dispatched_ops,
    /// Tracker page accesses of the op phase, by class.
    read_pages,
    write_pages,
}

/// One repetition: set-up, the op phase through the library's runner, and
/// what the observers saw.
pub struct Rep {
    pub report: RumReport,
    /// Stack construction + `OpStream::new` + bulk load.
    pub setup_s: f64,
    /// `[read p50, read p99, write p50, write p99]` in µs, exact over the
    /// per-call samples of the outermost calls.
    pub latency_us: [f64; 4],
    /// Sum of the answer hashes of every get and range.
    pub digest: u64,
    /// Calls that returned `Err` plus malformed range answers.
    pub bad_answers: u64,
    /// Present on traced repetitions.
    pub layers: Option<Layers>,
}

/// Run one repetition of `workload`. An `Err` is an operation that failed.
pub fn run_rep(workload: Workload, spec: &WorkloadSpec, traced: bool) -> Result<Rep, String> {
    let probes = Probes::new(workload, traced);
    let t0 = Instant::now();
    let mut stack = build(workload, &probes);
    let stream = OpStream::new(spec);
    let built_s = t0.elapsed().as_secs_f64();
    let report = match &mut stack {
        Stack::Single(m) => run_stream(m.as_mut(), stream),
        Stack::Sharded(m) => run_stream_sharded(m, stream, DEFAULT_STREAM_BATCH),
    }
    .map_err(|e| format!("{}: {e}", workload.name()))?;
    // Dropping the stack hands the wrappers' samples to their stats.
    drop(stack);
    let setup_s = built_s + report.load_wall_ns as f64 / 1e9;

    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let (mut digest, mut bad_answers) = (0u64, 0u64);
    for c in &probes.calls {
        let mut shard = c
            .samples
            .lock()
            .map_err(|_| "sample lock poisoned".to_string())?;
        reads.append(&mut shard.read);
        writes.append(&mut shard.write);
        digest = digest.wrapping_add(c.digest.get());
        bad_answers += c.errors.get() + c.bad_ranges.get();
    }
    let latency_us = [
        quantile_us(&mut reads, 0.50),
        quantile_us(&mut reads, 0.99),
        quantile_us(&mut writes, 0.50),
        quantile_us(&mut writes, 0.99),
    ];
    let layers = probes
        .traced
        .as_ref()
        .map(|t| layer_totals(&probes, t, &report, spec));
    Ok(Rep {
        report,
        setup_s,
        latency_us,
        digest,
        bad_answers,
        layers,
    })
}

fn layer_totals(probes: &Probes, t: &Traced, report: &RumReport, spec: &WorkloadSpec) -> Layers {
    let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let mut l = Layers {
        reps: 1,
        read_ops: report.read_ops,
        write_ops: report.write_ops,
        wall_ns: u64::try_from(report.wall_ns).unwrap_or(u64::MAX),
        gen_ns: generation_ns(spec),
        lsm_ns: t.lsm.as_ref().map_or(0, |c| c.total_ns()),
        flushes: count(&t.sink.flushes),
        compactions: count(&t.sink.compactions),
        compaction_bytes: count(&t.sink.compaction_bytes),
        wal_syncs: count(&t.sink.wal_syncs),
        wal_bytes: count(&t.sink.wal_bytes),
        dispatches: count(&t.sink.dispatches),
        dispatched_ops: count(&t.sink.dispatched_ops),
        read_pages: report.read_costs.page_accesses(),
        write_pages: report.write_costs.page_accesses(),
        ..Layers::default()
    };
    for c in &probes.calls {
        l.read_ns += c.read_ns.get();
        l.write_ns += c.write_ns.get();
        l.read_device_ns += c.read_device_ns.get();
        l.write_device_ns += c.write_device_ns.get();
        l.stall_ns += c.stall_ns.get();
        l.wait_ns += c.wait_ns.get();
    }
    for d in &t.devices {
        l.top_device_ns += d.busy_ns();
        l.top_device_pages += d.pages();
    }
    let bottom: Vec<&Arc<DeviceStats>> = match &t.memdevice {
        Some(d) => vec![d],
        None => t.devices.iter().collect(),
    };
    for d in bottom {
        l.device_reads += d.reads.get();
        l.device_writes += d.writes.get();
        l.device_read_ns += d.read_ns.get();
        l.device_write_ns += d.write_ns.get();
        l.device_ns += d.busy_ns();
    }
    l
}

/// Time of `OpStream::next` alone over the whole stream of `spec`.
fn generation_ns(spec: &WorkloadSpec) -> u64 {
    let mut stream = OpStream::new(spec);
    drop(stream.take_initial());
    let t0 = Instant::now();
    for op in &mut stream {
        std::hint::black_box(op);
    }
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What a correct method answers on the stream of a spec, replayed on a
/// `BTreeMap`.
pub struct Oracle {
    pub digest: u64,
    pub n_final: usize,
}

impl Oracle {
    pub fn replay(spec: &WorkloadSpec) -> Oracle {
        let mut stream = OpStream::new(spec);
        let mut map: BTreeMap<u64, u64> = stream
            .take_initial()
            .into_iter()
            .map(|r| (r.key, r.value))
            .collect();
        let mut digest = 0u64;
        for op in stream {
            let h = match op {
                Op::Get(k) => match map.get(&k) {
                    Some(&v) => answer_hash(TAG_HIT, k, v),
                    None => answer_hash(TAG_MISS, k, 0),
                },
                Op::Range(lo, hi) => map.range(lo..=hi).fold(0u64, |acc, (&k, &v)| {
                    acc.wrapping_add(answer_hash(TAG_RANGE, k, v))
                }),
                Op::Insert(k, v) => {
                    map.insert(k, v);
                    0
                }
                Op::Update(k, v) => {
                    if let Some(slot) = map.get_mut(&k) {
                        *slot = v;
                    }
                    0
                }
                Op::Delete(k) => {
                    map.remove(&k);
                    0
                }
            };
            digest = digest.wrapping_add(h);
        }
        Oracle {
            digest,
            n_final: map.len(),
        }
    }
}

/// Iterations of the host probe: a fixed 4 KiB copy plus CRC-32 each.
const PROBE_ROUNDS: u32 = 3_500;

/// Wall time of a fixed CPU-bound loop, in ms. Printed before and after
/// the workload as run metadata, so a slow host shows apart from a slow
/// program.
pub fn host_probe_ms() -> f64 {
    let src: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
    let mut page = vec![0u8; 4096];
    let mut acc = 0u32;
    let t0 = Instant::now();
    for round in 0..PROBE_ROUNDS {
        page.copy_from_slice(std::hint::black_box(&src));
        page[0] = round as u8;
        acc ^= rum_storage::crc32(std::hint::black_box(&page));
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident memory of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
