//! Drives an [`AccessMethod`] through a [`Workload`] or an [`OpStream`] and
//! measures the RUM overheads, separating read-path and write-path traffic
//! so RO and UO are attributed to the operations that incur them.
//!
//! Every serial entry point is a thin call into one op-phase driver whose
//! observers are optional arguments: a [`TraceCollector`] (per-op latency
//! and trajectory windows), a [`MetricsPlane`] (per-class debt ledger and
//! live gauges), and a window hook (the [`AutoTuner`]). The sharded
//! runners keep their batched loop but share the driver's load prologue
//! and report epilogue. Suites of methods are measured with [`run_suite`],
//! whose reports are sorted by method name whatever the thread count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::access::AccessMethod;
use crate::autotune::{AutoTuneSummary, AutoTuner, Morphable, OpCounts};
use crate::error::{panic_payload_message, Result, RumError};
use crate::metrics::{MetricsPlane, OpClass};
use crate::shard::ShardedMethod;
use crate::trace::{TraceCollector, TrajectoryWindow};
use crate::tracker::{CostSnapshot, CostTracker};
use crate::types::Record;
use crate::workload::{Op, OpStream, Workload, WorkloadSpec};

/// The measured RUM profile of one method over one workload.
#[derive(Clone, Debug)]
pub struct RumReport {
    pub method: String,
    /// Live records at the end of the run.
    pub n_final: usize,
    pub read_ops: u64,
    pub write_ops: u64,
    /// Traffic accumulated during read operations (get / range).
    pub read_costs: CostSnapshot,
    /// Traffic accumulated during write operations (insert / update /
    /// delete), including any reads those operations perform internally.
    pub write_costs: CostSnapshot,
    /// Traffic of the initial bulk load (excluded from RO / UO).
    pub load_costs: CostSnapshot,
    /// Read amplification over the read operations.
    pub ro: f64,
    /// Write amplification over the write operations.
    pub uo: f64,
    /// Space amplification of the final structure.
    pub mo: f64,
    /// Mean page accesses (reads + writes) per read operation.
    pub pages_per_read_op: f64,
    /// Mean page accesses per write operation.
    pub pages_per_write_op: f64,
    /// Wall-clock time of the operation phase, nanoseconds.
    pub wall_ns: u128,
    /// Wall-clock time of the initial bulk load, nanoseconds.
    pub load_wall_ns: u128,
    /// Simulated device time of the operation phase, nanoseconds.
    pub sim_ns: u64,
    /// Measured operation throughput: `(read_ops + write_ops) / wall_ns`,
    /// in operations per second. Infinite when the op phase was too fast
    /// for the clock (`wall_ns == 0`); rendered finite-clamped like the
    /// amplification columns.
    pub ops_per_sec: f64,
    /// Median op latency in nanoseconds, from the traced latency
    /// histogram ([`run_stream_traced`] and the other traced runners).
    /// `0` when tracing is off — untraced runners never time single ops.
    pub p50_ns: u64,
    /// 99th-percentile op latency in nanoseconds; `0` when tracing is off.
    pub p99_ns: u64,
}

impl RumReport {
    /// One line suitable for a fixed-width table.
    pub fn table_row(&self) -> String {
        format!(
            "{:<28} {:>9} {:>9.3} {:>9.3} {:>9.3} {:>10.2} {:>10.2} {:>9} {:>9} {:>11.0}",
            self.method,
            self.n_final,
            finite(self.ro),
            finite(self.uo),
            finite(self.mo),
            self.pages_per_read_op,
            self.pages_per_write_op,
            self.p50_ns,
            self.p99_ns,
            finite(self.ops_per_sec),
        )
    }

    /// Header matching [`table_row`](Self::table_row), column for column
    /// (`tests::header_and_row_field_counts_agree` pins the agreement).
    pub fn table_header() -> String {
        format!(
            "{:<28} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9} {:>11}",
            "method", "N", "RO", "UO", "MO", "pg/read", "pg/write", "p50ns", "p99ns", "ops/s"
        )
    }

    /// Header matching [`csv_row`](Self::csv_row), field for field.
    pub fn csv_header() -> &'static str {
        "method,n_final,ro,uo,mo,pages_per_read_op,pages_per_write_op,sim_ns,p50_ns,p99_ns,\
         ops_per_sec"
    }

    /// CSV row (method, n, ro, uo, mo, pages/read, pages/write, sim_ns,
    /// p50_ns, p99_ns, ops_per_sec).
    ///
    /// Amplifications are clamped to finite values like
    /// [`table_row`](Self::table_row): a method that serves a workload with
    /// zero logical bytes in one class (e.g. a read-only run measured for
    /// UO) reports infinite amplification, and `inf`/`NaN` literals break
    /// most CSV consumers. The latency quantiles are `u64`, hence finite by
    /// construction (and `0` when tracing is off). `ops_per_sec` is
    /// wall-clock-derived, so it is the one column that varies between
    /// otherwise identical runs — it stays last so consumers can strip it.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{}",
            self.method,
            self.n_final,
            finite(self.ro),
            finite(self.uo),
            finite(self.mo),
            finite(self.pages_per_read_op),
            finite(self.pages_per_write_op),
            self.sim_ns,
            self.p50_ns,
            self.p99_ns,
            finite(self.ops_per_sec),
        )
    }
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::MAX
    }
}

/// One operation phase: the bulk-load prologue, class-transition cost
/// attribution, and the report epilogue shared by every runner entry
/// point.
///
/// Costs are attributed per operation *class*, not per operation: the
/// tracker is snapshotted (9 atomic loads) only when the stream switches
/// between the read class (get/range) and the write class
/// (insert/update/delete), plus once at the end. Between switches every
/// byte the tracker accrues comes from operations of the running class,
/// so the batched sums equal the per-op sums exactly while the hot loop
/// sheds the per-op snapshot. With a [`MetricsPlane`] attached, its
/// [`DebtLedger`](crate::metrics::DebtLedger) is charged exactly the same
/// per-class deltas at the same settle points.
struct OpPhase<'p> {
    tracker: Arc<CostTracker>,
    plane: Option<&'p MetricsPlane>,
    load_costs: CostSnapshot,
    load_wall_ns: u128,
    read_costs: CostSnapshot,
    write_costs: CostSnapshot,
    read_ops: u64,
    write_ops: u64,
    mark: CostSnapshot,
    batch_is_read: Option<bool>,
    started: Instant,
}

impl<'p> OpPhase<'p> {
    /// Bulk-load `initial` with the tracker freshly reset, then open the
    /// op phase. The plane's ledger is charged the load under
    /// [`OpClass::Load`], and the collector's trajectory begins after the
    /// load, so it (like the report's RO / UO) excludes load traffic.
    fn load(
        method: &mut dyn AccessMethod,
        initial: &[Record],
        trace: Option<&mut TraceCollector>,
        plane: Option<&'p MetricsPlane>,
    ) -> Result<Self> {
        let tracker = Arc::clone(method.tracker());
        tracker.reset();
        if let Some(plane) = plane {
            plane.ledger().begin_class(OpClass::Load);
        }
        let load_started = Instant::now();
        method.bulk_load(initial)?;
        let load_wall_ns = load_started.elapsed().as_nanos();
        let load_costs = tracker.snapshot();
        if let Some(plane) = plane {
            plane.ledger().charge(OpClass::Load, &load_costs);
        }
        if let Some(trace) = trace {
            trace.begin(&tracker);
        }
        Ok(OpPhase {
            mark: tracker.snapshot(),
            tracker,
            plane,
            load_costs,
            load_wall_ns,
            read_costs: CostSnapshot::default(),
            write_costs: CostSnapshot::default(),
            read_ops: 0,
            write_ops: 0,
            batch_is_read: None,
            started: Instant::now(),
        })
    }

    /// Fold the traffic since the previous settle point into the running
    /// class (and the plane's ledger), then switch the running class to
    /// `next`.
    fn settle(&mut self, next: Option<bool>) {
        let now = self.tracker.snapshot();
        let d = now.delta(&self.mark);
        self.mark = now;
        match self.batch_is_read {
            Some(true) => self.read_costs = self.read_costs.add(&d),
            Some(false) => self.write_costs = self.write_costs.add(&d),
            None => {} // nothing ran since the phase started
        }
        if let Some(plane) = self.plane {
            if let Some(prev) = self.batch_is_read {
                plane.ledger().charge(OpClass::of_read(prev), &d);
            }
            if let Some(next) = next {
                plane.ledger().begin_class(OpClass::of_read(next));
            }
        }
        self.batch_is_read = next;
    }

    /// Make `is_read`'s class the running one, settling on a class switch.
    #[inline]
    fn enter(&mut self, is_read: bool) {
        if self.batch_is_read != Some(is_read) {
            self.settle(Some(is_read));
        }
    }

    /// Note `count` ops of the running class having executed. Only counts;
    /// traffic is folded at the next [`settle`](Self::settle).
    fn count(&mut self, is_read: bool, count: u64) {
        if is_read {
            self.read_ops += count;
        } else {
            self.write_ops += count;
        }
    }

    /// Close the phase and assemble the report. The collector closes its
    /// last window and fills `p50_ns` / `p99_ns` from its merged read +
    /// write histogram; the plane publishes the tracker totals and its
    /// conservation verdict.
    fn finish(
        mut self,
        method: &dyn AccessMethod,
        trace: Option<&mut TraceCollector>,
    ) -> RumReport {
        self.settle(None);
        let wall_ns = self.started.elapsed().as_nanos();
        // Untraced runs never time single ops, so the quantiles stay 0.
        let (mut p50_ns, mut p99_ns) = (0, 0);
        if let Some(trace) = trace {
            trace.finish(&self.tracker, method);
            let overall = trace.overall_latency();
            (p50_ns, p99_ns) = (overall.p50(), overall.p99());
        }
        let mo = method.space_profile().space_amplification();
        if let Some(plane) = self.plane {
            plane.publish_final(&self.tracker.snapshot(), mo, method.len() as u64);
        }
        let (read_costs, write_costs) = (self.read_costs, self.write_costs);
        let (read_ops, write_ops) = (self.read_ops, self.write_ops);
        let total_ops = read_ops + write_ops;
        let ops_per_sec = if wall_ns == 0 {
            if total_ops == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            total_ops as f64 * 1e9 / wall_ns as f64
        };
        RumReport {
            method: method.name(),
            n_final: method.len(),
            read_ops,
            write_ops,
            ro: read_costs.read_amplification(),
            uo: write_costs.write_amplification(),
            mo,
            pages_per_read_op: per_op(read_costs.page_accesses(), read_ops),
            pages_per_write_op: per_op(write_costs.page_accesses(), write_ops),
            sim_ns: read_costs.sim_time_ns + write_costs.sim_time_ns,
            read_costs,
            write_costs,
            load_costs: self.load_costs,
            wall_ns,
            load_wall_ns: self.load_wall_ns,
            ops_per_sec,
            p50_ns,
            p99_ns,
        }
    }
}

/// The method types [`drive`] runs: any access method, and the morphable
/// ones a tuner hook reshapes.
trait Driven {
    fn access(&mut self) -> &mut dyn AccessMethod;
}

impl Driven for dyn AccessMethod + '_ {
    fn access(&mut self) -> &mut dyn AccessMethod {
        self
    }
}

impl Driven for dyn Morphable + '_ {
    fn access(&mut self) -> &mut dyn AccessMethod {
        self
    }
}

/// Runs after the collector closes a trajectory window, with the window
/// and the op-kind counts of the ops it closed over. It may settle the
/// phase (into the write class before a migration) and reshape the method.
type WindowHook<'h, M> =
    dyn FnMut(&mut M, &mut OpPhase<'_>, &TrajectoryWindow, &OpCounts) -> Result<()> + 'h;

/// The one serial op phase behind every non-sharded entry point: bulk-load
/// `initial` (dropped before the first op), play `ops`, attribute costs
/// per class, and assemble the report.
///
/// Every observer is optional. Without a collector no op is timed and
/// nothing is allocated per op. With one, each op is timed into its
/// per-class latency histogram, the plane (if any) mirrors the latency
/// and republishes its live gauges at each window close, and the hook (if
/// any) runs at each window close. Observers read the tracker but never
/// charge it, so every counted measurement is the same with or without
/// them.
fn drive<M: ?Sized + Driven>(
    method: &mut M,
    initial: impl AsRef<[Record]>,
    ops: impl IntoIterator<Item = Op>,
    mut trace: Option<&mut TraceCollector>,
    plane: Option<&MetricsPlane>,
    mut on_window: Option<&mut WindowHook<'_, M>>,
) -> Result<RumReport> {
    let mut phase = OpPhase::load(
        method.access(),
        initial.as_ref(),
        trace.as_deref_mut(),
        plane,
    )?;
    drop(initial);
    let mut counts = OpCounts::default();
    let mut windows_seen = 0usize;
    for op in ops {
        let is_read = op.is_read();
        phase.enter(is_read);
        let Some(trace) = trace.as_deref_mut() else {
            op.apply(method.access())?;
            phase.count(is_read, 1);
            continue;
        };
        let op_started = Instant::now();
        op.apply(method.access())?;
        let latency_ns = op_started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        phase.count(is_read, 1);
        if on_window.is_some() {
            counts.observe(&op);
        }
        trace.note_op(is_read, latency_ns, &phase.tracker, method.access());
        if let Some(plane) = plane {
            plane.observe_op(is_read, latency_ns);
        }
        if trace.windows().len() > windows_seen {
            windows_seen = trace.windows().len();
            if let Some(plane) = plane {
                let m = method.access();
                plane.refresh_live(m.space_profile().space_amplification(), m.len() as u64);
            }
            if let Some(hook) = on_window.as_deref_mut() {
                let window = trace.windows().last().expect("a window just closed");
                hook(method, &mut phase, window, &std::mem::take(&mut counts))?;
            }
        }
    }
    Ok(phase.finish(method.access(), trace))
}

/// Run `workload` against `method`: bulk-load the initial records, then play
/// the operation stream, attributing costs per operation class.
pub fn run_workload(method: &mut dyn AccessMethod, workload: &Workload) -> Result<RumReport> {
    let ops = workload.ops.iter().copied();
    drive(method, &workload.initial, ops, None, None, None)
}

/// Run a streaming workload against `method` without ever materializing a
/// `Vec<Op>`: ops are drawn from the [`OpStream`] one at a time, and the
/// initial records are dropped once loaded, so peak memory is O(live-set)
/// no matter how many operations the spec asks for.
///
/// Produces a report bit-identical (apart from wall-clock fields) to
/// [`run_workload`] on `Workload::generate(stream.spec())` — the stream
/// yields the same op sequence by construction, and cost attribution uses
/// the same class-transition batching.
pub fn run_stream(method: &mut dyn AccessMethod, mut stream: OpStream) -> Result<RumReport> {
    drive(method, stream.take_initial(), stream, None, None, None)
}

/// [`run_stream`] with a [`TraceCollector`] observing the op phase: each
/// op is individually timed into the collector's per-class latency
/// histograms and the collector closes a trajectory window every
/// [`window_ops`](TraceCollector::window_ops) operations. `trace.begin` is
/// called after the bulk load and `trace.finish` after the last op, so the
/// windowed deltas partition exactly the op-phase traffic: their sum
/// equals `read_costs + write_costs` byte-exactly
/// ([`TraceCollector::windowed_sum`]).
///
/// With a live [`MetricsPlane`], the plane's
/// [`DebtLedger`](crate::metrics::DebtLedger) receives exactly the
/// per-class tracker deltas the report is assembled from (the same settle
/// points, the same snapshots), per-op latencies are mirrored into
/// `rum_op_latency_ns{class}` histograms, and the live gauge set is
/// republished at every window close — so an exporter scraping the plane's
/// registry sees per-op-class amortized RO/UO/MO evolve while the run is
/// still going. At the end [`MetricsPlane::publish_final`] records the
/// tracker totals and the conservation verdict (`rum_conservation_ok`).
/// To feed the ledger's causal re-attribution, install a sink from the
/// same plane on the method first (`method.set_trace_sink(plane.sink())`,
/// or [`sink_with_forward`](MetricsPlane::sink_with_forward) to also keep
/// a [`MemorySink`](crate::trace::MemorySink) trace).
///
/// Both observers read the tracker but never charge it, so every counted
/// measurement in the returned report (`n_final`, op counts, all three
/// [`CostSnapshot`]s, RO/UO/MO bits) is identical to an untraced
/// [`run_stream`]; only `p50_ns` / `p99_ns` are filled instead of 0.
pub fn run_stream_traced(
    method: &mut dyn AccessMethod,
    mut stream: OpStream,
    trace: &mut TraceCollector,
    plane: Option<&MetricsPlane>,
) -> Result<RumReport> {
    let initial = stream.take_initial();
    drive(method, initial, stream, Some(trace), plane, None)
}

/// [`run_stream_traced`] with the [`AutoTuner`] closing the loop: every
/// time the collector closes a trajectory window, the tuner observes it
/// (plus the window's op-kind counts) and may order a migration, which is
/// executed in place via [`Morphable::morph_to`] before the next op runs.
///
/// Migration pricing in the paper's currency:
///
/// * **UO** — the op phase settles into the *write* class right before the
///   migration runs, so every byte the migration reads and writes lands in
///   `write_costs` and inflates UO exactly like compaction traffic.
/// * **MO** — the transient double-residency (source and destination
///   coexisting) is returned in each [`MigrationReceipt`]'s
///   `peak_extra_bytes` and surfaced through the [`AutoTuneSummary`].
///
/// Answers are unaffected: migrations preserve logical contents, so a
/// tuner-on run returns bit-identical results to a tuner-off run of the
/// same stream (the `drift_sweep` bench replays this differentially).
///
/// [`MigrationReceipt`]: crate::autotune::MigrationReceipt
pub fn run_stream_autotuned(
    method: &mut dyn Morphable,
    mut stream: OpStream,
    tuner: &mut AutoTuner,
    trace: &mut TraceCollector,
) -> Result<(RumReport, AutoTuneSummary)> {
    let initial = stream.take_initial();
    let hook: &mut WindowHook<'_, dyn Morphable + '_> = &mut |method, phase, window, counts| {
        if let Some(plan) = tuner.plan(window, counts, method) {
            // Settle into the write class first, so the migration's I/O
            // is attributed to UO (not smeared into whatever class
            // happened to be running).
            phase.settle(Some(false));
            tuner.begin_migration(&plan);
            let receipt = method.morph_to(plan.family, &plan.mix)?;
            tuner.complete(plan, receipt);
        }
        Ok(())
    };
    let report = drive(method, initial, stream, Some(trace), None, Some(hook))?;
    Ok((report, tuner.summary().clone()))
}

/// Ops pulled from the stream per [`ShardedMethod::submit_batch`] call in
/// [`run_stream_sharded`]: large enough to amortize the per-batch queue
/// handoff to the persistent shard workers, small enough that per-shard
/// sub-batches stay cache-resident.
pub const DEFAULT_STREAM_BATCH: usize = 8192;

/// Run a streaming workload against a [`ShardedMethod`], executing
/// class-contiguous batches of up to `batch` ops concurrently on the
/// wrapper's persistent worker pool, with **double-buffered batch
/// assembly**: while the workers execute batch `i`, the runner is already
/// drawing batch `i + 1` from the stream into the other buffer, so op
/// generation overlaps shard execution and at most one batch is in flight.
///
/// Batches never mix read-class and write-class ops (a lookahead op that
/// switches class is held back for the next batch), and the in-flight
/// batch is always collected — its cost deltas folded into the wrapper
/// tracker — *before* the phase settles at a class transition, so the
/// tracker's delta per settle span is attributable to exactly one class:
/// the same attribution [`run_workload`] performs per op. All counted
/// traffic is deterministic, so RO / UO / MO and every cost field are
/// **bit-identical** to driving the same `ShardedMethod` serially with
/// [`run_workload`]; only the wall-clock fields differ.
pub fn run_stream_sharded(
    method: &mut ShardedMethod,
    stream: OpStream,
    batch: usize,
) -> Result<RumReport> {
    run_sharded(method, stream, batch, None)
}

/// [`run_stream_sharded`] with a [`TraceCollector`] observing the op
/// phase: batches run timed, each shard worker records a per-op
/// [`LatencyHistogram`](crate::trace::LatencyHistogram), and the merged
/// per-batch histograms (associative + commutative pointwise sums, so the
/// merge order across workers cannot matter) land in the collector via
/// [`TraceCollector::note_batch`]. `p50_ns` / `p99_ns` in the returned
/// report are filled from the merged distribution instead of staying 0.
///
/// Granularity caveats versus the per-op traced runner: trajectory
/// windows close on batch boundaries (so a window may run up to
/// `batch - 1` ops long), and a range op contributes one latency
/// observation per shard it fanned out to rather than one end-to-end
/// fan-out latency. Counted measurements are still bit-identical to the
/// untraced [`run_stream_sharded`] — timing is a pure observer.
pub fn run_stream_sharded_traced(
    method: &mut ShardedMethod,
    stream: OpStream,
    batch: usize,
    trace: &mut TraceCollector,
) -> Result<RumReport> {
    run_sharded(method, stream, batch, Some(trace))
}

/// Shared body of [`run_stream_sharded`] / [`run_stream_sharded_traced`]:
/// the double-buffered submit/assemble/collect loop between the shared
/// [`OpPhase`] prologue and epilogue, with per-batch timing switched on
/// only when a collector is observing.
fn run_sharded(
    method: &mut ShardedMethod,
    mut stream: OpStream,
    batch: usize,
    mut trace: Option<&mut TraceCollector>,
) -> Result<RumReport> {
    let batch = batch.max(1);
    let initial = stream.take_initial();
    let mut phase = OpPhase::load(method, &initial, trace.as_deref_mut(), None)?;
    drop(initial);
    let timed = trace.is_some();
    let mut pending: Option<Op> = None;
    // Two assembly buffers: the workers read from one (it backs the
    // in-flight batch's per-shard partitions) while the stream fills the
    // other.
    let mut buffers = [Vec::with_capacity(batch), Vec::with_capacity(batch)];
    let mut which = 0usize;
    // The dispatched-but-uncollected batch: handle, class, op count.
    let mut in_flight: Option<(crate::shard::PendingBatch, bool, u64)> = None;
    loop {
        // Assemble the next class-contiguous batch; these stream pulls
        // overlap the workers executing the in-flight batch.
        let buf = &mut buffers[which];
        buf.clear();
        let mut next_class: Option<bool> = None;
        if let Some(first) = pending.take().or_else(|| stream.next()) {
            let is_read = first.is_read();
            next_class = Some(is_read);
            buf.push(first);
            while buf.len() < batch {
                match stream.next() {
                    Some(op) if op.is_read() == is_read => buf.push(op),
                    Some(op) => {
                        pending = Some(op);
                        break;
                    }
                    None => break,
                }
            }
        }

        // Collect the in-flight batch before any settle: its cost deltas
        // must be in the tracker while its class is still the running one.
        if let Some((handle, class, count)) = in_flight.take() {
            let latency = method.finish_batch(handle)?;
            phase.count(class, count);
            if let Some(t) = trace.as_deref_mut() {
                let hist = latency.unwrap_or_default();
                t.note_batch(class, count, &hist, &phase.tracker, method);
            }
        }

        let Some(is_read) = next_class else { break };
        phase.enter(is_read);
        let count = buffers[which].len() as u64;
        let handle = method.submit_batch(&buffers[which], timed)?;
        in_flight = Some((handle, is_read, count));
        which ^= 1;
    }
    Ok(phase.finish(method, trace))
}

/// Run one suite member's measurement, converting a panic or an error into
/// a labelled [`RumError::Corrupt`] so a single broken method cannot take
/// down a whole suite run (or, worse, the process).
fn run_guarded<F>(name: &str, f: F) -> Result<RumReport>
where
    F: FnOnce() -> Result<RumReport>,
{
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(RumError::Corrupt(format!("method '{name}' failed: {e}"))),
        Err(payload) => Err(RumError::Corrupt(format!(
            "method '{name}' panicked during measurement ({})",
            panic_payload_message(&payload)
        ))),
    }
}

/// Run every method in `methods` over the workload `spec` describes, on a
/// pool of `threads` workers (`threads <= 1` runs inline), and return the
/// reports **sorted by method name** — identical whatever the thread count,
/// apart from wall-clock fields.
///
/// Each worker owns one method at a time (methods are `Send` and carry
/// their own private [`CostTracker`], so no cost traffic crosses methods)
/// and streams its own [`OpStream`] from `spec` (generation is seeded and
/// cheap relative to execution), so no materialized `Vec<Op>` is shared —
/// peak memory stays O(live-set) per worker. Reports match [`run_workload`]
/// on `Workload::generate(spec)` bit-for-bit apart from wall-clock fields.
///
/// A method that fails or panics mid-measurement is reported on stderr and
/// omitted from the returned reports; the rest of the suite still runs.
pub fn run_suite(
    methods: &mut [Box<dyn AccessMethod>],
    spec: &WorkloadSpec,
    threads: usize,
) -> Result<Vec<RumReport>> {
    let results = parallel_map(methods.iter_mut().collect(), threads, |method| {
        let name = method.name();
        run_guarded(&name, || run_stream(method.as_mut(), OpStream::new(spec)))
    });
    let mut reports = Vec::with_capacity(results.len());
    for result in results {
        match result {
            Ok(report) => reports.push(report),
            Err(e) => eprintln!("[suite] skipping method: {e}"),
        }
    }
    // Stable name order; input order breaks ties, so duplicate names keep
    // a deterministic relative order too.
    reports.sort_by(|a, b| a.method.cmp(&b.method));
    Ok(reports)
}

/// Default worker count for [`run_suite`]: one per available core, unless
/// the `RUM_THREADS` environment variable overrides it.
///
/// `RUM_THREADS` must parse as a positive integer; unset, empty, zero, or
/// unparsable values fall back to the core count. CI and single-core
/// containers use it to pin parallelism explicitly (e.g. `RUM_THREADS=1`
/// for perfectly serial runs, or `RUM_THREADS=4` to exercise the threaded
/// paths on a 1-core host).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("RUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Apply `f` to every item on a pool of `threads` scoped workers and return
/// the results **in input order**. Items are pulled from a shared queue, so
/// uneven per-item costs balance across workers; `threads <= 1` (or a
/// single item) runs inline without spawning. A panicking `f` propagates to
/// the caller when the scope joins.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    // Short-circuit: one worker (single-core hosts, RUM_THREADS=1) or at
    // most one item means threading can't help — run inline and skip the
    // queue, the slot mutexes, and the scoped spawns entirely.
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = threads.min(n);

    let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            // Named workers so panics and profiler output say which
            // worker fired instead of `<unnamed>`.
            std::thread::Builder::new()
                .name(format!("rum-worker-{w}"))
                .spawn_scoped(scope, || loop {
                    let next = queue.lock().unwrap().pop();
                    let Some((index, item)) = next else { break };
                    *slots[index].lock().unwrap() = Some(f(item));
                })
                .expect("spawn rum-worker thread");
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every queue slot is filled before the scope joins")
        })
        .collect()
}

fn per_op(total: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total as f64 / ops as f64
    }
}

/// Measure the average cost of a single operation kind, for Table 1 style
/// experiments: runs `ops` against an already-loaded method and returns the
/// per-operation page accesses and cost delta.
pub fn measure_ops(method: &mut dyn AccessMethod, ops: &[Op]) -> Result<(f64, CostSnapshot)> {
    let tracker = Arc::clone(method.tracker());
    let before = tracker.snapshot();
    for &op in ops {
        op.apply(method)?;
    }
    let d = tracker.since(&before);
    Ok((per_op(d.page_accesses(), ops.len() as u64), d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::SpaceProfile;
    use crate::tracker::DataClass;
    use crate::types::{Key, Value, RECORD_SIZE};
    use crate::workload::OpMix;

    /// Minimal sorted-vec method that charges 2 bytes of physical traffic
    /// per byte of logical traffic, so amplification is exactly 2.
    struct Amp2 {
        name: String,
        data: std::collections::BTreeMap<Key, Value>,
        tracker: Arc<CostTracker>,
    }

    impl Amp2 {
        fn new() -> Self {
            Amp2::named("amp2")
        }

        fn named(name: &str) -> Self {
            Amp2 {
                name: name.to_string(),
                data: Default::default(),
                tracker: CostTracker::new(),
            }
        }
    }

    impl AccessMethod for Amp2 {
        fn name(&self) -> String {
            self.name.clone()
        }
        fn len(&self) -> usize {
            self.data.len()
        }
        fn tracker(&self) -> &Arc<CostTracker> {
            &self.tracker
        }
        fn space_profile(&self) -> SpaceProfile {
            SpaceProfile::from_physical(self.data.len(), (self.data.len() * 3 * RECORD_SIZE) as u64)
        }
        fn get_impl(&mut self, key: Key) -> crate::Result<Option<Value>> {
            let r = self.data.get(&key).copied();
            if r.is_some() {
                self.tracker.read(DataClass::Base, 2 * RECORD_SIZE as u64);
            }
            Ok(r)
        }
        fn range_impl(&mut self, lo: Key, hi: Key) -> crate::Result<Vec<Record>> {
            let out: Vec<Record> = self
                .data
                .range(lo..=hi)
                .map(|(&k, &v)| Record::new(k, v))
                .collect();
            self.tracker
                .read(DataClass::Base, (2 * out.len() * RECORD_SIZE) as u64);
            Ok(out)
        }
        fn insert_impl(&mut self, key: Key, value: Value) -> crate::Result<()> {
            self.tracker.write(DataClass::Base, 2 * RECORD_SIZE as u64);
            self.data.insert(key, value);
            Ok(())
        }
        fn update_impl(&mut self, key: Key, value: Value) -> crate::Result<bool> {
            if self.data.contains_key(&key) {
                self.tracker.write(DataClass::Base, 2 * RECORD_SIZE as u64);
                self.data.insert(key, value);
                Ok(true)
            } else {
                Ok(false)
            }
        }
        fn delete_impl(&mut self, key: Key) -> crate::Result<bool> {
            if self.data.remove(&key).is_some() {
                self.tracker.write(DataClass::Base, 2 * RECORD_SIZE as u64);
                Ok(true)
            } else {
                Ok(false)
            }
        }
        fn bulk_load_impl(&mut self, records: &[Record]) -> crate::Result<()> {
            self.data = records.iter().map(|r| (r.key, r.value)).collect();
            self.tracker
                .write(DataClass::Base, (records.len() * RECORD_SIZE) as u64);
            Ok(())
        }
    }

    #[test]
    fn amplifications_attributed_per_class() {
        let w = Workload::generate(&WorkloadSpec {
            initial_records: 500,
            operations: 2000,
            mix: OpMix::BALANCED,
            seed: 9,
            ..Default::default()
        });
        let mut m = Amp2::new();
        let report = run_workload(&mut m, &w).unwrap();
        assert!((report.ro - 2.0).abs() < 1e-9, "ro = {}", report.ro);
        assert!((report.uo - 2.0).abs() < 1e-9, "uo = {}", report.uo);
        assert!((report.mo - 3.0).abs() < 1e-9, "mo = {}", report.mo);
        assert_eq!(report.read_ops + report.write_ops, w.ops.len() as u64);
    }

    #[test]
    fn load_costs_are_excluded_from_amplification() {
        let w = Workload::generate(&WorkloadSpec {
            initial_records: 1000,
            operations: 10,
            mix: OpMix::READ_ONLY,
            seed: 3,
            ..Default::default()
        });
        let mut m = Amp2::new();
        let report = run_workload(&mut m, &w).unwrap();
        // Bulk load wrote 1000 records; none of that traffic shows in UO.
        assert!(report.load_costs.total_write_bytes() > 0);
        assert_eq!(report.write_ops, 0);
        assert_eq!(report.write_costs.total_write_bytes(), 0);
        assert!((report.ro - 2.0).abs() < 1e-9);
    }

    #[test]
    fn report_rows_render() {
        let w = Workload::generate(&WorkloadSpec {
            initial_records: 100,
            operations: 100,
            seed: 1,
            ..Default::default()
        });
        let mut m = Amp2::new();
        let report = run_workload(&mut m, &w).unwrap();
        assert!(report.table_row().contains("amp2"));
        assert!(RumReport::table_header().contains("MO"));
        assert!(RumReport::table_header().contains("ops/s"));
        assert!(RumReport::table_header().contains("p50ns"));
        assert_eq!(report.csv_row().split(',').count(), 11);
    }

    #[test]
    fn header_and_row_field_counts_agree() {
        let w = Workload::generate(&WorkloadSpec {
            initial_records: 100,
            operations: 100,
            seed: 1,
            ..Default::default()
        });
        let mut m = Amp2::new();
        let report = run_workload(&mut m, &w).unwrap();
        // The test method's name has no spaces, so whitespace-splitting
        // counts table columns faithfully.
        assert_eq!(
            RumReport::table_header().split_whitespace().count(),
            report.table_row().split_whitespace().count(),
            "table header and row column counts diverged"
        );
        assert_eq!(
            RumReport::csv_header().split(',').count(),
            report.csv_row().split(',').count(),
            "csv header and row field counts diverged"
        );
    }

    #[test]
    fn csv_row_clamps_non_finite_values() {
        let report = RumReport {
            method: "degenerate".into(),
            n_final: 0,
            read_ops: 0,
            write_ops: 0,
            read_costs: CostSnapshot::default(),
            write_costs: CostSnapshot::default(),
            load_costs: CostSnapshot::default(),
            ro: f64::INFINITY,
            uo: f64::NAN,
            mo: f64::NEG_INFINITY,
            pages_per_read_op: f64::INFINITY,
            pages_per_write_op: 0.0,
            wall_ns: 0,
            load_wall_ns: 0,
            sim_ns: 0,
            ops_per_sec: f64::INFINITY,
            p50_ns: 0,
            p99_ns: 0,
        };
        let row = report.csv_row();
        assert_eq!(row.split(',').count(), 11);
        assert!(
            !row.contains("inf") && !row.contains("NaN"),
            "csv_row leaked a non-finite literal: {row}"
        );
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        assert_eq!(parallel_map(items.clone(), 1, |x| x * x), expected);
        assert_eq!(parallel_map(items, 8, |x| x * x), expected);
        assert_eq!(parallel_map(Vec::<usize>::new(), 4, |x: usize| x), vec![]);
    }

    fn assert_same_measurements(ctx: &str, a: &RumReport, b: &RumReport) {
        assert_eq!(a.n_final, b.n_final, "{ctx}: n_final");
        assert_eq!(
            (a.read_ops, a.write_ops),
            (b.read_ops, b.write_ops),
            "{ctx}"
        );
        assert_eq!(a.read_costs, b.read_costs, "{ctx}: read_costs");
        assert_eq!(a.write_costs, b.write_costs, "{ctx}: write_costs");
        assert_eq!(a.load_costs, b.load_costs, "{ctx}: load_costs");
        assert_eq!(
            a.ro.to_bits(),
            b.ro.to_bits(),
            "{ctx}: RO must be bit-identical"
        );
        assert_eq!(
            a.uo.to_bits(),
            b.uo.to_bits(),
            "{ctx}: UO must be bit-identical"
        );
        assert_eq!(
            a.mo.to_bits(),
            b.mo.to_bits(),
            "{ctx}: MO must be bit-identical"
        );
    }

    /// Amp2 as a tunable structure that always prices a re-tune as a win
    /// but is already in every shape it is asked for, so the tuner reaches
    /// the migration path without any migration traffic.
    impl Morphable for Amp2 {
        fn family(&self) -> crate::wizard::Family {
            crate::wizard::Family::BTree
        }
        fn shape(&self) -> String {
            self.name.clone()
        }
        fn retune_gain(
            &mut self,
            _: &OpMix,
            _: &crate::wizard::Environment,
        ) -> Option<crate::autotune::RetuneEstimate> {
            Some(crate::autotune::RetuneEstimate {
                current_cost: 2.0,
                advised_cost: 1.0,
                advised_shape: self.name.clone(),
                bill_pages: Some(1.0),
            })
        }
        fn morph_to(
            &mut self,
            _: crate::wizard::Family,
            _: &OpMix,
        ) -> Result<Option<crate::autotune::MigrationReceipt>> {
            Ok(None)
        }
    }

    /// Every entry point, on the same spec, measures the same bits as
    /// `run_workload` on the materialized workload: the serial ones against
    /// a plain method, the sharded ones against the same sharded facade
    /// driven one op at a time. Traced rows must also fill the latency
    /// quantiles and partition the op phase into windows exactly; untraced
    /// rows never time an op.
    #[test]
    fn every_entry_point_measures_the_same_bits() {
        use crate::autotune::AutoTuneConfig;
        use crate::trace::noop_sink;
        let spec = WorkloadSpec {
            initial_records: 400,
            operations: 2000,
            mix: OpMix::BALANCED,
            seed: 33,
            ..Default::default()
        };
        let stream = || OpStream::new(&spec);
        let sharded = |threads| {
            ShardedMethod::with_threads(4, threads, |_| -> Box<dyn AccessMethod> {
                Box::new(Amp2::new())
            })
        };
        // Deliberately odd, so batches straddle class transitions.
        let batch = 257;
        let workload = Workload::generate(&spec);
        let plain = run_workload(&mut Amp2::new(), &workload).unwrap();
        let serial_sharded = run_workload(&mut sharded(1), &workload).unwrap();

        type Run<'a> = Box<dyn Fn(&mut TraceCollector) -> Vec<RumReport> + 'a>;
        let suite = |threads| -> Vec<RumReport> {
            let mut methods: Vec<Box<dyn AccessMethod>> = vec![
                Box::new(Amp2::named("zeta")),
                Box::new(Amp2::named("alpha")),
                Box::new(Amp2::named("mid")),
            ];
            let reports = run_suite(&mut methods, &spec, threads).unwrap();
            let names: Vec<&str> = reports.iter().map(|r| r.method.as_str()).collect();
            assert_eq!(names, ["alpha", "mid", "zeta"], "reports sorted by name");
            reports
        };
        let pooled = |threads, trace: Option<&mut TraceCollector>| {
            let mut m = sharded(threads);
            let report = match trace {
                Some(t) => run_stream_sharded_traced(&mut m, stream(), batch, t),
                None => run_stream_sharded(&mut m, stream(), batch),
            };
            assert_eq!(m.pool_running(), threads > 1, "threads={threads}");
            vec![report.unwrap()]
        };
        // (entry point, expected report, traced?, run)
        let rows: Vec<(&str, &RumReport, bool, Run)> = vec![
            (
                "run_stream",
                &plain,
                false,
                Box::new(|_| vec![run_stream(&mut Amp2::new(), stream()).unwrap()]),
            ),
            (
                "run_stream_traced",
                &plain,
                true,
                Box::new(|t| vec![run_stream_traced(&mut Amp2::new(), stream(), t, None).unwrap()]),
            ),
            (
                "run_stream_traced + plane",
                &plain,
                true,
                Box::new(|t| {
                    let plane = MetricsPlane::new();
                    let mut m = Amp2::new();
                    let report = run_stream_traced(&mut m, stream(), t, Some(&plane)).unwrap();
                    let debt = plane.ledger().snapshot();
                    assert!(debt.conserves(&m.tracker().snapshot()), "ledger conserves");
                    vec![report]
                }),
            ),
            (
                "run_stream_autotuned",
                &plain,
                true,
                Box::new(|t| {
                    let cfg = AutoTuneConfig {
                        warmup_windows: 1,
                        settle_windows: 0,
                        ..Default::default()
                    };
                    let mut tuner = AutoTuner::new(
                        cfg,
                        &OpMix::READ_ONLY,
                        crate::advisor::ProfileStore::default(),
                        Default::default(),
                        Default::default(),
                    );
                    let (report, summary) =
                        run_stream_autotuned(&mut Amp2::new(), stream(), &mut tuner, t).unwrap();
                    assert!(summary.noop_decisions > 0, "the window hook must decide");
                    assert_eq!(summary.migrations, 0);
                    vec![report]
                }),
            ),
            ("run_suite, 1 thread", &plain, false, Box::new(|_| suite(1))),
            (
                "run_suite, 3 threads",
                &plain,
                false,
                Box::new(|_| suite(3)),
            ),
            (
                "run_stream_sharded, inline",
                &serial_sharded,
                false,
                Box::new(|_| pooled(1, None)),
            ),
            (
                "run_stream_sharded, pooled",
                &serial_sharded,
                false,
                Box::new(|_| pooled(2, None)),
            ),
            (
                "run_stream_sharded_traced, inline",
                &serial_sharded,
                true,
                Box::new(|t| pooled(1, Some(t))),
            ),
            (
                "run_stream_sharded_traced, pooled",
                &serial_sharded,
                true,
                Box::new(|t| pooled(4, Some(t))),
            ),
        ];
        for (name, expected, traced, run) in rows {
            let mut trace = TraceCollector::new(100, noop_sink());
            for report in run(&mut trace) {
                assert_same_measurements(name, expected, &report);
                if traced {
                    assert!(report.p50_ns > 0, "{name}: p50 must be measured");
                    assert!(report.p99_ns >= report.p50_ns, "{name}");
                    assert_eq!(
                        trace.windowed_sum(),
                        report.read_costs.add(&report.write_costs),
                        "{name}: window deltas must sum to the op-phase totals"
                    );
                    let window_ops: u64 = trace.windows().iter().map(|w| w.ops).sum();
                    assert_eq!(window_ops, 2000, "{name}");
                } else {
                    assert_eq!((report.p50_ns, report.p99_ns), (0, 0), "{name}: untraced");
                }
            }
        }
    }

    #[test]
    fn ops_per_sec_is_positive_for_real_runs() {
        let w = Workload::generate(&WorkloadSpec {
            initial_records: 100,
            operations: 500,
            seed: 5,
            ..Default::default()
        });
        let mut m = Amp2::new();
        let report = run_workload(&mut m, &w).unwrap();
        assert!(report.ops_per_sec > 0.0);
        // The rendered column is always finite, even if the clock was too
        // coarse to observe the run.
        let rendered: f64 = report
            .csv_row()
            .rsplit(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(rendered.is_finite());
    }

    /// A method that panics (or errors) after `fuse` write ops — a stand-in
    /// for a poisoned structure mid-suite.
    struct Fused {
        inner: Amp2,
        fuse: usize,
        writes: usize,
        panics: bool,
    }

    impl Fused {
        fn new(name: &str, fuse: usize, panics: bool) -> Self {
            Fused {
                inner: Amp2::named(name),
                fuse,
                writes: 0,
                panics,
            }
        }

        fn trip(&mut self) -> crate::Result<()> {
            self.writes += 1;
            if self.writes > self.fuse {
                if self.panics {
                    panic!("fuse blown");
                }
                return Err(crate::RumError::Corrupt("fuse blown".into()));
            }
            Ok(())
        }
    }

    impl AccessMethod for Fused {
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
        fn get_impl(&mut self, key: Key) -> crate::Result<Option<Value>> {
            self.inner.get_impl(key)
        }
        fn range_impl(&mut self, lo: Key, hi: Key) -> crate::Result<Vec<Record>> {
            self.inner.range_impl(lo, hi)
        }
        fn insert_impl(&mut self, key: Key, value: Value) -> crate::Result<()> {
            self.trip()?;
            self.inner.insert_impl(key, value)
        }
        fn update_impl(&mut self, key: Key, value: Value) -> crate::Result<bool> {
            self.trip()?;
            self.inner.update_impl(key, value)
        }
        fn delete_impl(&mut self, key: Key) -> crate::Result<bool> {
            self.trip()?;
            self.inner.delete_impl(key)
        }
        fn bulk_load_impl(&mut self, records: &[Record]) -> crate::Result<()> {
            self.inner.bulk_load_impl(records)
        }
    }

    #[test]
    fn suite_survives_a_panicking_member() {
        let spec = WorkloadSpec {
            initial_records: 100,
            operations: 400,
            mix: OpMix::BALANCED,
            seed: 13,
            ..Default::default()
        };
        let make_suite = || -> Vec<Box<dyn AccessMethod>> {
            vec![
                Box::new(Fused::new("panicker", 10, true)),
                Box::new(Amp2::named("survivor")),
                Box::new(Fused::new("errorer", 10, false)),
            ]
        };
        for threads in [1, 3] {
            let reports = run_suite(&mut make_suite(), &spec, threads).unwrap();
            let names: Vec<&str> = reports.iter().map(|r| r.method.as_str()).collect();
            assert_eq!(names, ["survivor"], "threads={threads}");
        }
    }

    #[test]
    fn sharded_worker_panic_is_an_error_not_an_abort() {
        // Two shards, threaded execution: one shard panics mid-batch. The
        // facade must return Err(Corrupt), not take the process down.
        let factory = |i: usize| -> Box<dyn AccessMethod> {
            let fuse = if i == 1 { 4 } else { usize::MAX };
            Box::new(Fused::new(&format!("shard{i}"), fuse, true))
        };
        let mut sharded = crate::shard::ShardedMethod::with_threads(2, 2, factory);
        let ops: Vec<Op> = (0..64u64).map(|k| Op::Insert(k, k)).collect();
        let err = sharded.execute_batch(&ops).unwrap_err();
        match err {
            crate::RumError::Corrupt(m) => {
                assert!(m.contains("panicked"), "unexpected message: {m}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn rum_threads_env_overrides_default_threads() {
        // Process-global env: keep every probe inside this one test.
        std::env::set_var("RUM_THREADS", "7");
        assert_eq!(default_threads(), 7);
        std::env::set_var("RUM_THREADS", " 3 ");
        assert_eq!(default_threads(), 3, "whitespace is trimmed");
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        for junk in ["0", "", "-2", "lots"] {
            std::env::set_var("RUM_THREADS", junk);
            assert_eq!(default_threads(), fallback, "junk value {junk:?}");
        }
        std::env::remove_var("RUM_THREADS");
        assert_eq!(default_threads(), fallback);
    }
}
