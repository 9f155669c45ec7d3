//! Live terminal dashboard over the `rum-obs` Prometheus exporter.
//!
//! Usage:
//!   cargo run --release -p rum-bench --bin rum_top \
//!       \[METHOD\] \[--mix MIX\] \[--n OPS\] \[--window W\] \
//!       \[--addr HOST:PORT\] \[--refresh MS\] \[--smoke\]
//!
//! The live mode runs `METHOD` (default `lsm-tree+wal`) under the full
//! metrics plane on a driver thread, serves the registry over HTTP, and
//! *scrapes its own exporter* — everything on screen travelled through
//! the Prometheus text format, so the dashboard doubles as an end-to-end
//! test of the wire path. Each frame shows per-op-class amortized RO/UO,
//! the causal debt table, sparklined gauge histories, event counters,
//! and latency quantiles. `--addr 127.0.0.1:9184` pins the port so an
//! external Prometheus can scrape the same run.
//!
//! `--smoke` is the CI obs leg, in three acts:
//!   1. conservation — every `ObsConfig::smoke()` method's attributed
//!      bytes sum bit-equal to its tracker totals;
//!   2. exporter round-trip — serve a finished plane on an ephemeral
//!      port, scrape `/metrics`, validate it with the strict parser, and
//!      check the key series exist (including `rum_conservation_ok 1`);
//!   3. observer-freedom — every standard-suite method measures
//!      bit-identical RO/UO/MO with the metrics plane on vs off.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use rum::prelude::*;
use rum_bench::{baseline, obs, trace};
use rum_core::metrics::{MetricsPlane, OpClass};
use rum_core::runner::run_stream_traced;
use rum_core::trace::TraceCollector;
use rum_obs::{http_get, parse_prometheus, serve, PromSample};

fn fail(msg: &str) -> ! {
    eprintln!("rum_top: {msg}");
    std::process::exit(1)
}

/// Gauge lookup in one scrape: exact name + optional `class` label.
fn gauge(samples: &[PromSample], name: &str, class: Option<&str>) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.label("class") == class)
        .map(|s| s.value)
}

/// Sum of a counter family across all label sets (e.g. every `kind`).
fn counter_sum(samples: &[PromSample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// Render `history` as a fixed-width sparkline, scaled to its own range.
fn sparkline(history: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail: Vec<f64> = history
        .iter()
        .rev()
        .take(width)
        .rev()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    if tail.is_empty() {
        return String::new();
    }
    let lo = tail.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    tail.iter()
        .map(|v| BARS[(((v - lo) / span) * 7.0).round() as usize % 8])
        .collect()
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} KB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

/// Per-series gauge histories for the sparklines.
#[derive(Default)]
struct Histories {
    series: BTreeMap<String, Vec<f64>>,
}

impl Histories {
    fn push(&mut self, key: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.series.entry(key.to_string()).or_default().push(v);
        }
    }

    fn line(&self, key: &str, width: usize) -> String {
        self.series
            .get(key)
            .map(|h| sparkline(h, width))
            .unwrap_or_default()
    }
}

/// One dashboard frame, rendered entirely from a parsed scrape.
fn render_frame(title: &str, scrape_no: u64, samples: &[PromSample], hist: &Histories) -> String {
    const W: usize = 32;
    let mut out = String::new();
    out.push_str(&format!("rum_top — {title}  (scrape #{scrape_no})\n\n"));

    out.push_str(&format!("  {:<28} {:>12}  {}\n", "gauge", "now", "history"));
    for (label, key) in [
        ("RO read (amortized)", "ro_read"),
        ("UO write (amortized)", "uo_write"),
        ("MO (space amp)", "mo"),
        ("debt outstanding (bytes)", "debt_out"),
        ("live records", "live"),
    ] {
        let now = hist
            .series
            .get(key)
            .and_then(|h| h.last().copied())
            .unwrap_or(0.0);
        let shown = if key == "debt_out" {
            fmt_bytes(now)
        } else if key == "live" {
            format!("{now:.0}")
        } else {
            format!("{now:.3}")
        };
        out.push_str(&format!(
            "  {label:<28} {shown:>12}  {}\n",
            hist.line(key, W)
        ));
    }

    out.push_str("\n  causal debt attribution\n");
    out.push_str(&format!(
        "  {:<7} {:>10} {:>10} {:>12} {:>12}\n",
        "class", "RO", "UO", "attr rd", "attr wr"
    ));
    for class in OpClass::ALL {
        let c = Some(class.as_str());
        out.push_str(&format!(
            "  {:<7} {:>10.3} {:>10.3} {:>12} {:>12}\n",
            class.as_str(),
            gauge(samples, "rum_class_read_amplification", c).unwrap_or(0.0),
            gauge(samples, "rum_class_write_amplification", c).unwrap_or(0.0),
            fmt_bytes(gauge(samples, "rum_class_attributed_read_bytes", c).unwrap_or(0.0)),
            fmt_bytes(gauge(samples, "rum_class_attributed_write_bytes", c).unwrap_or(0.0)),
        ));
    }
    out.push_str(&format!(
        "  debt: accrued {} / settled {} / outstanding {}   reattributed rd {} wr {}\n",
        fmt_bytes(gauge(samples, "rum_debt_accrued_bytes", None).unwrap_or(0.0)),
        fmt_bytes(gauge(samples, "rum_debt_settled_bytes", None).unwrap_or(0.0)),
        fmt_bytes(gauge(samples, "rum_debt_outstanding_bytes", None).unwrap_or(0.0)),
        fmt_bytes(gauge(samples, "rum_reattributed_read_bytes", None).unwrap_or(0.0)),
        fmt_bytes(gauge(samples, "rum_reattributed_write_bytes", None).unwrap_or(0.0)),
    ));

    out.push_str("\n  latency (ns)        p50        p99\n");
    for class in ["read", "write"] {
        out.push_str(&format!(
            "  {:<14} {:>10.0} {:>10.0}\n",
            class,
            gauge(samples, "rum_op_latency_p50_ns", Some(class)).unwrap_or(0.0),
            gauge(samples, "rum_op_latency_p99_ns", Some(class)).unwrap_or(0.0),
        ));
    }

    let mut kinds: Vec<(&str, f64)> = samples
        .iter()
        .filter(|s| s.name == "rum_events_total")
        .filter_map(|s| s.label("kind").map(|k| (k, s.value)))
        .collect();
    kinds.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    out.push_str(&format!(
        "\n  events ({} total)\n",
        counter_sum(samples, "rum_events_total") as u64
    ));
    for chunk in kinds.chunks(3) {
        out.push_str("  ");
        for (kind, n) in chunk {
            out.push_str(&format!("{kind:<18} {:>8}   ", *n as u64));
        }
        out.push('\n');
    }
    out
}

fn smoke() {
    // Act 1: conservation across the obs smoke methods.
    eprintln!("[obs] smoke: causal attribution + conservation ...");
    let cfg = obs::ObsConfig::smoke();
    let rows = obs::run(&cfg);
    print!("{}", obs::render(&rows));
    for r in &rows {
        if !r.conserved {
            fail(&format!("{}: attribution does not conserve", r.name));
        }
    }
    println!(
        "  [PASS] conservation: {} methods, attributed bytes sum bit-equal to tracker totals",
        rows.len()
    );

    // Act 2: exporter round-trip on an ephemeral port. The scrape must
    // survive the strict parser and carry the key series.
    eprintln!("[obs] smoke: exporter round-trip ...");
    let lsm = rows
        .iter()
        .find(|r| r.name == "lsm-tree")
        .unwrap_or_else(|| fail("lsm-tree missing from smoke rows"));
    let mut server = serve(lsm.plane.registry().clone(), "127.0.0.1:0")
        .unwrap_or_else(|e| fail(&format!("exporter bind failed: {e}")));
    let addr = server.local_addr();
    let (status, body) =
        http_get(addr, "/metrics").unwrap_or_else(|e| fail(&format!("scrape failed: {e}")));
    if status != 200 {
        fail(&format!("/metrics returned HTTP {status}"));
    }
    let samples =
        parse_prometheus(&body).unwrap_or_else(|e| fail(&format!("exposition invalid: {e}")));
    for series in [
        "rum_events_total",
        "rum_debt_outstanding_bytes",
        "rum_op_latency_ns_bucket",
    ] {
        if !samples.iter().any(|s| s.name == series) {
            fail(&format!("scrape missing series {series}"));
        }
    }
    if gauge(&samples, "rum_class_read_amplification", Some("read")).is_none() {
        fail("scrape missing rum_class_read_amplification{class=\"read\"}");
    }
    if gauge(&samples, "rum_conservation_ok", None) != Some(1.0) {
        fail("rum_conservation_ok != 1 over the wire");
    }
    let (status, json) = http_get(addr, "/snapshot.json")
        .unwrap_or_else(|e| fail(&format!("/snapshot.json failed: {e}")));
    if status != 200 || !json.contains("\"counters\"") {
        fail("/snapshot.json malformed");
    }
    server.shutdown();
    println!(
        "  [PASS] exporter: {} samples scraped from {addr}, parsed strictly, key series live",
        samples.len()
    );

    // Act 3: the plane must be a pure observer — bit-identical RUM
    // measurements with metrics on vs off, for the entire suite.
    eprintln!("[obs] smoke: metrics-on ≡ metrics-off across the standard suite ...");
    let spec = baseline::smoke_spec();
    let verdicts = obs::metrics_equivalence(spec.initial_records, spec.operations, spec.seed);
    let broken: Vec<&str> = verdicts
        .iter()
        .filter(|v| !v.identical)
        .map(|v| v.method.as_str())
        .collect();
    if !broken.is_empty() {
        fail(&format!("metrics plane perturbed: {}", broken.join(", ")));
    }
    println!(
        "  [PASS] observer-freedom: {} suite methods bit-identical with the plane on vs off",
        verdicts.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let mut method_name = "lsm-tree+wal".to_string();
    let mut mix_name = "balanced".to_string();
    let mut operations = 400_000usize;
    let mut window = 2048usize;
    let mut addr = "127.0.0.1:0".to_string();
    let mut refresh_ms = 250u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mix" => {
                mix_name = it
                    .next()
                    .unwrap_or_else(|| fail("--mix needs a value"))
                    .clone()
            }
            "--n" => {
                operations = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--n needs a positive integer"))
            }
            "--window" => {
                window = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--window needs a positive integer"))
            }
            "--addr" => {
                addr = it
                    .next()
                    .unwrap_or_else(|| fail("--addr needs HOST:PORT"))
                    .clone()
            }
            "--refresh" => {
                refresh_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--refresh needs milliseconds"))
            }
            other if other.starts_with("--") => fail(&format!("unknown flag {other}")),
            other => method_name = other.to_string(),
        }
    }

    let mut method = trace::find_method(&method_name).unwrap_or_else(|| {
        fail(&format!(
            "unknown method {:?}; suite: {}",
            method_name,
            trace::suite_names().join(", ")
        ))
    });
    let mix =
        trace::mix_by_name(&mix_name).unwrap_or_else(|| fail(&format!("unknown mix {mix_name:?}")));
    let spec = WorkloadSpec {
        initial_records: (operations / 10).max(1),
        operations,
        mix,
        seed: 0x70_D0 + operations as u64,
        ..Default::default()
    };

    let plane = MetricsPlane::shared();
    let server = serve(plane.registry().clone(), &addr)
        .unwrap_or_else(|e| fail(&format!("exporter bind on {addr} failed: {e}")));
    let bound = server.local_addr();
    eprintln!(
        "[obs] {method_name} × {mix_name}, {operations} ops; exporter on http://{bound}/metrics"
    );

    // The driver owns the method and runs the metered stream; the main
    // thread only ever sees the run through its own exporter scrapes.
    let (tx, rx) = mpsc::channel();
    let driver_plane = Arc::clone(&plane);
    let driver = std::thread::Builder::new()
        .name("rum-top-driver".into())
        .spawn(move || {
            let sink = driver_plane.sink();
            method.set_trace_sink(sink.clone());
            let mut collector = TraceCollector::new(window, sink);
            let report = run_stream_traced(
                method.as_mut(),
                OpStream::new(&spec),
                &mut collector,
                Some(&driver_plane),
            );
            let _ = tx.send(report);
        })
        .unwrap_or_else(|e| fail(&format!("driver thread: {e}")));

    let title = format!("{method_name} × {mix_name} @ {bound}");
    let mut hist = Histories::default();
    let mut scrape_no = 0u64;
    let mut finished: Option<Result<RumReport>> = None;
    loop {
        if finished.is_none() {
            finished = rx.try_recv().ok();
        }
        match http_get(bound, "/metrics") {
            Ok((200, body)) => match parse_prometheus(&body) {
                Ok(samples) => {
                    scrape_no += 1;
                    hist.push(
                        "ro_read",
                        gauge(&samples, "rum_class_read_amplification", Some("read")),
                    );
                    hist.push(
                        "uo_write",
                        gauge(&samples, "rum_class_write_amplification", Some("write")),
                    );
                    hist.push("mo", gauge(&samples, "rum_space_amplification", None));
                    hist.push(
                        "debt_out",
                        gauge(&samples, "rum_debt_outstanding_bytes", None),
                    );
                    hist.push("live", gauge(&samples, "rum_live_records", None));
                    // ANSI: clear screen, home cursor, redraw.
                    print!(
                        "\x1b[2J\x1b[H{}",
                        render_frame(&title, scrape_no, &samples, &hist)
                    );
                }
                Err(e) => eprintln!("[obs] scrape #{scrape_no} unparseable: {e}"),
            },
            Ok((status, _)) => eprintln!("[obs] scrape returned HTTP {status}"),
            Err(e) => eprintln!("[obs] scrape failed: {e}"),
        }
        if finished.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(refresh_ms));
    }
    driver
        .join()
        .unwrap_or_else(|_| fail("driver thread panicked"));

    let report = match finished.expect("driver result") {
        Ok(r) => r,
        Err(e) => fail(&format!("metered run failed: {e}")),
    };
    println!("\n{}", RumReport::table_header());
    println!("{}", report.table_row());
    let debt = plane.ledger().snapshot();
    println!(
        "debt: accrued {} / settled {} / outstanding {}; conservation gauge {}",
        debt.debt_accrued_bytes,
        debt.debt_settled_bytes,
        debt.debt_outstanding_bytes(),
        plane
            .registry()
            .gauge("rum_conservation_ok", &[])
            .unwrap_or(-1.0),
    );
    println!("exporter stayed live through {scrape_no} scrapes on {bound}");
}
