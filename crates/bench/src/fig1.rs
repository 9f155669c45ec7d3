//! Figure 1 of the paper: "Popular data structures in the RUM space."
//!
//! Every access method in the standard suite runs the same mixed workload;
//! its measured (RO, UO, MO) triple is projected into the RUM triangle.
//! The paper's qualitative placement — read-optimized structures at the
//! top, write-optimized differential structures at the left, space-
//! efficient sparse/lossy structures at the right, adaptive methods in the
//! middle — should emerge from the measurements alone.

use rum::prelude::*;

/// The measured placement of one method.
#[derive(Clone, Debug)]
pub struct Placement {
    pub report: RumReport,
    pub point: RumPoint,
}

/// Run the Figure 1 experiment on one worker per core.
pub fn run(initial_records: usize, operations: usize, seed: u64) -> Vec<Placement> {
    run_with_threads(
        initial_records,
        operations,
        seed,
        rum::core::runner::default_threads(),
    )
}

/// Run the Figure 1 experiment with an explicit worker count (`1` =
/// serial). The measurements are identical whatever the count — only the
/// wall-clock changes — because every method carries its own tracker and
/// the merged reports are sorted by name.
///
/// The workload is never materialized: each worker draws ops straight
/// from its own [`OpStream`], which generates the identical sequence
/// `Workload::generate` would for this spec.
pub fn run_with_threads(
    initial_records: usize,
    operations: usize,
    seed: u64,
    threads: usize,
) -> Vec<Placement> {
    let spec = WorkloadSpec {
        initial_records,
        operations,
        mix: OpMix::BALANCED,
        seed,
        ..Default::default()
    };
    run_suite(&mut rum::standard_suite(), &spec, threads)
        .unwrap_or_else(|e| panic!("suite run failed: {e}"))
        .into_iter()
        .map(|report| {
            let point = rum_point(report.method.clone(), report.ro, report.uo, report.mo);
            Placement { report, point }
        })
        .collect()
}

/// Render the experiment: per-method table, ASCII triangle, CSV.
pub fn render(placements: &[Placement]) -> String {
    let mut out = String::new();
    out.push_str(&RumReport::table_header());
    out.push('\n');
    for p in placements {
        out.push_str(&p.report.table_row());
        out.push('\n');
    }
    let load_ms: f64 = placements
        .iter()
        .map(|p| p.report.load_wall_ns as f64 / 1e6)
        .sum();
    let ops_ms: f64 = placements
        .iter()
        .map(|p| p.report.wall_ns as f64 / 1e6)
        .sum();
    out.push_str(&format!(
        "\ncpu time across methods: bulk load {load_ms:.1} ms, operation phase {ops_ms:.1} ms\n"
    ));
    out.push('\n');
    let points: Vec<RumPoint> = placements.iter().map(|p| p.point.clone()).collect();
    out.push_str(&render_ascii(&points, 72, 24));
    out.push_str("\nCSV:\n");
    out.push_str(&to_csv(&points));
    out
}

/// The paper's qualitative claims about Figure 1, checked.
pub fn shape_checks(placements: &[Placement]) -> Vec<(String, bool)> {
    let get = |name: &str| -> &Placement {
        placements
            .iter()
            .find(|p| p.report.method == name)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    let mut checks: Vec<(String, bool)> = Vec::new();

    // Read-optimized corner (top): the point-indexed structures sit above
    // the differential/log structures.
    for fast in ["b+tree", "hash-index", "trie", "skiplist"] {
        for slow in ["append-log", "lsm-tree-tiered"] {
            checks.push((
                format!("{fast} sits above {slow} (closer to the read corner)"),
                get(fast).point.y > get(slow).point.y,
            ));
        }
    }
    // Write-optimized corner (left): differential structures have lower UO
    // than in-place paged structures.
    for wo in ["append-log", "lsm-tree", "lsm-tree-tiered"] {
        checks.push((
            format!("{wo} has lower UO than b+tree"),
            get(wo).report.uo < get("b+tree").report.uo,
        ));
        checks.push((
            format!("{wo} leans left of b+tree"),
            get(wo).point.x < get("b+tree").point.x + 0.05,
        ));
    }
    // Space corner (right): sparse indexing beats the dense indexes on MO.
    for light in ["zonemap", "sorted-column"] {
        for heavy in ["hash-index", "trie", "skiplist"] {
            checks.push((
                format!("{light} has lower MO than {heavy}"),
                get(light).report.mo < get(heavy).report.mo,
            ));
        }
    }
    // Adaptive methods land in the middle region: better reads than the
    // raw heap they started as, paid for with reorganization writes.
    checks.push((
        "cracked column reads better than a raw heap scan".into(),
        get("cracked-column").report.ro < get("unsorted-column").report.ro,
    ));
    checks.push((
        "cracking pays for adaptivity with write overhead (UO > log's)".into(),
        get("cracked-column").report.uo > get("append-log").report.uo,
    ));
    checks.push((
        "cracked column sits between the heap and the read corner".into(),
        // Compare against byte-granular neighbors (the heap-like column
        // below, the skip list above): cross-granularity y comparisons
        // would mix page charges into the picture.
        get("cracked-column").point.y > get("unsorted-column").point.y
            && get("cracked-column").point.y < get("skiplist").point.y,
    ));
    checks
}
