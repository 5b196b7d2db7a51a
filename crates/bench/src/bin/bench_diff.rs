//! `bench_diff` — compares two `BENCH_mpc.json` files and flags
//! step-timing and solver-counter regressions.
//!
//! ```text
//! cargo run -p idc-bench --bin bench_diff -- \
//!     BASELINE.json CURRENT.json [--threshold F] [--iters-threshold F] [--warn-only]
//! ```
//!
//! Rows are keyed by `(idcs, portals, backend)` and matched across the
//! two files; the comparison metrics are `warm_ms` and `cold_ms` for
//! `single_step` rows (the cold step carries the structure build and the
//! solver's `prepare`, which warm steps skip; its gated row is
//! `single_cold`), `warm_ms_per_step` for `end_to_end` and
//! `storage_end_to_end` rows (warm solves are the steady-state cost of the
//! controller) and eight hardware-free `solve_stats`
//! counters of the same rows — `iterations_per_step`,
//! `refinement_passes_per_step`, `refactorizations_per_step`,
//! `updates_applied_per_step`, `downdates_applied_per_step`,
//! `cold_fallbacks`, `degenerate_pops` and `bland_switches` — which
//! catch active-set, working-set churn and factor-stability regressions
//! that shared-runner timing noise would hide. The last three are zero in
//! a healthy run: a counter that is zero in the baseline fails on any
//! occurrence. `readmissions_per_step` is reported in the rows but not
//! gated, since its baseline can be zero on a small window; so is
//! `step_updates_per_step` and `bound_flips_per_step` (working bounds
//! flipped onto their tight opposite bound instead of dropped), which
//! `bench_diff` prints with the status `reported` and never gates.
//! Storage rows carry a ` +storage` key suffix so they never collide
//! with the plain row at the same size and backend.
//! A row regresses when `current > baseline * (1 + threshold)`; both
//! thresholds are relative (`--threshold`, default 0.10 = 10%, gates the
//! timing rows; `--iters-threshold`, default 0.25, gates the counter
//! rows). Improvements and rows present on only one side are reported
//! but never gated on.
//!
//! Exit status: 0 when no row regresses (or with `--warn-only`, always,
//! so CI can surface the table without flaking on shared-runner noise),
//! 1 on regression, 2 on usage/parse errors.

use serde::Value;

/// The hardware-free `solve_stats` counters of the end-to-end rows, as
/// `(table, key)`; each is gated at `--iters-threshold`. The updates and
/// downdates are the working set's rank-1 factor work, so a pivot rule
/// that drops rows only to re-admit them fails here. The last three are
/// zero in a healthy run, so any occurrence over a zero baseline fails
/// (see [`relative_change`]).
const COUNTER_GATES: [(&str, &str); 8] = [
    ("iterations", "iterations_per_step"),
    ("refinements", "refinement_passes_per_step"),
    ("refactorizations", "refactorizations_per_step"),
    ("updates", "updates_applied_per_step"),
    ("downdates", "downdates_applied_per_step"),
    ("cold_fallbacks", "cold_fallbacks"),
    ("degenerate_pops", "degenerate_pops"),
    ("bland_switches", "bland_switches"),
];

/// `solve_stats` counters of the end-to-end rows that are printed but never
/// gated, as `(table, key)`: the KKT solves replaced by step updates and
/// the bound flips can be zero on a small window, and any count over a
/// zero baseline would fail.
const COUNTER_REPORTS: [(&str, &str); 2] = [
    ("step_updates", "step_updates_per_step"),
    ("bound_flips", "bound_flips_per_step"),
];

/// Whether `table` holds one of the [`COUNTER_GATES`] counters.
fn is_counter(table: &str) -> bool {
    COUNTER_GATES.iter().any(|&(t, _)| t == table)
}

/// The status of a row whose value changed by `rel`: timing rows are
/// gated at `threshold`, [`COUNTER_GATES`] rows at `iters_threshold`, and
/// [`COUNTER_REPORTS`] rows never.
fn row_status(table: &str, rel: f64, threshold: f64, iters_threshold: f64) -> &'static str {
    if COUNTER_REPORTS.iter().any(|&(t, _)| t == table) {
        return "reported";
    }
    let row_threshold = if is_counter(table) {
        iters_threshold
    } else {
        threshold
    };
    if rel > row_threshold {
        "REGRESSED"
    } else if rel < -row_threshold {
        "improved"
    } else {
        "ok"
    }
}

/// Relative change `cur/base − 1` of a row. Over a zero baseline, a
/// counter that became nonzero is an unbounded regression; any other zero
/// baseline compares as unchanged.
fn relative_change(table: &str, base: f64, cur: f64) -> f64 {
    if base > 0.0 {
        cur / base - 1.0
    } else if is_counter(table) && cur > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// A comparable row: table name, key, and the compared metric (step
/// wall-clock for the timing tables, a count for the
/// [`COUNTER_GATES`] tables).
struct Row {
    table: &'static str,
    key: String,
    value: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_diff BASELINE.json CURRENT.json [--threshold F] \
         [--iters-threshold F] [--warn-only]\n\
         \x20 compares warm- and cold-step timings and solver counters (iterations,\n\
         \x20 refinement passes, refactorizations, factor updates and downdates,\n\
         \x20 cold fallbacks, degenerate pops, Bland switches) row by row; exits 1 when any timing row regresses by\n\
         \x20 more than --threshold (default 0.10) or any counter row by more than\n\
         \x20 --iters-threshold (default 0.25), both relative"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_diff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("bench_diff: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn number(value: &Value, key: &str) -> Option<f64> {
    match value.get(key) {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    }
}

fn text<'v>(value: &'v Value, key: &str) -> Option<&'v str> {
    match value.get(key) {
        Some(Value::String(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Extracts the comparable rows of one `BENCH_mpc.json` document.
fn rows(doc: &Value) -> Vec<Row> {
    let mut out = Vec::new();
    // (document table, compared metric, row table)
    for (table, metric, label) in [
        ("single_step", "warm_ms", "single_step"),
        ("single_step", "cold_ms", "single_cold"),
        ("end_to_end", "warm_ms_per_step", "end_to_end"),
        (
            "storage_end_to_end",
            "warm_ms_per_step",
            "storage_end_to_end",
        ),
    ] {
        let Some(Value::Array(items)) = doc.get(table) else {
            continue;
        };
        for item in items {
            let (Some(idcs), Some(portals), Some(backend)) = (
                number(item, "idcs"),
                number(item, "portals"),
                text(item, "backend"),
            ) else {
                continue;
            };
            let Some(value) = number(item, metric) else {
                continue;
            };
            let mut key = format!("{}x{} {backend}", idcs as u64, portals as u64);
            if table == "storage_end_to_end" {
                key.push_str(" +storage");
            }
            // The end-to-end rows carry nested solver introspection; gate
            // its counters too — they are hardware-independent, so they
            // catch solver regressions that timing noise hides.
            let stats = item
                .get("solve_stats")
                .filter(|_| metric == "warm_ms_per_step");
            for (counter, field) in COUNTER_GATES.into_iter().chain(COUNTER_REPORTS) {
                if let Some(count) = stats.and_then(|stats| number(stats, field)) {
                    out.push(Row {
                        table: counter,
                        key: key.clone(),
                        value: count,
                    });
                }
            }
            out.push(Row {
                table: label,
                key,
                value,
            });
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = 0.10f64;
    let mut iters_threshold = 0.25f64;
    let mut warn_only = false;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--iters-threshold" => {
                iters_threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--warn-only" => warn_only = true,
            "--help" | "-h" => usage(),
            other if !other.starts_with("--") => paths.push(other.to_string()),
            _ => usage(),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        usage()
    };
    let baseline = rows(&load(baseline_path));
    let current = rows(&load(current_path));

    println!(
        "## bench_diff — {baseline_path} -> {current_path} \
         (timing threshold {:.0}%, counter threshold {:.0}%)",
        100.0 * threshold,
        100.0 * iters_threshold
    );
    println!(
        "{:<16} {:<28} {:>12} {:>12} {:>9} {:>10}",
        "table", "row", "base ms", "cur ms", "change", "status"
    );
    let mut regressions = 0usize;
    for base_row in &baseline {
        let Some(cur_row) = current
            .iter()
            .find(|r| r.table == base_row.table && r.key == base_row.key)
        else {
            println!(
                "{:<16} {:<28} {:>12.3} {:>12} {:>9} {:>10}",
                base_row.table, base_row.key, base_row.value, "-", "-", "MISSING"
            );
            continue;
        };
        let rel = relative_change(base_row.table, base_row.value, cur_row.value);
        let status = row_status(base_row.table, rel, threshold, iters_threshold);
        regressions += usize::from(status == "REGRESSED");
        println!(
            "{:<16} {:<28} {:>12.3} {:>12.3} {:>+8.1}% {:>10}",
            base_row.table,
            base_row.key,
            base_row.value,
            cur_row.value,
            100.0 * rel,
            status
        );
    }
    for cur_row in &current {
        if !baseline
            .iter()
            .any(|r| r.table == cur_row.table && r.key == cur_row.key)
        {
            println!(
                "{:<16} {:<28} {:>12} {:>12.3} {:>9} {:>10}",
                cur_row.table, cur_row.key, "-", cur_row.value, "-", "NEW"
            );
        }
    }
    if baseline.is_empty() {
        eprintln!("bench_diff: no comparable rows in {baseline_path}");
        std::process::exit(2);
    }
    if regressions > 0 {
        eprintln!(
            "bench_diff: {regressions} row(s) regressed beyond their threshold{}",
            if warn_only { " (warn-only)" } else { "" }
        );
        if !warn_only {
            std::process::exit(1);
        }
    } else {
        println!("bench_diff: no step-timing or solver-counter regressions");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_rows_yield_timing_and_every_counter_gate() {
        let doc: Value = serde_json::from_str(
            r#"{"end_to_end": [{"idcs": 8, "portals": 15, "backend": "banded",
                "warm_ms_per_step": 12.5,
                "solve_stats": {"iterations_per_step": 23.5,
                    "refinement_passes_per_step": 24.0,
                    "refactorizations_per_step": 1.0,
                    "updates_applied_per_step": 30.0,
                    "downdates_applied_per_step": 20.0,
                    "readmissions_per_step": 5.0}}],
               "single_step": [{"idcs": 8, "portals": 15, "backend": "banded",
                "cold_ms": 40.0, "warm_ms": 3.0,
                "solve_stats": {"iterations_per_step": 9.0}}]}"#,
        )
        .unwrap();
        let found: Vec<(&str, String, f64)> = rows(&doc)
            .into_iter()
            .map(|r| (r.table, r.key, r.value))
            .collect();
        let key = "8x15 banded".to_string();
        assert_eq!(
            found,
            vec![
                ("single_step", key.clone(), 3.0),
                ("single_cold", key.clone(), 40.0),
                ("iterations", key.clone(), 23.5),
                ("refinements", key.clone(), 24.0),
                ("refactorizations", key.clone(), 1.0),
                ("updates", key.clone(), 30.0),
                ("downdates", key.clone(), 20.0),
                ("end_to_end", key, 12.5),
            ]
        );
    }

    /// The warm solve's timed split is reported, never gated: it adds no
    /// row, so it cannot trip the counter threshold.
    #[test]
    fn solve_split_timings_are_not_gated() {
        let doc = |split: &str| -> Value {
            serde_json::from_str(&format!(
                r#"{{"end_to_end": [{{"idcs": 8, "portals": 15, "backend": "banded",
                    "warm_ms_per_step": 0.7,
                    "warm_solve_split_ms_per_step": {split},
                    "solve_stats": {{"iterations_per_step": 13.0}}}}]}}"#
            ))
            .unwrap()
        };
        let plain: Vec<(&str, f64)> = rows(&doc("{}"))
            .iter()
            .map(|r| (r.table, r.value))
            .collect();
        let split = doc(
            r#"{"update": 0.3, "factor_solve": 0.05, "sweep": 0.1, "ratio_test": 0.05, "residual": 0.02}"#,
        );
        let with_split: Vec<(&str, f64)> =
            rows(&split).iter().map(|r| (r.table, r.value)).collect();
        assert_eq!(plain, with_split);
        assert_eq!(plain, vec![("iterations", 13.0), ("end_to_end", 0.7)]);
    }

    #[test]
    fn zero_baseline_counter_that_becomes_nonzero_regresses() {
        let doc = |fallbacks: u32| -> Value {
            serde_json::from_str(&format!(
                r#"{{"end_to_end": [{{"idcs": 3, "portals": 5, "backend": "banded",
                    "warm_ms_per_step": 0.05,
                    "solve_stats": {{"cold_fallbacks": {fallbacks},
                        "degenerate_pops": 0, "bland_switches": 0}}}}]}}"#
            ))
            .unwrap()
        };
        let counter = |doc: &Value, table: &str| {
            rows(doc)
                .into_iter()
                .find(|r| r.table == table)
                .map(|r| r.value)
                .unwrap()
        };
        let (base, cur) = (doc(0), doc(1));
        let rel = relative_change(
            "cold_fallbacks",
            counter(&base, "cold_fallbacks"),
            counter(&cur, "cold_fallbacks"),
        );
        assert!(rel > 0.25, "{rel}");
        for table in ["cold_fallbacks", "degenerate_pops", "bland_switches"] {
            let zero = counter(&base, table);
            assert_eq!(relative_change(table, zero, zero), 0.0);
        }
        // A zero timing baseline still compares as unchanged.
        assert_eq!(relative_change("end_to_end", 0.0, 1.0), 0.0);
    }

    /// Step updates and bound flips appear as rows but never gate, even
    /// over a zero baseline.
    #[test]
    fn step_updates_are_reported_never_gated() {
        let doc: Value = serde_json::from_str(
            r#"{"end_to_end": [{"idcs": 3, "portals": 5, "backend": "banded",
                "warm_ms_per_step": 0.05,
                "solve_stats": {"iterations_per_step": 2.0,
                    "step_updates_per_step": 0.0, "bound_flips_per_step": 0.0}}]}"#,
        )
        .unwrap();
        let tables: Vec<&str> = rows(&doc).iter().map(|r| r.table).collect();
        assert_eq!(
            tables,
            vec!["iterations", "step_updates", "bound_flips", "end_to_end"]
        );
        for table in ["step_updates", "bound_flips"] {
            let rel = relative_change(table, 0.0, 20.0);
            assert_eq!(row_status(table, rel, 0.1, 0.25), "reported");
            assert_eq!(row_status(table, 3.0, 0.1, 0.25), "reported");
        }
        assert_eq!(row_status("iterations", 0.3, 0.1, 0.25), "REGRESSED");
        assert_eq!(row_status("end_to_end", 0.2, 0.1, 0.25), "REGRESSED");
        assert_eq!(row_status("iterations", 0.2, 0.1, 0.25), "ok");
    }
}
