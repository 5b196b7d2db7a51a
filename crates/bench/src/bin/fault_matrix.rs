//! `fault_matrix` — the seeded fault-injection matrix as a CI gate.
//!
//! Runs every batch fault kind (price spike, hold-last-value dropout,
//! amplified prediction error, forced solver failure, forced factor
//! refactorization, battery outage) across a fixed seed set on the
//! paper's smoothing scenario. Each cell is executed **twice** and the two
//! trajectories compared field-for-field: a deterministic harness must
//! reproduce byte-identically or the cell fails. Cells also fail on hard
//! invariant violations; budget overshoot and fallback activations are
//! reported, not gated. One timed row per cell.
//!
//! Run with: `cargo run --release -p idc-bench --bin fault_matrix`
//!
//! `--no-timing` prints `-` in the wall-clock `ms` column, so two runs of
//! the same build print byte-identical output (CI compares two such runs
//! with `cmp`). `--seed N` restricts the matrix to a single fault seed
//! (default: the built-in seed set) and `--steps N` changes the scenario
//! length (default: the smoothing scenario's 25 periods) — the defaults
//! leave the golden output unchanged. `--trace-out PATH` additionally
//! records every cell (and the spans inside it) through the flight
//! recorder and writes a Chrome trace-event file; the console output is
//! unchanged, so it composes with `--no-timing`.

use std::time::Instant;

use idc_core::scenario::smoothing_scenario;
use idc_testkit::faults::{FaultKind, FaultPlan};

const SEEDS: [u64; 3] = [7, 2012, 0xFEED];

/// Reads the value of `--<flag> N` from `args`, if the flag is present.
/// Exits with a message on an unparsable value.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("{flag} needs a numeric value");
                std::process::exit(2);
            })
    })
}

/// Reads the value of `--trace-out PATH` and installs the global flight
/// recorder when present.
fn trace_flag(args: &[String]) -> Option<String> {
    let i = args.iter().position(|a| a == "--trace-out")?;
    let path = args.get(i + 1).cloned().unwrap_or_else(|| {
        eprintln!("--trace-out needs a path");
        std::process::exit(2);
    });
    idc_obs::install_global_recorder(1 << 20);
    Some(path)
}

fn main() -> Result<(), idc_core::Error> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let timing = !args.iter().any(|a| a == "--no-timing");
    let trace_out = trace_flag(&args);
    let seeds: Vec<u64> = match flag_value(&args, "--seed") {
        Some(s) => vec![s],
        None => SEEDS.to_vec(),
    };
    let base = match flag_value::<usize>(&args, "--steps") {
        Some(n) => smoothing_scenario().with_num_steps(n),
        None => smoothing_scenario(),
    };
    println!(
        "## fault_matrix — {} kinds × {} seeds on '{}'",
        FaultKind::ALL.len(),
        seeds.len(),
        base.name()
    );
    println!(
        "{:<18} {:>8} {:>12} {:>6} {:>6} {:>10} {:>12} {:>9}",
        "fault", "seed", "cost $", "soft", "hard", "fallbacks", "reproduced", "ms"
    );
    let mut failures = Vec::new();
    for kind in FaultKind::ALL {
        for seed in seeds.iter().copied() {
            let plan = FaultPlan::new(kind, seed);
            let cell_span =
                idc_obs::Span::enter_cat(format!("fault.{}#{seed}", kind.label()), "verify");
            let t = Instant::now();
            let first = plan.run(&base)?;
            let second = plan.run(&base)?;
            let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
            drop(cell_span);
            let reproduced = first.result == second.result
                && first.report.violations == second.report.violations
                && first.fallback_steps == second.fallback_steps;
            let hard = first.report.hard_violations();
            let soft = first.report.violations.len() - hard;
            let ms = if timing {
                format!("{elapsed_ms:.1}")
            } else {
                "-".to_string()
            };
            println!(
                "{:<18} {:>8} {:>12.2} {:>6} {:>6} {:>10} {:>12} {:>9}",
                kind.label(),
                seed,
                first.result.total_cost(),
                soft,
                hard,
                first.fallback_steps.len(),
                if reproduced { "yes" } else { "NO" },
                ms
            );
            if !reproduced {
                failures.push(format!("{kind}#{seed}: re-run diverged"));
            }
            if hard > 0 {
                eprintln!("{}", first.report.render());
                failures.push(format!("{kind}#{seed}: {hard} hard violation(s)"));
            }
        }
    }
    if let Some(path) = &trace_out {
        std::fs::write(path, idc_obs::export_global_trace())
            .map_err(|e| idc_core::Error::Config(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote Chrome trace to {path}");
    }
    if failures.is_empty() {
        println!("fault matrix OK");
        Ok(())
    } else {
        Err(idc_core::Error::Config(failures.join("; ")))
    }
}
