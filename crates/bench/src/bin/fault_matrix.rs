//! `fault_matrix` — the seeded fault-injection matrix as a CI gate.
//!
//! Runs every batch fault kind (price spike, hold-last-value dropout,
//! amplified prediction error, forced solver failure, forced factor
//! refactorization, battery outage) across a fixed seed set on the
//! paper's smoothing scenario. Each cell is executed **twice** and the two
//! trajectories compared field-for-field: a deterministic harness must
//! reproduce byte-identically or the cell fails. Cells also fail on hard
//! invariant violations; budget overshoot and fallback activations are
//! reported, not gated. One row per cell.
//!
//! Run with: `cargo run --release -p idc-bench --bin fault_matrix`
//!
//! The output carries no wall-clock time, so two runs of the same build
//! print byte-identical output. `--seed N` restricts the matrix to a
//! single fault seed (default: the built-in seed set) and `--steps N`
//! changes the scenario length (default: the smoothing scenario's 25
//! periods) — the defaults leave the golden output unchanged.
//! `--trace-out PATH` additionally records every cell (and the spans
//! inside it) through the flight recorder and writes a Chrome trace-event
//! file; the console output is unchanged, so CI compares a traced run
//! with a plain one using `cmp`.

use idc_core::scenario::smoothing_scenario;
use idc_testkit::faults::{FaultKind, FaultPlan};

const SEEDS: [u64; 3] = [7, 2012, 0xFEED];

fn main() -> Result<(), idc_core::Error> {
    let args = idc_bench::parse_gate_args("fault_matrix");
    let trace_out = args.trace_out;
    let seeds: Vec<u64> = match args.seed {
        Some(s) => vec![s],
        None => SEEDS.to_vec(),
    };
    let base = match args.steps {
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
        "{:<18} {:>8} {:>12} {:>6} {:>6} {:>10} {:>12}",
        "fault", "seed", "cost $", "soft", "hard", "fallbacks", "reproduced"
    );
    let mut failures = Vec::new();
    for kind in FaultKind::ALL {
        for seed in seeds.iter().copied() {
            let plan = FaultPlan::new(kind, seed);
            let cell_span =
                idc_obs::Span::enter_cat(format!("fault.{}#{seed}", kind.label()), "verify");
            let first = plan.run(&base)?;
            let second = plan.run(&base)?;
            drop(cell_span);
            let reproduced = first.result == second.result
                && first.report.violations == second.report.violations
                && first.fallback_steps == second.fallback_steps;
            let hard = first.report.hard_violations();
            let soft = first.report.violations.len() - hard;
            println!(
                "{:<18} {:>8} {:>12.2} {:>6} {:>6} {:>10} {:>12}",
                kind.label(),
                seed,
                first.result.total_cost(),
                soft,
                hard,
                first.fallback_steps.len(),
                if reproduced { "yes" } else { "NO" }
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
