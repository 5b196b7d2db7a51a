//! `verify_invariants` — the testkit invariant sweep as a CI gate.
//!
//! Replays every scenario the repo ships under every closed-loop policy
//! through the validating simulator, checks the paper's trajectory
//! invariants (conservation eq. 9, `λij ≥ 0`, M/M/n latency, budget
//! margin, accumulated-cost consistency), prints one row per cell,
//! and exits nonzero if any *hard* invariant is violated. Budget overshoot
//! is soft — MPC transients may briefly exceed `P_rb` — so it is reported
//! (worst margin, MW) rather than gated on.
//!
//! Run with: `cargo run --release -p idc-bench --bin verify_invariants`
//!
//! The output carries no wall-clock time, so it is byte-reproducible
//! (`repro_all`'s combined output must be identical across runs).
//! `--seed N` overrides the stochastic scenarios' workload seed (default
//! 2012) and `--steps N` truncates or extends every scenario to N sampling
//! periods (default: each scenario's own length) — the defaults leave the
//! golden output unchanged.
//! `--trace-out PATH` records per-cell timings (and the MPC spans inside
//! each cell) through the flight recorder and writes a Chrome trace-event
//! file on exit; it does not change the console output.

use idc_core::policy::{MpcPolicy, OptimalPolicy, Policy, ReferenceKind, StaticProportionalPolicy};
use idc_core::scenario::{
    demand_charge_scenario, diurnal_day_scenario, mmpp_hour_scenario, noisy_day_scenario,
    peak_shaving_scenario, smoothing_scenario, smoothing_scenario_table_ii,
    storage_peak_shaving_scenario, storage_plus_shifting_scenario, vicious_cycle_scenario,
    Scenario,
};
use idc_core::simulation::Simulator;
use idc_testkit::invariants::{check_run, Tolerances};

fn scenarios(seed: u64, steps: Option<usize>) -> Vec<Scenario> {
    let base = vec![
        smoothing_scenario(),
        peak_shaving_scenario(),
        smoothing_scenario_table_ii(),
        vicious_cycle_scenario(0.9),
        noisy_day_scenario(seed),
        diurnal_day_scenario(seed),
        mmpp_hour_scenario(seed),
        storage_peak_shaving_scenario(),
        demand_charge_scenario(seed),
        storage_plus_shifting_scenario(seed),
    ];
    match steps {
        Some(n) => base.into_iter().map(|s| s.with_num_steps(n)).collect(),
        None => base,
    }
}

fn policies(scenario: &Scenario) -> Vec<(&'static str, Box<dyn Policy>)> {
    vec![
        (
            "mpc",
            Box::new(MpcPolicy::paper_tuned(scenario).expect("mpc policy")) as Box<dyn Policy>,
        ),
        (
            "optimal",
            Box::new(OptimalPolicy::new(ReferenceKind::PriceGreedy)),
        ),
        ("lp", Box::new(OptimalPolicy::new(ReferenceKind::LpOptimal))),
        ("static", Box::new(StaticProportionalPolicy::new())),
    ]
}

fn main() -> Result<(), idc_core::Error> {
    let args = idc_bench::parse_gate_args("verify_invariants");
    let trace_out = args.trace_out;
    let seed = args.seed.unwrap_or(2012);
    let steps = args.steps;
    println!("## verify_invariants — invariant sweep, all scenarios × policies");
    println!(
        "{:<42} {:>8} {:>8} {:>6} {:>6} {:>16}",
        "scenario", "policy", "checks", "soft", "hard", "budget margin MW"
    );
    let mut hard_failures = Vec::new();
    for scenario in scenarios(seed, steps) {
        for (label, mut policy) in policies(&scenario) {
            let cell_span =
                idc_obs::Span::enter_cat(format!("verify.{}/{label}", scenario.name()), "verify");
            let result = Simulator::with_validation().run(&scenario, policy.as_mut())?;
            let report = check_run(&scenario, &result, &Tolerances::default());
            drop(cell_span);
            let soft = report.violations.len() - report.hard_violations();
            let hard = report.hard_violations();
            let margin = report
                .worst_budget_margin_mw
                .map_or_else(|| "-".into(), |(_, _, m)| format!("{m:+.4}"));
            println!(
                "{:<42} {:>8} {:>8} {:>6} {:>6} {:>16}",
                scenario.name(),
                label,
                report.checks,
                soft,
                hard,
                margin
            );
            if hard > 0 {
                eprintln!("{}", report.render());
                hard_failures.push(format!("{} / {label}", scenario.name()));
            }
        }
    }
    if let Some(path) = &trace_out {
        std::fs::write(path, idc_obs::export_global_trace())
            .map_err(|e| idc_core::Error::Config(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote Chrome trace to {path}");
    }
    if hard_failures.is_empty() {
        println!("invariant sweep OK");
        Ok(())
    } else {
        Err(idc_core::Error::Config(format!(
            "hard invariant violations in: {}",
            hard_failures.join(", ")
        )))
    }
}
