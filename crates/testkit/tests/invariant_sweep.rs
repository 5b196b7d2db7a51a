//! Invariant sweep: every scenario the repo ships, under every closed-loop
//! policy, replayed through the validating simulator and checked against
//! the paper's hard guarantees — workload conservation (eq. 9), `λij ≥ 0`,
//! M/M/n latency feasibility, and accumulated-cost consistency. The power
//! budget is a *soft* invariant (MPC transients may legitimately overshoot
//! for a step or two), so sweeps gate on [`Report::hard_clean`] and report
//! the worst budget margin instead of failing on it.

use idc_core::policy::{MpcPolicy, OptimalPolicy, Policy, ReferenceKind, StaticProportionalPolicy};
use idc_core::scenario::{
    demand_charge_scenario, diurnal_day_scenario, mmpp_hour_scenario, noisy_day_scenario,
    peak_shaving_scenario, smoothing_scenario, smoothing_scenario_table_ii,
    storage_peak_shaving_scenario, storage_plus_shifting_scenario, vicious_cycle_scenario,
    Scenario,
};
use idc_core::simulation::Simulator;
use idc_testkit::invariants::{check_run, Tolerances, ViolationKind};

/// Every scenario constructor the repo ships.
fn all_scenarios() -> Vec<Scenario> {
    vec![
        smoothing_scenario(),
        peak_shaving_scenario(),
        smoothing_scenario_table_ii(),
        vicious_cycle_scenario(0.9),
        noisy_day_scenario(2012),
        diurnal_day_scenario(2012),
        mmpp_hour_scenario(2012),
        storage_peak_shaving_scenario(),
        demand_charge_scenario(2012),
        storage_plus_shifting_scenario(2012),
    ]
}

/// Policy constructors paired with labels, fresh per scenario.
fn all_policies(scenario: &Scenario) -> Vec<(&'static str, Box<dyn Policy>)> {
    vec![
        (
            "mpc",
            Box::new(MpcPolicy::paper_tuned(scenario).expect("mpc policy")) as Box<dyn Policy>,
        ),
        (
            "optimal-greedy",
            Box::new(OptimalPolicy::new(ReferenceKind::PriceGreedy)),
        ),
        (
            "optimal-lp",
            Box::new(OptimalPolicy::new(ReferenceKind::LpOptimal)),
        ),
        ("static", Box::new(StaticProportionalPolicy::new())),
    ]
}

#[test]
fn every_scenario_and_policy_keeps_the_hard_invariants() {
    let mut swept = 0usize;
    for scenario in all_scenarios() {
        for (label, mut policy) in all_policies(&scenario) {
            let result = Simulator::with_validation()
                .run(&scenario, policy.as_mut())
                .unwrap_or_else(|e| panic!("{}/{label}: simulation failed: {e}", scenario.name()));
            let report = check_run(&scenario, &result, &Tolerances::default());
            assert!(
                report.hard_clean(),
                "{}/{label}:\n{}",
                scenario.name(),
                report.render()
            );
            assert!(report.checks > 0);
            swept += 1;
        }
    }
    // 10 scenarios × 4 policies: a silent drop in coverage is a failure too.
    assert_eq!(swept, 40);
}

#[test]
fn budget_scenarios_report_margins_and_bound_overshoot() {
    let scenario = peak_shaving_scenario();
    for (label, mut policy) in all_policies(&scenario) {
        let result = Simulator::with_validation()
            .run(&scenario, policy.as_mut())
            .expect("simulation");
        let report = check_run(&scenario, &result, &Tolerances::default());
        let (step, idc, margin) = report
            .worst_budget_margin_mw
            .unwrap_or_else(|| panic!("{label}: no budget margin on a budgeted scenario"));
        assert!(idc < result.num_idcs() && step < result.times_min().len());
        // Whatever the policy, the trajectory must stay in the budget
        // regime: overshoot bounded, not the unclamped optimum.
        assert!(
            margin > -3.0,
            "{label}: worst margin {margin:.3} MW\n{}",
            report.render()
        );
    }
}

#[test]
fn unvalidated_runs_are_rejected_not_miscounted() {
    let scenario = smoothing_scenario();
    let result = Simulator::new()
        .run(
            &scenario,
            &mut OptimalPolicy::new(ReferenceKind::PriceGreedy),
        )
        .expect("simulation");
    let report = check_run(&scenario, &result, &Tolerances::default());
    assert_eq!(report.of_kind(ViolationKind::MissingData).len(), 1);
    assert!(!report.is_clean());
}
