//! Solver introspection counters checked against replayed problems.
//!
//! Problems are captured from a real closed-loop run
//! (`record_problems: true`), then re-solved by fresh production
//! controllers: the [`SolveStats`] the controller accumulates must agree
//! with the per-plan iteration count the plan itself reports, and the
//! naive testkit oracle must still solve every problem the counters were
//! measured on (so a miscounting solver cannot hide behind an unsolvable
//! instance).

use idc_control::mpc::{MpcConfig, MpcController, MpcProblem, SolverBackend};
use idc_core::metrics::SolveStats;
use idc_core::policy::{MpcPolicy, MpcPolicyConfig};
use idc_core::scenario::smoothing_scenario;
use idc_core::simulation::Simulator;
use idc_testkit::oracle::replay_qp;

/// Captures every per-step problem the paper MPC assembles on the
/// smoothing scenario.
fn capture_problems() -> (MpcConfig, Vec<MpcProblem>) {
    let scenario = smoothing_scenario();
    let config = MpcPolicyConfig {
        budgets: scenario.budgets().cloned(),
        record_problems: true,
        ..MpcPolicyConfig::default()
    };
    let mpc = config.mpc;
    let mut policy = MpcPolicy::new(config).expect("policy config");
    Simulator::new()
        .run(&scenario, &mut policy)
        .expect("simulation");
    let problems = policy.recorded_problems().to_vec();
    assert!(!problems.is_empty(), "no problems recorded");
    (mpc, problems)
}

#[test]
fn cold_solve_stats_match_reported_iterations_on_replayed_problems() {
    let (mpc, problems) = capture_problems();
    let mpc = MpcConfig {
        backend: SolverBackend::BandedRiccati,
        ..mpc
    };
    for (idx, problem) in problems.iter().enumerate().step_by(5) {
        let tag = format!("step {idx}");
        let oracle = replay_qp(&mpc, problem)
            .unwrap_or_else(|| panic!("{tag}: oracle failed on a captured problem"));
        assert!(oracle.iterations > 0, "{tag}: oracle reported zero work");

        let mut controller = MpcController::new(mpc);
        let before = controller.solve_stats();
        assert_eq!(before, SolveStats::default(), "{tag}: fresh controller");
        let plan = controller
            .plan_cold(problem)
            .unwrap_or_else(|e| panic!("{tag}: production solve failed: {e}"));
        let stats = controller.solve_stats();

        assert_eq!(stats.solves, 1, "{tag}: one plan, one solve");
        assert_eq!(
            stats.iterations,
            plan.qp_iterations() as u64,
            "{tag}: accumulated iterations must equal the plan's report"
        );
        assert_eq!(
            stats.cold_fallbacks, 0,
            "{tag}: cold plan is not a fallback"
        );
        assert_eq!(
            stats.seed_offered, 0,
            "{tag}: cold plan offers no warm seed"
        );
        assert!(
            stats.constraints_added + stats.seed_accepted >= stats.constraints_dropped,
            "{tag}: cannot drop constraints that never entered the working set"
        );
    }
}

#[test]
fn warm_replay_accumulates_and_reports_seed_survival() {
    let (mpc, problems) = capture_problems();
    assert!(problems.len() >= 3, "need a few steps to warm-start across");
    let mut controller = MpcController::new(MpcConfig {
        backend: SolverBackend::BandedRiccati,
        ..mpc
    });
    let mut reported: u64 = 0;
    for problem in &problems[..3] {
        let plan = controller
            .plan(problem)
            .unwrap_or_else(|e| panic!("warm solve failed: {e}"));
        reported += plan.qp_iterations() as u64;
    }
    let stats = controller.solve_stats();
    assert_eq!(stats.solves, 3, "three plans, three solves");
    assert_eq!(
        stats.iterations, reported,
        "accumulated iterations must equal the sum of per-plan reports"
    );
    assert!(
        stats.seed_accepted <= stats.seed_offered,
        "cannot accept more seed constraints than were offered"
    );
    let survival = stats.seed_survival();
    assert!(
        (0.0..=1.0).contains(&survival),
        "survival fraction out of range: {survival}"
    );

    controller.reset_solve_stats();
    assert_eq!(
        controller.solve_stats(),
        SolveStats::default(),
        "reset must zero the counters"
    );
}
