//! Fault-injection matrix: seeded disturbances (price spikes, hold-last-
//! value dropouts, amplified prediction error, forced solver failures)
//! applied to real scenarios. Every cell must (a) reproduce byte-for-byte
//! when re-run, (b) complete without panicking, and (c) either keep the
//! hard trajectory invariants or surface the violations in the report —
//! never silently corrupt the trajectory.

use idc_core::scenario::smoothing_scenario;
use idc_testkit::faults::{FaultKind, FaultPlan};

const SEEDS: [u64; 3] = [7, 2012, 0xFEED];

#[test]
fn every_fault_cell_is_reproducible_and_degrades_gracefully() {
    let base = smoothing_scenario();
    let mut cells = 0usize;
    for kind in FaultKind::ALL {
        for seed in SEEDS {
            let plan = FaultPlan::new(kind, seed);
            let first = plan.run(&base).expect("fault run");
            let second = plan.run(&base).expect("fault re-run");

            // (a) Byte-reproducible: the same plan yields the identical
            // trajectory, not merely a statistically similar one.
            assert_eq!(
                first.result, second.result,
                "{kind}#{seed}: re-run diverged"
            );
            assert_eq!(first.report.violations, second.report.violations);
            assert_eq!(first.fallback_steps, second.fallback_steps);

            // (c) Hard invariants survive the disturbance: conservation,
            // non-negativity, latency and cost consistency are exactly the
            // guarantees faults must not break. (Budget overshoot stays a
            // surfaced soft violation.)
            assert!(
                first.report.hard_clean(),
                "{kind}#{seed}:\n{}",
                first.report.render()
            );
            cells += 1;
        }
    }
    assert_eq!(cells, FaultKind::ALL.len() * SEEDS.len());
}

#[test]
fn solver_failures_actually_exercise_the_fallback_path() {
    let base = smoothing_scenario();
    for seed in SEEDS {
        let plan = FaultPlan::new(FaultKind::SolverFailure, seed);
        let (_, config) = plan.apply(&base).expect("applies");
        let run = plan.run(&base).expect("fault run");
        // Every injected failure step must show up as a recorded fallback:
        // the policy degraded instead of crashing or ignoring the fault.
        for step in &config.forced_failure_steps {
            assert!(
                run.fallback_steps.contains(step),
                "seed {seed}: forced step {step} not in fallbacks {:?}",
                run.fallback_steps
            );
        }
        assert!(run.report.hard_clean(), "{}", run.report.render());
    }
}

#[test]
fn fault_kinds_actually_change_the_trajectory() {
    // A fault harness that injects no-ops would pass everything above
    // (the perturbed scenario is *renamed*, so whole-result inequality is
    // vacuous); compare name-independent data instead. Price faults are
    // anchored inside the simulated span, so the recorded price stream
    // must move; the other kinds must move the power/cost trajectory.
    use idc_core::policy::MpcPolicy;
    use idc_core::simulation::Simulator;
    let base = smoothing_scenario();
    let clean = Simulator::with_validation()
        .run(&base, &mut MpcPolicy::paper_tuned(&base).unwrap())
        .expect("clean run");
    let spike_moved = SEEDS.iter().any(|&seed| {
        let run = FaultPlan::new(FaultKind::PriceSpike, seed)
            .run(&base)
            .expect("fault run");
        run.result.prices() != clean.prices()
    });
    assert!(spike_moved, "no seed's spike changed the recorded prices");
    // A dropout holding an already-constant hourly price is invisible, so
    // short scenarios cannot witness hold-last-value. Check it on the
    // 24-hour diurnal day, where a 2–5 h hold must span hourly changes.
    use idc_core::scenario::diurnal_day_scenario;
    let day = diurnal_day_scenario(2012);
    let day_clean = Simulator::with_validation()
        .run(&day, &mut MpcPolicy::paper_tuned(&day).unwrap())
        .expect("clean day run");
    let dropout_moved = SEEDS.iter().any(|&seed| {
        let run = FaultPlan::new(FaultKind::PriceDropout, seed)
            .run(&day)
            .expect("fault run");
        run.result.prices() != day_clean.prices()
    });
    assert!(
        dropout_moved,
        "no seed's dropout changed the recorded prices"
    );
    for kind in [FaultKind::PredictionError, FaultKind::SolverFailure] {
        let run = FaultPlan::new(kind, SEEDS[0])
            .run(&base)
            .expect("fault run");
        let power_moved =
            (0..clean.num_idcs()).any(|j| run.result.power_mw(j) != clean.power_mw(j));
        assert!(
            power_moved || run.result.total_cost() != clean.total_cost(),
            "{kind}: fault left the power trajectory and cost untouched"
        );
    }
}

#[test]
fn distinct_seeds_give_distinct_disturbances() {
    let base = smoothing_scenario();
    for kind in FaultKind::ALL {
        let a = FaultPlan::new(kind, SEEDS[0]).run(&base).expect("run");
        let b = FaultPlan::new(kind, SEEDS[1]).run(&base).expect("run");
        assert_ne!(
            a.result, b.result,
            "{kind}: seeds {} and {} coincide",
            SEEDS[0], SEEDS[1]
        );
    }
}
