//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a `(kind, seed)` pair that derives a perturbed
//! scenario — and, for solver faults, a perturbed policy tuning — from a
//! base scenario through a dedicated [`StdRng`] stream. The same plan
//! applied to the same base always yields byte-identical perturbations
//! and therefore byte-identical trajectories, which is what lets CI pin a
//! fault matrix: every cell must re-run to the same [`SimulationResult`],
//! never panic, and either keep the trajectory invariants or surface the
//! violations in a [`Report`].

use idc_core::policy::{MpcPolicy, MpcPolicyConfig};
use idc_core::scenario::{PricingSpec, Scenario};
use idc_core::simulation::{SimulationResult, Simulator};
use idc_core::Result;
use idc_market::fault::{FaultyTracePricing, PriceFault};
use idc_market::rtp::PricingModel;
use idc_storage::{paper_test_battery, StorageFleet};
use rand::{Rng, SeedableRng, StdRng};

use crate::invariants::{check_run, Report, Tolerances};

/// The kinds of disturbance a [`FaultPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A multiplicative price spike (3–8×) in one region for 1–4 hours.
    PriceSpike,
    /// A price-feed dropout in one region for 2–5 hours; the market layer
    /// holds the last pre-dropout value (hold-last-value semantics).
    PriceDropout,
    /// Scaled-up workload prediction error: the scenario's multiplicative
    /// noise std is amplified 2–4× under a derived noise seed.
    PredictionError,
    /// Forced inner-QP solve failures (as if the solver hit its iteration
    /// limit) at 2–4 derived steps; the policy must fall back gracefully.
    SolverFailure,
    /// Deterministic poisoning of the solver's incremental working-set
    /// factor at 2–4 derived steps: the solver must detect the drift and
    /// take its stability-rebuild path, with the plan unchanged (no
    /// fallback).
    ForcedRefactorization,
    /// A battery/UPS outage: at 2–4 derived steps the storage actuator is
    /// unavailable and the policy must command zero rates (the gated QP
    /// caps collapse to zero) while the workload controller carries on. If
    /// the base scenario has no storage, a [`idc_storage::paper_test_battery`]
    /// fleet is attached first so the fault always has a battery to lose.
    BatteryOutage,
}

impl FaultKind {
    /// Every kind, in matrix order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::PriceSpike,
        FaultKind::PriceDropout,
        FaultKind::PredictionError,
        FaultKind::SolverFailure,
        FaultKind::ForcedRefactorization,
        FaultKind::BatteryOutage,
    ];

    /// Stable lowercase label (used in CI matrix output and parsing).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::PriceSpike => "price-spike",
            FaultKind::PriceDropout => "price-dropout",
            FaultKind::PredictionError => "prediction-error",
            FaultKind::SolverFailure => "solver-failure",
            FaultKind::ForcedRefactorization => "forced-refactorization",
            FaultKind::BatteryOutage => "battery-outage",
        }
    }

    /// Inverse of [`FaultKind::label`].
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.label() == s)
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A seeded, reproducible fault to apply to a base scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    kind: FaultKind,
    seed: u64,
}

/// Everything a fault run produces, for assertions and CI reporting.
#[derive(Debug, Clone)]
pub struct FaultRun {
    /// Name of the perturbed scenario.
    pub scenario: String,
    /// The closed-loop trajectory under the fault.
    pub result: SimulationResult,
    /// Invariant report over that trajectory.
    pub report: Report,
    /// Steps at which the MPC policy degraded to its fallback.
    pub fallback_steps: Vec<usize>,
}

impl FaultPlan {
    /// A plan injecting `kind` with all randomness derived from `seed`.
    pub fn new(kind: FaultKind, seed: u64) -> Self {
        FaultPlan { kind, seed }
    }

    /// The fault kind.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// The derivation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's derivation stream: seeded from the plan seed salted by
    /// kind, so e.g. spike/seed-7 and dropout/seed-7 do not share their
    /// region and window draws.
    fn stream(&self) -> StdRng {
        let salt = self.kind.label().bytes().fold(0u64, |h, b| {
            h.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64)
        });
        StdRng::seed_from_u64(self.seed ^ salt)
    }

    /// Derives the perturbed `(scenario, policy tuning)` pair from `base`.
    ///
    /// Deterministic: the same plan and base always produce identical
    /// output. Returns `None` when the fault does not apply to the base
    /// (price faults need trace-driven pricing, solver faults need at
    /// least three steps).
    pub fn apply(&self, base: &Scenario) -> Option<(Scenario, MpcPolicyConfig)> {
        let mut rng = self.stream();
        let mut config = MpcPolicyConfig::paper_tuned(base);
        let scenario = match self.kind {
            FaultKind::PriceSpike | FaultKind::PriceDropout => {
                let trace = base.pricing().base_trace()?.clone();
                let regions = trace.num_regions();
                if regions == 0 {
                    return None;
                }
                let region = (rng.random::<u64>() % regions as u64) as usize;
                // Anchor the fault inside the simulated span so it is
                // guaranteed to intersect the run — a window drawn over
                // the whole day would miss short scenarios almost always,
                // silently turning the fault into a no-op.
                let offset = rng.random_range(0.0, base.duration_hours());
                let start_hour = (base.start_hour() + offset).rem_euclid(24.0);
                let fault = match self.kind {
                    FaultKind::PriceSpike => PriceFault::Spike {
                        region,
                        start_hour,
                        duration_hours: rng.random_range(1.0, 4.0),
                        factor: rng.random_range(3.0, 8.0),
                    },
                    _ => PriceFault::Dropout {
                        region,
                        start_hour,
                        duration_hours: rng.random_range(2.0, 5.0),
                    },
                };
                let faulty = FaultyTracePricing::new(trace, vec![fault])?;
                base.clone()
                    .with_pricing(PricingSpec::FaultyTrace(faulty))?
                    .with_name(format!("{}+{}#{}", base.name(), self.kind, self.seed))
            }
            FaultKind::PredictionError => {
                let std = base.workload_noise_std().max(0.02) * rng.random_range(2.0, 4.0);
                let noise_seed = rng.random::<u64>();
                base.clone()
                    .with_workload_noise(std, noise_seed)
                    .with_name(format!("{}+{}#{}", base.name(), self.kind, self.seed))
            }
            FaultKind::SolverFailure | FaultKind::ForcedRefactorization => {
                let steps = base.num_steps();
                if steps < 3 {
                    return None;
                }
                let count = 2 + (rng.random::<u64>() % 3) as usize;
                let mut drawn: Vec<usize> = Vec::with_capacity(count);
                while drawn.len() < count.min(steps - 1) {
                    let step = 1 + (rng.random::<u64>() % (steps as u64 - 1)) as usize;
                    if !drawn.contains(&step) {
                        drawn.push(step);
                    }
                }
                drawn.sort_unstable();
                if self.kind == FaultKind::SolverFailure {
                    config.forced_failure_steps = drawn;
                } else {
                    config.forced_refactor_steps = drawn;
                }
                base.clone()
                    .with_name(format!("{}+{}#{}", base.name(), self.kind, self.seed))
            }
            FaultKind::BatteryOutage => {
                let steps = base.num_steps();
                if steps < 3 {
                    return None;
                }
                // The fault needs a battery to lose: keep the base fleet,
                // or attach the paper test battery when the base has none.
                let scenario = if base.storage().is_some() {
                    base.clone()
                } else {
                    let fleet =
                        StorageFleet::uniform(base.fleet().num_idcs(), paper_test_battery())?;
                    base.clone().with_storage(fleet)?
                };
                config.storage = scenario.storage().cloned();
                let count = 2 + (rng.random::<u64>() % 3) as usize;
                let mut drawn: Vec<usize> = Vec::with_capacity(count);
                while drawn.len() < count.min(steps - 1) {
                    let step = 1 + (rng.random::<u64>() % (steps as u64 - 1)) as usize;
                    if !drawn.contains(&step) {
                        drawn.push(step);
                    }
                }
                drawn.sort_unstable();
                config.battery_outage_steps = drawn;
                scenario.with_name(format!("{}+{}#{}", base.name(), self.kind, self.seed))
            }
        };
        Some((scenario, config))
    }

    /// Applies the plan, runs the paper MPC policy through the validating
    /// simulator, and checks every trajectory invariant.
    ///
    /// # Errors
    ///
    /// Propagates simulator/policy construction failures. A fault the plan
    /// cannot express on this base (see [`FaultPlan::apply`]) is an
    /// [`idc_core::Error::Config`].
    pub fn run(&self, base: &Scenario) -> Result<FaultRun> {
        let (scenario, config) = self.apply(base).ok_or_else(|| {
            idc_core::Error::Config(format!(
                "fault {} does not apply to scenario '{}'",
                self.kind,
                base.name()
            ))
        })?;
        let mut policy = MpcPolicy::new(config)?;
        let result = Simulator::with_validation().run(&scenario, &mut policy)?;
        let report = check_run(&scenario, &result, &Tolerances::default());
        Ok(FaultRun {
            scenario: scenario.name().to_string(),
            result,
            report,
            fallback_steps: policy.fallback_steps().to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idc_core::scenario::{smoothing_scenario, vicious_cycle_scenario};

    #[test]
    fn labels_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(FaultKind::parse("nonsense"), None);
    }

    #[test]
    fn apply_is_deterministic() {
        let base = smoothing_scenario();
        for kind in FaultKind::ALL {
            let plan = FaultPlan::new(kind, 11);
            let a = plan.apply(&base).unwrap();
            let b = plan.apply(&base).unwrap();
            assert_eq!(a.0.name(), b.0.name());
            assert_eq!(a.1, b.1, "{kind}: derived configs differ");
        }
    }

    #[test]
    fn seeds_and_kinds_decorrelate() {
        let base = smoothing_scenario();
        let (_, c1) = FaultPlan::new(FaultKind::SolverFailure, 1)
            .apply(&base)
            .unwrap();
        let (_, c2) = FaultPlan::new(FaultKind::SolverFailure, 2)
            .apply(&base)
            .unwrap();
        assert_ne!(c1.forced_failure_steps, c2.forced_failure_steps);
    }

    #[test]
    fn price_faults_need_a_trace() {
        // Demand-responsive pricing has no underlying trace to perturb.
        let base = vicious_cycle_scenario(0.9);
        assert!(FaultPlan::new(FaultKind::PriceSpike, 3)
            .apply(&base)
            .is_none());
        assert!(FaultPlan::new(FaultKind::PriceDropout, 3)
            .apply(&base)
            .is_none());
        // But prediction error and solver failure still apply.
        assert!(FaultPlan::new(FaultKind::PredictionError, 3)
            .apply(&base)
            .is_some());
        assert!(FaultPlan::new(FaultKind::SolverFailure, 3)
            .apply(&base)
            .is_some());
    }

    #[test]
    fn forced_refactorization_derives_steps_without_failures() {
        let base = smoothing_scenario();
        for seed in 0..10 {
            let (_, config) = FaultPlan::new(FaultKind::ForcedRefactorization, seed)
                .apply(&base)
                .unwrap();
            assert!(config.forced_failure_steps.is_empty());
            let steps = &config.forced_refactor_steps;
            assert!((2..=4).contains(&steps.len()), "{steps:?}");
            assert!(steps.windows(2).all(|w| w[0] < w[1]), "{steps:?}");
            assert!(steps.iter().all(|&s| s >= 1 && s < base.num_steps()));
        }
    }

    #[test]
    fn forced_refactorization_run_never_falls_back() {
        let base = smoothing_scenario();
        let run = FaultPlan::new(FaultKind::ForcedRefactorization, 7)
            .run(&base)
            .unwrap();
        // The poison is absorbed by the solver's stability rebuild: the
        // plan must succeed at every step with no graceful degradation.
        assert!(
            run.fallback_steps.is_empty(),
            "fallbacks at {:?}",
            run.fallback_steps
        );
        assert!(run.report.hard_clean(), "{}", run.report.render());
    }

    #[test]
    fn battery_outage_attaches_fleet_and_idles_battery_at_drawn_steps() {
        let base = smoothing_scenario();
        assert!(base.storage().is_none());
        let plan = FaultPlan::new(FaultKind::BatteryOutage, 9);
        let (scenario, config) = plan.apply(&base).unwrap();
        // The derived scenario gains the paper test battery, and the
        // policy tuning matches it.
        assert!(scenario.storage().is_some());
        assert_eq!(config.storage, scenario.storage().cloned());
        let outages = config.battery_outage_steps.clone();
        assert!((2..=4).contains(&outages.len()), "{outages:?}");
        assert!(outages.windows(2).all(|w| w[0] < w[1]), "{outages:?}");

        let run = plan.run(&base).unwrap();
        assert!(run.report.hard_clean(), "{}", run.report.render());
        // At every outage step the battery must sit idle.
        for &k in &outages {
            for j in 0..scenario.fleet().num_idcs() {
                assert_eq!(run.result.battery_charge_mw(j).unwrap()[k], 0.0, "step {k}");
                assert_eq!(
                    run.result.battery_discharge_mw(j).unwrap()[k],
                    0.0,
                    "step {k}"
                );
            }
        }
        // Deterministic like every other kind.
        let again = plan.run(&base).unwrap();
        assert_eq!(run.result, again.result);
    }

    #[test]
    fn battery_outage_keeps_an_existing_fleet() {
        let base = idc_core::scenario::storage_plus_shifting_scenario(3);
        let (scenario, config) = FaultPlan::new(FaultKind::BatteryOutage, 4)
            .apply(&base)
            .unwrap();
        assert_eq!(scenario.storage(), base.storage());
        assert_eq!(config.storage, base.storage().cloned());
        assert_eq!(config.demand_charge, base.demand_charge().copied());
    }

    #[test]
    fn solver_failure_steps_are_distinct_sorted_in_range() {
        let base = smoothing_scenario();
        for seed in 0..20 {
            let (_, config) = FaultPlan::new(FaultKind::SolverFailure, seed)
                .apply(&base)
                .unwrap();
            let steps = &config.forced_failure_steps;
            assert!((2..=4).contains(&steps.len()), "{steps:?}");
            assert!(steps.windows(2).all(|w| w[0] < w[1]), "{steps:?}");
            assert!(steps.iter().all(|&s| s >= 1 && s < base.num_steps()));
        }
    }
}
