//! Trajectory invariant checkers.
//!
//! All checks are pure functions of a [`Scenario`] and a recorded
//! [`SimulationResult`]; nothing here re-runs the policy. The full
//! allocation vectors and post-admission offered workloads are only
//! recorded by a *validating* simulator
//! ([`idc_core::simulation::Simulator::with_validation`]) — feeding a
//! non-validating result in yields a single
//! [`ViolationKind::MissingData`] violation rather than a panic.

use idc_core::scenario::Scenario;
use idc_core::simulation::SimulationResult;
use idc_core::LatencyStatus;

/// Explicit tolerances used by [`check_run`]. The defaults mirror the
/// production pipeline: conservation uses the simulator's own admission
/// tolerance, non-negativity the QP's feasibility tolerance scale, and the
/// cost check allows only accumulation-order rounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Per-portal conservation: `|Σj λij − Li| ≤ tol · max(Li, 1)`
    /// (relative, matching `Allocation::conserves_workload`).
    pub conservation_rel: f64,
    /// Allocation non-negativity: `λij ≥ −tol` (req/s).
    pub negativity_req_s: f64,
    /// Budget compliance: `P_j ≤ P_rb_j + tol` (MW).
    pub budget_mw: f64,
    /// Accumulated-cost consistency: relative error of the recomputed
    /// cumulative cost at each step.
    pub cost_rel: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            conservation_rel: 1e-3,
            negativity_req_s: 1e-6,
            budget_mw: 1e-6,
            cost_rel: 1e-9,
        }
    }
}

/// What kind of invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Workload conservation (paper eq. 9): a portal's allocated shares do
    /// not sum to its offered workload.
    Conservation,
    /// A negative allocation share `λij` (paper eq. 10).
    Negativity,
    /// Latency above the bound `Dj` (paper eq. 11) at a step where the
    /// M/M/n model was feasible — or an overload that makes it infeasible.
    Latency,
    /// Power above the peak-shaving budget `P_rb` (paper Sec. IV-D).
    Budget,
    /// The recorded cumulative cost `C̄` drifts from the step-by-step
    /// recomputation `Σ price × power × Ts`.
    CostDrift,
    /// Battery state of charge outside `[0, capacity]` or a rate outside
    /// its cap (storage scenarios only).
    SocBounds,
    /// The recorded SoC trajectory drifts from the efficiency-weighted
    /// integral of its own recorded rates (storage scenarios only).
    BatteryConservation,
    /// The recorded demand-charge accrual drifts from the recomputation
    /// off the running billed peaks, or decreases (tariffed scenarios
    /// only).
    DemandChargeDrift,
    /// The result lacks validation extras (the run did not use a
    /// validating simulator).
    MissingData,
}

impl ViolationKind {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            ViolationKind::Conservation => "conservation",
            ViolationKind::Negativity => "negativity",
            ViolationKind::Latency => "latency",
            ViolationKind::Budget => "budget",
            ViolationKind::CostDrift => "cost-drift",
            ViolationKind::SocBounds => "soc-bounds",
            ViolationKind::BatteryConservation => "battery-conservation",
            ViolationKind::DemandChargeDrift => "demand-charge-drift",
            ViolationKind::MissingData => "missing-data",
        }
    }
}

/// One invariant violation at one trajectory point.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Step index within the run.
    pub step: usize,
    /// IDC index (or portal index for conservation), when applicable.
    pub index: Option<usize>,
    /// How far past the tolerance the trajectory went, in the invariant's
    /// natural unit (req/s, MW, relative cost error).
    pub magnitude: f64,
    /// Human-readable context.
    pub detail: String,
}

/// The outcome of checking one trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Name of the scenario checked.
    pub scenario: String,
    /// Name of the policy that produced the trajectory.
    pub policy: String,
    /// Number of individual checks evaluated.
    pub checks: usize,
    /// Every violation found, in trajectory order.
    pub violations: Vec<Violation>,
    /// The most binding per-step budget margin `P_rb_j − P_j` in MW with
    /// its `(step, idc)` location, when the scenario carries budgets.
    /// Negative margin = the budget was exceeded at that step.
    pub worst_budget_margin_mw: Option<(usize, usize, f64)>,
}

impl Report {
    /// `true` when no invariant of any kind was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `true` when no *hard* invariant was violated. Budget violations are
    /// soft: the MPC's transient may legitimately overshoot `P_rb` for a
    /// few steps after a reference jump (paper Fig. 6 shows the same), so
    /// sweeps gate on the hard invariants and report budget margins.
    pub fn hard_clean(&self) -> bool {
        self.violations
            .iter()
            .all(|v| v.kind == ViolationKind::Budget)
    }

    /// The violations of one kind.
    pub fn of_kind(&self, kind: ViolationKind) -> Vec<&Violation> {
        self.violations.iter().filter(|v| v.kind == kind).collect()
    }

    /// Number of *hard* (non-budget) violations.
    pub fn hard_violations(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.kind != ViolationKind::Budget)
            .count()
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "invariants [{} / {}]: {} checks, {} violation(s)",
            self.scenario,
            self.policy,
            self.checks,
            self.violations.len()
        );
        if let Some((step, idc, margin)) = self.worst_budget_margin_mw {
            out.push_str(&format!(
                "\n  worst budget margin: {margin:+.4} MW (IDC {idc}, step {step})"
            ));
        }
        for v in self.violations.iter().take(10) {
            out.push_str(&format!(
                "\n  [{}] step {}, index {:?}: {} (magnitude {:.3e})",
                v.kind.label(),
                v.step,
                v.index,
                v.detail,
                v.magnitude
            ));
        }
        if self.violations.len() > 10 {
            out.push_str(&format!("\n  … and {} more", self.violations.len() - 10));
        }
        out
    }
}

/// Checks every trajectory invariant on one recorded run.
///
/// The trajectory must come from `scenario` via a *validating* simulator;
/// otherwise the report contains a single [`ViolationKind::MissingData`]
/// violation.
pub fn check_run(scenario: &Scenario, result: &SimulationResult, tol: &Tolerances) -> Report {
    let mut report = Report {
        scenario: result.scenario_name().to_string(),
        policy: result.policy_name().to_string(),
        checks: 0,
        violations: Vec::new(),
        worst_budget_margin_mw: None,
    };
    let (Some(offered), Some(allocations)) = (result.offered_workloads(), result.allocations())
    else {
        report.violations.push(Violation {
            kind: ViolationKind::MissingData,
            step: 0,
            index: None,
            magnitude: 0.0,
            detail: "run was not recorded by Simulator::with_validation()".into(),
        });
        return report;
    };

    let fleet = scenario.fleet();
    let idcs = fleet.idcs();
    let n = fleet.num_idcs();
    let steps = result.times_min().len();
    let ts = result.ts_hours();

    // ---- Conservation (eq. 9) and non-negativity (eq. 10), per step. ----
    for (k, (load, alloc)) in offered.iter().zip(allocations).enumerate() {
        let c = load.len();
        for (i, &li) in load.iter().enumerate() {
            let served: f64 = (0..n).map(|j| alloc[j * c + i]).sum();
            report.checks += 1;
            let err = (served - li).abs();
            if err > tol.conservation_rel * li.max(1.0) {
                report.violations.push(Violation {
                    kind: ViolationKind::Conservation,
                    step: k,
                    index: Some(i),
                    magnitude: err,
                    detail: format!("portal {i}: served {served:.3} of offered {li:.3} req/s"),
                });
            }
        }
        for (idx, &share) in alloc.iter().enumerate() {
            report.checks += 1;
            if share < -tol.negativity_req_s {
                report.violations.push(Violation {
                    kind: ViolationKind::Negativity,
                    step: k,
                    index: Some(idx / c),
                    magnitude: -share,
                    detail: format!("λ[idc {}, portal {}] = {share:.6} req/s", idx / c, idx % c),
                });
            }
        }
    }

    // ---- Latency (eq. 11): whenever the deployed servers keep the M/M/n
    // model feasible, the latency bound must hold; an allocation past the
    // feasible capacity is surfaced too (its latency is unbounded). ----
    for (j, idc) in idcs.iter().enumerate() {
        let lam_series = result.workload(j);
        let m_series = result.servers(j);
        for k in 0..steps {
            let lam = lam_series[k];
            let m = m_series[k];
            report.checks += 1;
            match idc.latency_status(m, lam) {
                LatencyStatus::WithinBound => {}
                LatencyStatus::BoundExceeded => {
                    report.violations.push(Violation {
                        kind: ViolationKind::Latency,
                        step: k,
                        index: Some(j),
                        magnitude: idc.latency(m, lam) - idc.latency_bound(),
                        detail: format!(
                            "latency bound exceeded with {m} servers at {lam:.1} req/s"
                        ),
                    });
                }
                LatencyStatus::Unstable => {
                    report.violations.push(Violation {
                        kind: ViolationKind::Latency,
                        step: k,
                        index: Some(j),
                        magnitude: lam - m as f64 * idc.service_rate(),
                        detail: format!(
                            "overloaded past M/M/n stability: {lam:.1} req/s on {m} servers"
                        ),
                    });
                }
            }
        }
    }

    // ---- Budget compliance (Sec. IV-D), with the worst-step margin. ----
    if let Some(budgets) = scenario.budgets() {
        let mut worst: Option<(usize, usize, f64)> = None;
        for j in 0..n {
            let budget = budgets.budget_mw(j);
            for (k, &p) in result.power_mw(j).iter().enumerate() {
                report.checks += 1;
                let margin = budget - p;
                if worst.is_none_or(|(_, _, m)| margin < m) {
                    worst = Some((k, j, margin));
                }
                if p > budget + tol.budget_mw {
                    report.violations.push(Violation {
                        kind: ViolationKind::Budget,
                        step: k,
                        index: Some(j),
                        magnitude: p - budget,
                        detail: format!("power {p:.4} MW over budget {budget:.4} MW"),
                    });
                }
            }
        }
        report.worst_budget_margin_mw = worst;
    }

    // ---- Accumulated-cost consistency: C̄ vs Σ price × power × Ts. ----
    let mut recomputed = 0.0;
    for k in 0..steps {
        let prices = &result.prices()[k];
        recomputed += (0..n)
            .map(|j| result.power_mw(j)[k] * prices[j] * ts)
            .sum::<f64>();
        report.checks += 1;
        let recorded = result.cost_cumulative()[k];
        let err = (recorded - recomputed).abs() / recomputed.abs().max(1.0);
        if err > tol.cost_rel {
            report.violations.push(Violation {
                kind: ViolationKind::CostDrift,
                step: k,
                index: None,
                magnitude: err,
                detail: format!("recorded C̄ {recorded:.6} vs recomputed {recomputed:.6} $"),
            });
        }
    }

    // ---- Storage physics (storage scenarios only): SoC bounds, rate
    // caps, and conservation of the SoC against the efficiency-weighted
    // integral of the recorded rates. ----
    if let Some(storage) = scenario.storage() {
        for (j, unit) in storage.units().iter().enumerate() {
            let (Some(soc), Some(charge), Some(discharge)) = (
                result.soc_mwh(j),
                result.battery_charge_mw(j),
                result.battery_discharge_mw(j),
            ) else {
                report.violations.push(Violation {
                    kind: ViolationKind::MissingData,
                    step: 0,
                    index: Some(j),
                    magnitude: 0.0,
                    detail: "storage scenario ran without battery series recorded".into(),
                });
                continue;
            };
            let mut expected = unit.initial_soc_mwh;
            for k in 0..steps {
                report.checks += 1;
                let s = soc[k];
                let over = (s - unit.capacity_mwh)
                    .max(-s)
                    .max(charge[k] - unit.max_charge_mw)
                    .max(-charge[k])
                    .max(discharge[k] - unit.max_discharge_mw)
                    .max(-discharge[k]);
                if over > 1e-9 {
                    report.violations.push(Violation {
                        kind: ViolationKind::SocBounds,
                        step: k,
                        index: Some(j),
                        magnitude: over,
                        detail: format!(
                            "SoC {s:.6} MWh (cap {:.3}), rates {:.6}/{:.6} MW",
                            unit.capacity_mwh, charge[k], discharge[k]
                        ),
                    });
                }
                report.checks += 1;
                expected += (unit.charge_efficiency * charge[k]
                    - discharge[k] / unit.discharge_efficiency)
                    * ts;
                let drift = (s - expected).abs();
                if drift > 1e-9 {
                    report.violations.push(Violation {
                        kind: ViolationKind::BatteryConservation,
                        step: k,
                        index: Some(j),
                        magnitude: drift,
                        detail: format!("SoC {s:.9} MWh vs rate integral {expected:.9} MWh"),
                    });
                }
            }
        }
    }

    // ---- Demand-charge accrual (tariffed scenarios only): the recorded
    // cumulative series must match the recomputation off running billed
    // peaks of the recorded grid draw, and never decrease. ----
    if let Some(tariff) = scenario.demand_charge() {
        match result.demand_charge_cumulative() {
            Some(dc) => {
                let mut peaks = vec![0.0f64; n];
                let mut recomputed = 0.0;
                for (k, &recorded) in dc.iter().enumerate() {
                    for (j, peak) in peaks.iter_mut().enumerate() {
                        *peak = peak.max(result.power_mw(j)[k]);
                    }
                    recomputed += tariff.hourly_weight() * peaks.iter().sum::<f64>() * ts;
                    report.checks += 1;
                    let prev = if k == 0 { 0.0 } else { dc[k - 1] };
                    let err = (recorded - recomputed).abs() / recomputed.abs().max(1.0);
                    if err > tol.cost_rel || recorded < prev {
                        report.violations.push(Violation {
                            kind: ViolationKind::DemandChargeDrift,
                            step: k,
                            index: None,
                            magnitude: err,
                            detail: format!(
                                "recorded accrual {recorded:.6} vs recomputed {recomputed:.6} $"
                            ),
                        });
                    }
                }
            }
            None => report.violations.push(Violation {
                kind: ViolationKind::MissingData,
                step: 0,
                index: None,
                magnitude: 0.0,
                detail: "tariffed scenario ran without demand-charge accrual recorded".into(),
            }),
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use idc_core::policy::{MpcPolicy, OptimalPolicy, ReferenceKind};
    use idc_core::scenario::{peak_shaving_scenario, smoothing_scenario};
    use idc_core::simulation::Simulator;

    #[test]
    fn missing_validation_extras_are_surfaced_not_panicked() {
        let scenario = smoothing_scenario();
        let result = Simulator::new()
            .run(
                &scenario,
                &mut OptimalPolicy::new(ReferenceKind::PriceGreedy),
            )
            .unwrap();
        let report = check_run(&scenario, &result, &Tolerances::default());
        assert!(!report.is_clean());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::MissingData);
    }

    #[test]
    fn clean_smoothing_run_passes_all_invariants() {
        let scenario = smoothing_scenario();
        let result = Simulator::with_validation()
            .run(&scenario, &mut MpcPolicy::paper_tuned(&scenario).unwrap())
            .unwrap();
        let report = check_run(&scenario, &result, &Tolerances::default());
        assert!(report.is_clean(), "{}", report.render());
        // 25 steps × (5 conservation + 15 negativity + 3 latency + 1 cost).
        assert_eq!(report.checks, 25 * (5 + 15 + 3 + 1));
        assert!(report.worst_budget_margin_mw.is_none());
    }

    #[test]
    fn peak_shaving_reports_worst_budget_margin() {
        let scenario = peak_shaving_scenario();
        let result = Simulator::with_validation()
            .run(&scenario, &mut MpcPolicy::paper_tuned(&scenario).unwrap())
            .unwrap();
        let report = check_run(&scenario, &result, &Tolerances::default());
        // Hard invariants must hold even while shaving peaks.
        assert!(report.hard_clean(), "{}", report.render());
        let (_, _, margin) = report.worst_budget_margin_mw.expect("budgets present");
        // The transient may overshoot, but it must stay in the same regime
        // as the budgets (not, say, the unclamped 11.4 MW optimum).
        assert!(margin > -2.0, "{}", report.render());
        assert!(report.render().contains("worst budget margin"));
    }

    #[test]
    fn storage_run_passes_storage_invariants() {
        let scenario = idc_core::scenario::storage_plus_shifting_scenario(11);
        let result = Simulator::with_validation()
            .run(&scenario, &mut MpcPolicy::paper_tuned(&scenario).unwrap())
            .unwrap();
        let report = check_run(&scenario, &result, &Tolerances::default());
        assert!(report.is_clean(), "{}", report.render());
        // 288 steps × (5 conservation + 15 negativity + 3 latency + 1 cost
        // + 3 IDCs × 2 storage checks + 1 demand-charge accrual).
        assert_eq!(report.checks, 288 * (5 + 15 + 3 + 1 + 6 + 1));
    }

    #[test]
    fn corrupted_battery_series_is_caught() {
        let scenario = idc_core::scenario::storage_plus_shifting_scenario(11);
        let result = Simulator::with_validation()
            .run(&scenario, &mut MpcPolicy::paper_tuned(&scenario).unwrap())
            .unwrap();
        // A non-validating rerun of the same scenario lacks the allocation
        // extras but still records battery series; stripping the storage
        // recording is not possible from outside, so corrupt via scenario
        // mismatch instead: check a storage scenario against a result from
        // a storage-free run.
        let plain = idc_core::scenario::demand_charge_scenario(11);
        let plain_result = Simulator::with_validation()
            .run(&plain, &mut MpcPolicy::paper_tuned(&plain).unwrap())
            .unwrap();
        let report = check_run(&scenario, &plain_result, &Tolerances::default());
        let missing = report.of_kind(ViolationKind::MissingData);
        assert_eq!(missing.len(), 3, "{}", report.render());
        // And sanity: the genuine storage run is clean (above), so the
        // checker distinguishes the two.
        let clean = check_run(&scenario, &result, &Tolerances::default());
        assert!(clean.of_kind(ViolationKind::MissingData).is_empty());
    }

    #[test]
    fn corrupted_cost_series_is_caught() {
        let scenario = smoothing_scenario();
        let result = Simulator::with_validation()
            .run(
                &scenario,
                &mut OptimalPolicy::new(ReferenceKind::PriceGreedy),
            )
            .unwrap();
        // Sanity: the genuine run is clean…
        let clean = check_run(&scenario, &result, &Tolerances::default());
        assert!(clean.is_clean(), "{}", clean.render());
        // …and a tolerance of zero flags accumulation-order-level drift at
        // most, never a sign/magnitude error. (The recomputation follows
        // the simulator's summation order exactly, so even tol = 0 passes.)
        let strict = check_run(
            &scenario,
            &result,
            &Tolerances {
                cost_rel: 0.0,
                ..Tolerances::default()
            },
        );
        assert!(strict.of_kind(ViolationKind::CostDrift).is_empty());
    }
}
