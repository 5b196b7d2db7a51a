//! Differential-oracle agreement: per-step problems captured from real
//! closed-loop runs, and randomized closed loops, are re-solved by the
//! naive dense oracles and must agree with the production banded solver to
//! 1e-8 on the objective and the horizon power. A seeded subsample keeps
//! the brute-force cost bounded without ever sampling the same steps twice
//! across runs.

use idc_control::mpc::{
    MpcConfig, MpcController, MpcPlan, MpcProblem, SolverBackend, StorageProblem,
};
use idc_control::reference::{optimal_reference, optimal_with_demand_charge};
use idc_core::policy::{MpcPolicy, MpcPolicyConfig};
use idc_core::scenario::{
    peak_shaving_scenario, smoothing_scenario, storage_peak_shaving_scenario, Scenario,
};
use idc_core::simulation::Simulator;
use idc_datacenter::idc::IdcConfig;
use idc_datacenter::server::ServerSpec;
use idc_market::tariff::DemandCharge;
use idc_testkit::oracle::{
    demand_charge_lp_oracle, horizon_power_sum_mw, qp_feasible, qp_objective, reference_lp_oracle,
    replay_qp, LpPoint, AGREEMENT_TOL,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

/// Runs the paper MPC policy over `scenario` with problem recording on and
/// returns every per-step [`MpcProblem`] it assembled.
fn capture_problems(scenario: &Scenario) -> (MpcConfig, Vec<MpcProblem>) {
    let config = MpcPolicyConfig {
        budgets: scenario.budgets().cloned(),
        storage: scenario.storage().cloned(),
        demand_charge: scenario.demand_charge().copied(),
        record_problems: true,
        ..MpcPolicyConfig::default()
    };
    let mpc = config.mpc;
    let mut policy = MpcPolicy::new(config).expect("policy config");
    Simulator::new()
        .run(scenario, &mut policy)
        .expect("simulation");
    let problems = policy.recorded_problems().to_vec();
    assert!(!problems.is_empty(), "no problems recorded");
    (mpc, problems)
}

/// Draws `k` distinct indices out of `n` from a seeded stream.
fn subsample(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked = Vec::with_capacity(k.min(n));
    while picked.len() < k.min(n) {
        let idx = (rng.random::<u64>() % n as u64) as usize;
        if !picked.contains(&idx) {
            picked.push(idx);
        }
    }
    picked.sort_unstable();
    picked
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// Checks one production plan against the oracle's solution of the same
/// problem: feasible for the oracle-assembled constraints, and equal to
/// `AGREEMENT_TOL` on the eq. 42 objective and the summed horizon power.
fn check_plan(mpc: &MpcConfig, problem: &MpcProblem, plan: &MpcPlan) -> Result<(), String> {
    let oracle = replay_qp(mpc, problem).ok_or("oracle failed on a problem production solved")?;
    if !qp_feasible(mpc, problem, &oracle.delta_u, 1e-5) {
        return Err("oracle solution violates its own constraints".into());
    }
    if !qp_feasible(mpc, problem, plan.delta_u(), 1e-5) {
        return Err("banded solution violates the oracle-assembled constraints".into());
    }
    let prod_obj = qp_objective(mpc, problem, plan.delta_u());
    let obj_rel = rel_diff(prod_obj, oracle.objective);
    if obj_rel > AGREEMENT_TOL {
        return Err(format!(
            "objective disagrees with oracle: {prod_obj:.12e} vs {:.12e} (rel {obj_rel:.3e})",
            oracle.objective
        ));
    }
    let prod_power: f64 = plan.predicted_power_mw().iter().flatten().sum();
    let oracle_power = horizon_power_sum_mw(mpc, problem, &oracle.delta_u);
    let pw_rel = rel_diff(prod_power, oracle_power);
    if pw_rel > AGREEMENT_TOL {
        return Err(format!(
            "horizon power disagrees with oracle: {prod_power:.12e} vs {oracle_power:.12e} MW \
             (rel {pw_rel:.3e})"
        ));
    }
    Ok(())
}

/// The agreement check for one captured problem, re-planned cold by the
/// banded backend.
fn assert_agreement(mpc: &MpcConfig, problem: &MpcProblem, tag: &str) {
    let mut controller = MpcController::new(MpcConfig {
        backend: SolverBackend::BandedRiccati,
        ..*mpc
    });
    let plan = controller
        .plan_cold(problem)
        .unwrap_or_else(|e| panic!("{tag}: banded failed: {e}"));
    if let Err(e) = check_plan(mpc, problem, &plan) {
        panic!("{tag}: {e}");
    }
}

#[test]
fn qp_oracle_agrees_with_banded_on_smoothing_run() {
    let scenario = smoothing_scenario();
    let (mpc, problems) = capture_problems(&scenario);
    for idx in subsample(problems.len(), 8, 0x5111) {
        assert_agreement(&mpc, &problems[idx], &format!("smoothing step {idx}"));
    }
}

#[test]
fn qp_oracle_agrees_with_banded_on_peak_shaving_run() {
    // Peak shaving clamps the reference and boosts tracking weights, which
    // is exactly where the QP goes degenerate (active budget constraints).
    let scenario = peak_shaving_scenario();
    let (mpc, problems) = capture_problems(&scenario);
    for idx in subsample(problems.len(), 8, 0x9ea7) {
        assert_agreement(&mpc, &problems[idx], &format!("peak-shaving step {idx}"));
    }
}

#[test]
fn qp_oracle_agrees_with_banded_on_storage_peak_shaving_run() {
    // A battery per IDC adds charge/discharge rate changes to every stage
    // and rate and state-of-charge boxes to the constraints.
    let scenario = storage_peak_shaving_scenario();
    let (mpc, problems) = capture_problems(&scenario);
    assert!(
        problems.iter().all(|p| p.storage.is_some()),
        "the storage run must record storage problems"
    );
    for idx in subsample(problems.len(), 8, 0x5707) {
        assert_agreement(&mpc, &problems[idx], &format!("storage step {idx}"));
    }
}

#[test]
fn lp_oracle_agrees_with_production_reference_on_simulated_prices() {
    // Re-solve the eq. 46 reference LP at prices/workloads taken from a
    // recorded validating run, not just hand-picked instances.
    let scenario = smoothing_scenario();
    let mut policy = MpcPolicy::paper_tuned(&scenario).expect("policy");
    let result = Simulator::with_validation()
        .run(&scenario, &mut policy)
        .expect("simulation");
    let offered = result.offered_workloads().expect("validating run");
    let prices = result.prices();
    let idcs = scenario.fleet().idcs();
    for idx in subsample(offered.len(), 6, 0x1f46) {
        let oracle = reference_lp_oracle(idcs, &offered[idx], &prices[idx])
            .unwrap_or_else(|| panic!("step {idx}: oracle LP infeasible"));
        let prod = idc_control::reference::optimal_reference(idcs, &offered[idx], &prices[idx])
            .unwrap_or_else(|e| panic!("step {idx}: production LP failed: {e}"));
        let rel = rel_diff(oracle.objective, prod.cost_rate_per_hour());
        assert!(
            rel <= AGREEMENT_TOL,
            "step {idx}: LP objectives disagree: oracle {:.12e} vs production {:.12e} (rel {rel:.3e})",
            oracle.objective,
            prod.cost_rate_per_hour()
        );
    }
}

/// Agreement demanded between the merit-order references and the LP
/// oracles: relative on the objective, × fleet capacity on the totals.
const REFERENCE_TOL: f64 = 1e-9;

/// One random reference instance: 2–12 IDCs, 3–19 portals, offered load
/// 5–95 % of the fleet's capacity, prices in [−10, 90] $/MWh with about
/// one in six exactly zero, and per IDC a running peak anywhere between
/// zero and its full-load power.
struct ReferenceInstance {
    idcs: Vec<IdcConfig>,
    offered: Vec<f64>,
    prices: Vec<f64>,
    peaks_mw: Vec<f64>,
    capacity: f64,
}

fn reference_instance(seed: u64) -> ReferenceInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + (rng.random::<u64>() % 11) as usize;
    let c = 3 + (rng.random::<u64>() % 17) as usize;
    let idcs: Vec<IdcConfig> = (0..n)
        .map(|j| {
            let idle = rng.random_range(50.0, 200.0);
            let peak = idle + rng.random_range(20.0, 200.0);
            let server = ServerSpec::new(idle, peak, rng.random_range(0.5, 3.0)).unwrap();
            let servers = 5_000 + rng.random::<u64>() % 40_000;
            IdcConfig::new(
                format!("idc-{j}"),
                servers,
                server,
                rng.random_range(0.001, 0.01),
            )
            .unwrap()
            .with_pue(rng.random_range(1.0, 1.8))
            .unwrap()
        })
        .collect();
    let capacity: f64 = idcs.iter().map(IdcConfig::max_workload).sum();
    let load = capacity * rng.random_range(0.05, 0.95);
    let weights: Vec<f64> = (0..c).map(|_| rng.random_range(0.1, 1.0)).collect();
    let total_weight: f64 = weights.iter().sum();
    let offered = weights.iter().map(|w| load * w / total_weight).collect();
    let prices = (0..n)
        .map(|_| {
            if rng.random::<u64>() % 6 == 0 {
                0.0
            } else {
                rng.random_range(-10.0, 90.0)
            }
        })
        .collect();
    let peaks_mw = idcs
        .iter()
        .map(|idc| {
            let full_power = idc.pue()
                * (idc.server().b1() * idc.max_workload()
                    + idc.server().b0() * idc.total_servers() as f64)
                / 1e6;
            full_power * rng.random_range(0.0, 1.0)
        })
        .collect();
    ReferenceInstance {
        idcs,
        offered,
        prices,
        peaks_mw,
        capacity,
    }
}

/// Checks a merit-order reference against its LP oracle: the objectives
/// agree to [`REFERENCE_TOL`] relative and, where every price is positive
/// (so the per-IDC totals are unique), so do the totals, to
/// [`REFERENCE_TOL`] × fleet capacity. With a price at or below zero, ties
/// leave the totals free at equal cost.
fn check_reference(
    inst: &ReferenceInstance,
    objective: f64,
    totals: &[f64],
    oracle: Option<LpPoint>,
) -> Result<(), String> {
    let oracle = oracle.ok_or("oracle LP failed on a feasible instance")?;
    let rel = rel_diff(objective, oracle.objective);
    if rel > REFERENCE_TOL {
        return Err(format!(
            "objective {objective:.12e} vs oracle {:.12e} (rel {rel:.3e})",
            oracle.objective
        ));
    }
    if inst.prices.iter().all(|&p| p > 0.0) {
        let c = inst.offered.len();
        for (j, &total) in totals.iter().enumerate() {
            let lp: f64 = oracle.x[j * c..(j + 1) * c].iter().sum();
            if (total - lp).abs() > REFERENCE_TOL * inst.capacity {
                return Err(format!("IDC {j}: total {total} vs oracle {lp}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Plain eq. 46: the merit-order fill against the oracle's simplex.
    #[test]
    fn merit_order_reference_matches_lp_oracle(seed in 0u64..u64::MAX) {
        let inst = reference_instance(seed);
        let sol = optimal_reference(&inst.idcs, &inst.offered, &inst.prices).unwrap();
        let oracle = reference_lp_oracle(&inst.idcs, &inst.offered, &inst.prices);
        let totals = sol.idc_workloads(inst.offered.len());
        let checked = check_reference(&inst, sol.cost_rate_per_hour(), &totals, oracle);
        prop_assert!(checked.is_ok(), "seed {seed}: {:?}", checked);
    }

    /// The demand-charge epigraph, at tariff weights from zero to well
    /// past the largest price, so that every piece shape occurs.
    #[test]
    fn merit_order_demand_charge_matches_epigraph_oracle(
        seed in 0u64..u64::MAX,
        rate in 0.0f64..60_000.0,
    ) {
        let inst = reference_instance(seed);
        let tariff = DemandCharge::new(rate, 720.0).unwrap();
        let sol = optimal_with_demand_charge(
            &inst.idcs, &inst.offered, &inst.prices, &tariff, &inst.peaks_mw,
        )
        .unwrap();
        let oracle = demand_charge_lp_oracle(
            &inst.idcs, &inst.offered, &inst.prices, tariff.hourly_weight(), &inst.peaks_mw,
        );
        let totals = sol.reference().idc_workloads(inst.offered.len());
        let checked = check_reference(&inst, sol.total_rate_per_hour(), &totals, oracle);
        prop_assert!(checked.is_ok(), "seed {seed}, rate {rate}: {:?}", checked);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On randomized fleets, horizons and budget-style references, every
    /// step of a warm-started banded closed loop agrees with the oracle's
    /// from-scratch solve of the same step. The banded backend optimizes
    /// cumulative changes through a block-Cholesky recursion; the oracle
    /// assembles the eq. 42 least squares densely in the stacked changes,
    /// so this pins the y-space reformulation against first principles.
    #[test]
    fn banded_matches_oracle_on_random_instances(
        dims in prop::collection::vec(0usize..3, 4),
        load_scale in 2_000.0f64..15_000.0,
        ref_seed in prop::collection::vec(0.5f64..5.0, 4),
        clamp_mask in prop::collection::vec(0usize..2, 4),
        drift in 0.85f64..1.15,
    ) {
        // Fleet size, portal count and horizons from one draw (the shim
        // proptest only supports small tuples).
        let (n, c, beta2, extra) = (1 + dims[0], 1 + dims[1], 1 + dims[2], dims[3]);
        let beta1 = beta2 + extra;
        let b1_mw: Vec<f64> = (0..n).map(|j| 60e-6 + 15e-6 * j as f64).collect();
        let total_load = load_scale * c as f64;
        let mut prev_input = vec![0.0; n * c];
        for i in 0..c {
            // All load starts on the last IDC — the price-flip shape that
            // forces a multi-step transfer.
            prev_input[(n - 1) * c + i] = load_scale;
        }
        let mpc = MpcConfig {
            prediction_horizon: beta1,
            control_horizon: beta2,
            backend: SolverBackend::BandedRiccati,
            ..MpcConfig::default()
        };
        let mut banded = MpcController::new(mpc);
        for step in 0..3 {
            // Drift the workload so warm starts see a moving problem, but
            // keep it inside the 1.6× capacity margin.
            let scale = drift.powi(step).min(1.5);
            let problem = MpcProblem {
                b1_mw: b1_mw.clone(),
                b0_mw: vec![150e-6; n],
                servers_on: vec![20_000; n],
                capacities: vec![total_load * 1.6 / n as f64; n],
                prev_input: prev_input.clone(),
                workload_forecast: vec![vec![load_scale * scale; c]; beta2],
                power_reference_mw: vec![
                    (0..n).map(|j| ref_seed[j % ref_seed.len()]).collect();
                    beta1
                ],
                // Budget-clamped IDCs carry the heavy peak-shaving weight.
                tracking_multiplier: (0..n)
                    .map(|j| if clamp_mask[j % clamp_mask.len()] == 1 { 25.0 } else { 1.0 })
                    .collect(),
                storage: None,
            };
            let plan = banded.plan(&problem).unwrap();
            let checked = check_plan(&mpc, &problem, &plan);
            prop_assert!(checked.is_ok(), "step {step}: {:?}", checked);
            prev_input = plan.next_input().to_vec();
        }
    }

    /// Storage-enabled problems too: with a battery per IDC the stage
    /// blocks grow from `N·C` to `N·C + 2N` (charge and discharge rate
    /// changes), and on randomized capacities, rates, efficiencies and
    /// initial charge every step of a banded closed loop agrees with the
    /// oracle, whose battery rows come from the physical rate and
    /// state-of-charge limits.
    #[test]
    fn storage_banded_matches_oracle_on_random_instances(
        dims in prop::collection::vec(0usize..3, 3),
        load_scale in 2_000.0f64..12_000.0,
        cap_mwh in 0.5f64..8.0,
        rate_mw in 0.2f64..3.0,
        eff in prop::collection::vec(0.85f64..1.0, 2),
        // Two draws in one vector (the shim proptest caps tuple arity):
        // initial SoC fraction and the reference scale offset.
        fracs in prop::collection::vec(0.05f64..0.95, 2),
    ) {
        let soc_frac = fracs[0];
        let ref_scale = 0.5 + fracs[1];
        let (n, c, extra) = (1 + dims[0], 1 + dims[1], dims[2]);
        let beta2 = 2;
        let beta1 = beta2 + extra;
        let dt = 1.0 / 12.0;
        let b1_mw: Vec<f64> = (0..n).map(|j| 60e-6 + 15e-6 * j as f64).collect();
        let total_load = load_scale * c as f64;
        let mut prev_input = vec![0.0; n * c];
        for i in 0..c {
            prev_input[(n - 1) * c + i] = load_scale;
        }
        // The reference sits below the IT draw, so the optimizer has an
        // incentive to dispatch the battery toward it.
        let nominal_mw = |j: usize| 150e-6 * 20_000.0 + b1_mw[j] * total_load / n as f64;
        let mpc = MpcConfig {
            prediction_horizon: beta1,
            control_horizon: beta2,
            backend: SolverBackend::BandedRiccati,
            ..MpcConfig::default()
        };
        let mut banded = MpcController::new(mpc);
        let mut storage = StorageProblem {
            capacity_mwh: vec![cap_mwh; n],
            max_charge_mw: vec![rate_mw; n],
            max_discharge_mw: vec![rate_mw; n],
            charge_efficiency: vec![eff[0]; n],
            discharge_efficiency: vec![eff[1]; n],
            soc_mwh: vec![cap_mwh * soc_frac; n],
            prev_charge_mw: vec![0.0; n],
            prev_discharge_mw: vec![0.0; n],
            dt_hours: dt,
        };
        for step in 0..3 {
            let problem = MpcProblem {
                b1_mw: b1_mw.clone(),
                b0_mw: vec![150e-6; n],
                servers_on: vec![20_000; n],
                capacities: vec![total_load * 1.6 / n as f64; n],
                prev_input: prev_input.clone(),
                workload_forecast: vec![vec![load_scale; c]; beta2],
                power_reference_mw: vec![
                    (0..n).map(|j| ref_scale * nominal_mw(j)).collect();
                    beta1
                ],
                tracking_multiplier: MpcProblem::uniform_tracking(n),
                storage: Some(storage.clone()),
            };
            let plan = banded.plan(&problem).unwrap();
            let checked = check_plan(&mpc, &problem, &plan);
            prop_assert!(checked.is_ok(), "step {step}: {:?}", checked);
            // Advance the loop through the physical battery dynamics.
            prev_input = plan.next_input().to_vec();
            storage.prev_charge_mw = plan.next_charge_mw().to_vec();
            storage.prev_discharge_mw = plan.next_discharge_mw().to_vec();
            for j in 0..n {
                let (ch, dis) = (storage.prev_charge_mw[j], storage.prev_discharge_mw[j]);
                let delta = eff[0] * ch * dt - dis * dt / eff[1];
                storage.soc_mwh[j] = (storage.soc_mwh[j] + delta).clamp(0.0, cap_mwh);
            }
        }
    }
}
