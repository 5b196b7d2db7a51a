//! End-to-end storage scenarios: battery dispatch, demand-charge
//! accounting, the zero-capacity byte-identity guarantee and the
//! storage-vs-shifting acceptance experiment.

use idc_core::policy::MpcPolicy;
use idc_core::scenario::{
    demand_charge_scenario, diurnal_day_scenario, peak_shaving_scenario,
    storage_peak_shaving_scenario, storage_plus_shifting_scenario,
};
use idc_core::simulation::{SimulationResult, Simulator};
use idc_storage::{BatteryUnit, StorageFleet};

fn run(scenario: &idc_core::scenario::Scenario) -> SimulationResult {
    let mut policy = MpcPolicy::paper_tuned(scenario).unwrap();
    Simulator::new().run(scenario, &mut policy).unwrap()
}

#[test]
fn storage_peak_shaving_respects_battery_physics() {
    let scenario = storage_peak_shaving_scenario();
    let result = run(&scenario);
    let fleet = scenario.storage().expect("scenario has storage");
    let ts = result.ts_hours();
    let mut any_activity = false;
    for (j, unit) in fleet.units().iter().enumerate() {
        let soc = result.soc_mwh(j).expect("storage run records SoC");
        let charge = result.battery_charge_mw(j).expect("records charge");
        let discharge = result.battery_discharge_mw(j).expect("records discharge");
        assert_eq!(soc.len(), result.times_min().len());
        for (k, &s) in soc.iter().enumerate() {
            assert!(
                (0.0..=unit.capacity_mwh + 1e-9).contains(&s),
                "IDC {j} SoC out of bounds at step {k}: {s}"
            );
            assert!(
                (0.0..=unit.max_charge_mw + 1e-9).contains(&charge[k]),
                "IDC {j} charge rate out of caps at step {k}: {}",
                charge[k]
            );
            assert!(
                (0.0..=unit.max_discharge_mw + 1e-9).contains(&discharge[k]),
                "IDC {j} discharge rate out of caps at step {k}: {}",
                discharge[k]
            );
        }
        // Battery energy conservation: the SoC trajectory must equal the
        // initial charge plus the efficiency-weighted rate integral.
        let mut expected = unit.initial_soc_mwh;
        for (k, (&c, &d)) in charge.iter().zip(discharge).enumerate() {
            expected += (unit.charge_efficiency * c - d / unit.discharge_efficiency) * ts;
            assert!(
                (soc[k] - expected).abs() < 1e-9,
                "IDC {j} SoC drifts from its own rate integral at step {k}: {} vs {expected}",
                soc[k]
            );
        }
        if charge.iter().sum::<f64>() + discharge.iter().sum::<f64>() > 0.01 {
            any_activity = true;
        }
    }
    assert!(any_activity, "no battery was ever dispatched");
    assert!(result.storage_loss_mwh().unwrap() >= 0.0);
    assert!(result.latency_ok_fraction() > 0.999);
}

#[test]
fn storage_shrinks_peak_shaving_budget_violations() {
    let base = run(&peak_shaving_scenario());
    let with_storage = run(&storage_peak_shaving_scenario());
    let budgets = [5.13, 10.26, 4.275];
    let base_viol: f64 = base.budget_violation_fractions(&budgets).iter().sum();
    let storage_viol: f64 = with_storage
        .budget_violation_fractions(&budgets)
        .iter()
        .sum();
    assert!(
        storage_viol <= base_viol + 1e-12,
        "storage made budget violations worse: {storage_viol} vs {base_viol}"
    );
}

#[test]
fn zero_capacity_storage_is_byte_identical() {
    let plain = diurnal_day_scenario(7);
    // An inert fleet normalizes away at scenario level...
    let inert = diurnal_day_scenario(7)
        .with_storage(StorageFleet::uniform(3, BatteryUnit::inert()).unwrap())
        .unwrap();
    assert!(inert.storage().is_none());
    // ...and a zero-rate (but nonzero-capacity) fleet normalizes away at
    // policy level, so both runs take the storage-free code path.
    let zero_rate = diurnal_day_scenario(7)
        .with_storage(
            StorageFleet::uniform(3, BatteryUnit::new(4.0, 0.0, 0.0, 0.95, 0.95, 2.0).unwrap())
                .unwrap(),
        )
        .unwrap();
    assert!(zero_rate.storage().is_none());

    let a = run(&plain);
    let b = run(&inert);
    let c = run(&zero_rate);
    for j in 0..3 {
        for k in 0..a.times_min().len() {
            assert_eq!(a.power_mw(j)[k].to_bits(), b.power_mw(j)[k].to_bits());
            assert_eq!(a.power_mw(j)[k].to_bits(), c.power_mw(j)[k].to_bits());
            assert_eq!(a.servers(j)[k], b.servers(j)[k]);
            assert_eq!(a.servers(j)[k], c.servers(j)[k]);
        }
    }
    for k in 0..a.times_min().len() {
        assert_eq!(
            a.cost_cumulative()[k].to_bits(),
            b.cost_cumulative()[k].to_bits()
        );
        assert_eq!(
            a.cost_cumulative()[k].to_bits(),
            c.cost_cumulative()[k].to_bits()
        );
    }
    assert!(a.soc_mwh(0).is_none());
    assert!(b.soc_mwh(0).is_none());
}

#[test]
fn demand_charge_accounting_is_consistent() {
    let result = run(&demand_charge_scenario(11));
    let dc = result
        .demand_charge_cumulative()
        .expect("tariff configured — accrual recorded");
    assert_eq!(dc.len(), result.times_min().len());
    assert!(dc.windows(2).all(|w| w[1] >= w[0]), "accrual must ratchet");
    assert!(result.total_demand_charge() > 0.0);
    // The billed peak is exactly the maximum of the recorded grid draw.
    let peaks = result.billed_peak_mw().unwrap();
    for (j, &peak) in peaks.iter().enumerate() {
        let observed = result.power_mw(j).iter().fold(0.0f64, |acc, &p| acc.max(p));
        assert!(
            (peak - observed).abs() < 1e-12,
            "IDC {j} billed peak {peak} vs observed max {observed}"
        );
    }
    assert!(
        (result.total_cost_with_demand_charges()
            - (result.total_cost() + result.total_demand_charge()))
        .abs()
            < 1e-9
    );
    // No battery in this scenario: rate series are absent.
    assert!(result.soc_mwh(0).is_none());
}

/// The acceptance experiment: on the demand-charge diurnal day, storage
/// plus shifting must beat shifting alone on total cost (energy plus the
/// separately-reported demand-charge component).
#[test]
fn storage_plus_shifting_beats_shifting_alone() {
    let shifting = run(&demand_charge_scenario(11));
    let storage = run(&storage_plus_shifting_scenario(11));
    assert!(storage.total_demand_charge() > 0.0);
    assert!(
        storage.total_cost_with_demand_charges() < shifting.total_cost_with_demand_charges(),
        "storage {} !< shifting alone {} (energy {} + demand {} vs energy {} + demand {})",
        storage.total_cost_with_demand_charges(),
        shifting.total_cost_with_demand_charges(),
        storage.total_cost(),
        storage.total_demand_charge(),
        shifting.total_cost(),
        shifting.total_demand_charge()
    );
    // The battery must also not degrade service.
    assert!(storage.latency_ok_fraction() > 0.999);
}
