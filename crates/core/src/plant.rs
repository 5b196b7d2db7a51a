//! The per-step plant: what a policy's decision does to the fleet, metered.
//!
//! Both hosts of a control loop — the batch
//! [`Simulator`](crate::simulation::Simulator) and the online runtime's
//! stepper — share this one kernel, so they cannot disagree about what a
//! decision costs. Each sampling period the host loop
//!
//! 1. hands the offered portal workloads to [`Plant::admit`], which sheds
//!    proportionally above the fleet's latency-bounded capacity;
//! 2. prices the step at [`Plant::last_power_mw`] (the demand→price
//!    feedback) and asks its policy for a decision;
//! 3. hands the decision to [`Plant::step`], which validates it, applies
//!    the battery rates through the clamped storage dynamics, meters grid
//!    draw (IT power + charge − discharge), classifies latency, integrates
//!    the energy cost and advances the ratcheting demand-charge meter.
//!
//! Where the inputs come from (an RNG, a feed) is the caller's business;
//! everything from admission to the bill happens here, in one order.

use idc_datacenter::idc::LatencyStatus;
use idc_market::tariff::DemandCharge;
use idc_storage::{AppliedRates, StorageState};

use crate::policy::Decision;
use crate::scenario::Scenario;
use crate::snapshot::{BatterySnapshot, DemandMeterSnapshot, PlantSnapshot};
use crate::{Error, Result};

/// Admission-control ceiling as a fraction of the fleet's total capacity:
/// slightly inside it so the controllability condition of Sec. IV-B keeps
/// holding.
pub const ADMISSION_HEADROOM: f64 = 0.999;

/// The ratcheting demand-charge meter: running per-IDC billed peaks of
/// grid draw, accrued at the tariff's hourly weight.
#[derive(Debug, Clone, PartialEq)]
struct DemandMeter {
    tariff: DemandCharge,
    billed_peak_mw: Vec<f64>,
    accrued: f64,
}

/// The accounting state of one fleet under control. See the module docs
/// for the per-step protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct Plant {
    admission_cap: f64,
    last_power_mw: Vec<f64>,
    accumulated_cost: f64,
    latency_ok: u64,
    offered_volume: f64,
    shed_volume: f64,
    /// The authoritative battery state; `None` without storage.
    battery: Option<StorageState>,
    /// `None` without a demand-charge tariff.
    meter: Option<DemandMeter>,
}

impl Plant {
    /// The plant of `scenario` at the start of a run: no power drawn yet,
    /// batteries at their initial charge, nothing billed.
    pub fn new(scenario: &Scenario) -> Self {
        let n = scenario.fleet().num_idcs();
        Plant {
            admission_cap: scenario.fleet().total_capacity() * ADMISSION_HEADROOM,
            last_power_mw: vec![0.0; n],
            accumulated_cost: 0.0,
            latency_ok: 0,
            offered_volume: 0.0,
            shed_volume: 0.0,
            battery: scenario.storage().map(StorageState::of),
            meter: scenario.demand_charge().map(|&tariff| DemandMeter {
                tariff,
                billed_peak_mw: vec![0.0; n],
                accrued: 0.0,
            }),
        }
    }

    /// Admission control: scales `offered` down proportionally when its
    /// total exceeds what the fleet can serve within its latency bounds
    /// (the paper assumes `Σ L ≤ Σ λ̄`; real front ends shed), and counts
    /// the offered and shed volume.
    pub fn admit(&mut self, offered: &mut [f64]) {
        let total_offered: f64 = offered.iter().sum();
        self.offered_volume += total_offered;
        if total_offered > self.admission_cap {
            let scale = self.admission_cap / total_offered;
            for v in offered.iter_mut() {
                *v *= scale;
            }
            self.shed_volume += total_offered - self.admission_cap;
        }
    }

    /// Applies `decision` for step `k` of `scenario` (the scenario this
    /// plant was built from): validates it against the admitted `offered`
    /// workloads, applies the commanded battery rates, meters grid draw,
    /// integrates the energy cost at `prices` and advances the
    /// demand-charge meter. Returns the battery rates actually applied
    /// after clamping, one per IDC (empty without storage).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] naming `policy` when the decision has the wrong
    /// dimensions, loses workload beyond tolerance, or carries battery
    /// rates the plant cannot apply. The plant is unchanged on error.
    pub fn step(
        &mut self,
        scenario: &Scenario,
        k: usize,
        policy: &str,
        offered: &[f64],
        prices: &[f64],
        decision: &Decision,
    ) -> Result<Vec<AppliedRates>> {
        let fleet = scenario.fleet();
        let n = fleet.num_idcs();
        let ts = scenario.ts_hours();

        // ---- Validate. ----
        if decision.servers_on.len() != n
            || decision.allocation.idcs() != n
            || decision.allocation.portals() != offered.len()
        {
            return Err(Error::Config(format!(
                "policy '{policy}' returned a decision with wrong dimensions"
            )));
        }
        if !decision.allocation.conserves_workload(offered, 1e-3) {
            return Err(Error::Config(format!(
                "policy '{policy}' lost workload at step {k}"
            )));
        }
        for rates in [&decision.charge_mw, &decision.discharge_mw] {
            let len_ok = rates.is_empty() || (self.battery.is_some() && rates.len() == n);
            if !len_ok || rates.iter().any(|r| !r.is_finite()) {
                return Err(Error::Config(format!(
                    "policy '{policy}' returned battery rates the scenario's plant cannot apply"
                )));
            }
        }

        // ---- Apply and meter. ----
        let mut per_idc = fleet.per_idc_power_mw(&decision.servers_on, &decision.allocation);
        let mut applied = Vec::new();
        if let (Some(state), Some(battery_fleet)) = (self.battery.as_mut(), scenario.storage()) {
            // Apply the commanded rates through the clamped battery
            // dynamics, then meter *grid* draw = IT power + charge −
            // discharge. Only this branch touches the power series, so
            // storage-free runs stay byte-identical.
            applied.reserve_exact(n);
            for (j, p) in per_idc.iter_mut().enumerate() {
                let c_cmd = decision.charge_mw.get(j).copied().unwrap_or(0.0);
                let d_cmd = decision.discharge_mw.get(j).copied().unwrap_or(0.0);
                let rates = state.apply(battery_fleet, j, c_cmd, d_cmd, ts);
                *p = (*p + rates.charge_mw - rates.discharge_mw).max(0.0);
                applied.push(rates);
            }
        }
        for (j, idc) in fleet.idcs().iter().enumerate() {
            if idc.latency_status(decision.servers_on[j], decision.allocation.idc_total(j))
                == LatencyStatus::WithinBound
            {
                self.latency_ok += 1;
            }
        }
        self.accumulated_cost += per_idc
            .iter()
            .zip(prices)
            .map(|(&p, &pr)| p * pr * ts)
            .sum::<f64>();
        if let Some(meter) = self.meter.as_mut() {
            for (peak, &p) in meter.billed_peak_mw.iter_mut().zip(&per_idc) {
                if p > *peak {
                    *peak = p;
                }
            }
            meter.accrued +=
                meter.tariff.hourly_weight() * meter.billed_peak_mw.iter().sum::<f64>() * ts;
        }
        self.last_power_mw = per_idc;
        Ok(applied)
    }

    /// Per-IDC grid draw of the last step (MW); zeros before the first.
    pub fn last_power_mw(&self) -> &[f64] {
        &self.last_power_mw
    }

    /// Energy cost accumulated so far ($), demand charges excluded.
    pub fn accumulated_cost(&self) -> f64 {
        self.accumulated_cost
    }

    /// Count of (IDC, step) pairs that met their latency bound so far.
    pub fn latency_ok(&self) -> u64 {
        self.latency_ok
    }

    /// Fraction of the offered request volume shed by admission control
    /// so far (0 before anything was offered).
    pub fn shed_fraction(&self) -> f64 {
        if self.offered_volume > 0.0 {
            self.shed_volume / self.offered_volume
        } else {
            0.0
        }
    }

    /// The battery state (state of charge, conversion losses); `None`
    /// without storage.
    pub fn battery(&self) -> Option<&StorageState> {
        self.battery.as_ref()
    }

    /// Running per-IDC billed peaks of grid draw (MW); `None` without a
    /// demand-charge tariff.
    pub fn billed_peak_mw(&self) -> Option<&[f64]> {
        self.meter.as_ref().map(|m| m.billed_peak_mw.as_slice())
    }

    /// Amortized demand charge accrued so far ($); `None` without a
    /// demand-charge tariff.
    pub fn demand_charge(&self) -> Option<f64> {
        self.meter.as_ref().map(|m| m.accrued)
    }

    /// Exports the accounting state as plain data.
    pub fn snapshot(&self) -> PlantSnapshot {
        PlantSnapshot {
            last_power_mw: self.last_power_mw.clone(),
            accumulated_cost: self.accumulated_cost,
            latency_ok: self.latency_ok,
            offered_volume: self.offered_volume,
            shed_volume: self.shed_volume,
            battery: self.battery.as_ref().map(|b| BatterySnapshot {
                soc_mwh: b.soc_mwh().to_vec(),
                loss_mwh: b.total_loss_mwh(),
            }),
            demand_meter: self.meter.as_ref().map(|m| DemandMeterSnapshot {
                billed_peak_mw: m.billed_peak_mw.clone(),
                accrued_dollars: m.accrued,
            }),
        }
    }

    /// Rebuilds the plant of `scenario` from a [`snapshot`](Self::snapshot)
    /// export.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when the snapshot does not fit the scenario: a
    /// different IDC count, battery state missing for a storage scenario
    /// (or present without storage), a demand-charge meter missing for a
    /// tariffed scenario (or present without a tariff), or values out of
    /// range.
    pub fn restore(scenario: &Scenario, snapshot: &PlantSnapshot) -> Result<Self> {
        let misfit = |what: &str| {
            Err(Error::Config(format!(
                "plant state {what} for scenario '{}'",
                scenario.name()
            )))
        };
        let mut plant = Plant::new(scenario);
        let n = plant.last_power_mw.len();
        if snapshot.last_power_mw.len() != n {
            return misfit("covers a different number of IDCs");
        }
        plant.battery = match (scenario.storage(), &snapshot.battery) {
            (None, None) => None,
            (Some(fleet), Some(b)) => {
                match StorageState::resume(fleet, b.soc_mwh.clone(), b.loss_mwh) {
                    Some(state) => Some(state),
                    None => return misfit("has an out-of-range battery state"),
                }
            }
            (Some(_), None) => {
                return misfit("lacks the battery state (state of charge, conversion loss)")
            }
            (None, Some(_)) => {
                return misfit("carries battery state, but no storage is configured")
            }
        };
        match (plant.meter.as_mut(), &snapshot.demand_meter) {
            (None, None) => {}
            (Some(meter), Some(m)) => {
                let peaks_ok = m.billed_peak_mw.len() == n
                    && m.billed_peak_mw.iter().all(|p| p.is_finite() && *p >= 0.0);
                if !peaks_ok || !m.accrued_dollars.is_finite() {
                    return misfit("has an out-of-range demand-charge meter");
                }
                meter.billed_peak_mw = m.billed_peak_mw.clone();
                meter.accrued = m.accrued_dollars;
            }
            (Some(_), None) => {
                return misfit("lacks the demand-charge meter (billed peaks, accrued charge)")
            }
            (None, Some(_)) => {
                return misfit("carries a demand-charge meter, but no tariff is configured")
            }
        }
        plant.last_power_mw = snapshot.last_power_mw.clone();
        plant.accumulated_cost = snapshot.accumulated_cost;
        plant.latency_ok = snapshot.latency_ok;
        plant.offered_volume = snapshot.offered_volume;
        plant.shed_volume = snapshot.shed_volume;
        Ok(plant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{MpcPolicy, Policy, StepContext};
    use crate::scenario::{smoothing_scenario, storage_plus_shifting_scenario};

    #[test]
    fn admission_sheds_proportionally_above_capacity() {
        let scenario = smoothing_scenario();
        let mut plant = Plant::new(&scenario);
        let cap = scenario.fleet().total_capacity() * ADMISSION_HEADROOM;
        let mut offered = vec![cap, cap];
        plant.admit(&mut offered);
        assert!((offered.iter().sum::<f64>() - cap).abs() < 1e-6 * cap);
        assert!((offered[0] - offered[1]).abs() < 1e-9);
        assert!((plant.shed_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn undersized_battery_rates_are_rejected_without_touching_the_plant() {
        let scenario = storage_plus_shifting_scenario(5).with_num_steps(2);
        let fleet = scenario.fleet();
        let mut plant = Plant::new(&scenario);
        let mut offered = fleet.offered_workloads();
        plant.admit(&mut offered);
        let prices = scenario
            .pricing()
            .prices(scenario.start_hour(), plant.last_power_mw());
        let mut policy = MpcPolicy::paper_tuned(&scenario).unwrap();
        let ctx = StepContext {
            step: 0,
            hour: scenario.start_hour(),
            dt_hours: scenario.ts_hours(),
            prices: prices.clone(),
            offered: offered.clone(),
            idcs: fleet.idcs(),
        };
        policy.initialize(&ctx).unwrap();
        let mut decision = policy.decide(&ctx).unwrap();
        decision.charge_mw = vec![0.5];
        let before = plant.clone();
        let err = plant
            .step(&scenario, 0, "probe", &offered, &prices, &decision)
            .unwrap_err();
        assert!(err.to_string().contains("battery rates"), "{err}");
        assert_eq!(plant, before);
    }
}
