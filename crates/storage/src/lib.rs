//! Battery/UPS energy storage for distributed IDCs.
//!
//! The paper's only actuator is workload shifting; real IDCs also carry
//! battery/UPS capacity that can be dispatched against price peaks
//! (Dabbagh et al., arXiv:2005.02428). This crate models per-IDC units:
//!
//! * a [`BatteryUnit`] is one IDC's aggregate storage — usable energy
//!   capacity, charge/discharge rate limits and one-way efficiencies
//!   (their product is the round-trip efficiency);
//! * a [`StorageFleet`] is one unit per IDC, in IDC order;
//! * a [`StorageState`] holds the evolving state of charge and applies
//!   the clamped discrete-time dynamics
//!   `soc ← soc + Ts·(η_c·c − d/η_d)`, never letting commanded rates
//!   push the state outside `[0, capacity]`.
//!
//! Grid draw becomes `P_grid = P_IT + c − d`: charging adds load,
//! discharging serves part of the IT load from the battery. The MPC's
//! enlarged decision vector and the demand-charge tariff live elsewhere
//! (`idc-control`, `idc-market`); this crate is the physical model both
//! are checked against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// One IDC's aggregate battery/UPS installation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatteryUnit {
    /// Usable energy capacity in MWh (0 = no storage at this IDC).
    pub capacity_mwh: f64,
    /// Maximum grid-side charge rate in MW.
    pub max_charge_mw: f64,
    /// Maximum load-side discharge rate in MW.
    pub max_discharge_mw: f64,
    /// Charge efficiency in (0, 1]: MWh stored per grid MWh drawn.
    pub charge_efficiency: f64,
    /// Discharge efficiency in (0, 1]: load MWh served per stored MWh.
    pub discharge_efficiency: f64,
    /// State of charge at the start of a run, in MWh.
    pub initial_soc_mwh: f64,
}

impl BatteryUnit {
    /// Creates a unit, validating capacity/rate non-negativity,
    /// efficiencies in `(0, 1]` and the initial SoC within capacity.
    /// Returns `None` on any violation or non-finite input.
    pub fn new(
        capacity_mwh: f64,
        max_charge_mw: f64,
        max_discharge_mw: f64,
        charge_efficiency: f64,
        discharge_efficiency: f64,
        initial_soc_mwh: f64,
    ) -> Option<Self> {
        let finite = [
            capacity_mwh,
            max_charge_mw,
            max_discharge_mw,
            charge_efficiency,
            discharge_efficiency,
            initial_soc_mwh,
        ]
        .iter()
        .all(|v| v.is_finite());
        let valid = finite
            && capacity_mwh >= 0.0
            && max_charge_mw >= 0.0
            && max_discharge_mw >= 0.0
            && (charge_efficiency > 0.0 && charge_efficiency <= 1.0)
            && (discharge_efficiency > 0.0 && discharge_efficiency <= 1.0)
            && (initial_soc_mwh >= 0.0 && initial_soc_mwh <= capacity_mwh);
        if !valid {
            return None;
        }
        Some(BatteryUnit {
            capacity_mwh,
            max_charge_mw,
            max_discharge_mw,
            charge_efficiency,
            discharge_efficiency,
            initial_soc_mwh,
        })
    }

    /// A unit that can do nothing: zero capacity and zero rates. Runs
    /// configured with it are byte-identical to runs with no storage.
    pub fn inert() -> Self {
        BatteryUnit {
            capacity_mwh: 0.0,
            max_charge_mw: 0.0,
            max_discharge_mw: 0.0,
            charge_efficiency: 1.0,
            discharge_efficiency: 1.0,
            initial_soc_mwh: 0.0,
        }
    }

    /// Round-trip efficiency: load MWh recovered per grid MWh stored.
    pub fn round_trip_efficiency(&self) -> f64 {
        self.charge_efficiency * self.discharge_efficiency
    }

    /// Whether this unit can never move energy (zero capacity or both
    /// rates zero).
    pub fn is_inert(&self) -> bool {
        self.capacity_mwh <= 0.0 || (self.max_charge_mw <= 0.0 && self.max_discharge_mw <= 0.0)
    }
}

/// Per-IDC battery units, in IDC order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageFleet {
    units: Vec<BatteryUnit>,
}

impl StorageFleet {
    /// Creates a fleet from per-IDC units. Returns `None` when empty.
    pub fn new(units: Vec<BatteryUnit>) -> Option<Self> {
        if units.is_empty() {
            return None;
        }
        Some(StorageFleet { units })
    }

    /// `n` identical units.
    pub fn uniform(n: usize, unit: BatteryUnit) -> Option<Self> {
        StorageFleet::new(vec![unit; n])
    }

    /// The per-IDC units.
    pub fn units(&self) -> &[BatteryUnit] {
        &self.units
    }

    /// Number of IDCs covered.
    pub fn num_idcs(&self) -> usize {
        self.units.len()
    }

    /// Whether no unit in the fleet can move energy — such a fleet is
    /// normalized away (treated as "no storage") so zero-capacity
    /// configurations stay byte-identical to storage-free runs.
    pub fn is_inert(&self) -> bool {
        self.units.iter().all(BatteryUnit::is_inert)
    }

    /// Initial per-IDC state of charge (MWh).
    pub fn initial_soc_mwh(&self) -> Vec<f64> {
        self.units.iter().map(|u| u.initial_soc_mwh).collect()
    }
}

/// The result of applying one step of storage dynamics: the rates that
/// were actually feasible after clamping, and the losses incurred.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppliedRates {
    /// Grid-side charge rate actually applied (MW).
    pub charge_mw: f64,
    /// Load-side discharge rate actually applied (MW).
    pub discharge_mw: f64,
    /// Energy lost to conversion inefficiency this step (MWh).
    pub loss_mwh: f64,
}

/// The evolving per-IDC state of charge plus the clamped dynamics.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageState {
    soc_mwh: Vec<f64>,
    /// Cumulative conversion losses over the run (MWh).
    total_loss_mwh: f64,
}

impl StorageState {
    /// Initial state of a fleet.
    pub fn of(fleet: &StorageFleet) -> Self {
        StorageState {
            soc_mwh: fleet.initial_soc_mwh(),
            total_loss_mwh: 0.0,
        }
    }

    /// Rebuilds a state from a checkpointed per-IDC state of charge.
    /// Returns `None` when the vector length differs from the fleet or any
    /// entry is non-finite or outside its unit's `[0, capacity]`. The loss
    /// accumulator restarts at zero — losses are reporting, not dynamics.
    pub fn with_soc(fleet: &StorageFleet, soc_mwh: Vec<f64>) -> Option<Self> {
        Self::resume(fleet, soc_mwh, 0.0)
    }

    /// Like [`with_soc`](Self::with_soc), but also resumes the loss
    /// accumulator at `total_loss_mwh` (a plant checkpoint reports losses
    /// over the whole run). Returns `None` additionally when the loss is
    /// negative or non-finite.
    pub fn resume(fleet: &StorageFleet, soc_mwh: Vec<f64>, total_loss_mwh: f64) -> Option<Self> {
        if soc_mwh.len() != fleet.num_idcs() || !(total_loss_mwh >= 0.0) {
            return None;
        }
        for (s, u) in soc_mwh.iter().zip(fleet.units()) {
            if !s.is_finite() || *s < 0.0 || *s > u.capacity_mwh {
                return None;
            }
        }
        total_loss_mwh.is_finite().then_some(StorageState {
            soc_mwh,
            total_loss_mwh,
        })
    }

    /// Per-IDC state of charge (MWh).
    pub fn soc_mwh(&self) -> &[f64] {
        &self.soc_mwh
    }

    /// Cumulative conversion losses (MWh) since the initial state.
    pub fn total_loss_mwh(&self) -> f64 {
        self.total_loss_mwh
    }

    /// Applies one sampling period of commanded rates to unit `j`,
    /// clamping so the rates never exceed the unit's limits and the state
    /// of charge never leaves `[0, capacity]`. Returns what was actually
    /// applied. Deterministic: clamp order is rate limits first, then
    /// energy headroom (charge), then available energy (discharge).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range for the fleet this state was built
    /// from.
    pub fn apply(
        &mut self,
        fleet: &StorageFleet,
        j: usize,
        charge_mw: f64,
        discharge_mw: f64,
        ts_hours: f64,
    ) -> AppliedRates {
        let unit = &fleet.units()[j];
        let soc = self.soc_mwh[j];
        // Rate limits (commands may be slightly negative from solver
        // round-off; clamp to physical range).
        let mut c = charge_mw.max(0.0).min(unit.max_charge_mw);
        let mut d = discharge_mw.max(0.0).min(unit.max_discharge_mw);
        // Energy headroom: stored energy gained is η_c·c·Ts.
        let headroom = (unit.capacity_mwh - soc).max(0.0);
        if unit.charge_efficiency * c * ts_hours > headroom {
            c = headroom / (unit.charge_efficiency * ts_hours);
        }
        // Available energy: stored energy spent is d·Ts/η_d.
        if d * ts_hours / unit.discharge_efficiency > soc {
            d = soc * unit.discharge_efficiency / ts_hours;
        }
        let delta =
            unit.charge_efficiency * c * ts_hours - d * ts_hours / unit.discharge_efficiency;
        self.soc_mwh[j] = (soc + delta).clamp(0.0, unit.capacity_mwh);
        // Losses: grid energy in minus stored gain, plus stored spend
        // minus load energy out.
        let loss = (1.0 - unit.charge_efficiency) * c * ts_hours
            + d * ts_hours * (1.0 / unit.discharge_efficiency - 1.0);
        self.total_loss_mwh += loss;
        AppliedRates {
            charge_mw: c,
            discharge_mw: d,
            loss_mwh: loss,
        }
    }
}

/// The standard test battery used by the storage scenarios: 4 MWh usable
/// at up to 2 MW either way, 95 % one-way efficiency (≈ 90 % round trip),
/// starting half charged. Sized to matter against the paper's 5–11 MW
/// IDCs without dominating them.
pub fn paper_test_battery() -> BatteryUnit {
    BatteryUnit::new(4.0, 2.0, 2.0, 0.95, 0.95, 2.0).expect("valid test battery")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_units() {
        assert!(BatteryUnit::new(-1.0, 1.0, 1.0, 0.9, 0.9, 0.0).is_none());
        assert!(BatteryUnit::new(1.0, -1.0, 1.0, 0.9, 0.9, 0.0).is_none());
        assert!(BatteryUnit::new(1.0, 1.0, 1.0, 0.0, 0.9, 0.0).is_none());
        assert!(BatteryUnit::new(1.0, 1.0, 1.0, 0.9, 1.1, 0.0).is_none());
        assert!(BatteryUnit::new(1.0, 1.0, 1.0, 0.9, 0.9, 2.0).is_none());
        assert!(BatteryUnit::new(f64::NAN, 1.0, 1.0, 0.9, 0.9, 0.0).is_none());
        assert!(BatteryUnit::new(1.0, 1.0, 1.0, 0.9, 0.9, 1.0).is_some());
    }

    #[test]
    fn inert_detection() {
        assert!(BatteryUnit::inert().is_inert());
        assert!(BatteryUnit::new(0.0, 5.0, 5.0, 0.9, 0.9, 0.0)
            .unwrap()
            .is_inert());
        assert!(BatteryUnit::new(5.0, 0.0, 0.0, 0.9, 0.9, 1.0)
            .unwrap()
            .is_inert());
        assert!(!paper_test_battery().is_inert());
        let fleet = StorageFleet::uniform(3, BatteryUnit::inert()).unwrap();
        assert!(fleet.is_inert());
        let mixed = StorageFleet::new(vec![BatteryUnit::inert(), paper_test_battery()]).unwrap();
        assert!(!mixed.is_inert());
    }

    #[test]
    fn round_trip_efficiency_is_product() {
        let u = paper_test_battery();
        assert!((u.round_trip_efficiency() - 0.9025).abs() < 1e-12);
    }

    #[test]
    fn dynamics_conserve_energy_with_losses() {
        let fleet = StorageFleet::uniform(1, paper_test_battery()).unwrap();
        let mut state = StorageState::of(&fleet);
        let ts = 0.5;
        let applied = state.apply(&fleet, 0, 1.0, 0.0, ts);
        assert_eq!(applied.charge_mw, 1.0);
        // SoC gained η_c·c·Ts = 0.95·1.0·0.5.
        assert!((state.soc_mwh()[0] - (2.0 + 0.475)).abs() < 1e-12);
        // Loss is the 5 % conversion shortfall.
        assert!((applied.loss_mwh - 0.025).abs() < 1e-12);

        let applied = state.apply(&fleet, 0, 0.0, 1.0, ts);
        assert_eq!(applied.discharge_mw, 1.0);
        // SoC spent d·Ts/η_d.
        assert!((state.soc_mwh()[0] - (2.475 - 0.5 / 0.95)).abs() < 1e-12);
        assert!(applied.loss_mwh > 0.0);
    }

    #[test]
    fn dynamics_clamp_at_capacity_and_empty() {
        let fleet = StorageFleet::uniform(1, paper_test_battery()).unwrap();
        let mut state = StorageState::of(&fleet);
        // Massive charge command: clamped to the 2 MW rate limit first,
        // then to the 2 MWh headroom.
        let applied = state.apply(&fleet, 0, 100.0, 0.0, 2.0);
        assert!(applied.charge_mw <= 2.0 + 1e-12);
        assert!((state.soc_mwh()[0] - 4.0).abs() < 1e-9);
        // Full battery: further charge is a no-op.
        let applied = state.apply(&fleet, 0, 1.0, 0.0, 1.0);
        assert!(applied.charge_mw.abs() < 1e-12);
        // Drain beyond the stored energy: clamped at empty.
        for _ in 0..10 {
            state.apply(&fleet, 0, 0.0, 2.0, 1.0);
        }
        assert!(state.soc_mwh()[0].abs() < 1e-9);
        let applied = state.apply(&fleet, 0, 0.0, 2.0, 1.0);
        assert!(applied.discharge_mw.abs() < 1e-12);
    }

    #[test]
    fn negative_commands_are_clamped_to_zero() {
        let fleet = StorageFleet::uniform(1, paper_test_battery()).unwrap();
        let mut state = StorageState::of(&fleet);
        let before = state.soc_mwh()[0];
        let applied = state.apply(&fleet, 0, -1.0, -1.0, 0.5);
        assert_eq!(applied.charge_mw, 0.0);
        assert_eq!(applied.discharge_mw, 0.0);
        assert_eq!(state.soc_mwh()[0], before);
    }
}
