//! Serializable snapshots of the evolving controller state, for
//! checkpoint/restore of online runs (the `idc-runtime` daemon).
//!
//! The structs here are *plain data*: no solver scratch, no wall-clock
//! timings, nothing derivable deterministically from the problem. They
//! capture exactly what [`MpcPolicy`](crate::policy::MpcPolicy)'s
//! `decide` reads or writes across steps, so `restore` + `decide`
//! reproduces an uninterrupted run bit-for-bit.
//!
//! Kept in a module of its own (rather than next to the policy) because
//! the serde derives expand unqualified `Result`/`Error` paths and must
//! not collide with this crate's aliases.

use idc_timeseries::predictor::PredictorState;
use serde::{Deserialize, Serialize};

/// `serde(default)` helper: the vendored derive supports only
/// `default = "path"`, so absent optional fields route through this.
fn none_f64s() -> Option<Vec<f64>> {
    None
}

/// Serializable form of the inner controller's warm-start carry-over
/// (`ΔU` guess plus active constraint set). The QP structure cache itself
/// is *not* captured — it rebuilds deterministically from the problem — but
/// the warm start must be, because warm and cold solves agree only to
/// solver tolerance, not bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmStartSnapshot {
    /// Stacked `ΔU` solution of the previous solve.
    pub delta_u: Vec<f64>,
    /// Indices of the constraints active at the previous solution.
    pub active_set: Vec<u64>,
}

/// The complete evolving state of a [`crate::policy::MpcPolicy`] as plain
/// serializable data: everything `decide` reads or writes across steps, so
/// [`crate::policy::MpcPolicy::restore`] resumes a run bit-for-bit.
///
/// Wall-clock timings and the diagnostic problem log are deliberately
/// excluded — they never influence decisions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MpcPolicySnapshot {
    /// `U(k−1)`, IDC-major flat — `None` before initialization.
    pub prev_input: Option<Vec<f64>>,
    /// `m(k−1)` — `None` before initialization.
    pub prev_servers: Option<Vec<u64>>,
    /// Per-portal AR/RLS predictor states.
    pub predictors: Vec<PredictorState>,
    /// The inner controller's warm-start state, if a solve has happened.
    pub warm_start: Option<WarmStartSnapshot>,
    /// Warm-solve counter of the inner controller.
    pub warm_solves: u64,
    /// Cold-solve counter of the inner controller.
    pub cold_solves: u64,
    /// Steps at which the policy degraded to its fallback so far.
    pub fallback_steps: Vec<u64>,
    /// Belief per-IDC battery state of charge (MWh) — `None` when the
    /// policy controls no storage. All storage/demand-charge fields
    /// default when absent so pre-storage snapshots keep restoring.
    #[serde(default = "none_f64s")]
    pub storage_soc_mwh: Option<Vec<f64>>,
    /// Battery charge rates applied at the previous step (MW).
    #[serde(default = "none_f64s")]
    pub prev_charge_mw: Option<Vec<f64>>,
    /// Battery discharge rates applied at the previous step (MW).
    #[serde(default = "none_f64s")]
    pub prev_discharge_mw: Option<Vec<f64>>,
    /// Per-IDC price EWMA driving the arbitrage reference shaping.
    #[serde(default = "none_f64s")]
    pub price_ewma: Option<Vec<f64>>,
    /// Per-IDC running billed peak of grid draw this billing period (MW).
    /// Empty when neither storage nor a demand-charge tariff is
    /// configured.
    #[serde(default = "Vec::new")]
    pub peak_so_far_mw: Vec<f64>,
}

/// The battery part of a [`PlantSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatterySnapshot {
    /// Per-IDC state of charge (MWh).
    pub soc_mwh: Vec<f64>,
    /// Conversion losses accumulated over the run (MWh).
    pub loss_mwh: f64,
}

/// The demand-charge part of a [`PlantSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandMeterSnapshot {
    /// Per-IDC billed peaks of grid draw so far (MW).
    pub billed_peak_mw: Vec<f64>,
    /// Amortized demand charge accrued so far ($).
    pub accrued_dollars: f64,
}

/// The complete accounting state of a [`crate::plant::Plant`] as plain
/// data, so [`crate::plant::Plant::restore`] resumes its metering
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlantSnapshot {
    /// Previous step's per-IDC grid draw (MW), the pricing feedback input.
    pub last_power_mw: Vec<f64>,
    /// Energy cost accumulated so far ($).
    pub accumulated_cost: f64,
    /// Count of (IDC, step) pairs that met the latency bound.
    pub latency_ok: u64,
    /// Total offered request volume seen.
    pub offered_volume: f64,
    /// Request volume shed by admission control.
    pub shed_volume: f64,
    /// Battery state; `None` when the scenario has no storage.
    pub battery: Option<BatterySnapshot>,
    /// Demand-charge meter; `None` when the scenario has no tariff.
    pub demand_meter: Option<DemandMeterSnapshot>,
}
