//! Serializable snapshots of the evolving controller state, for
//! checkpoint/restore of online runs (the `idc-runtime` daemon).
//!
//! The structs here are *plain data*: no wall-clock timings, nothing
//! derivable deterministically from the problem. They capture exactly
//! what [`MpcPolicy`](crate::policy::MpcPolicy)'s `decide` reads or writes
//! across steps, so `restore` + `decide` reproduces an uninterrupted run
//! bit-for-bit. That includes the one piece of solver state that outlives
//! a step — the QP's working-set factor, which the next solve edits
//! instead of rebuilding — captured not as numbers but as the index log
//! that rebuilds it ([`FactorLogSnapshot`]).
//!
//! Kept in a module of its own (rather than next to the policy) because
//! the serde derives expand unqualified `Result`/`Error` paths and must
//! not collide with this crate's aliases.

use idc_control::mpc::CarriedFactor;
pub use idc_opt::banded_qp::factor_log_cap;
use idc_opt::banded_qp::{FactorLog, FactorOp};
use idc_timeseries::predictor::PredictorState;
use serde::{Deserialize, Serialize};

/// `serde(default)` helper: the vendored derive supports only
/// `default = "path"`, so absent optional fields route through this.
fn none_f64s() -> Option<Vec<f64>> {
    None
}

/// `serde(default)` helper for an absent carried working-set state.
fn no_factor_log() -> Option<FactorLogSnapshot> {
    None
}

/// Serializable form of the inner controller's warm-start carry-over
/// (`ΔU` guess, active constraint set and the solver's carried working-set
/// state). The QP structure cache itself is *not* captured — it rebuilds
/// deterministically from the problem — but the warm start must be,
/// because warm and cold solves agree only to solver tolerance, not
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmStartSnapshot {
    /// Stacked `ΔU` solution of the previous solve.
    pub delta_u: Vec<f64>,
    /// Indices of the constraints active at the previous solution.
    pub active_set: Vec<u64>,
    /// The solver's carried working-set state, as the index log that
    /// rebuilds it; `None` when none is carried (and in checkpoints
    /// written before the state was carried, which then restore as a
    /// from-scratch build).
    #[serde(default = "no_factor_log")]
    pub factor_log: Option<FactorLogSnapshot>,
}

/// The index log of the QP solver's working-set state (see
/// [`idc_opt::banded_qp::FactorLog`]), with the structure key of the QP
/// skeleton it belongs to. Row indices are range-checked only against the
/// QP, at the first plan after a restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorLogSnapshot {
    /// The skeleton's structure key
    /// ([`idc_control::riccati::RiccatiSkeleton::structure_key`]).
    pub structure: Vec<f64>,
    /// The working set of the last from-scratch build.
    pub base: Vec<u64>,
    /// Each change since, by kind ([`idc_opt::banded_qp::FactorOp::kind`]:
    /// 0 fix, 1 free, 2 append, 3 remove, 4 flip).
    pub kinds: Vec<u8>,
    /// The inequality row of each change.
    pub rows: Vec<u64>,
}

impl FactorLogSnapshot {
    /// The log's shape checks that need no QP: as many kinds as rows, at
    /// most [`factor_log_cap`] changes for its base, every kind known,
    /// every row below 2³² and a finite structure key. Returns the first
    /// failure's reason.
    pub fn check(&self) -> std::result::Result<(), String> {
        if self.kinds.len() != self.rows.len() {
            return Err(format!(
                "factor log has {} kinds for {} rows",
                self.kinds.len(),
                self.rows.len()
            ));
        }
        let cap = factor_log_cap(self.base.len());
        if self.kinds.len() > cap {
            return Err(format!(
                "factor log has {} changes, above the cap of {cap}",
                self.kinds.len()
            ));
        }
        if let Some(k) = self.kinds.iter().find(|&&k| k >= FactorOp::KINDS) {
            return Err(format!("unknown factor-log operation kind {k}"));
        }
        if let Some(i) = self.rows.iter().find(|&&i| u32::try_from(i).is_err()) {
            return Err(format!("factor-log row {i} out of range"));
        }
        if let Some(v) = self.structure.iter().find(|v| !v.is_finite()) {
            return Err(format!("non-finite factor-log structure key entry {v}"));
        }
        Ok(())
    }

    /// The log as the controller's data, or the reason
    /// [`check`](Self::check) refuses it.
    pub fn to_carried(&self) -> std::result::Result<CarriedFactor, String> {
        self.check()?;
        let ops = self
            .kinds
            .iter()
            .zip(&self.rows)
            .map(|(&k, &i)| FactorOp::from_parts(k, i).expect("kinds and rows are checked"))
            .collect();
        Ok(CarriedFactor {
            structure: self.structure.clone(),
            log: FactorLog {
                base: self.base.iter().map(|&i| i as usize).collect(),
                ops,
            },
        })
    }

    /// The controller's carried state as snapshot data.
    pub fn from_carried(carried: &CarriedFactor) -> Self {
        FactorLogSnapshot {
            structure: carried.structure.clone(),
            base: carried.log.base.iter().map(|&i| i as u64).collect(),
            kinds: carried.log.ops.iter().map(|op| op.kind()).collect(),
            rows: carried.log.ops.iter().map(|op| op.row() as u64).collect(),
        }
    }
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
