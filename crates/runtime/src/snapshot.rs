//! Checkpoint format and atomic persistence for the online runtime.
//!
//! A [`RuntimeSnapshot`] captures *everything* the stepper needs to resume
//! a run bit-for-bit: the scenario identity (registry key + seed + length,
//! never the bulky scenario itself), the step cursor, feed cursors (RNG
//! draw counts and in-flight backlogs), the held last-value observations,
//! the [`Plant`](idc_core::plant::Plant)'s accounting (accumulated cost,
//! shed volume, battery, demand-charge meter), the trajectories and the
//! full [`MpcPolicySnapshot`].
//!
//! Snapshots are written atomically: serialize to `<path>.tmp`, fsync,
//! rename over `<path>`. A reader therefore sees either the previous
//! complete snapshot or the new complete snapshot, never a torn one; a
//! truncated or corrupt file is rejected with a clean [`Error`], never a
//! panic.
//!
//! NOTE: this module must not import a one-generic `Result` alias — the
//! serde derives expand `Result<Self, ::serde::Error>`.

use std::fs;
use std::path::Path;

use idc_core::snapshot::{BatterySnapshot, DemandMeterSnapshot, MpcPolicySnapshot, PlantSnapshot};
use serde::{Deserialize, Serialize};

use crate::error::Error;

/// Format version; bump on any incompatible change.
/// * v2 — multi-tenant daemon: solver-backend label, bounded-ingest
///   admission state (bound + per-feed shed counters) and the
///   burst-overload schedule joined the stepper's resume state.
/// * v3 — the shared plant kernel: the battery (state of charge,
///   conversion loss) and the demand-charge meter (billed peaks, accrued
///   charge) joined the resume state. A v2 checkpoint still restores when
///   its scenario has neither — its plant fields read as absent — but one
///   of a storage or tariffed scenario is refused: that trajectory was
///   metered without the plant.
///
/// Removing a field is compatible and needs no bump: the derive ignores
/// unknown keys. So v2 checkpoints whose warm start still carries the
/// retired sharded backend's `multipliers` list keep restoring; one whose
/// backend label is `sharded[N]` fails at restore with
/// [`Error::Config`] naming the label.
pub const SNAPSHOT_VERSION: u64 = 3;

/// Oldest format [`RuntimeSnapshot::validate`] accepts.
const OLDEST_RESTORABLE_VERSION: u64 = 2;

/// Largest scenario seed a checkpoint carries exactly. The JSON model
/// holds every number as an `f64`, which represents every integer up to
/// `2⁵³` but not `2⁵³ + 1`: that seed would come back from a checkpoint as
/// `2⁵³`, and the restored run would follow another scenario. (Fault
/// schedules mask their seeds to 53 bits when they are built.)
pub const MAX_SEED: u64 = 1 << 53;

/// The reason to refuse a scenario seed above [`MAX_SEED`], if it is one.
pub(crate) fn seed_out_of_range(seed: u64) -> Option<String> {
    (seed > MAX_SEED).then(|| {
        format!("scenario seed {seed} is above 2^53 = {MAX_SEED}, the largest a checkpoint holds exactly")
    })
}

/// Serializable [`crate::feed::OverloadFaults`] parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadSnap {
    /// Burst-schedule seed.
    pub seed: u64,
    /// Burst probability in per-mille (0..=1000).
    pub burst_per_mille: u64,
    /// Duplicates appended on a burst tick.
    pub burst_factor: u64,
}

/// Serializable [`crate::feed::FeedFaults`] parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedFaultsSnap {
    /// Schedule seed.
    pub seed: u64,
    /// Drop probability in per-mille (0..=1000).
    pub drop_per_mille: u64,
    /// Maximum delivery delay in ticks.
    pub max_delay_ticks: u64,
}

/// One in-flight (published, not yet delivered) feed sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingSnap {
    /// Tick at which the sample will arrive.
    pub deliver_tick: u64,
    /// Tick the sample describes.
    pub tick: u64,
    /// The sample payload.
    pub value: Vec<f64>,
}

/// A feed's resume cursor: how much has been published, how much of the
/// RNG stream is consumed, and what is still in flight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedCursorSnap {
    /// Next tick to publish.
    pub published: u64,
    /// 64-bit words drawn from the feed's RNG so far (0 for RNG-free feeds).
    pub rng_draws: u64,
    /// Published samples not yet delivered.
    pub pending: Vec<PendingSnap>,
}

/// A held last-value observation: the newest value the consumer has seen
/// and the tick it describes (`None` = nothing ever arrived, the value is
/// the scenario's initialization default).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeldSnap {
    /// The held payload.
    pub value: Vec<f64>,
    /// Stamp of the newest arrived observation, if any.
    pub updated_tick: Option<u64>,
}

/// The complete resume state of a [`crate::stepper::Stepper`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u64,
    /// Scenario registry key (see [`crate::registry::scenario_by_key`]).
    pub scenario_key: String,
    /// Workload-noise seed the scenario was built with.
    pub seed: u64,
    /// Total steps of the run.
    pub num_steps: u64,
    /// Next step to execute (steps `0..step` are already accounted).
    pub step: u64,
    /// Staleness ceiling in ticks before degrading to the fallback plan.
    pub max_staleness_ticks: u64,
    /// Solver-backend label (`None` = the paper-tuned default, the banded
    /// backend). See [`crate::stepper::parse_backend`] for the accepted
    /// labels; restoring a snapshot whose label is not accepted fails with
    /// [`Error::Config`].
    pub backend: Option<String>,
    /// Per-tick, per-feed admission bound (0 = unbounded).
    pub ingest_bound: u64,
    /// Observations shed by the workload feed's admission control.
    pub workload_shed: u64,
    /// Observations shed by the price feed's admission control.
    pub price_shed: u64,
    /// Burst-overload schedule applied to both feeds.
    pub overload: OverloadSnap,
    /// Workload-feed fault schedule.
    pub workload_faults: FeedFaultsSnap,
    /// Price-feed fault schedule.
    pub price_faults: FeedFaultsSnap,
    /// Workload-feed cursor.
    pub workload_feed: FeedCursorSnap,
    /// Price-feed cursor.
    pub price_feed: FeedCursorSnap,
    /// Held offered-workload observation.
    pub held_offered: HeldSnap,
    /// Held price observation.
    pub held_prices: HeldSnap,
    /// Previous step's per-IDC power (the pricing feedback input).
    pub last_power_mw: Vec<f64>,
    /// Accumulated electricity cost ($).
    pub accumulated_cost: f64,
    /// Count of (IDC, step) pairs that met the latency bound.
    pub latency_ok: u64,
    /// Total offered request volume seen.
    pub offered_volume: f64,
    /// Request volume shed by admission control.
    pub shed_volume: f64,
    /// The plant's battery; `None` without storage (and in v2 checkpoints).
    pub battery: Option<BatterySnapshot>,
    /// The plant's demand-charge meter; `None` without a tariff (and in v2
    /// checkpoints).
    pub demand_meter: Option<DemandMeterSnapshot>,
    /// Steps served by the degraded fallback path.
    pub degraded_steps: u64,
    /// `[idc][step]` power trajectory so far (MW).
    pub power_mw: Vec<Vec<f64>>,
    /// `[idc][step]` server trajectory so far.
    pub servers: Vec<Vec<u64>>,
    /// Cumulative cost after each step so far.
    pub cost_cumulative: Vec<f64>,
    /// The controller's complete evolving state.
    pub policy: MpcPolicySnapshot,
}

impl RuntimeSnapshot {
    /// Structural sanity checks that need no scenario: trajectory lengths
    /// consistent with the step cursor, version supported, every carried
    /// value finite (the policy's warm-start `ΔU` and previous input
    /// included), the policy's battery rates and running peaks not
    /// negative, its working-set log well formed and the seed at most
    /// [`MAX_SEED`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] describing the first inconsistency.
    pub fn validate(&self) -> std::result::Result<(), Error> {
        if !(OLDEST_RESTORABLE_VERSION..=SNAPSHOT_VERSION).contains(&self.version) {
            return Err(Error::Snapshot(format!(
                "unsupported snapshot version {} (expected \
                 {OLDEST_RESTORABLE_VERSION}..={SNAPSHOT_VERSION})",
                self.version
            )));
        }
        if self.step > self.num_steps {
            return Err(Error::Snapshot(format!(
                "step cursor {} past the end of the {}-step run",
                self.step, self.num_steps
            )));
        }
        let k = self.step as usize;
        if self.cost_cumulative.len() != k {
            return Err(Error::Snapshot(format!(
                "cost trajectory has {} entries for step cursor {k}",
                self.cost_cumulative.len()
            )));
        }
        if self.power_mw.len() != self.servers.len()
            || self.power_mw.len() != self.last_power_mw.len()
        {
            return Err(Error::Snapshot("per-IDC trajectory counts disagree".into()));
        }
        for series in self.power_mw.iter() {
            if series.len() != k {
                return Err(Error::Snapshot(format!(
                    "power trajectory has {} entries for step cursor {k}",
                    series.len()
                )));
            }
        }
        for series in self.servers.iter() {
            if series.len() != k {
                return Err(Error::Snapshot(format!(
                    "server trajectory has {} entries for step cursor {k}",
                    series.len()
                )));
            }
        }
        let all_finite = self
            .last_power_mw
            .iter()
            .chain(self.held_offered.value.iter())
            .chain(self.held_prices.value.iter())
            .chain(self.cost_cumulative.iter())
            .chain(self.power_mw.iter().flatten())
            .all(|v| v.is_finite());
        if !all_finite || !self.accumulated_cost.is_finite() {
            return Err(Error::Snapshot("non-finite value in snapshot".into()));
        }
        let mut warm = self.policy.warm_start.iter().flat_map(|w| &w.delta_u);
        if let Some(v) = warm.find(|v| !v.is_finite()) {
            return Err(Error::Snapshot(format!(
                "non-finite warm-start ΔU entry {v} in snapshot"
            )));
        }
        if let Some(reason) = seed_out_of_range(self.seed) {
            return Err(Error::Snapshot(reason));
        }
        self.validate_policy().map_err(Error::Snapshot)
    }

    /// The policy-state checks of [`validate`](Self::validate): a finite
    /// previous input; battery rates and running peaks finite and not
    /// negative; and a carried working-set log of known operation kinds
    /// within its cap (its row indices are checked against the QP at the
    /// first plan after the restore).
    fn validate_policy(&self) -> std::result::Result<(), String> {
        let policy = &self.policy;
        if let Some(v) = policy.prev_input.iter().flatten().find(|v| !v.is_finite()) {
            return Err(format!(
                "non-finite policy prev_input entry {v} in snapshot"
            ));
        }
        let non_negative = [
            ("prev_charge_mw", policy.prev_charge_mw.as_deref()),
            ("prev_discharge_mw", policy.prev_discharge_mw.as_deref()),
            ("peak_so_far_mw", Some(&policy.peak_so_far_mw[..])),
        ];
        for (name, values) in non_negative {
            let mut values = values.unwrap_or_default().iter();
            if let Some(v) = values.find(|&&v| !(v.is_finite() && v >= 0.0)) {
                return Err(format!(
                    "policy {name} entry {v} is negative or non-finite in snapshot"
                ));
            }
        }
        let log = policy
            .warm_start
            .as_ref()
            .and_then(|w| w.factor_log.as_ref());
        log.map_or(Ok(()), |log| log.check())
    }

    /// The plant's accounting state, for
    /// [`Plant::restore`](idc_core::plant::Plant::restore).
    pub fn plant(&self) -> PlantSnapshot {
        PlantSnapshot {
            last_power_mw: self.last_power_mw.clone(),
            accumulated_cost: self.accumulated_cost,
            latency_ok: self.latency_ok,
            offered_volume: self.offered_volume,
            shed_volume: self.shed_volume,
            battery: self.battery.clone(),
            demand_meter: self.demand_meter.clone(),
        }
    }

    /// Serializes to a JSON string (bit-exact for every finite `f64`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] if the state contains a non-finite
    /// number, which the JSON encoding rejects.
    pub fn to_json(&self) -> std::result::Result<String, Error> {
        serde_json::to_string(self).map_err(|e| Error::Snapshot(e.to_string()))
    }

    /// Parses and validates a snapshot from JSON text. Truncated or
    /// corrupt input yields a clean error, never a panic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on malformed JSON, a shape mismatch or
    /// a failed [`validate`](Self::validate).
    pub fn from_json(text: &str) -> std::result::Result<Self, Error> {
        let snapshot: RuntimeSnapshot =
            serde_json::from_str(text).map_err(|e| Error::Snapshot(e.to_string()))?;
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Writes the snapshot atomically and durably: serialize to
    /// `<path>.tmp`, fsync, rename over `path`, then fsync the directory so
    /// the rename itself survives a power loss. Readers never observe a
    /// torn file.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] on serialization failure and
    /// [`Error::Io`] on filesystem failure.
    pub fn write_atomic(&self, path: &Path) -> std::result::Result<(), Error> {
        let json = self.to_json()?;
        let tmp = path.with_extension("tmp");
        {
            use std::io::Write as _;
            let mut f = fs::File::create(&tmp)?;
            f.write_all(json.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        sync_parent_dir(path)?;
        Ok(())
    }

    /// Reads and validates a snapshot from disk.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the file cannot be read and
    /// [`Error::Snapshot`] when its contents are corrupt.
    pub fn read(path: &Path) -> std::result::Result<Self, Error> {
        let text = fs::read_to_string(path)?;
        Self::from_json(&text)
    }
}

/// Fsyncs the directory holding `path`, making a rename or removal of its
/// entry durable.
///
/// # Errors
///
/// Returns [`Error::Io`] when the directory cannot be opened or synced.
pub(crate) fn sync_parent_dir(path: &Path) -> std::result::Result<(), Error> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()?;
    Ok(())
}
