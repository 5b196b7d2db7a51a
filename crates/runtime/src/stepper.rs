//! The event-driven online stepper: a thin loop around the shared
//! [`Plant`] over streaming feeds, with held-last-value staleness
//! handling and checkpoint/restore.
//!
//! # Batch equivalence
//!
//! The stepper and [`idc_core::simulation::Simulator::run`] differ only in
//! where a step's inputs come from. Everything a decision does to the
//! fleet — admission control, decision validation, the battery, grid-draw
//! metering, latency classification, energy cost and the demand-charge
//! meter — is one [`Plant`] kernel both loops call, and both build the
//! controller with [`MpcPolicyConfig::paper_tuned`]. With fault-free feeds
//! the inputs agree too: the workload feed draws noise in the batch
//! simulator's exact RNG order and the price feed closes the same
//! demand→price feedback loop on the plant's previous grid draw. So a
//! fault-free online run reproduces the batch run *bit for bit* on every
//! registry scenario, storage and demand charges included; the stepper's
//! tests and the `runtime_soak` bin assert it key by key.
//!
//! # Staleness policy
//!
//! Each fast tick the stepper ingests whatever the feeds delivered and
//! holds the newest observation per feed (hold-last-value). When the newest
//! held observation of *either* feed is older than
//! [`StepperConfig::max_staleness_ticks`], the stepper stops trusting the
//! MPC pipeline for that step and degrades to the policy's
//! capacity-proportional fallback via [`MpcPolicy::degrade`], counting the
//! degradation. Observations never arrived count as infinitely stale.

use idc_core::clock::Clock;
use idc_core::feed::{BoundedIngest, Observation};
use idc_core::plant::Plant;
use idc_core::policy::{MpcPolicy, MpcPolicyConfig, Policy, StepContext};
use idc_core::scenario::Scenario;
use idc_core::simulation::initial_context;
use idc_core::SolverBackend;

use crate::error::Error;
use crate::feed::{FeedFaults, OverloadFaults, TracePriceFeed, TraceWorkloadFeed};
use crate::snapshot::{seed_out_of_range, HeldSnap, RuntimeSnapshot, SNAPSHOT_VERSION};
use crate::Result;

/// Configuration of an online run.
#[derive(Debug, Clone)]
pub struct StepperConfig {
    /// Scenario registry key (see [`crate::registry::SCENARIO_KEYS`]).
    pub scenario_key: String,
    /// Workload-noise seed.
    pub seed: u64,
    /// Run length override in sampling periods (`None` = scenario default).
    pub num_steps: Option<usize>,
    /// Ticks a held observation may age before the stepper degrades.
    pub max_staleness_ticks: u64,
    /// Fault schedule for the workload feed.
    pub workload_faults: FeedFaults,
    /// Fault schedule for the price feed.
    pub price_faults: FeedFaults,
    /// Solver-backend label (see [`parse_backend`]); `None` keeps the
    /// paper-tuned default, the banded backend. Part of the checkpoint
    /// identity: a tenant restored from a snapshot re-solves on the backend
    /// it ran on, and a label this build does not know fails the restore.
    pub backend: Option<String>,
    /// Per-tick, per-feed admission bound (0 = unbounded). Applied after
    /// overload amplification, before held-value ingest.
    pub ingest_bound: usize,
    /// Burst-overload schedule applied to both feeds (see
    /// [`OverloadFaults`]).
    pub overload: OverloadFaults,
}

impl StepperConfig {
    /// A fault-free run of the named scenario with the given seed.
    pub fn fault_free(scenario_key: &str, seed: u64) -> Self {
        StepperConfig {
            scenario_key: scenario_key.to_string(),
            seed,
            num_steps: None,
            max_staleness_ticks: 3,
            workload_faults: FeedFaults::none(),
            price_faults: FeedFaults::none(),
            backend: None,
            ingest_bound: 0,
            overload: OverloadFaults::none(),
        }
    }
}

/// Parses a solver-backend label: `banded` (banded Riccati, the default
/// and only backend). Returns `None` for anything else — including `dense`
/// and `sharded[N]`, the labels of retired backends, which are rejected
/// rather than remapped.
pub fn parse_backend(label: &str) -> Option<SolverBackend> {
    (label == "banded").then_some(SolverBackend::BandedRiccati)
}

/// The paper-tuned policy for `scenario` — the batch simulator's
/// controller — with the solver backend optionally overridden by label.
fn paper_tuned_policy(scenario: &Scenario, backend: Option<&str>) -> Result<MpcPolicy> {
    let mut config = MpcPolicyConfig::paper_tuned(scenario);
    if let Some(label) = backend {
        config.mpc.backend = parse_backend(label)
            .ok_or_else(|| Error::Config(format!("unknown backend '{label}'")))?;
    }
    Ok(MpcPolicy::new(config)?)
}

/// A held last-value observation.
#[derive(Debug, Clone)]
struct Held {
    value: Vec<f64>,
    updated_tick: Option<u64>,
}

impl Held {
    fn ingest(&mut self, obs: Vec<Observation<Vec<f64>>>) {
        for o in obs {
            if self.updated_tick.is_none_or(|t| o.tick > t) {
                self.updated_tick = Some(o.tick);
                self.value = o.value;
            }
        }
    }

    /// Age of the held observation at `tick`; never-arrived counts as
    /// one past the maximum representable staleness at this tick.
    fn staleness(&self, tick: u64) -> u64 {
        match self.updated_tick {
            Some(t) => tick.saturating_sub(t),
            None => tick + 1,
        }
    }

    fn snap(&self) -> HeldSnap {
        HeldSnap {
            value: self.value.clone(),
            updated_tick: self.updated_tick,
        }
    }

    fn from_snap(s: &HeldSnap) -> Self {
        Held {
            value: s.value.clone(),
            updated_tick: s.updated_tick,
        }
    }
}

/// The online two-time-scale control stepper.
#[derive(Debug)]
pub struct Stepper {
    config: StepperConfig,
    scenario: Scenario,
    policy: MpcPolicy,
    workload_feed: TraceWorkloadFeed,
    price_feed: TracePriceFeed,
    workload_ingest: BoundedIngest,
    price_ingest: BoundedIngest,
    held_offered: Held,
    held_prices: Held,
    step: u64,
    plant: Plant,
    degraded_steps: u64,
    power_mw: Vec<Vec<f64>>,
    servers: Vec<Vec<u64>>,
    cost_cumulative: Vec<f64>,
}

impl Stepper {
    /// Builds a stepper at step 0, with the policy initialized exactly as
    /// the batch simulator initializes it (init-hour prices, zero own-load
    /// feedback, base offered workloads).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an unknown scenario key or a seed above
    /// [`MAX_SEED`](crate::snapshot::MAX_SEED), which no checkpoint could
    /// carry, and propagates policy construction failures.
    pub fn new(config: StepperConfig) -> Result<Self> {
        if let Some(reason) = seed_out_of_range(config.seed) {
            return Err(Error::Config(reason));
        }
        let scenario =
            crate::registry::scenario_by_key(&config.scenario_key, config.seed, config.num_steps)
                .ok_or_else(|| {
                Error::Config(format!("unknown scenario key '{}'", config.scenario_key))
            })?;
        let n = scenario.fleet().num_idcs();
        let mut policy = paper_tuned_policy(&scenario, config.backend.as_deref())?;
        let init_ctx = initial_context(&scenario);
        policy.initialize(&init_ctx)?;

        let workload_feed = TraceWorkloadFeed::new(&scenario, config.workload_faults);
        let price_feed = TracePriceFeed::new(&scenario, config.price_faults);
        let workload_ingest = BoundedIngest::new(config.ingest_bound);
        let price_ingest = BoundedIngest::new(config.ingest_bound);
        Ok(Stepper {
            config,
            policy,
            workload_feed,
            price_feed,
            workload_ingest,
            price_ingest,
            held_offered: Held {
                value: init_ctx.offered,
                updated_tick: None,
            },
            held_prices: Held {
                value: init_ctx.prices,
                updated_tick: None,
            },
            step: 0,
            plant: Plant::new(&scenario),
            degraded_steps: 0,
            power_mw: vec![Vec::new(); n],
            servers: vec![Vec::new(); n],
            cost_cumulative: Vec::new(),
            scenario,
        })
    }

    /// The scenario being run.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The run configuration.
    pub fn config(&self) -> &StepperConfig {
        &self.config
    }

    /// Next step to execute (steps `0..step()` are accounted).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Total steps of the run.
    pub fn num_steps(&self) -> u64 {
        self.scenario.num_steps() as u64
    }

    /// Whether the run has consumed every step.
    pub fn is_finished(&self) -> bool {
        self.step >= self.num_steps()
    }

    /// Accumulated electricity cost so far ($), demand charges excluded.
    pub fn accumulated_cost(&self) -> f64 {
        self.plant.accumulated_cost()
    }

    /// The plant's accounting: grid draw, battery, demand-charge meter.
    pub fn plant(&self) -> &Plant {
        &self.plant
    }

    /// Cumulative cost after each executed step.
    pub fn cost_cumulative(&self) -> &[f64] {
        &self.cost_cumulative
    }

    /// Power trajectory of IDC `j` so far (MW).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn power_mw(&self, j: usize) -> &[f64] {
        &self.power_mw[j]
    }

    /// Server trajectory of IDC `j` so far.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn servers(&self, j: usize) -> &[u64] {
        &self.servers[j]
    }

    /// Steps served by the degraded fallback path because of feed
    /// staleness.
    pub fn degraded_steps(&self) -> u64 {
        self.degraded_steps
    }

    /// Observations shed by feed admission control, as
    /// `(workload, price)`. Zero unless an ingest bound is configured and
    /// something (a burst schedule, a fault backlog) exceeded it.
    pub fn shed_observations(&self) -> (u64, u64) {
        (self.workload_ingest.shed(), self.price_ingest.shed())
    }

    /// Fraction of (IDC, step) pairs that met the latency bound so far.
    pub fn latency_ok_fraction(&self) -> f64 {
        let denom = self.step * self.power_mw.len() as u64;
        if denom == 0 {
            return 1.0;
        }
        self.plant.latency_ok() as f64 / denom as f64
    }

    /// Age in ticks of the older held feed value at the last executed
    /// step, the age its staleness gate compared (0 before the first step).
    pub fn feed_staleness(&self) -> u64 {
        self.step.checked_sub(1).map_or(0, |k| self.staleness_at(k))
    }

    /// Age of the older held feed value at `tick`.
    fn staleness_at(&self, tick: u64) -> u64 {
        self.held_offered
            .staleness(tick)
            .max(self.held_prices.staleness(tick))
    }

    /// The controller driving this run.
    pub fn policy(&self) -> &MpcPolicy {
        &self.policy
    }

    /// Executes one fast tick. Returns `false` (without stepping) once the
    /// run is complete.
    ///
    /// # Errors
    ///
    /// Propagates policy failures and the plant's rejection of invalid
    /// decisions (dimension mismatch, lost workload, battery rates the
    /// plant cannot apply).
    pub fn step_once(&mut self) -> Result<bool> {
        if self.is_finished() {
            return Ok(false);
        }
        let _step_span = idc_obs::Span::enter_cat("runtime.step", "runtime");
        let k = self.step;
        let fleet = self.scenario.fleet();
        let n = fleet.num_idcs();
        let ts = self.scenario.ts_hours();
        let hour = self.scenario.start_hour() + k as f64 * ts;

        // ---- Ingest feeds: amplify (overload faults), admit (bounded
        // ingest), hold newest-stamp-wins. ----
        let mut workload_batch = self.workload_feed.poll(k);
        self.config.overload.amplify(k, &mut workload_batch);
        self.held_offered
            .ingest(self.workload_ingest.admit(workload_batch));
        let mut price_batch = self.price_feed.poll(k, hour, self.plant.last_power_mw());
        self.config.overload.amplify(k, &mut price_batch);
        self.held_prices
            .ingest(self.price_ingest.admit(price_batch));

        let mut offered = self.held_offered.value.clone();
        self.plant.admit(&mut offered);
        let prices = self.held_prices.value.clone();

        // ---- Staleness gate. ----
        let degraded = self.staleness_at(k) > self.config.max_staleness_ticks;

        let ctx = StepContext {
            step: k as usize,
            hour,
            dt_hours: ts,
            prices: prices.clone(),
            offered: offered.clone(),
            idcs: fleet.idcs(),
        };
        let decision = if degraded {
            self.degraded_steps += 1;
            self.policy.degrade(&ctx)?
        } else {
            self.policy.decide(&ctx)?
        };

        self.plant.step(
            &self.scenario,
            k as usize,
            self.policy.name(),
            &offered,
            &prices,
            &decision,
        )?;
        for j in 0..n {
            self.power_mw[j].push(self.plant.last_power_mw()[j]);
            self.servers[j].push(decision.servers_on[j]);
        }
        self.cost_cumulative.push(self.plant.accumulated_cost());
        self.step += 1;

        Ok(true)
    }

    /// Runs every remaining step, pacing each tick through `clock`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`step_once`](Self::step_once) failure.
    pub fn run(&mut self, clock: &mut dyn Clock) -> Result<()> {
        while !self.is_finished() {
            clock.wait_for_step(self.step);
            self.step_once()?;
        }
        Ok(())
    }

    /// Exports the complete resume state. `restore` on the result yields a
    /// stepper whose remaining trajectory is bit-for-bit the one this
    /// stepper would produce.
    pub fn snapshot(&self) -> RuntimeSnapshot {
        let plant = self.plant.snapshot();
        RuntimeSnapshot {
            version: SNAPSHOT_VERSION,
            scenario_key: self.config.scenario_key.clone(),
            seed: self.config.seed,
            num_steps: self.num_steps(),
            step: self.step,
            max_staleness_ticks: self.config.max_staleness_ticks,
            backend: self.config.backend.clone(),
            ingest_bound: self.config.ingest_bound as u64,
            workload_shed: self.workload_ingest.shed(),
            price_shed: self.price_ingest.shed(),
            overload: self.config.overload.state(),
            workload_faults: self.config.workload_faults.state(),
            price_faults: self.config.price_faults.state(),
            workload_feed: self.workload_feed.state(),
            price_feed: self.price_feed.state(),
            held_offered: self.held_offered.snap(),
            held_prices: self.held_prices.snap(),
            last_power_mw: plant.last_power_mw,
            accumulated_cost: plant.accumulated_cost,
            latency_ok: plant.latency_ok,
            offered_volume: plant.offered_volume,
            shed_volume: plant.shed_volume,
            battery: plant.battery,
            demand_meter: plant.demand_meter,
            degraded_steps: self.degraded_steps,
            power_mw: self.power_mw.clone(),
            servers: self.servers.clone(),
            cost_cumulative: self.cost_cumulative.clone(),
            policy: self.policy.snapshot(),
        }
    }

    /// Rebuilds a stepper from a [`snapshot`](Self::snapshot) export: the
    /// scenario is reconstructed from its registry key, the feeds are
    /// fast-forwarded to their cursors, and the policy state is restored
    /// in full.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] / [`Error::Config`] when the snapshot
    /// fails validation or is inconsistent with the rebuilt scenario.
    pub fn restore(snapshot: &RuntimeSnapshot) -> Result<Self> {
        snapshot.validate()?;
        let workload_faults =
            FeedFaults::from_state(&snapshot.workload_faults).map_err(Error::Snapshot)?;
        let price_faults =
            FeedFaults::from_state(&snapshot.price_faults).map_err(Error::Snapshot)?;
        let overload = OverloadFaults::from_state(&snapshot.overload).ok_or_else(|| {
            Error::Snapshot(format!(
                "overload schedule has out-of-range burst rate {} per mille",
                snapshot.overload.burst_per_mille
            ))
        })?;
        let config = StepperConfig {
            scenario_key: snapshot.scenario_key.clone(),
            seed: snapshot.seed,
            num_steps: Some(snapshot.num_steps as usize),
            max_staleness_ticks: snapshot.max_staleness_ticks,
            workload_faults,
            price_faults,
            backend: snapshot.backend.clone(),
            ingest_bound: snapshot.ingest_bound as usize,
            overload,
        };
        let scenario =
            crate::registry::scenario_by_key(&config.scenario_key, config.seed, config.num_steps)
                .ok_or_else(|| {
                Error::Snapshot(format!(
                    "snapshot names unknown scenario '{}'",
                    config.scenario_key
                ))
            })?;
        // The plant first: a v2 checkpoint of a storage or tariffed
        // scenario was metered without it and must not resume.
        let plant = Plant::restore(&scenario, &snapshot.plant()).map_err(|e| {
            Error::Snapshot(format!(
                "v{} checkpoint of '{}' does not fit its scenario: {e}",
                snapshot.version, config.scenario_key
            ))
        })?;
        let mut policy = paper_tuned_policy(&scenario, config.backend.as_deref())?;
        policy.restore(&snapshot.policy)?;
        let workload_feed =
            TraceWorkloadFeed::from_state(&scenario, workload_faults, &snapshot.workload_feed)?;
        let price_feed = TracePriceFeed::from_state(&scenario, price_faults, &snapshot.price_feed);
        let workload_ingest = BoundedIngest::restore(config.ingest_bound, snapshot.workload_shed);
        let price_ingest = BoundedIngest::restore(config.ingest_bound, snapshot.price_shed);
        Ok(Stepper {
            config,
            policy,
            workload_feed,
            price_feed,
            workload_ingest,
            price_ingest,
            held_offered: Held::from_snap(&snapshot.held_offered),
            held_prices: Held::from_snap(&snapshot.held_prices),
            step: snapshot.step,
            plant,
            degraded_steps: snapshot.degraded_steps,
            power_mw: snapshot.power_mw.clone(),
            servers: snapshot.servers.clone(),
            cost_cumulative: snapshot.cost_cumulative.clone(),
            scenario,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idc_core::clock::SimClock;
    use idc_core::simulation::Simulator;

    #[test]
    fn fault_free_run_matches_batch_simulator_bit_for_bit() {
        // Every registry scenario, capped so a debug-build run stays quick;
        // 24 steps cross the 7H price flip and ratchet the billed peaks.
        const STEPS: usize = 24;
        for key in crate::registry::SCENARIO_KEYS {
            let config = StepperConfig {
                num_steps: Some(STEPS),
                ..StepperConfig::fault_free(key, 2012)
            };
            let mut stepper = Stepper::new(config).unwrap();
            stepper.run(&mut SimClock).unwrap();
            assert_eq!(stepper.degraded_steps(), 0, "{key}");

            let scenario = crate::registry::scenario_by_key(key, 2012, Some(STEPS)).unwrap();
            let mut policy = MpcPolicy::paper_tuned(&scenario).unwrap();
            let batch = Simulator::new().run(&scenario, &mut policy).unwrap();

            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(stepper.cost_cumulative()),
                bits(batch.cost_cumulative()),
                "{key}: cost"
            );
            for j in 0..batch.num_idcs() {
                assert_eq!(
                    bits(stepper.power_mw(j)),
                    bits(batch.power_mw(j)),
                    "{key}: power[{j}]"
                );
                assert_eq!(stepper.servers(j), batch.servers(j), "{key}: servers[{j}]");
            }
            assert_eq!(
                stepper.latency_ok_fraction(),
                batch.latency_ok_fraction(),
                "{key}"
            );
            let plant = stepper.plant();
            assert_eq!(
                plant.demand_charge().is_some(),
                scenario.demand_charge().is_some()
            );
            assert_eq!(
                plant.demand_charge().unwrap_or(0.0).to_bits(),
                batch.total_demand_charge().to_bits(),
                "{key}: demand charge"
            );
            assert_eq!(plant.battery().is_some(), scenario.storage().is_some());
            if let Some(battery) = plant.battery() {
                let batch_soc: Vec<f64> = (0..batch.num_idcs())
                    .map(|j| *batch.soc_mwh(j).unwrap().last().unwrap())
                    .collect();
                assert_eq!(bits(battery.soc_mwh()), bits(&batch_soc), "{key}: soc");
                assert_eq!(
                    battery.total_loss_mwh().to_bits(),
                    batch.storage_loss_mwh().unwrap().to_bits(),
                    "{key}: loss"
                );
            }
        }
    }

    #[test]
    fn snapshot_restore_mid_run_is_bit_identical() {
        let config = StepperConfig {
            workload_faults: FeedFaults::new(5, 0.15, 2),
            price_faults: FeedFaults::new(17, 0.15, 2),
            max_staleness_ticks: 1,
            ..StepperConfig::fault_free("smoothing", 2012)
        };
        let mut live = Stepper::new(config.clone()).unwrap();
        for _ in 0..12 {
            live.step_once().unwrap();
        }
        let snap = live.snapshot();
        let mut resumed = Stepper::restore(&snap).unwrap();
        while live.step_once().unwrap() {
            assert!(resumed.step_once().unwrap());
        }
        assert!(!resumed.step_once().unwrap());
        assert_eq!(
            live.accumulated_cost().to_bits(),
            resumed.accumulated_cost().to_bits()
        );
        for j in 0..3 {
            for (a, b) in live.power_mw(j).iter().zip(resumed.power_mw(j)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(live.degraded_steps(), resumed.degraded_steps());
        // And their end-of-run snapshots agree entirely.
        assert_eq!(live.snapshot(), resumed.snapshot());
    }

    #[test]
    fn total_feed_loss_degrades_every_late_step() {
        let config = StepperConfig {
            // Drop every workload sample: after max_staleness_ticks the
            // stepper must degrade and keep serving the held workload.
            workload_faults: FeedFaults::new(1, 1.0, 0),
            max_staleness_ticks: 2,
            ..StepperConfig::fault_free("smoothing", 2012)
        };
        let mut stepper = Stepper::new(config).unwrap();
        stepper.run(&mut SimClock).unwrap();
        // Ticks 0 and 1 are within the staleness budget (never-arrived
        // counts tick+1); everything after degrades.
        assert_eq!(stepper.degraded_steps(), stepper.num_steps() - 2);
        assert!(stepper.accumulated_cost().is_finite());
        assert!(stepper.accumulated_cost() > 0.0);
        assert_eq!(
            stepper.policy().fallback_steps().len() as u64,
            stepper.degraded_steps()
        );
    }

    #[test]
    fn unknown_scenario_key_is_rejected() {
        let err = Stepper::new(StepperConfig::fault_free("nope", 1)).unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }

    #[test]
    fn backend_labels_parse_and_select_the_solver() {
        use idc_core::SolverBackend;
        assert_eq!(parse_backend("banded"), Some(SolverBackend::BandedRiccati));
        for bad in [
            "",
            "dense",
            "Dense",
            "sharded[3]",
            "sharded[0]",
            "sharded[x]",
            "sharded[2",
        ] {
            assert_eq!(parse_backend(bad), None, "{bad:?} parsed");
        }
        let err = Stepper::new(StepperConfig {
            backend: Some("warp".into()),
            ..StepperConfig::fault_free("smoothing", 1)
        })
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }

    #[test]
    fn non_default_backend_survives_snapshot_restore() {
        let config = StepperConfig {
            backend: Some("banded".into()),
            ..StepperConfig::fault_free("smoothing", 2012)
        };
        let mut live = Stepper::new(config).unwrap();
        for _ in 0..8 {
            live.step_once().unwrap();
        }
        let snap = live.snapshot();
        assert_eq!(snap.backend.as_deref(), Some("banded"));
        let mut resumed = Stepper::restore(&snap).unwrap();
        while live.step_once().unwrap() {
            assert!(resumed.step_once().unwrap());
        }
        assert_eq!(live.snapshot(), resumed.snapshot());
    }

    #[test]
    fn overload_bursts_shed_without_moving_the_trajectory() {
        // Quiet reference run.
        let mut quiet = Stepper::new(StepperConfig::fault_free("smoothing", 2012)).unwrap();
        quiet.run(&mut SimClock).unwrap();
        assert_eq!(quiet.shed_observations(), (0, 0));

        // Same loop under a heavy burst schedule with a bound that admits
        // every genuine arrival (fault-free feeds deliver exactly one
        // observation per tick): the duplicates all shed, the trajectory
        // does not move.
        let config = StepperConfig {
            overload: OverloadFaults::new(9, 400, 8),
            ingest_bound: 2,
            ..StepperConfig::fault_free("smoothing", 2012)
        };
        let mut bursty = Stepper::new(config).unwrap();
        bursty.run(&mut SimClock).unwrap();
        let (w_shed, p_shed) = bursty.shed_observations();
        assert!(w_shed > 0, "no workload observations shed");
        assert!(p_shed > 0, "no price observations shed");
        assert_eq!(
            quiet.accumulated_cost().to_bits(),
            bursty.accumulated_cost().to_bits()
        );
        for j in 0..3 {
            assert_eq!(quiet.power_mw(j), bursty.power_mw(j));
            assert_eq!(quiet.servers(j), bursty.servers(j));
        }

        // And the shed counters survive checkpoint/restore mid-run.
        let mut live = Stepper::new(bursty.config().clone()).unwrap();
        for _ in 0..12 {
            live.step_once().unwrap();
        }
        let snap = live.snapshot();
        let mut resumed = Stepper::restore(&snap).unwrap();
        assert_eq!(resumed.shed_observations(), live.shed_observations());
        while live.step_once().unwrap() {
            assert!(resumed.step_once().unwrap());
        }
        assert_eq!(live.snapshot(), resumed.snapshot());
        assert_eq!(live.shed_observations(), (w_shed, p_shed));
    }
}
