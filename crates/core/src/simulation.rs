//! The deterministic discrete-time simulator behind Figs. 4–7.
//!
//! Each sampling period the simulator (1) draws the offered portal
//! workloads (optionally noisy) and admits them through the
//! [`Plant`], (2) evaluates the pricing model — feeding back the
//! previous step's per-IDC power draw, so demand-responsive pricing closes
//! the demand↔price loop of the paper's introduction, (3) asks the policy
//! for a decision, has the plant apply and meter it, and (4) records power,
//! servers, battery and accumulated cost. Admission, validation, the
//! battery, metering and the bill all live in [`crate::plant`], shared
//! with the online runtime.

use rand::{rngs::StdRng, Rng, SeedableRng};

use idc_timeseries::standard_normal;

use idc_datacenter::power::{power_stats, PowerStats};
use idc_storage::StorageState;

use crate::plant::Plant;
use crate::policy::{Policy, StepContext};
use crate::scenario::{Scenario, WorkloadProfile};
use crate::Result;

/// The recorded trajectory of one policy on one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    policy_name: String,
    scenario_name: String,
    ts_hours: f64,
    /// Minutes since the window start, one per step.
    times_min: Vec<f64>,
    /// `[idc][step]` power in MW.
    power_mw: Vec<Vec<f64>>,
    /// `[idc][step]` servers ON.
    servers: Vec<Vec<u64>>,
    /// `[idc][step]` allocated workload (req/s).
    workload: Vec<Vec<f64>>,
    /// `[step]` prices seen, flattened per IDC.
    prices: Vec<Vec<f64>>,
    /// Cumulative electricity cost ($) after each step.
    cost_cumulative: Vec<f64>,
    /// Fraction of (idc, step) pairs meeting the latency bound.
    latency_ok_fraction: f64,
    /// Fraction of offered request-volume shed by admission control.
    shed_fraction: f64,
    /// `[step][portal]` offered workloads after admission control
    /// (recorded only by a validating simulator).
    offered: Option<Vec<Vec<f64>>>,
    /// `[step]` IDC-major flattened allocation vectors `λ_{ij}`
    /// (recorded only by a validating simulator).
    allocations: Option<Vec<Vec<f64>>>,
    /// `[idc][step]` battery state of charge after each step (MWh);
    /// `None` when the scenario has no storage.
    soc_mwh: Option<Vec<Vec<f64>>>,
    /// `[idc][step]` applied (post-clamp) battery charge rates (MW).
    charge_mw: Option<Vec<Vec<f64>>>,
    /// `[idc][step]` applied battery discharge rates (MW).
    discharge_mw: Option<Vec<Vec<f64>>>,
    /// Total conversion losses over the run (MWh); `None` without storage.
    storage_loss_mwh: Option<f64>,
    /// Cumulative amortized demand charge ($) after each step; `None`
    /// when the scenario has no demand-charge tariff.
    demand_charge_cumulative: Option<Vec<f64>>,
    /// Final per-IDC billed peaks of grid draw (MW); `None` without a
    /// demand-charge tariff.
    billed_peak_mw: Option<Vec<f64>>,
}

impl SimulationResult {
    /// Name of the policy that produced this run.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// Name of the scenario simulated.
    pub fn scenario_name(&self) -> &str {
        &self.scenario_name
    }

    /// Minutes since window start, one per step.
    pub fn times_min(&self) -> &[f64] {
        &self.times_min
    }

    /// Power trajectory of IDC `j` in MW.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn power_mw(&self, j: usize) -> &[f64] {
        &self.power_mw[j]
    }

    /// Server-count trajectory of IDC `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn servers(&self, j: usize) -> &[u64] {
        &self.servers[j]
    }

    /// Workload trajectory of IDC `j` (req/s).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn workload(&self, j: usize) -> &[f64] {
        &self.workload[j]
    }

    /// Prices seen at each step (one vector per step).
    pub fn prices(&self) -> &[Vec<f64>] {
        &self.prices
    }

    /// Number of IDCs recorded.
    pub fn num_idcs(&self) -> usize {
        self.power_mw.len()
    }

    /// Cumulative cost ($) after each step.
    pub fn cost_cumulative(&self) -> &[f64] {
        &self.cost_cumulative
    }

    /// Total electricity cost ($) over the window.
    pub fn total_cost(&self) -> f64 {
        self.cost_cumulative.last().copied().unwrap_or(0.0)
    }

    /// Fraction of (IDC, step) pairs meeting their latency bound.
    pub fn latency_ok_fraction(&self) -> f64 {
        self.latency_ok_fraction
    }

    /// Fraction of the offered request volume shed by admission control
    /// (0 unless the workload exceeded the fleet's latency-bounded
    /// capacity at some step).
    pub fn shed_fraction(&self) -> f64 {
        self.shed_fraction
    }

    /// Demand statistics (mean/peak/volatility/energy) of IDC `j`.
    pub fn power_stats(&self, j: usize) -> Option<PowerStats> {
        power_stats(&self.power_mw[j], self.ts_hours)
    }

    /// Total fleet power per step (MW).
    pub fn total_power_mw(&self) -> Vec<f64> {
        let steps = self.times_min.len();
        (0..steps)
            .map(|k| self.power_mw.iter().map(|series| series[k]).sum())
            .collect()
    }

    /// Sampling period in hours.
    pub fn ts_hours(&self) -> f64 {
        self.ts_hours
    }

    /// Per-step post-admission offered portal workloads (req/s), recorded
    /// only when the run used [`Simulator::with_validation`].
    pub fn offered_workloads(&self) -> Option<&[Vec<f64>]> {
        self.offered.as_deref()
    }

    /// Per-step IDC-major flattened allocation vectors `λ_{ij}` (entry
    /// `j·c + i` is IDC `j`'s share of portal `i`), recorded only when the
    /// run used [`Simulator::with_validation`].
    pub fn allocations(&self) -> Option<&[Vec<f64>]> {
        self.allocations.as_deref()
    }

    /// Battery state-of-charge trajectory of IDC `j` (MWh, sampled after
    /// each step); `None` when the scenario ran without storage.
    pub fn soc_mwh(&self, j: usize) -> Option<&[f64]> {
        self.soc_mwh.as_ref().map(|s| s[j].as_slice())
    }

    /// Applied battery charge-rate trajectory of IDC `j` (MW); `None`
    /// when the scenario ran without storage.
    pub fn battery_charge_mw(&self, j: usize) -> Option<&[f64]> {
        self.charge_mw.as_ref().map(|s| s[j].as_slice())
    }

    /// Applied battery discharge-rate trajectory of IDC `j` (MW); `None`
    /// when the scenario ran without storage.
    pub fn battery_discharge_mw(&self, j: usize) -> Option<&[f64]> {
        self.discharge_mw.as_ref().map(|s| s[j].as_slice())
    }

    /// Total battery conversion losses over the run (MWh); `None` when
    /// the scenario ran without storage.
    pub fn storage_loss_mwh(&self) -> Option<f64> {
        self.storage_loss_mwh
    }

    /// Cumulative amortized demand charge ($) after each step — the
    /// tariff's hourly weight times the running billed peaks, integrated
    /// over the window. `None` when the scenario has no demand-charge
    /// tariff.
    pub fn demand_charge_cumulative(&self) -> Option<&[f64]> {
        self.demand_charge_cumulative.as_deref()
    }

    /// Final per-IDC billed peaks of *grid* draw (MW); `None` when the
    /// scenario has no demand-charge tariff.
    pub fn billed_peak_mw(&self) -> Option<&[f64]> {
        self.billed_peak_mw.as_deref()
    }

    /// Total amortized demand charge over the window ($); zero when the
    /// scenario has no demand-charge tariff.
    pub fn total_demand_charge(&self) -> f64 {
        self.demand_charge_cumulative
            .as_ref()
            .and_then(|s| s.last().copied())
            .unwrap_or(0.0)
    }

    /// Total electricity cost including the amortized demand-charge
    /// component ($). Equals [`total_cost`](Self::total_cost) when no
    /// tariff is configured.
    pub fn total_cost_with_demand_charges(&self) -> f64 {
        self.total_cost() + self.total_demand_charge()
    }

    /// Per-IDC fraction of steps strictly above `budget_mw[j]`.
    ///
    /// # Panics
    ///
    /// Panics if `budgets_mw.len() != self.num_idcs()`.
    pub fn budget_violation_fractions(&self, budgets_mw: &[f64]) -> Vec<f64> {
        assert_eq!(budgets_mw.len(), self.num_idcs(), "one budget per IDC");
        self.power_mw
            .iter()
            .zip(budgets_mw)
            .map(|(series, &b)| idc_datacenter::power::budget_violation_fraction(series, b))
            .collect()
    }
}

/// The scenario's offered-workload process: the fleet's base portal
/// workloads scaled by the workload profile, times `1 + σ·N(0, 1)` per
/// portal when the scenario is noisy, clamped at zero. The batch simulator
/// and the online runtime's workload feed both draw through it, so one
/// seeded stream gives both the same workloads bit for bit.
#[derive(Debug, Clone)]
pub struct WorkloadProcess {
    base: Vec<f64>,
    profile: WorkloadProfile,
    noise_std: f64,
    start_hour: f64,
    ts_hours: f64,
}

impl WorkloadProcess {
    /// The workload process of `scenario`.
    pub fn new(scenario: &Scenario) -> Self {
        WorkloadProcess {
            base: scenario.fleet().offered_workloads(),
            profile: scenario.workload_profile().clone(),
            noise_std: scenario.workload_noise_std(),
            start_hour: scenario.start_hour(),
            ts_hours: scenario.ts_hours(),
        }
    }

    /// The offered workload of every portal at step `k`. Takes one normal
    /// draw per portal from `rng` when the scenario is noisy, none
    /// otherwise.
    pub fn draw<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<f64> {
        let hour = self.start_hour + k as f64 * self.ts_hours;
        let factor = self.profile.factor_at_step(k, hour);
        self.base
            .iter()
            .map(|&l| {
                let mut v = l * factor;
                if self.noise_std > 0.0 {
                    v *= 1.0 + self.noise_std * standard_normal(rng);
                }
                v.max(0.0)
            })
            .collect()
    }
}

/// The context a policy is initialized with before step 0: the init-hour
/// prices with zero own-load feedback and the base offered workloads.
pub fn initial_context(scenario: &Scenario) -> StepContext<'_> {
    let fleet = scenario.fleet();
    StepContext {
        step: 0,
        hour: scenario.init_hour(),
        dt_hours: scenario.ts_hours(),
        prices: scenario
            .pricing()
            .prices(scenario.init_hour(), &vec![0.0; fleet.num_idcs()]),
        offered: fleet.offered_workloads(),
        idcs: fleet.idcs(),
    }
}

/// The simulator. Stateless; a single instance can run many
/// (scenario, policy) pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Simulator {
    validate: bool,
}

impl Simulator {
    /// Creates a simulator.
    pub fn new() -> Self {
        Simulator { validate: false }
    }

    /// Creates a *validating* simulator: identical dynamics, but the
    /// result additionally records the per-step offered workloads and full
    /// allocation vectors so `idc-testkit`'s invariant checkers can audit
    /// the trajectory post-hoc.
    pub fn with_validation() -> Self {
        Simulator { validate: true }
    }

    /// Whether this simulator records validation extras.
    pub fn validates(&self) -> bool {
        self.validate
    }

    /// Runs `policy` through `scenario` and records the trajectory.
    ///
    /// # Errors
    ///
    /// * [`crate::Error::Config`] when a decision violates the plant's
    ///   invariants (wrong dimensions, lost workload beyond tolerance,
    ///   battery rates the plant cannot apply).
    /// * Policy errors are propagated.
    pub fn run(&self, scenario: &Scenario, policy: &mut dyn Policy) -> Result<SimulationResult> {
        let fleet = scenario.fleet();
        let n = fleet.num_idcs();
        let steps = scenario.num_steps();
        let ts = scenario.ts_hours();
        let mut rng = StdRng::seed_from_u64(scenario.seed());
        let process = WorkloadProcess::new(scenario);
        policy.initialize(&initial_context(scenario))?;

        let mut power_mw = vec![Vec::with_capacity(steps); n];
        let mut servers = vec![Vec::with_capacity(steps); n];
        let mut workload = vec![Vec::with_capacity(steps); n];
        let mut prices_seen = Vec::with_capacity(steps);
        let mut times_min = Vec::with_capacity(steps);
        let mut cost_cumulative = Vec::with_capacity(steps);
        let mut offered_log = self.validate.then(|| Vec::with_capacity(steps));
        let mut allocation_log = self.validate.then(|| Vec::with_capacity(steps));
        let mut plant = Plant::new(scenario);
        // Storage and tariff logs exist only when the plant has a battery
        // or a meter to report.
        let battery_log = || vec![Vec::with_capacity(steps); n];
        let mut soc_log = plant.battery().map(|_| battery_log());
        let mut charge_log = plant.battery().map(|_| battery_log());
        let mut discharge_log = plant.battery().map(|_| battery_log());
        let mut dc_cumulative = plant.demand_charge().map(|_| Vec::with_capacity(steps));

        for k in 0..steps {
            let hour = scenario.start_hour() + k as f64 * ts;
            let mut offered = process.draw(k, &mut rng);
            plant.admit(&mut offered);
            let prices = scenario.pricing().prices(hour, plant.last_power_mw());
            let ctx = StepContext {
                step: k,
                hour,
                dt_hours: ts,
                prices: prices.clone(),
                offered: offered.clone(),
                idcs: fleet.idcs(),
            };
            let decision = policy.decide(&ctx)?;
            let applied = plant.step(scenario, k, policy.name(), &offered, &prices, &decision)?;

            // ---- Record. ----
            if let Some(log) = offered_log.as_mut() {
                log.push(offered);
            }
            if let Some(log) = allocation_log.as_mut() {
                log.push(decision.allocation.to_control_vector());
            }
            if let (Some(state), Some(soc), Some(charge), Some(discharge)) = (
                plant.battery(),
                soc_log.as_mut(),
                charge_log.as_mut(),
                discharge_log.as_mut(),
            ) {
                for (j, rates) in applied.iter().enumerate() {
                    soc[j].push(state.soc_mwh()[j]);
                    charge[j].push(rates.charge_mw);
                    discharge[j].push(rates.discharge_mw);
                }
            }
            for j in 0..n {
                power_mw[j].push(plant.last_power_mw()[j]);
                servers[j].push(decision.servers_on[j]);
                workload[j].push(decision.allocation.idc_total(j));
            }
            cost_cumulative.push(plant.accumulated_cost());
            if let (Some(series), Some(total)) = (dc_cumulative.as_mut(), plant.demand_charge()) {
                series.push(total);
            }
            prices_seen.push(prices);
            times_min.push(k as f64 * ts * 60.0);
        }

        Ok(SimulationResult {
            policy_name: policy.name().to_string(),
            scenario_name: scenario.name().to_string(),
            ts_hours: ts,
            times_min,
            power_mw,
            servers,
            workload,
            prices: prices_seen,
            cost_cumulative,
            latency_ok_fraction: plant.latency_ok() as f64 / (steps * n) as f64,
            shed_fraction: plant.shed_fraction(),
            offered: offered_log,
            allocations: allocation_log,
            storage_loss_mwh: plant.battery().map(StorageState::total_loss_mwh),
            soc_mwh: soc_log,
            charge_mw: charge_log,
            discharge_mw: discharge_log,
            billed_peak_mw: plant.billed_peak_mw().map(<[f64]>::to_vec),
            demand_charge_cumulative: dc_cumulative,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{MpcPolicy, OptimalPolicy, ReferenceKind};
    use crate::scenario::{peak_shaving_scenario, smoothing_scenario};

    #[test]
    fn optimal_policy_jumps_once_at_the_price_flip() {
        let scenario = smoothing_scenario();
        let sim = Simulator::new();
        let result = sim
            .run(
                &scenario,
                &mut OptimalPolicy::new(ReferenceKind::PriceGreedy),
            )
            .unwrap();
        assert_eq!(result.times_min().len(), 25);
        // Before the flip: the paper's 6H operating point
        // (2.1375 / 11.4 / 5.7 MW); afterwards the 7H one
        // (5.7 / 11.4 / ~1.63 MW).
        assert!((result.power_mw(0)[0] - 2.1375).abs() < 0.01);
        assert!((result.power_mw(2)[0] - 5.7).abs() < 0.01);
        let last = result.times_min().len() - 1;
        assert!((result.power_mw(0)[last] - 5.7).abs() < 0.01);
        assert!((result.power_mw(1)[last] - 11.4).abs() < 0.01);
        assert!((result.power_mw(2)[last] - 1.6288).abs() < 0.01);
        // The whole change lands in a single step: worst jump equals the
        // full 6H→7H swing.
        let mi = result.power_stats(0).unwrap();
        assert!((mi.max_abs_step_mw - (5.7 - 2.1375)).abs() < 0.02, "{mi:?}");
        let wi = result.power_stats(2).unwrap();
        assert!((wi.max_abs_step_mw - (5.7 - 1.6288)).abs() < 0.02, "{wi:?}");
    }

    #[test]
    fn mpc_smooths_and_converges_toward_reference() {
        let scenario = smoothing_scenario();
        let sim = Simulator::new();
        let mut policy = MpcPolicy::paper_tuned(&scenario).unwrap();
        let result = sim.run(&scenario, &mut policy).unwrap();

        // Starts near the 6H operating point (Michigan ≈ 2.14 MW)...
        assert!(
            (result.power_mw(0)[0] - 2.1375).abs() < 0.8,
            "MI start {}",
            result.power_mw(0)[0]
        );
        // ...and moves toward the 7H point (5.7 MW) by the end.
        let mi_end = *result.power_mw(0).last().unwrap();
        assert!(mi_end > 4.0, "MI end {mi_end}");
        // Every per-step change is bounded (smoothing).
        let stats = result.power_stats(0).unwrap();
        assert!(
            stats.max_abs_step_mw < 1.0,
            "worst MI jump {} MW",
            stats.max_abs_step_mw
        );
        // Workload is served throughout.
        assert!(result.latency_ok_fraction() > 0.999);
    }

    #[test]
    fn peak_shaving_keeps_mpc_under_budget() {
        let scenario = peak_shaving_scenario();
        let sim = Simulator::new();
        let mpc = sim
            .run(&scenario, &mut MpcPolicy::paper_tuned(&scenario).unwrap())
            .unwrap();
        let opt = sim
            .run(
                &scenario,
                &mut OptimalPolicy::new(ReferenceKind::PriceGreedy),
            )
            .unwrap();
        let budgets = [5.13, 10.26, 4.275];
        let mpc_viol = mpc.budget_violation_fractions(&budgets);
        let opt_viol = opt.budget_violation_fractions(&budgets);
        // The optimal policy violates Minnesota's budget the whole window
        // (11.4 > 10.26 at both hours), Michigan's at every post-flip step
        // (5.7 > 5.13, i.e. 20 of 25 samples) and Wisconsin's only before
        // the flip.
        assert!(opt_viol[1] > 0.99, "{opt_viol:?}");
        assert!((opt_viol[0] - 0.8).abs() < 0.05, "{opt_viol:?}");
        assert!(opt_viol[2] < 0.3, "{opt_viol:?}");
        // The MPC tracks the clamped reference: Michigan and Minnesota
        // end under budget; transients may briefly exceed.
        assert!(*mpc.power_mw(0).last().unwrap() <= 5.13 + 0.05);
        assert!(*mpc.power_mw(1).last().unwrap() <= 10.26 + 0.05);
        let _ = mpc_viol;
    }

    #[test]
    fn accumulated_cost_is_positive_and_increasing() {
        let scenario = smoothing_scenario();
        let sim = Simulator::new();
        let result = sim
            .run(&scenario, &mut OptimalPolicy::new(ReferenceKind::LpOptimal))
            .unwrap();
        let costs = result.cost_cumulative();
        assert!(costs.windows(2).all(|w| w[1] >= w[0]));
        assert!(result.total_cost() > 0.0);
        // ~18.7 MW fleet × ~45 $/MWh × 1/6 h ≈ hundreds of dollars.
        assert!(result.total_cost() < 10_000.0);
    }

    #[test]
    fn total_power_sums_per_idc_series() {
        let scenario = smoothing_scenario();
        let sim = Simulator::new();
        let result = sim
            .run(
                &scenario,
                &mut OptimalPolicy::new(ReferenceKind::PriceGreedy),
            )
            .unwrap();
        let total = result.total_power_mw();
        let manual: f64 = (0..3).map(|j| result.power_mw(j)[5]).sum();
        assert!((total[5] - manual).abs() < 1e-12);
    }

    #[test]
    fn lp_optimal_is_cheaper_than_greedy() {
        let scenario = smoothing_scenario();
        let sim = Simulator::new();
        let lp = sim
            .run(&scenario, &mut OptimalPolicy::new(ReferenceKind::LpOptimal))
            .unwrap();
        let greedy = sim
            .run(
                &scenario,
                &mut OptimalPolicy::new(ReferenceKind::PriceGreedy),
            )
            .unwrap();
        // At 7H on the calibrated fleet the two allocations coincide, so
        // only integer-deployment rounding (⌈m⌉) separates the realized
        // costs — allow that sliver.
        assert!(
            lp.total_cost() <= greedy.total_cost() + 0.01,
            "LP {} vs greedy {}",
            lp.total_cost(),
            greedy.total_cost()
        );
    }
}
