//! Control policies: the paper's MPC and the baseline optimal policies.

use std::time::Instant;

use idc_control::mpc::{
    MpcConfig, MpcController, MpcProblem, StorageProblem, WarmRejection, WarmStateData,
};
use idc_control::reference::{
    optimal_reference, optimal_with_demand_charge, price_greedy_reference, ReferenceSolution,
};
use idc_datacenter::allocation::Allocation;
use idc_datacenter::idc::IdcConfig;
use idc_datacenter::sleep::SleepController;
use idc_market::tariff::{DemandCharge, PowerBudget};
use idc_storage::{StorageFleet, StorageState};
use idc_timeseries::predictor::WorkloadPredictor;

use crate::scenario::Scenario;
use crate::snapshot::{MpcPolicySnapshot, WarmStartSnapshot};
use crate::{Error, Result};

/// What one policy step sees: the simulator assembles this each sampling
/// period.
#[derive(Debug, Clone, PartialEq)]
pub struct StepContext<'a> {
    /// Step index within the run (0-based).
    pub step: usize,
    /// Hour of day at the start of the step.
    pub hour: f64,
    /// Step length in hours.
    pub dt_hours: f64,
    /// Current regional prices ($/MWh), one per IDC.
    pub prices: Vec<f64>,
    /// Current offered portal workloads (req/s), one per portal.
    pub offered: Vec<f64>,
    /// The IDC configurations.
    pub idcs: &'a [IdcConfig],
}

/// A policy's output for one step: how many servers to run and how to
/// split the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Servers ON per IDC.
    pub servers_on: Vec<u64>,
    /// The workload split `λij`.
    pub allocation: Allocation,
    /// Commanded battery charge rate per IDC (MW, grid side). Empty when
    /// the policy controls no storage — the simulator treats empty as
    /// all-zero.
    pub charge_mw: Vec<f64>,
    /// Commanded battery discharge rate per IDC (MW, load side). Empty
    /// when the policy controls no storage.
    pub discharge_mw: Vec<f64>,
}

/// A workload-allocation policy driven by the simulator.
pub trait Policy {
    /// Short display name used in reports.
    fn name(&self) -> &str;

    /// Called once before the run with the initialization context (the
    /// scenario's `init_hour` prices); policies settle at their preferred
    /// starting operating point here.
    fn initialize(&mut self, ctx: &StepContext<'_>) -> Result<()> {
        let _ = ctx;
        Ok(())
    }

    /// Produces the decision for one step.
    fn decide(&mut self, ctx: &StepContext<'_>) -> Result<Decision>;
}

/// Which reference problem defines "optimal".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferenceKind {
    /// The exact optimum of paper eq. 46 (cost per request =
    /// `Pr_j·peak/µ_j`), by merit order.
    LpOptimal,
    /// Greedy filling by raw regional price — the policy the paper's
    /// plotted "optimal method" trajectories follow.
    PriceGreedy,
}

impl ReferenceKind {
    /// Solves the associated reference problem.
    ///
    /// # Errors
    ///
    /// Propagates the optimizer's failure modes (infeasibility etc.).
    pub fn solve(
        &self,
        idcs: &[IdcConfig],
        offered: &[f64],
        prices: &[f64],
    ) -> idc_opt::Result<ReferenceSolution> {
        match self {
            ReferenceKind::LpOptimal => optimal_reference(idcs, offered, prices),
            ReferenceKind::PriceGreedy => price_greedy_reference(idcs, offered, prices),
        }
    }
}

/// The baseline of Rao et al. (INFOCOM'10): re-solve the instantaneous
/// cost minimum every step and jump straight to it.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalPolicy {
    kind: ReferenceKind,
    name: String,
}

impl OptimalPolicy {
    /// Creates the baseline with the given reference problem.
    pub fn new(kind: ReferenceKind) -> Self {
        let name = match kind {
            ReferenceKind::LpOptimal => "optimal (eq. 46 LP)",
            ReferenceKind::PriceGreedy => "optimal (price-greedy, as plotted)",
        };
        OptimalPolicy {
            kind,
            name: name.into(),
        }
    }

    /// The reference problem in use.
    pub fn kind(&self) -> ReferenceKind {
        self.kind
    }
}

impl Policy for OptimalPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, ctx: &StepContext<'_>) -> Result<Decision> {
        let reference = self.kind.solve(ctx.idcs, &ctx.offered, &ctx.prices)?;
        let servers_on = reference.servers_ceil(ctx.idcs);
        let allocation = Allocation::from_control_vector(
            ctx.offered.len(),
            ctx.idcs.len(),
            reference.allocation(),
        )
        .expect("reference allocation has fleet dimensions");
        Ok(Decision {
            servers_on,
            allocation,
            charge_mw: Vec::new(),
            discharge_mw: Vec::new(),
        })
    }
}

/// A static no-geo-balancing baseline: every portal's workload is split
/// across IDCs proportionally to their installed capacity, regardless of
/// prices — the "passive consumer" the paper's introduction argues
/// against. Servers follow eq. 35 for the fixed split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StaticProportionalPolicy;

impl StaticProportionalPolicy {
    /// Creates the baseline.
    pub fn new() -> Self {
        StaticProportionalPolicy
    }
}

impl Policy for StaticProportionalPolicy {
    fn name(&self) -> &str {
        "static (capacity-proportional, price-blind)"
    }

    fn decide(&mut self, ctx: &StepContext<'_>) -> Result<Decision> {
        let weights: Vec<f64> = ctx.idcs.iter().map(|i| i.max_workload()).collect();
        let allocation = Allocation::proportional(&ctx.offered, &weights)
            .ok_or_else(|| Error::Config("fleet has no capacity".into()))?;
        let servers_on: Vec<u64> = ctx
            .idcs
            .iter()
            .enumerate()
            .map(|(j, idc)| {
                idc.required_servers(allocation.idc_total(j))
                    .unwrap_or_else(|| idc.total_servers())
            })
            .collect();
        Ok(Decision {
            servers_on,
            allocation,
            charge_mw: Vec::new(),
            discharge_mw: Vec::new(),
        })
    }
}

/// Tuning of [`MpcPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct MpcPolicyConfig {
    /// The inner receding-horizon controller tuning.
    pub mpc: MpcConfig,
    /// The reference problem tracked by the controller.
    pub reference: ReferenceKind,
    /// Power budgets for peak shaving (reference clamp of Sec. IV-D).
    pub budgets: Option<PowerBudget>,
    /// Maximum servers switched per IDC per slow-loop decision.
    pub server_ramp_limit: u64,
    /// Slow-loop period in fast-loop steps (the two-time-scale ratio).
    pub slow_period: usize,
    /// AR order of the workload predictor.
    pub predictor_order: usize,
    /// When `true` (default, the paper's Sec. IV-D behaviour) the power
    /// reference is re-solved at each prediction step's forecast workload,
    /// letting the controller anticipate ramps; `false` holds the
    /// current-step reference across the horizon (the no-prediction
    /// ablation).
    pub anticipatory_reference: bool,
    /// When `true` (default) the inner controller keeps its solve state —
    /// cached QP skeleton, factorizations, warm start — across sampling
    /// periods. `false` resets it every step, forcing a from-scratch solve:
    /// the cold baseline for benchmarks and ablations. The plan itself is
    /// identical either way (the QP has a unique minimizer).
    pub solver_reuse: bool,
    /// Steps at which the inner QP solve is *forced to fail* (as if the
    /// solver hit its iteration limit): the policy must drop its cached
    /// solver state and take the same graceful-degradation path as a real
    /// infeasibility. Empty in production; populated by the testkit's
    /// fault plans.
    pub forced_failure_steps: Vec<usize>,
    /// Steps at which the solver's incremental working-set factor is
    /// deterministically *poisoned*, forcing its stability-rebuild path.
    /// Unlike [`forced_failure_steps`](Self::forced_failure_steps) the plan
    /// succeeds unchanged — only the refactorization counters move — so
    /// this exercises the rebuild machinery without a fallback. Empty in
    /// production; populated by the testkit's fault plans.
    pub forced_refactor_steps: Vec<usize>,
    /// When `true`, every per-step [`MpcProblem`] the policy assembles is
    /// kept in a log ([`MpcPolicy::recorded_problems`]) so differential
    /// oracles can re-solve them offline. Off by default.
    pub record_problems: bool,
    /// Per-IDC battery/UPS units the controller may dispatch. `None` (the
    /// default) reproduces the paper's shifting-only controller exactly.
    /// An inert fleet is normalized to `None` at construction.
    pub storage: Option<StorageFleet>,
    /// Billed-peak demand charge. When set, the reference is solved with
    /// the demand-charge-aware epigraph problem against the period's running
    /// peaks instead of [`reference`](Self::reference)'s plain problem.
    pub demand_charge: Option<DemandCharge>,
    /// Steps at which every battery's charge/discharge rate caps are
    /// forced to zero (a fleet-wide UPS transfer-switch outage): the
    /// enlarged QP must degrade to the shifting-only plan without a
    /// structure rebuild. Empty in production; populated by the testkit's
    /// fault plans.
    pub battery_outage_steps: Vec<usize>,
}

impl Default for MpcPolicyConfig {
    fn default() -> Self {
        MpcPolicyConfig {
            mpc: MpcConfig::default(),
            reference: ReferenceKind::PriceGreedy,
            budgets: None,
            server_ramp_limit: 1_500,
            slow_period: 1,
            predictor_order: 3,
            anticipatory_reference: true,
            solver_reuse: true,
            forced_failure_steps: Vec::new(),
            forced_refactor_steps: Vec::new(),
            record_problems: false,
            storage: None,
            demand_charge: None,
            battery_outage_steps: Vec::new(),
        }
    }
}

impl MpcPolicyConfig {
    /// The tuning of [`MpcPolicy::paper_tuned`]: the defaults plus the
    /// scenario's budgets, storage fleet and demand-charge tariff. Callers
    /// that adjust one knob (a solver backend, a fault plan) start here.
    pub fn paper_tuned(scenario: &Scenario) -> Self {
        MpcPolicyConfig {
            budgets: scenario.budgets().cloned(),
            storage: scenario.storage().cloned(),
            demand_charge: scenario.demand_charge().copied(),
            ..MpcPolicyConfig::default()
        }
    }
}

/// EWMA smoothing factor for the arbitrage price baseline. At 5-minute
/// steps this gives a half-life of about three hours, so the baseline
/// stays close to the daily mean while hourly real-time-price moves show
/// up as deviations worth trading against.
const PRICE_EWMA_ALPHA: f64 = 0.02;

/// Discharge when the spot price exceeds this multiple of the baseline.
/// The ±10% band yields a worst-case sell/buy spread of 1.10/0.90 ≈ 1.22,
/// clearing the ≈1.11 round-trip-efficiency breakeven (η_c·η_d ≈ 0.9).
const ARBITRAGE_DISCHARGE_RATIO: f64 = 1.10;

/// Charge when the spot price falls below this multiple of the baseline.
const ARBITRAGE_CHARGE_RATIO: f64 = 0.90;

/// Safety margin (MW) below a binding power budget that battery-assisted
/// peak shaving aims for — 1 kW, invisible in cost but far above float
/// noise on the realized grid draw.
const BUDGET_SHAVE_MARGIN_MW: f64 = 1e-3;

/// Per-step battery dispatch intent: the reference shift plus the gated
/// QP rate caps (see [`MpcPolicy::storage_shaping`]).
struct StorageShaping {
    shift: Vec<f64>,
    charge_cap: Vec<f64>,
    discharge_cap: Vec<f64>,
}

/// The paper's dynamic cost controller: two-time-scale server sleep
/// control plus constrained MPC workload control, tracking a
/// (budget-clamped) optimal power reference with an input-rate penalty.
#[derive(Debug, Clone)]
pub struct MpcPolicy {
    name: String,
    config: MpcPolicyConfig,
    controller: MpcController,
    predictors: Vec<WorkloadPredictor>,
    /// `(U(k−1), m(k−1))` once initialized.
    state: Option<(Vec<f64>, Vec<u64>)>,
    /// Total wall-clock nanoseconds spent inside [`Policy::decide`].
    decide_ns: u64,
    /// Per-step problems kept when `config.record_problems` is on.
    problem_log: Vec<MpcProblem>,
    /// Steps at which the policy degraded to its fallback (real
    /// infeasibility or injected solver failure).
    fallback_steps: Vec<usize>,
    /// EWMA of per-step QP iteration counts, used only to flag
    /// iteration-count spikes in the anomaly log. Observability state:
    /// deliberately *not* checkpointed and never fed back into control.
    iter_ewma: f64,
    /// The controller's belief of the battery state of charge, evolved
    /// with the same clamped dynamics the simulator applies — so belief
    /// and plant agree exactly on every deterministic run. `None` when no
    /// storage is configured (or before initialization).
    storage_state: Option<StorageState>,
    /// Applied battery rates of the previous step `(charge, discharge)`,
    /// MW — the rate-change variables in the QP are deltas against these.
    prev_rates: Option<(Vec<f64>, Vec<f64>)>,
    /// Per-IDC price EWMA (α = 0.02, ≈3 h half-life at 5-min steps): the
    /// arbitrage baseline. Prices above it shape the reference down
    /// (discharge), below it up (recharge). The slow constant keeps the
    /// baseline near the daily mean so hourly price moves register as
    /// signal rather than dragging the baseline with them.
    price_ewma: Option<Vec<f64>>,
    /// Per-IDC running billed peak of *grid* draw this billing period
    /// (MW), fed to the demand-charge epigraph problem and to the peak-shaving
    /// reference shaping.
    peak_so_far_mw: Vec<f64>,
}

impl MpcPolicy {
    /// Creates the controller with explicit tuning.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for invalid horizon/ramp/predictor
    /// parameters.
    pub fn new(config: MpcPolicyConfig) -> Result<Self> {
        if config.slow_period == 0 {
            return Err(Error::Config("slow_period must be at least 1".into()));
        }
        // Validate the ramp limit through the datacenter sleep controller —
        // the slow loop below applies the same ramp semantics to the
        // reference-derived target.
        SleepController::with_ramp_limit(config.server_ramp_limit)
            .ok_or_else(|| Error::Config("server_ramp_limit must be positive".into()))?;
        if config.predictor_order == 0 {
            return Err(Error::Config("predictor_order must be positive".into()));
        }
        if config.mpc.control_horizon == 0
            || config.mpc.control_horizon > config.mpc.prediction_horizon
        {
            return Err(Error::Config(
                "horizons must satisfy 0 < control ≤ prediction".into(),
            ));
        }
        let mut config = config;
        // Normalize inert storage away so zero-capacity configurations
        // take the exact storage-free code path (byte-identical runs).
        if config.storage.as_ref().is_some_and(StorageFleet::is_inert) {
            config.storage = None;
        }
        let controller = MpcController::new(config.mpc);
        Ok(MpcPolicy {
            name: "dynamic control (MPC)".into(),
            config,
            controller,
            predictors: Vec::new(),
            state: None,
            decide_ns: 0,
            problem_log: Vec::new(),
            fallback_steps: Vec::new(),
            iter_ewma: 0.0,
            storage_state: None,
            prev_rates: None,
            price_ewma: None,
            peak_so_far_mw: Vec::new(),
        })
    }

    /// The paper-tuned controller for a scenario: tracks the price-greedy
    /// reference (what the paper plots), adopts the scenario's budgets,
    /// storage fleet and demand-charge tariff, and uses the default
    /// horizons/weights.
    ///
    /// # Errors
    ///
    /// Propagates [`MpcPolicy::new`] failures.
    pub fn paper_tuned(scenario: &Scenario) -> Result<Self> {
        MpcPolicy::new(MpcPolicyConfig::paper_tuned(scenario))
    }

    /// The tuning in use.
    pub fn config(&self) -> &MpcPolicyConfig {
        &self.config
    }

    /// Current input vector `U(k−1)` (IDC-major flat), once initialized.
    pub fn current_input(&self) -> Option<&[f64]> {
        self.state.as_ref().map(|(u, _)| u.as_slice())
    }

    /// The inner receding-horizon controller (e.g. to inspect its
    /// warm-/cold-solve counters after a run).
    pub fn controller(&self) -> &MpcController {
        &self.controller
    }

    /// The per-step [`MpcProblem`]s assembled during the run, recorded when
    /// `config.record_problems` is set (empty otherwise). Differential
    /// oracles replay these offline against independent solvers.
    pub fn recorded_problems(&self) -> &[MpcProblem] {
        &self.problem_log
    }

    /// Steps at which this policy degraded to its capacity-proportional
    /// fallback, whether through a genuine infeasibility or an injected
    /// solver failure.
    pub fn fallback_steps(&self) -> &[usize] {
        &self.fallback_steps
    }

    /// Per-phase wall-clock breakdown of the time spent in this policy so
    /// far: the controller's own phase counters plus everything else
    /// [`Policy::decide`] does (reference solves, prediction, plan
    /// assembly). `simulate_ns` is left zero — only the caller can measure
    /// time spent outside the policy.
    pub fn phase_breakdown(&self) -> crate::metrics::PhaseBreakdown {
        let t = self.controller.timings();
        crate::metrics::PhaseBreakdown {
            refresh_ns: t.refresh_ns,
            factor_ns: t.factor_ns,
            condense_ns: t.condense_ns,
            solve_ns: t.solve_ns,
            reference_ns: self.decide_ns.saturating_sub(t.total_ns()),
            simulate_ns: 0,
        }
    }

    /// Cumulative solver introspection counters
    /// ([`crate::metrics::SolveStats`]) from the inner controller:
    /// iterations, working-set churn, warm-seed survival, pivot-rule
    /// switches, refinement passes and cold fallbacks across the run so
    /// far. [`PhaseBreakdown`](crate::metrics::PhaseBreakdown)'s sibling:
    /// the breakdown says where the time went, this says why.
    pub fn solve_stats(&self) -> crate::metrics::SolveStats {
        self.controller.solve_stats()
    }

    /// Per-portal workload forecasts for the control horizon, with the
    /// first step pinned to the observed workload (the conservation
    /// constraint must hold for what is actually served).
    fn forecast(&self, observed: &[f64], steps: usize) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(steps);
        out.push(observed.to_vec());
        if steps > 1 {
            let horizon = steps - 1;
            let mut per_portal: Vec<Vec<f64>> = self
                .predictors
                .iter()
                .map(|p| p.forecast(horizon))
                .collect();
            for s in 0..horizon {
                let row: Vec<f64> = per_portal.iter_mut().map(|f| f[s]).collect();
                out.push(row);
            }
        }
        out
    }

    /// Budget-consistent server cap: the largest `m` whose fully-loaded
    /// power stays under the budget, `m = budget / (PUE · peak_power)`.
    fn budget_server_cap(idc: &IdcConfig, budget_mw: f64) -> u64 {
        let per_server_mw = idc.pue() * idc.server().peak_power_w() / 1e6;
        if per_server_mw <= 0.0 {
            return idc.total_servers();
        }
        ((budget_mw / per_server_mw).floor().max(0.0) as u64).min(idc.total_servers())
    }

    /// Solves the operating-point reference: the demand-charge epigraph
    /// problem against the billing period's running peaks when a tariff is
    /// configured, the configured plain reference otherwise.
    fn reference_for(
        &self,
        idcs: &[IdcConfig],
        offered: &[f64],
        prices: &[f64],
    ) -> idc_opt::Result<ReferenceSolution> {
        match self.config.demand_charge {
            Some(tariff) => {
                optimal_with_demand_charge(idcs, offered, prices, &tariff, &self.peak_so_far_mw)
                    .map(|s| s.reference().clone())
            }
            None => self.config.reference.solve(idcs, offered, prices),
        }
    }

    /// Records the step's realized per-IDC grid draw into the billing
    /// period's running peak. No-op when neither storage nor demand
    /// charges are configured (the peak vector is empty then).
    fn observe_grid_power(&mut self, ctx: &StepContext<'_>, decision: &Decision) {
        if self.peak_so_far_mw.is_empty() {
            return;
        }
        for (j, idc) in ctx.idcs.iter().enumerate() {
            let it_mw = idc.pue()
                * (idc.server().b1() * decision.allocation.idc_total(j)
                    + idc.server().b0() * decision.servers_on[j] as f64)
                / 1e6;
            let charge = decision.charge_mw.get(j).copied().unwrap_or(0.0);
            let discharge = decision.discharge_mw.get(j).copied().unwrap_or(0.0);
            let grid = (it_mw + charge - discharge).max(0.0);
            if grid > self.peak_so_far_mw[j] {
                self.peak_so_far_mw[j] = grid;
            }
        }
    }

    /// Fallback steps command zero battery rates: the belief SoC holds and
    /// the next QP measures its rate deltas from zero.
    fn command_zero_rates(&mut self) {
        if let Some((c, d)) = &mut self.prev_rates {
            c.iter_mut().for_each(|x| *x = 0.0);
            d.iter_mut().for_each(|x| *x = 0.0);
        }
    }

    /// Per-IDC battery dispatch intent for this step. `shift` is the MW
    /// adjustment applied to the power reference: negative where the
    /// controller should discharge (peak shaving against the running
    /// billed peak first, then arbitrage when the regional price runs
    /// above its EWMA), positive where it should recharge (price below
    /// EWMA, and never above the already-billed peak when a demand-charge
    /// tariff makes fresh peaks expensive). `charge_cap`/`discharge_cap`
    /// are the rate limits handed to the QP — zero unless a signal fired,
    /// so the solver cannot thrash the battery to absorb ordinary tracking
    /// error (integer server rounding, smoothing lag) and cannot *charge*
    /// into a billed peak just to meet a high reference. Caps enter the
    /// QP right-hand sides only, so gating never invalidates the cached
    /// structure or warm state.
    fn storage_shaping(
        &self,
        ctx: &StepContext<'_>,
        power_ref: &[f64],
        unclamped_ref: &[f64],
    ) -> StorageShaping {
        let n = ctx.idcs.len();
        let mut shaping = StorageShaping {
            shift: vec![0.0; n],
            charge_cap: vec![0.0; n],
            discharge_cap: vec![0.0; n],
        };
        let (Some(fleet), Some(state), Some(ewma)) =
            (&self.config.storage, &self.storage_state, &self.price_ewma)
        else {
            return shaping;
        };
        if self.config.battery_outage_steps.contains(&ctx.step) {
            return shaping;
        }
        let dt = ctx.dt_hours;
        for (j, unit) in fleet.units().iter().enumerate() {
            let soc = state.soc_mwh()[j];
            let d_avail = unit
                .max_discharge_mw
                .min(soc * unit.discharge_efficiency / dt);
            let c_avail = unit
                .max_charge_mw
                .min((unit.capacity_mwh - soc).max(0.0) / (unit.charge_efficiency * dt));
            let peak = self.peak_so_far_mw.get(j).copied().unwrap_or(0.0);
            let mut d_budget = d_avail;
            let mut delta = 0.0;
            if self.config.demand_charge.is_some() && peak > 0.0 && power_ref[j] > peak {
                // Shave the fresh peak first — a ratchet here bills for
                // the whole period. The same discharge budget then serves
                // arbitrage, never double-counted.
                let cut = d_budget.min(power_ref[j] - peak);
                delta -= cut;
                d_budget -= cut;
            }
            // Arbitrage thresholds must clear the round-trip efficiency:
            // with η_c·η_d ≈ 0.9, a trade only pays if the sell price
            // exceeds buy/0.9 ≈ 1.11×. ±10% around a slow baseline keeps
            // the spread at ~1.22×, comfortably past breakeven.
            if ctx.prices[j] > ARBITRAGE_DISCHARGE_RATIO * ewma[j] {
                delta -= d_budget;
            } else if ctx.prices[j] < ARBITRAGE_CHARGE_RATIO * ewma[j] {
                // Charging raises grid draw, so it must stay under both
                // the billed peak (a ratchet charges for the whole
                // period) and any hard power budget (a violation defeats
                // the peak-shaving objective the battery exists for).
                let mut headroom = if self.config.demand_charge.is_some() {
                    (peak - (power_ref[j] + delta)).max(0.0)
                } else {
                    f64::INFINITY
                };
                if let Some(b) = &self.config.budgets {
                    headroom = headroom.min((b.budget_mw(j) - (power_ref[j] + delta)).max(0.0));
                }
                delta += c_avail.min(headroom);
            }
            shaping.shift[j] = delta;
            shaping.charge_cap[j] = delta.max(0.0);
            shaping.discharge_cap[j] = (-delta).max(0.0);
            // Budget backstop: when the reference is clamped at a binding
            // power budget, let the QP serve transient overshoot from the
            // battery even with no price/peak signal. Track a hair *below*
            // the budget — with battery rates the QP hits its reference to
            // float precision, and parking the realized draw exactly on
            // the boundary flips the strict `p > budget` violation check.
            if let Some(b) = &self.config.budgets {
                if unclamped_ref[j] > b.budget_mw(j) {
                    shaping.discharge_cap[j] = shaping.discharge_cap[j].max(d_avail);
                    shaping.shift[j] -= BUDGET_SHAVE_MARGIN_MW;
                }
            }
        }
        shaping
    }

    /// Assembles the per-step [`StorageProblem`] from the configured fleet
    /// and the evolving belief state. The rate caps handed to the QP are
    /// the *gated* caps from [`storage_shaping`](Self::storage_shaping) —
    /// zero on battery-outage steps and whenever no dispatch signal fired.
    /// Caps are rhs-only, so the QP skeleton and warm state survive every
    /// gating change.
    fn storage_problem_for(
        &self,
        ctx: &StepContext<'_>,
        shaping: &StorageShaping,
    ) -> Option<StorageProblem> {
        let fleet = self.config.storage.as_ref()?;
        let units = fleet.units();
        let (prev_c, prev_d) = self.prev_rates.clone().expect("initialized with storage");
        Some(StorageProblem {
            capacity_mwh: units.iter().map(|u| u.capacity_mwh).collect(),
            max_charge_mw: units
                .iter()
                .zip(&shaping.charge_cap)
                .map(|(u, &cap)| cap.min(u.max_charge_mw))
                .collect(),
            max_discharge_mw: units
                .iter()
                .zip(&shaping.discharge_cap)
                .map(|(u, &cap)| cap.min(u.max_discharge_mw))
                .collect(),
            charge_efficiency: units.iter().map(|u| u.charge_efficiency).collect(),
            discharge_efficiency: units.iter().map(|u| u.discharge_efficiency).collect(),
            soc_mwh: self
                .storage_state
                .as_ref()
                .expect("initialized with storage")
                .soc_mwh()
                .to_vec(),
            prev_charge_mw: prev_c,
            prev_discharge_mw: prev_d,
            dt_hours: ctx.dt_hours,
        })
    }

    /// Emergency fallback when the QP is infeasible (e.g. a workload surge
    /// beyond the ramped capacity): turn on whatever eq. 35 demands for a
    /// capacity-proportional split and apply that split directly.
    fn fallback(&self, ctx: &StepContext<'_>) -> Result<Decision> {
        let weights: Vec<f64> = ctx.idcs.iter().map(|i| i.max_workload()).collect();
        let allocation = Allocation::proportional(&ctx.offered, &weights)
            .ok_or_else(|| Error::Config("fleet has no capacity".into()))?;
        let servers_on: Vec<u64> = ctx
            .idcs
            .iter()
            .enumerate()
            .map(|(j, idc)| {
                idc.required_servers(allocation.idc_total(j))
                    .unwrap_or_else(|| idc.total_servers())
            })
            .collect();
        Ok(Decision {
            servers_on,
            allocation,
            charge_mw: Vec::new(),
            discharge_mw: Vec::new(),
        })
    }

    /// Takes the capacity-proportional fallback decision for `ctx` without
    /// consulting the solver, records the degradation in
    /// [`fallback_steps`](Self::fallback_steps) and advances the policy's
    /// internal state exactly as [`Policy::decide`]'s infeasibility path
    /// would. This is the runtime's staleness escape hatch: when the feeds
    /// are too stale to trust an MPC solve, the online stepper degrades to
    /// this safe split and counts it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the fleet has no capacity.
    pub fn degrade(&mut self, ctx: &StepContext<'_>) -> Result<Decision> {
        if self.state.is_none() {
            self.initialize(ctx)?;
        }
        for (p, &l) in self.predictors.iter_mut().zip(&ctx.offered) {
            p.observe(l);
        }
        if let Some(ewma) = &mut self.price_ewma {
            for (e, &p) in ewma.iter_mut().zip(&ctx.prices) {
                *e = (1.0 - PRICE_EWMA_ALPHA) * *e + PRICE_EWMA_ALPHA * p;
            }
        }
        idc_obs::record_anomaly("staleness_degrade", ctx.step as u64, &[]);
        let decision = self.fallback(ctx)?;
        self.command_zero_rates();
        self.observe_grid_power(ctx, &decision);
        self.fallback_steps.push(ctx.step);
        self.state = Some((
            decision.allocation.to_control_vector(),
            decision.servers_on.clone(),
        ));
        Ok(decision)
    }

    /// Exports the policy's complete evolving state for checkpointing (see
    /// [`MpcPolicySnapshot`] for what is and is not captured).
    pub fn snapshot(&self) -> MpcPolicySnapshot {
        let (warm, cold) = self.controller.solve_counters();
        MpcPolicySnapshot {
            prev_input: self.state.as_ref().map(|(u, _)| u.clone()),
            prev_servers: self.state.as_ref().map(|(_, m)| m.clone()),
            predictors: self.predictors.iter().map(|p| p.state()).collect(),
            warm_start: self.controller.warm_state().map(|w| WarmStartSnapshot {
                delta_u: w.delta_u,
                active_set: w.active_set.iter().map(|&i| i as u64).collect(),
            }),
            warm_solves: warm as u64,
            cold_solves: cold as u64,
            fallback_steps: self.fallback_steps.iter().map(|&s| s as u64).collect(),
            storage_soc_mwh: self.storage_state.as_ref().map(|s| s.soc_mwh().to_vec()),
            prev_charge_mw: self.prev_rates.as_ref().map(|(c, _)| c.clone()),
            prev_discharge_mw: self.prev_rates.as_ref().map(|(_, d)| d.clone()),
            price_ewma: self.price_ewma.clone(),
            peak_so_far_mw: self.peak_so_far_mw.clone(),
        }
    }

    /// Restores the policy's evolving state from a
    /// [`snapshot`](Self::snapshot) export, so the next
    /// [`Policy::decide`] call produces bit-for-bit the decision an
    /// uninterrupted run would have.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the snapshot is internally
    /// inconsistent with this policy's tuning (corrupt predictor state, a
    /// predictor order mismatch, or input/server vectors of different
    /// lengths).
    pub fn restore(&mut self, snapshot: &MpcPolicySnapshot) -> Result<()> {
        let mut predictors = Vec::with_capacity(snapshot.predictors.len());
        for (i, ps) in snapshot.predictors.iter().enumerate() {
            let p = WorkloadPredictor::from_state(ps)
                .ok_or_else(|| Error::Config(format!("corrupt predictor state #{i}")))?;
            if p.order() != self.config.predictor_order {
                return Err(Error::Config(format!(
                    "predictor #{i} order {} does not match config order {}",
                    p.order(),
                    self.config.predictor_order
                )));
            }
            predictors.push(p);
        }
        let state = match (&snapshot.prev_input, &snapshot.prev_servers) {
            (Some(u), Some(m)) => Some((u.clone(), m.clone())),
            (None, None) => None,
            _ => {
                return Err(Error::Config(
                    "snapshot has input state without server state (or vice versa)".into(),
                ))
            }
        };
        if state.is_none() && !predictors.is_empty() {
            return Err(Error::Config(
                "snapshot has predictors but no controller state".into(),
            ));
        }
        // Storage / demand-charge carry-over: an initialized snapshot must
        // hold exactly the auxiliary state this policy's tuning calls for.
        let initialized = state.is_some();
        let storage_state = match (&self.config.storage, &snapshot.storage_soc_mwh) {
            (Some(fleet), Some(soc)) => {
                Some(StorageState::with_soc(fleet, soc.clone()).ok_or_else(|| {
                    Error::Config(
                        "snapshot battery SoC is inconsistent with the configured fleet".into(),
                    )
                })?)
            }
            (None, Some(_)) => {
                return Err(Error::Config(
                    "snapshot has battery state but no storage is configured".into(),
                ))
            }
            (Some(_), None) if initialized => {
                return Err(Error::Config(
                    "snapshot lacks battery state for a storage-configured policy".into(),
                ))
            }
            _ => None,
        };
        let n_units = self.config.storage.as_ref().map(StorageFleet::num_idcs);
        let prev_rates = match (&snapshot.prev_charge_mw, &snapshot.prev_discharge_mw) {
            (Some(c), Some(d)) => {
                if storage_state.is_none() || Some(c.len()) != n_units || Some(d.len()) != n_units {
                    return Err(Error::Config(
                        "snapshot battery rates are inconsistent with the configured fleet".into(),
                    ));
                }
                Some((c.clone(), d.clone()))
            }
            (None, None) => {
                if storage_state.is_some() {
                    return Err(Error::Config(
                        "snapshot has battery SoC but no previous battery rates".into(),
                    ));
                }
                None
            }
            _ => {
                return Err(Error::Config(
                    "snapshot has charge rates without discharge rates (or vice versa)".into(),
                ))
            }
        };
        let needs_aux = self.config.storage.is_some() || self.config.demand_charge.is_some();
        if needs_aux
            && initialized
            && (snapshot.price_ewma.is_none() || snapshot.peak_so_far_mw.is_empty())
        {
            return Err(Error::Config(
                "snapshot lacks price/peak state for a storage- or demand-charge-configured \
                 policy"
                    .into(),
            ));
        }
        self.storage_state = storage_state;
        self.prev_rates = prev_rates;
        self.price_ewma = snapshot.price_ewma.clone();
        self.peak_so_far_mw = snapshot.peak_so_far_mw.clone();
        self.predictors = predictors;
        self.state = state;
        self.controller.reset();
        self.controller
            .restore_warm_state(snapshot.warm_start.as_ref().map(|w| WarmStateData {
                delta_u: w.delta_u.clone(),
                active_set: w.active_set.iter().map(|&i| i as usize).collect(),
            }));
        self.controller
            .restore_solve_counters(snapshot.warm_solves as usize, snapshot.cold_solves as usize);
        self.fallback_steps = snapshot
            .fallback_steps
            .iter()
            .map(|&s| s as usize)
            .collect();
        Ok(())
    }
}

impl Policy for MpcPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn initialize(&mut self, ctx: &StepContext<'_>) -> Result<()> {
        let n = ctx.idcs.len();
        if let Some(fleet) = &self.config.storage {
            if fleet.num_idcs() != n {
                return Err(Error::Config(format!(
                    "storage fleet covers {} IDCs, control fleet has {n}",
                    fleet.num_idcs()
                )));
            }
            self.storage_state = Some(StorageState::of(fleet));
            self.prev_rates = Some((vec![0.0; n], vec![0.0; n]));
        }
        if self.config.storage.is_some() || self.config.demand_charge.is_some() {
            self.price_ewma = Some(ctx.prices.clone());
            self.peak_so_far_mw = vec![0.0; n];
        }
        let reference = self.reference_for(ctx.idcs, &ctx.offered, &ctx.prices)?;
        let u = reference.allocation().to_vec();
        let m = reference.servers_ceil(ctx.idcs);
        self.state = Some((u, m));
        self.predictors = ctx
            .offered
            .iter()
            .map(|&l| {
                let mut p =
                    WorkloadPredictor::new(self.config.predictor_order).expect("validated order");
                p.observe(l);
                p
            })
            .collect();
        Ok(())
    }

    fn decide(&mut self, ctx: &StepContext<'_>) -> Result<Decision> {
        let start = Instant::now();
        let span = idc_obs::Span::enter_cat("policy.decide", "control");
        let result = self.decide_inner(ctx);
        drop(span);
        self.decide_ns += start.elapsed().as_nanos() as u64;
        result
    }
}

impl MpcPolicy {
    /// Updates the iteration EWMA and, when the anomaly log is enabled,
    /// dumps a record for steps whose QP iteration count spikes well above
    /// the recent average. Pure observability: the EWMA feeds nothing back
    /// into control and is not checkpointed.
    fn note_iteration_spike(&mut self, step: usize, iterations: usize) {
        let it = iterations as f64;
        let ewma = self.iter_ewma;
        if idc_obs::anomaly_enabled() && ewma > 0.0 && it > 3.0 * ewma && it > ewma + 8.0 {
            idc_obs::record_anomaly(
                "qp_iteration_spike",
                step as u64,
                &[("iterations", it), ("ewma", ewma)],
            );
        }
        self.iter_ewma = if ewma == 0.0 {
            it
        } else {
            0.9 * ewma + 0.1 * it
        };
    }

    /// The actual decision logic, separated so [`Policy::decide`] can time
    /// it inclusively across early returns.
    fn decide_inner(&mut self, ctx: &StepContext<'_>) -> Result<Decision> {
        if self.state.is_none() {
            self.initialize(ctx)?;
        }
        // Feed the predictors.
        for (p, &l) in self.predictors.iter_mut().zip(&ctx.offered) {
            p.observe(l);
        }
        // Track the arbitrage baseline: per-IDC price EWMA.
        if let Some(ewma) = &mut self.price_ewma {
            for (e, &p) in ewma.iter_mut().zip(&ctx.prices) {
                *e = (1.0 - PRICE_EWMA_ALPHA) * *e + PRICE_EWMA_ALPHA * p;
            }
        }
        let (prev_u, prev_m) = self.state.clone().expect("initialized above");
        let n = ctx.idcs.len();
        let c = ctx.offered.len();

        // ---- Reference (eq. 46 / greedy / demand-charge epigraph) on the
        // one-step-ahead workload, clamped to the power budget for peak
        // shaving (Sec. IV-D). ----
        let reference = self.reference_for(ctx.idcs, &ctx.offered, &ctx.prices)?;
        let mut power_ref = match &self.config.budgets {
            Some(b) => reference.clamped_power_mw(b.as_slice()),
            None => reference.power_mw().to_vec(),
        };
        // ---- Battery dispatch shaping: shift the tracking target by what
        // the units should move this period (peak shaving + price
        // arbitrage) and gate the QP's rate caps accordingly, so the
        // battery moves only when a signal fired. ----
        let shaping = self.storage_shaping(ctx, &power_ref, reference.power_mw());
        for (r, &s) in power_ref.iter_mut().zip(&shaping.shift) {
            *r = (*r + s).max(0.0);
        }
        // Budget-clamped IDCs get a heavy tracking weight: their power must
        // be pinned at the budget, while unclamped IDCs absorb whatever
        // load is displaced (Fig. 6's Wisconsin behaviour).
        let tracking_multiplier: Vec<f64> = match &self.config.budgets {
            Some(b) => reference
                .power_mw()
                .iter()
                .zip(b.as_slice())
                .map(|(&p, &budget)| if p > budget { 25.0 } else { 1.0 })
                .collect(),
            None => vec![1.0; n],
        };

        // ---- Slow loop: ramp-limited server sleep control toward the
        // reference deployment, never below what the current allocation
        // needs, never above a binding power budget's implied cap (unless
        // feasibility demands it). ----
        let ref_servers = reference.servers_ceil(ctx.idcs);
        let mut servers_on = Vec::with_capacity(n);
        for (j, idc) in ctx.idcs.iter().enumerate() {
            let current_lambda: f64 = prev_u[j * c..(j + 1) * c].iter().sum();
            let needed = idc
                .required_servers(current_lambda)
                .unwrap_or_else(|| idc.total_servers());
            let mut target = ref_servers[j].max(needed);
            if let Some(b) = &self.config.budgets {
                let cap = Self::budget_server_cap(idc, b.budget_mw(j)).max(needed);
                target = target.min(cap);
            }
            let next = if ctx.step.is_multiple_of(self.config.slow_period) {
                // Ramp-limited move toward the target, floored at what the
                // current allocation needs for its latency bound.
                let limit = self.config.server_ramp_limit;
                let stepped = if target > prev_m[j] {
                    (prev_m[j] + limit).min(target)
                } else {
                    prev_m[j] - limit.min(prev_m[j] - target)
                };
                stepped.max(needed).min(idc.total_servers())
            } else {
                prev_m[j].max(needed).min(idc.total_servers())
            };
            servers_on.push(next);
        }

        // ---- Emergency capacity override: the ramp limit is a comfort
        // preference, but serving the forecast workload is a hard duty. If
        // the ramped deployment cannot hold the forecast, add servers
        // (cheapest-headroom first) until it can. ----
        let beta2_forecast = self.forecast(&ctx.offered, self.config.mpc.control_horizon);
        let max_total_forecast = beta2_forecast
            .iter()
            .map(|f| f.iter().sum::<f64>())
            .fold(0.0f64, f64::max);
        let capacity_of = |m: &[u64]| -> f64 {
            ctx.idcs
                .iter()
                .zip(m)
                .map(|(idc, &mj)| idc.capacity_with(mj))
                .sum()
        };
        let mut guard = 0;
        while capacity_of(&servers_on) < max_total_forecast * 1.0005 && guard < 1_000 {
            // Add to the IDC with the most headroom.
            let Some((j, _)) = ctx
                .idcs
                .iter()
                .enumerate()
                .map(|(j, idc)| (j, idc.total_servers() - servers_on[j]))
                .filter(|&(_, headroom)| headroom > 0)
                .max_by_key(|&(_, headroom)| headroom)
            else {
                break; // fleet saturated; the QP will report infeasibility
            };
            let missing = max_total_forecast * 1.0005 - capacity_of(&servers_on);
            let add = ((missing / ctx.idcs[j].service_rate()).ceil() as u64)
                .max(1)
                .min(ctx.idcs[j].total_servers() - servers_on[j]);
            servers_on[j] += add;
            guard += 1;
        }

        // ---- Reference *trajectory* over the prediction horizon: the
        // paper's "the optimization is conducted based on the predicted
        // workload" (Sec. IV-D) — re-solve the reference at each step's
        // forecast so the controller anticipates workload ramps. Falls
        // back to holding the current reference when a forecast step is
        // infeasible (the emergency override will catch up). ----
        let beta1 = self.config.mpc.prediction_horizon;
        let horizon_forecasts: Vec<Vec<f64>> = {
            let mut per_portal: Vec<Vec<f64>> =
                self.predictors.iter().map(|p| p.forecast(beta1)).collect();
            (0..beta1)
                .map(|s| per_portal.iter_mut().map(|f| f[s]).collect())
                .collect()
        };
        let mut power_reference_mw = Vec::with_capacity(beta1);
        if self.config.anticipatory_reference {
            for step_forecast in &horizon_forecasts {
                let step_ref = self
                    .reference_for(ctx.idcs, step_forecast, &ctx.prices)
                    .map(|r| {
                        let mut p = match &self.config.budgets {
                            Some(b) => r.clamped_power_mw(b.as_slice()),
                            None => r.power_mw().to_vec(),
                        };
                        for (pj, &s) in p.iter_mut().zip(&shaping.shift) {
                            *pj = (*pj + s).max(0.0);
                        }
                        p
                    })
                    .unwrap_or_else(|_| power_ref.clone());
                power_reference_mw.push(step_ref);
            }
        } else {
            power_reference_mw = vec![power_ref.clone(); beta1];
        }

        let problem = MpcProblem {
            b1_mw: ctx
                .idcs
                .iter()
                .map(|i| i.pue() * i.server().b1() / 1e6)
                .collect(),
            b0_mw: ctx
                .idcs
                .iter()
                .map(|i| i.pue() * i.server().b0() / 1e6)
                .collect(),
            servers_on: servers_on.clone(),
            capacities: ctx
                .idcs
                .iter()
                .zip(&servers_on)
                .map(|(idc, &m)| idc.capacity_with(m))
                .collect(),
            prev_input: prev_u.clone(),
            workload_forecast: beta2_forecast,
            power_reference_mw,
            tracking_multiplier,
            storage: self.storage_problem_for(ctx, &shaping),
        };
        if self.config.record_problems {
            self.problem_log.push(problem.clone());
        }
        if self.config.forced_failure_steps.contains(&ctx.step) {
            // Injected solver failure: behave exactly like an iteration-limit
            // abort — the cached solver state is suspect, so drop it (the
            // next solve is cold) and degrade to the fallback split.
            idc_obs::record_anomaly("injected_solver_failure", ctx.step as u64, &[]);
            self.controller.reset();
            self.fallback_steps.push(ctx.step);
            let decision = self.fallback(ctx)?;
            self.command_zero_rates();
            self.observe_grid_power(ctx, &decision);
            self.state = Some((
                decision.allocation.to_control_vector(),
                decision.servers_on.clone(),
            ));
            return Ok(decision);
        }
        if !self.config.solver_reuse {
            self.controller.reset();
        }
        if self.config.forced_refactor_steps.contains(&ctx.step) {
            // Injected factor poison: the solver detects the drift and
            // rebuilds — no fallback, no reset, the plan is unchanged.
            idc_obs::record_anomaly("injected_forced_refactorization", ctx.step as u64, &[]);
            self.controller.force_refactor_next();
        }
        match self.controller.plan(&problem) {
            Ok(plan) => {
                self.note_iteration_spike(ctx.step, plan.qp_iterations());
                if let Some(r) = plan.warm_rejection() {
                    record_warm_rejection(ctx.step as u64, r);
                }
                let u = plan.next_input().to_vec();
                let allocation = Allocation::from_control_vector(c, n, &u)
                    .expect("controller output has fleet dimensions");
                // Apply the planned battery rates to the belief SoC with
                // the same clamped dynamics the simulator uses, and report
                // the applied (not raw) rates so belief and plant agree.
                let mut charge_mw = Vec::new();
                let mut discharge_mw = Vec::new();
                if let Some(fleet) = &self.config.storage {
                    let state = self
                        .storage_state
                        .as_mut()
                        .expect("initialized with storage");
                    for j in 0..n {
                        let applied = state.apply(
                            fleet,
                            j,
                            plan.next_charge_mw()[j],
                            plan.next_discharge_mw()[j],
                            ctx.dt_hours,
                        );
                        charge_mw.push(applied.charge_mw);
                        discharge_mw.push(applied.discharge_mw);
                    }
                    self.prev_rates = Some((charge_mw.clone(), discharge_mw.clone()));
                }
                self.state = Some((u, servers_on.clone()));
                let decision = Decision {
                    servers_on,
                    allocation,
                    charge_mw,
                    discharge_mw,
                };
                self.observe_grid_power(ctx, &decision);
                Ok(decision)
            }
            Err(idc_opt::Error::Infeasible) => {
                idc_obs::record_anomaly("qp_infeasible_fallback", ctx.step as u64, &[]);
                self.fallback_steps.push(ctx.step);
                let decision = self.fallback(ctx)?;
                self.command_zero_rates();
                self.observe_grid_power(ctx, &decision);
                self.state = Some((
                    decision.allocation.to_control_vector(),
                    decision.servers_on.clone(),
                ));
                Ok(decision)
            }
            Err(e) => Err(e.into()),
        }
    }
}

/// Streams a `warm_start_rejected` anomaly record: a warm step paid a cold
/// solve, so the log always says why — the worst violation of every
/// constraint family the repaired point missed.
fn record_warm_rejection(step: u64, r: &WarmRejection) {
    idc_obs::record_anomaly(
        "warm_start_rejected",
        step,
        &[
            ("conservation", r.conservation),
            ("capacity", r.capacity),
            ("nonnegativity", r.nonnegativity),
            ("storage", r.storage),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;

    fn ctx<'a>(idcs: &'a [IdcConfig], hour: f64, prices: Vec<f64>) -> StepContext<'a> {
        StepContext {
            step: 0,
            hour,
            dt_hours: config::DEFAULT_TS_HOURS,
            prices,
            offered: vec![30_000.0, 15_000.0, 15_000.0, 20_000.0, 20_000.0],
            idcs,
        }
    }

    #[test]
    fn optimal_policy_jumps_to_reference() {
        let fleet = config::paper_fleet_calibrated();
        let mut policy = OptimalPolicy::new(ReferenceKind::PriceGreedy);
        assert_eq!(policy.kind(), ReferenceKind::PriceGreedy);
        let c = ctx(fleet.idcs(), 6.0, vec![43.26, 30.26, 19.06]);
        let d = policy.decide(&c).unwrap();
        // 6H greedy: WI and MN saturated, MI takes the rest (Fig. 4/5).
        let lam = d.allocation.idc_totals();
        assert!(
            (lam[2] - fleet.idcs()[2].max_workload()).abs() < 2.0,
            "WI {}",
            lam[2]
        );
        assert!(
            (lam[1] - fleet.idcs()[1].max_workload()).abs() < 2.0,
            "MN {}",
            lam[1]
        );
        // Server counts ≈ the paper's 7 500 / 40 000 / 20 000.
        assert!(
            (d.servers_on[0] as f64 - 7_500.0).abs() < 5.0,
            "{:?}",
            d.servers_on
        );
        assert_eq!(d.servers_on[1], 40_000);
        assert_eq!(d.servers_on[2], 20_000);
    }

    #[test]
    fn optimal_policy_produces_papers_7h_jump() {
        let fleet = config::paper_fleet_calibrated();
        let mut policy = OptimalPolicy::new(ReferenceKind::PriceGreedy);
        let c = ctx(fleet.idcs(), 7.0, vec![49.90, 29.47, 77.97]);
        let d = policy.decide(&c).unwrap();
        // The paper's 7H optimal: MI 20 000, MN 40 000, WI ~5 715 servers.
        assert_eq!(d.servers_on[0], 20_000);
        assert_eq!(d.servers_on[1], 40_000);
        assert!(
            (d.servers_on[2] as f64 - 5_715.0).abs() < 5.0,
            "WI servers {:?}",
            d.servers_on[2]
        );
    }

    #[test]
    fn mpc_policy_initializes_and_conserves_workload() {
        let fleet = config::paper_fleet_calibrated();
        let scenario = crate::scenario::smoothing_scenario();
        let mut policy = MpcPolicy::paper_tuned(&scenario).unwrap();
        let init = ctx(fleet.idcs(), 6.5, vec![43.26, 30.26, 19.06]);
        policy.initialize(&init).unwrap();
        assert!(policy.current_input().is_some());

        let step = ctx(fleet.idcs(), 7.0, vec![49.90, 29.47, 77.97]);
        let d = policy.decide(&step).unwrap();
        let total: f64 = d.allocation.idc_totals().iter().sum();
        assert!((total - 100_000.0).abs() < 1e-3, "total {total}");
        assert!(d.allocation.is_nonnegative(1e-9));
        // Latency bound respected everywhere.
        for (j, idc) in fleet.idcs().iter().enumerate() {
            assert!(
                idc.meets_latency_bound(d.servers_on[j], d.allocation.idc_total(j)),
                "IDC {j} violates latency"
            );
        }
    }

    #[test]
    fn mpc_moves_gradually_compared_to_optimal() {
        let fleet = config::paper_fleet_calibrated();
        let scenario = crate::scenario::smoothing_scenario();
        let mut policy = MpcPolicy::paper_tuned(&scenario).unwrap();
        let init = ctx(fleet.idcs(), 6.5, vec![43.26, 30.26, 19.06]);
        policy.initialize(&init).unwrap();
        let before = policy.current_input().unwrap().to_vec();

        let step = ctx(fleet.idcs(), 7.0, vec![49.90, 29.47, 77.97]);
        let d = policy.decide(&step).unwrap();
        // Wisconsin (block 2) drains, but not all the way to the 7H
        // optimum (10 000) in a single step.
        let wi_before: f64 = before[2 * 5..3 * 5].iter().sum();
        let wi_after = d.allocation.idc_total(2);
        assert!(wi_after < wi_before, "{wi_after} !< {wi_before}");
        assert!(
            wi_after > 10_000.0 + 1_000.0,
            "jumped too far in one step: {wi_after}"
        );
    }

    #[test]
    fn mpc_config_validation() {
        assert!(MpcPolicy::new(MpcPolicyConfig {
            slow_period: 0,
            ..MpcPolicyConfig::default()
        })
        .is_err());
        assert!(MpcPolicy::new(MpcPolicyConfig {
            server_ramp_limit: 0,
            ..MpcPolicyConfig::default()
        })
        .is_err());
        assert!(MpcPolicy::new(MpcPolicyConfig {
            predictor_order: 0,
            ..MpcPolicyConfig::default()
        })
        .is_err());
    }

    #[test]
    fn budget_server_cap_matches_peak_power() {
        let fleet = config::paper_fleet_calibrated();
        // 5.13 MW / 285 W = 18 000 servers.
        let cap = MpcPolicy::budget_server_cap(&fleet.idcs()[0], 5.13);
        assert_eq!(cap, 18_000);
        // Budget larger than the fleet: capped at M.
        let cap = MpcPolicy::budget_server_cap(&fleet.idcs()[0], 1e9);
        assert_eq!(cap, 20_000);
    }

    #[test]
    fn decide_without_initialize_self_initializes() {
        let fleet = config::paper_fleet_calibrated();
        let scenario = crate::scenario::smoothing_scenario();
        let mut policy = MpcPolicy::paper_tuned(&scenario).unwrap();
        let step = ctx(fleet.idcs(), 6.0, vec![43.26, 30.26, 19.06]);
        let d = policy.decide(&step).unwrap();
        let total: f64 = d.allocation.idc_totals().iter().sum();
        assert!((total - 100_000.0).abs() < 1e-3);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let fleet = config::paper_fleet_calibrated();
        let scenario = crate::scenario::smoothing_scenario();
        let mut live = MpcPolicy::paper_tuned(&scenario).unwrap();
        let init = ctx(fleet.idcs(), 6.5, vec![43.26, 30.26, 19.06]);
        live.initialize(&init).unwrap();

        let price_sets = [
            vec![49.90, 29.47, 77.97],
            vec![44.00, 31.00, 60.00],
            vec![41.00, 35.00, 41.00],
            vec![55.00, 28.00, 39.00],
        ];
        for (k, prices) in price_sets.iter().take(2).enumerate() {
            let mut c = ctx(fleet.idcs(), 7.0 + k as f64, prices.clone());
            c.step = k;
            live.decide(&c).unwrap();
        }

        // Snapshot after step 1, rebuild a fresh policy, restore.
        let snap = live.snapshot();
        let mut resumed = MpcPolicy::paper_tuned(&scenario).unwrap();
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.snapshot(), snap);

        for (k, prices) in price_sets.iter().enumerate().skip(2) {
            let mut c = ctx(fleet.idcs(), 7.0 + k as f64, prices.clone());
            c.step = k;
            let a = live.decide(&c).unwrap();
            let b = resumed.decide(&c).unwrap();
            assert_eq!(a.servers_on, b.servers_on, "step {k}");
            for (x, y) in a
                .allocation
                .to_control_vector()
                .iter()
                .zip(b.allocation.to_control_vector().iter())
            {
                assert_eq!(x.to_bits(), y.to_bits(), "step {k}");
            }
        }
        assert_eq!(live.snapshot(), resumed.snapshot());
    }

    #[test]
    fn restore_rejects_inconsistent_snapshot() {
        let scenario = crate::scenario::smoothing_scenario();
        let fleet = config::paper_fleet_calibrated();
        let mut policy = MpcPolicy::paper_tuned(&scenario).unwrap();
        let init = ctx(fleet.idcs(), 6.5, vec![43.26, 30.26, 19.06]);
        policy.initialize(&init).unwrap();
        let good = policy.snapshot();

        let mut bad = good.clone();
        bad.prev_servers = None;
        assert!(policy.restore(&bad).is_err());

        let mut bad = good.clone();
        bad.predictors[0].order = 0; // corrupt predictor
        assert!(policy.restore(&bad).is_err());

        let mut bad = good;
        bad.predictors[0].rls.forgetting = 7.0;
        assert!(policy.restore(&bad).is_err());
    }

    #[test]
    fn degrade_counts_and_advances_state() {
        let scenario = crate::scenario::smoothing_scenario();
        let fleet = config::paper_fleet_calibrated();
        let mut policy = MpcPolicy::paper_tuned(&scenario).unwrap();
        let mut c = ctx(fleet.idcs(), 7.0, vec![49.90, 29.47, 77.97]);
        c.step = 3;
        let d = policy.degrade(&c).unwrap();
        assert_eq!(policy.fallback_steps(), &[3]);
        // State advanced to the fallback operating point.
        let total: f64 = d.allocation.idc_totals().iter().sum();
        assert!((total - 100_000.0).abs() < 1e-3);
        assert_eq!(
            policy.current_input().unwrap(),
            d.allocation.to_control_vector().as_slice()
        );
        // A normal decide still works afterwards.
        c.step = 4;
        policy.decide(&c).unwrap();
        assert_eq!(policy.fallback_steps(), &[3]);
    }

    #[test]
    fn storage_snapshot_restore_resumes_bit_identically() {
        let fleet = config::paper_fleet_calibrated();
        let scenario = crate::scenario::storage_plus_shifting_scenario(5);
        let mut live = MpcPolicy::paper_tuned(&scenario).unwrap();
        let init = ctx(fleet.idcs(), 6.5, vec![43.26, 30.26, 19.06]);
        live.initialize(&init).unwrap();

        let price_sets = [
            vec![49.90, 29.47, 77.97],
            vec![44.00, 31.00, 60.00],
            vec![41.00, 35.00, 41.00],
            vec![90.00, 28.00, 12.00], // spread wide enough to dispatch
        ];
        for (k, prices) in price_sets.iter().take(2).enumerate() {
            let mut c = ctx(fleet.idcs(), 7.0 + k as f64, prices.clone());
            c.step = k;
            live.decide(&c).unwrap();
        }

        let snap = live.snapshot();
        assert!(snap.storage_soc_mwh.is_some());
        assert!(snap.price_ewma.is_some());
        assert_eq!(snap.peak_so_far_mw.len(), 3);
        let mut resumed = MpcPolicy::paper_tuned(&scenario).unwrap();
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.snapshot(), snap);

        for (k, prices) in price_sets.iter().enumerate().skip(2) {
            let mut c = ctx(fleet.idcs(), 7.0 + k as f64, prices.clone());
            c.step = k;
            let a = live.decide(&c).unwrap();
            let b = resumed.decide(&c).unwrap();
            assert_eq!(a.servers_on, b.servers_on, "step {k}");
            for (x, y) in a.charge_mw.iter().zip(&b.charge_mw) {
                assert_eq!(x.to_bits(), y.to_bits(), "charge step {k}");
            }
            for (x, y) in a.discharge_mw.iter().zip(&b.discharge_mw) {
                assert_eq!(x.to_bits(), y.to_bits(), "discharge step {k}");
            }
            for (x, y) in a
                .allocation
                .to_control_vector()
                .iter()
                .zip(b.allocation.to_control_vector().iter())
            {
                assert_eq!(x.to_bits(), y.to_bits(), "step {k}");
            }
        }
        assert_eq!(live.snapshot(), resumed.snapshot());
    }

    #[test]
    fn restore_rejects_storage_mismatch() {
        let fleet = config::paper_fleet_calibrated();
        let init = ctx(fleet.idcs(), 6.5, vec![43.26, 30.26, 19.06]);

        // A storage-configured policy rejects snapshots whose battery
        // state is missing or the wrong size.
        let scenario = crate::scenario::storage_plus_shifting_scenario(5);
        let mut policy = MpcPolicy::paper_tuned(&scenario).unwrap();
        policy.initialize(&init).unwrap();
        let good = policy.snapshot();

        let mut bad = good.clone();
        bad.storage_soc_mwh = None;
        assert!(policy.restore(&bad).is_err());

        let mut bad = good.clone();
        bad.storage_soc_mwh = Some(vec![2.0; 2]); // fleet has 3 units
        assert!(policy.restore(&bad).is_err());

        let mut bad = good.clone();
        bad.prev_charge_mw = None; // rates must come as a pair
        assert!(policy.restore(&bad).is_err());

        let mut bad = good.clone();
        bad.price_ewma = None;
        assert!(policy.restore(&bad).is_err());

        // A storage-free policy rejects a snapshot carrying battery state.
        let plain = crate::scenario::smoothing_scenario();
        let mut plain_policy = MpcPolicy::paper_tuned(&plain).unwrap();
        plain_policy.initialize(&init).unwrap();
        let mut bad = plain_policy.snapshot();
        bad.storage_soc_mwh = good.storage_soc_mwh.clone();
        assert!(plain_policy.restore(&bad).is_err());
    }

    #[test]
    fn battery_outage_steps_force_zero_rates() {
        let fleet = config::paper_fleet_calibrated();
        let scenario = crate::scenario::storage_plus_shifting_scenario(5);
        let mut cfg = MpcPolicy::paper_tuned(&scenario).unwrap().config().clone();
        cfg.battery_outage_steps = vec![1];
        let mut policy = MpcPolicy::new(cfg).unwrap();
        let init = ctx(fleet.idcs(), 6.5, vec![43.26, 30.26, 19.06]);
        policy.initialize(&init).unwrap();

        // A wide price spread would normally dispatch the battery...
        let mut c = ctx(fleet.idcs(), 7.0, vec![90.00, 28.00, 12.00]);
        c.step = 1;
        let d = policy.decide(&c).unwrap();
        // ...but the outage gates every rate cap to zero.
        assert_eq!(d.charge_mw.len(), 3);
        assert!(d.charge_mw.iter().all(|&r| r == 0.0), "{:?}", d.charge_mw);
        assert!(
            d.discharge_mw.iter().all(|&r| r == 0.0),
            "{:?}",
            d.discharge_mw
        );
    }

    #[test]
    fn policy_names_are_informative() {
        let scenario = crate::scenario::smoothing_scenario();
        assert!(OptimalPolicy::new(ReferenceKind::LpOptimal)
            .name()
            .contains("LP"));
        assert!(MpcPolicy::paper_tuned(&scenario)
            .unwrap()
            .name()
            .contains("MPC"));
    }

    #[test]
    fn warm_rejection_record_carries_the_storage_violation() {
        let path =
            std::env::temp_dir().join(format!("idc-warm-rejection-{}.jsonl", std::process::id()));
        idc_obs::set_anomaly_log(&path).expect("temp anomaly log");
        // A step number no other test in this process records at.
        let step = 9_876_543;
        record_warm_rejection(
            step,
            &WarmRejection {
                conservation: 0.0,
                capacity: 0.0,
                nonnegativity: 0.0,
                storage: 0.125,
            },
        );
        let log = std::fs::read_to_string(&path).expect("anomaly log readable");
        let _ = std::fs::remove_file(&path);
        let line = log
            .lines()
            .find(|l| {
                l.contains("\"warm_start_rejected\"") && l.contains(&format!("\"step\":{step},"))
            })
            .expect("rejection record written");
        let value = line
            .split("\"storage\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .expect("storage field present");
        assert_eq!(value.parse::<f64>().unwrap(), 0.125, "{line}");
    }
}
