//! The condensed constrained MPC controller (paper Sec. IV-C, eq. 37–45).
//!
//! Each sampling period the controller solves, in the stacked input change
//! `ΔU(k) ∈ ℝ^{NC·β₂}`, the constrained least-squares problem of paper
//! eq. 42:
//!
//! * **tracking term** — per-IDC power over the prediction horizon β₁ must
//!   follow the control reference (the optimum of eq. 46, clamped to the
//!   power budget for peak shaving, Sec. IV-D);
//! * **smoothing term** — per-IDC power *change* per control step is
//!   penalized (the paper's `R`-weighted input penalty: "the power demand
//!   can be smoothed by … penalizing inputs U(k)");
//! * **constraints** — workload conservation per portal per step (eq. 45),
//!   latency/capacity per IDC per step (eq. 43), and non-negativity of the
//!   allocated workload (eq. 44).
//!
//! Within one MPC solve the server counts `m_j` are frozen at their
//! slow-loop values — the two-time-scale separation of Sec. IV-B.
//!
//! Units: workload in req/s, power in MW, so the weights trade off MW² of
//! tracking error against MW² of per-step demand change — exactly the
//! paper's `Q` vs `R` trade-off.

use std::time::Instant;

use idc_obs::Span;
use idc_opt::banded_qp::BandedWorkspace;
use idc_opt::{Error, Result, SolveStats};

use crate::riccati::{self, RiccatiSkeleton};
use crate::warm_repair::{self, RepairScratch};

/// Which QP backend solves the MPC step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SolverBackend {
    /// The monolithic path of [`crate::riccati`]: a cumulative-input
    /// change of variables makes the Hessian block-tridiagonal and every
    /// constraint row stage-local; each IDC's chain of Hessian blocks is
    /// inverted once per structure by a dense Cholesky, and the
    /// working-set Schur complement is updated incrementally across
    /// active-set changes.
    #[default]
    BandedRiccati,
}

/// Tuning of the MPC controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcConfig {
    /// Prediction horizon β₁ (steps).
    pub prediction_horizon: usize,
    /// Control horizon β₂ ≤ β₁ (steps).
    pub control_horizon: usize,
    /// Tracking weight `Q` (per MW² of reference deviation).
    pub tracking_weight: f64,
    /// Smoothing weight `R` (per MW² of per-step power change). Larger
    /// values smooth power demand harder at the expense of slower tracking.
    pub smoothing_weight: f64,
    /// Tiny ridge on individual `ΔU` entries keeping the Hessian strictly
    /// positive definite (portal-level reshuffles that do not move any
    /// IDC's total are otherwise free).
    pub input_ridge: f64,
    /// QP backend selection.
    pub backend: SolverBackend,
}

impl Default for MpcConfig {
    fn default() -> Self {
        MpcConfig {
            prediction_horizon: 5,
            control_horizon: 3,
            tracking_weight: 1.0,
            smoothing_weight: 4.0,
            input_ridge: 1e-9,
            backend: SolverBackend::default(),
        }
    }
}

/// Cumulative wall-clock nanoseconds the controller spent per internal
/// phase, accumulated across [`MpcController::plan`] calls.
///
/// The split mirrors where a receding-horizon step can spend time:
/// structure rebuilds (`refresh`) and Hessian/Schur factorization
/// (`factor`) happen only when the problem structure changes, while
/// per-step gradient/rhs assembly plus warm-start bookkeeping (`condense`)
/// and the active-set iteration itself (`solve`) recur every step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanTimings {
    /// Structure-cache rebuilds: banded QP assembly, excluding
    /// factorization.
    pub refresh_ns: u64,
    /// `prepare()` — one dense Cholesky and inverse per IDC chain of the
    /// Hessian, and the all-free Schur terms (each row's diagonal, the
    /// equality block) the working-set factor reads.
    pub factor_ns: u64,
    /// Per-step condensing: gradient and constraint-rhs refresh, active-set
    /// seed re-indexing, and the warm-point shift/repair.
    pub condense_ns: u64,
    /// Active-set QP solves (warm-started and cold).
    pub solve_ns: u64,
}

impl PlanTimings {
    /// Total accounted time across all phases.
    pub fn total_ns(&self) -> u64 {
        self.refresh_ns + self.factor_ns + self.condense_ns + self.solve_ns
    }
}

/// One sampling period's inputs to the controller.
///
/// This is a passive data structure assembled fresh each step by the
/// simulation loop; all lengths are validated by
/// [`MpcController::plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct MpcProblem {
    /// Per-IDC marginal power `b₁` in MW per (req/s).
    pub b1_mw: Vec<f64>,
    /// Per-IDC idle power `b₀` in MW per server.
    pub b0_mw: Vec<f64>,
    /// Servers currently ON per IDC (frozen over the horizon).
    pub servers_on: Vec<u64>,
    /// Per-IDC workload capacity `φ_j = µ_j(m_j − 1/(µ_j D_j))` in req/s
    /// given the current server counts (paper eq. 30).
    pub capacities: Vec<f64>,
    /// Previous input `U(k−1)`, IDC-major flat `λij` (length `N·C`).
    pub prev_input: Vec<f64>,
    /// Forecast portal workloads for each control step `t = 1..β₂`
    /// (`workload_forecast[t][i] = L̂ᵢ(k+t)`).
    pub workload_forecast: Vec<Vec<f64>>,
    /// Power reference per prediction step `s = 1..β₁`
    /// (`power_reference_mw[s][j]`), already budget-clamped for peak
    /// shaving.
    pub power_reference_mw: Vec<Vec<f64>>,
    /// Per-IDC multiplier on the tracking weight (length `N`). The peak-
    /// shaving policy weights budget-clamped IDCs heavily so their power
    /// is pinned at the budget while unclamped IDCs absorb the displaced
    /// load (paper Fig. 6: Wisconsin "converges to a value between its
    /// power budget and the optimal-policy value").
    pub tracking_multiplier: Vec<f64>,
    /// Optional per-IDC battery/UPS actuator. When present the stage
    /// vector grows from `N·C` workload changes to `N·C + 2N` — charge and
    /// discharge rate *changes* join the decision variables and grid draw
    /// becomes IT load + charge − discharge. `None` keeps the problem (and
    /// every solver path) exactly as before.
    pub storage: Option<StorageProblem>,
}

/// Per-IDC battery/UPS data for one sampling period.
///
/// All vectors hold one entry per IDC. Rates are in MW, energies in MWh;
/// internally the controller rescales the rate variables by `1/b₁_j` into
/// req/s equivalents so the enlarged Hessian keeps the workload variables'
/// conditioning — callers never see the scaled units.
///
/// The charge/discharge decision variables are rate *changes* against
/// `prev_charge_mw`/`prev_discharge_mw`, mirroring the `ΔU` formulation —
/// in the banded backend's cumulative y-space that keeps every rate bound
/// stage-local and the Hessian block-tridiagonal. State of charge evolves
/// as `soc' = soc + dt·(η_c·c − d/η_d)` and is constrained to
/// `[0, capacity]` at the end of every control stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageProblem {
    /// Usable energy capacity per IDC (MWh). Zero disables the unit.
    pub capacity_mwh: Vec<f64>,
    /// Maximum charge rate per IDC (MW). Zero models a battery outage
    /// (forced zero-rate step) without a structure rebuild — rate caps
    /// enter the right-hand sides only.
    pub max_charge_mw: Vec<f64>,
    /// Maximum discharge rate per IDC (MW).
    pub max_discharge_mw: Vec<f64>,
    /// Charge efficiency `η_c ∈ (0, 1]` (grid MW → stored MW).
    pub charge_efficiency: Vec<f64>,
    /// Discharge efficiency `η_d ∈ (0, 1]` (stored MW → grid MW).
    pub discharge_efficiency: Vec<f64>,
    /// State of charge at the start of the period (MWh).
    pub soc_mwh: Vec<f64>,
    /// Charge rate applied in the previous period (MW).
    pub prev_charge_mw: Vec<f64>,
    /// Discharge rate applied in the previous period (MW).
    pub prev_discharge_mw: Vec<f64>,
    /// Sampling period (hours); converts rates to energy per stage.
    pub dt_hours: f64,
}

impl MpcProblem {
    /// Uniform tracking multipliers (no IDC preferred).
    pub fn uniform_tracking(num_idcs: usize) -> Vec<f64> {
        vec![1.0; num_idcs]
    }
}

impl MpcProblem {
    /// Number of IDCs `N`.
    pub fn num_idcs(&self) -> usize {
        self.b1_mw.len()
    }

    /// Number of portals `C` (inferred from the input length).
    pub fn num_portals(&self) -> usize {
        if self.b1_mw.is_empty() {
            0
        } else {
            self.prev_input.len() / self.b1_mw.len()
        }
    }

    /// Current per-IDC workload totals `λ_j(k−1)`.
    pub fn current_idc_workloads(&self) -> Vec<f64> {
        let (n, c) = (self.num_idcs(), self.num_portals());
        (0..n)
            .map(|j| self.prev_input[j * c..(j + 1) * c].iter().sum())
            .collect()
    }

    /// Current per-IDC power in MW (IT draw only — see
    /// [`current_grid_power_mw`](Self::current_grid_power_mw) for the
    /// storage-adjusted draw).
    pub fn current_power_mw(&self) -> Vec<f64> {
        self.current_idc_workloads()
            .iter()
            .enumerate()
            .map(|(j, &l)| self.b1_mw[j] * l + self.b0_mw[j] * self.servers_on[j] as f64)
            .collect()
    }

    /// Current per-IDC *grid* power in MW: IT draw plus the previous
    /// period's net battery rate (charge − discharge). Equal to
    /// [`current_power_mw`](Self::current_power_mw) without storage.
    pub fn current_grid_power_mw(&self) -> Vec<f64> {
        let mut p = self.current_power_mw();
        if let Some(st) = &self.storage {
            for (j, pj) in p.iter_mut().enumerate() {
                *pj += st.prev_charge_mw[j] - st.prev_discharge_mw[j];
            }
        }
        p
    }

    /// Decision-variable block size per control stage: `N·C` workload
    /// changes, plus `2N` rate changes when storage is attached.
    pub fn block_size(&self) -> usize {
        let nc = self.num_idcs() * self.num_portals();
        if self.storage.is_some() {
            nc + 2 * self.num_idcs()
        } else {
            nc
        }
    }
}

/// The QP skeleton shared by every step with the same problem structure.
///
/// The tracking/smoothing matrix `A`, the weights `Q`, and the constraint
/// rows depend only on the dimensions `(N, C)`, the per-IDC marginal power
/// `b₁`, and the tracking multipliers — none of which change while the
/// fleet operates in one regime. Rebuilding them every sampling period
/// (and refactoring the Hessian) would dominate the solve time, so the
/// controller caches the assembled QP and per step only refreshes the
/// gradient and the constraint right-hand sides.
#[derive(Debug, Clone)]
struct StructureCache {
    n: usize,
    c: usize,
    b1_mw: Vec<f64>,
    tracking_multiplier: Vec<f64>,
    /// Storage structure fingerprint: the efficiencies are the only
    /// storage parameters that enter constraint *coefficients* (capacity,
    /// rate caps, SoC and previous rates all live in the right-hand
    /// sides), so a battery outage — zeroed rate caps — reuses the
    /// skeleton. `None` when the problem carries no storage.
    storage_key: Option<(Vec<f64>, Vec<f64>)>,
    /// The y-space block-banded QP of [`crate::riccati`]; per step only the
    /// gradient and the constraint right-hand sides are rewritten in place.
    skeleton: RiccatiSkeleton,
}

/// The previous step's solution, kept to warm-start the next solve.
#[derive(Debug, Clone)]
struct WarmState {
    delta_u: Vec<f64>,
    active_set: Vec<usize>,
}

/// The warm-start state as plain exportable data: the stacked input
/// changes `ΔU` of the previous solve and the indices of its active
/// constraint set. See [`MpcController::warm_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStateData {
    /// The previous solve's stacked `ΔU` (length `n·c·β₂`).
    pub delta_u: Vec<f64>,
    /// Indices of the constraints active at the previous solution.
    pub active_set: Vec<usize>,
}

/// The receding-horizon controller.
///
/// Stateful across steps for performance only: it caches the condensed QP
/// skeleton (rebuilt when the problem structure changes) and warm-starts
/// the active-set solver from the previous step's shifted `ΔU` and active
/// set, repaired by [`warm_repair`] into a point feasible for the new step
/// whenever the step itself is feasible. The *plan itself* is a pure
/// function of the [`MpcProblem`] — the QP is strictly convex, so warm and
/// cold solves agree on the unique minimizer — which keeps simulations
/// deterministic.
#[derive(Debug, Clone)]
pub struct MpcController {
    config: MpcConfig,
    cache: Option<StructureCache>,
    warm: Option<WarmState>,
    bws: BandedWorkspace,
    /// Scratch: stacked least-squares rhs `b` (tracking + smoothing rows).
    rhs: Vec<f64>,
    /// Scratch: QP gradient `g = −2AᵀQb`.
    grad: Vec<f64>,
    /// Scratch: equality / inequality right-hand sides, warm-start point.
    eq_rhs: Vec<f64>,
    in_rhs: Vec<f64>,
    warm_x: Vec<f64>,
    /// Scratch: the warm point in the banded backend's cumulative y-space.
    warm_y: Vec<f64>,
    /// Scratch: `warm_y` permuted into the banded QP's variable order.
    warm_q: Vec<f64>,
    /// Scratch for the warm-point repair.
    repair: RepairScratch,
    /// Scratch: the previous active set re-indexed for the shifted horizon.
    seed: Vec<usize>,
    warm_solves: usize,
    cold_solves: usize,
    timings: PlanTimings,
    solve_stats: SolveStats,
}

impl MpcController {
    /// Creates a controller with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics if the horizons are zero, `β₂ > β₁`, or a weight is negative.
    pub fn new(config: MpcConfig) -> Self {
        assert!(config.prediction_horizon > 0, "β₁ must be positive");
        assert!(
            config.control_horizon > 0 && config.control_horizon <= config.prediction_horizon,
            "horizons must satisfy 0 < β₂ ≤ β₁"
        );
        assert!(
            config.tracking_weight >= 0.0
                && config.smoothing_weight >= 0.0
                && config.input_ridge > 0.0,
            "weights must be non-negative and the ridge positive"
        );
        MpcController {
            config,
            cache: None,
            warm: None,
            bws: BandedWorkspace::new(),
            rhs: Vec::new(),
            grad: Vec::new(),
            eq_rhs: Vec::new(),
            in_rhs: Vec::new(),
            warm_x: Vec::new(),
            warm_y: Vec::new(),
            warm_q: Vec::new(),
            repair: RepairScratch::default(),
            seed: Vec::new(),
            warm_solves: 0,
            cold_solves: 0,
            timings: PlanTimings::default(),
            solve_stats: SolveStats::default(),
        }
    }

    /// The controller's tuning.
    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// Drops the cached QP skeleton and warm-start state. The next
    /// [`plan`](Self::plan) call solves cold from scratch.
    pub fn reset(&mut self) {
        self.cache = None;
        self.warm = None;
    }

    /// Number of plans solved from the previous step's warm start.
    pub fn warm_solves(&self) -> usize {
        self.warm_solves
    }

    /// Number of plans that required a cold solve (first step, structure
    /// change, or infeasible warm point).
    pub fn cold_solves(&self) -> usize {
        self.cold_solves
    }

    /// Exports the warm-start state — the previous step's `ΔU` and active
    /// set — as plain data for checkpointing, or `None` before the first
    /// solve (or after a [`reset`](Self::reset)).
    ///
    /// The warm start is behaviourally significant at solver tolerance
    /// (warm and cold solves agree only to the QP's convergence tolerance),
    /// so byte-identical checkpoint/restore of a closed loop must carry it.
    /// The structure cache is *not* part of the export: it is a pure
    /// function of the next [`MpcProblem`] and rebuilds deterministically.
    pub fn warm_state(&self) -> Option<WarmStateData> {
        self.warm.as_ref().map(|w| WarmStateData {
            delta_u: w.delta_u.clone(),
            active_set: w.active_set.clone(),
        })
    }

    /// Restores warm-start state previously exported with
    /// [`warm_state`](Self::warm_state); `None` clears it (the next solve
    /// is cold, as after a fresh construction).
    pub fn restore_warm_state(&mut self, state: Option<WarmStateData>) {
        self.warm = state.map(|w| WarmState {
            delta_u: w.delta_u,
            active_set: w.active_set,
        });
    }

    /// The `(warm, cold)` solve counters, for checkpointing alongside
    /// [`warm_state`](Self::warm_state).
    pub fn solve_counters(&self) -> (usize, usize) {
        (self.warm_solves, self.cold_solves)
    }

    /// Restores the `(warm, cold)` solve counters.
    pub fn restore_solve_counters(&mut self, warm: usize, cold: usize) {
        self.warm_solves = warm;
        self.cold_solves = cold;
    }

    /// Per-phase wall-clock time accumulated across [`plan`](Self::plan)
    /// calls since construction or the last [`reset_timings`](Self::reset_timings).
    pub fn timings(&self) -> PlanTimings {
        self.timings
    }

    /// Zeroes the per-phase timing counters.
    pub fn reset_timings(&mut self) {
        self.timings = PlanTimings::default();
    }

    /// Cumulative solver introspection counters across [`plan`](Self::plan)
    /// calls since construction or the last
    /// [`reset_solve_stats`](Self::reset_solve_stats).
    ///
    /// Like [`timings`](Self::timings) these are observability-only: they
    /// are *not* part of the checkpointed controller state
    /// ([`warm_state`](Self::warm_state) /
    /// [`solve_counters`](Self::solve_counters)), so restored runs resume
    /// with whatever was accumulated locally.
    pub fn solve_stats(&self) -> SolveStats {
        self.solve_stats
    }

    /// Zeroes the solver introspection counters.
    pub fn reset_solve_stats(&mut self) {
        self.solve_stats = SolveStats::default();
    }

    /// Arms the banded workspace so the next monolithic solve's
    /// incremental working-set factor build is deterministically poisoned,
    /// forcing the solver's stability-rebuild path. Fault-injection
    /// plumbing for the testkit's forced-refactorization fault kind; the
    /// resulting plan is unchanged (the rebuild recovers exactly), only
    /// [`SolveStats::refactorizations`] moves.
    pub fn force_refactor_next(&mut self) {
        self.bws.force_refactor_next();
    }

    /// Solves one receding-horizon step and returns the plan.
    ///
    /// Reuses the cached QP skeleton when the problem structure matches the
    /// previous call, and warm-starts the active-set solver from the
    /// previous step's shifted solution; both are pure accelerations — the
    /// plan is identical (up to solver tolerance) to a cold solve.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] on inconsistent problem data.
    /// * [`Error::Infeasible`] when the forecast workload cannot be served
    ///   within the capacity constraints (the sleep loop must turn on more
    ///   servers first).
    /// * [`Error::IterationLimit`] / [`Error::Numerical`] from the QP.
    pub fn plan(&mut self, problem: &MpcProblem) -> Result<MpcPlan> {
        let _plan_span = Span::enter_cat("mpc.plan", "control");
        let n = problem.num_idcs();
        let c = problem.num_portals();
        self.validate(problem, n, c)?;

        let beta1 = self.config.prediction_horizon;
        let beta2 = self.config.control_horizon;
        let nc = n * c;
        let nb = problem.block_size();
        let lambda0 = problem.current_idc_workloads();

        self.refresh_structure(problem, n, c)?;

        // ---- Per-step data: the tracking rhs (smoothing rows stay zero),
        // lowered to the QP gradient, plus the constraint right-hand
        // sides — written into the cached QP in place. ----
        let condense_start = Instant::now();
        let rows = beta1 * n + beta2 * n;
        self.rhs.clear();
        self.rhs.resize(rows, 0.0);
        for s in 0..beta1 {
            for j in 0..n {
                let mut current_p =
                    problem.b1_mw[j] * lambda0[j] + problem.b0_mw[j] * problem.servers_on[j] as f64;
                if let Some(st) = &problem.storage {
                    // Grid draw carries the previous net battery rate; the
                    // rate *changes* are decision variables.
                    current_p += st.prev_charge_mw[j] - st.prev_discharge_mw[j];
                }
                self.rhs[s * n + j] = problem.power_reference_mw[s][j] - current_p;
            }
        }
        self.eq_rhs.clear();
        for forecast in &problem.workload_forecast {
            for i in 0..c {
                let prev: f64 = (0..n).map(|j| problem.prev_input[j * c + i]).sum();
                self.eq_rhs.push(forecast[i] - prev);
            }
        }
        self.in_rhs.clear();
        for _t in 0..beta2 {
            for j in 0..n {
                self.in_rhs.push(problem.capacities[j] - lambda0[j]);
            }
        }
        for _t in 0..beta2 {
            for idx in 0..nc {
                self.in_rhs.push(problem.prev_input[idx]);
            }
        }
        if let Some(st) = &problem.storage {
            // Storage families, each t-major × IDC, in req/s-equivalent
            // units (rates divided by b₁_j to match the workload
            // variables' scale): charge upper/lower, discharge
            // upper/lower, then SoC upper/lower (rows divided by dt·b₁_j).
            for _t in 0..beta2 {
                for j in 0..n {
                    self.in_rhs
                        .push((st.max_charge_mw[j] - st.prev_charge_mw[j]) / problem.b1_mw[j]);
                }
            }
            for _t in 0..beta2 {
                for j in 0..n {
                    self.in_rhs.push(st.prev_charge_mw[j] / problem.b1_mw[j]);
                }
            }
            for _t in 0..beta2 {
                for j in 0..n {
                    self.in_rhs.push(
                        (st.max_discharge_mw[j] - st.prev_discharge_mw[j]) / problem.b1_mw[j],
                    );
                }
            }
            for _t in 0..beta2 {
                for j in 0..n {
                    self.in_rhs.push(st.prev_discharge_mw[j] / problem.b1_mw[j]);
                }
            }
            for t in 0..beta2 {
                for j in 0..n {
                    let drift = soc_drift(st, j, t);
                    self.in_rhs.push(
                        (st.capacity_mwh[j] - st.soc_mwh[j] - drift)
                            / (st.dt_hours * problem.b1_mw[j]),
                    );
                }
            }
            for t in 0..beta2 {
                for j in 0..n {
                    let drift = soc_drift(st, j, t);
                    self.in_rhs
                        .push((st.soc_mwh[j] + drift) / (st.dt_hours * problem.b1_mw[j]));
                }
            }
        }
        {
            let skel = &mut self.cache.as_mut().expect("refreshed above").skeleton;
            skel.gradient_into(&self.rhs, &mut self.grad);
            let qp = skel.qp_mut();
            qp.set_gradient(&self.grad)?;
            qp.set_equality_rhs(&self.eq_rhs)?;
            qp.set_inequality_rhs(&self.in_rhs)?;
        }

        // ---- Warm start: shift the previous active set and ΔU for the
        // receding horizon, then repair the shifted point back to
        // feasibility. ----
        let has_base = self.shift_and_repair_warm(problem, n, c);

        let skel = &mut self.cache.as_mut().expect("refreshed above").skeleton;

        // ---- Solve: warm-started from the repaired point; once more from
        // the repaired zero point if that start is rejected. ----
        self.timings.condense_ns += condense_start.elapsed().as_nanos() as u64;
        let solve_start = Instant::now();
        let span = Span::enter_cat("mpc.solve.warm", "solver");
        // The banded QP optimizes cumulative changes in its IDC-major
        // order; convert the repaired warm point at the boundary.
        riccati::to_cumulative(nb, &self.warm_x, &mut self.warm_y);
        skel.to_qp_order(&self.warm_y, &mut self.warm_q);
        let warm_res = skel
            .qp_mut()
            .warm_start(&self.warm_q, &self.seed, &mut self.bws);
        drop(span);
        self.timings.solve_ns += solve_start.elapsed().as_nanos() as u64;
        let (solution, warm_started, warm_rejection) = match warm_res {
            Ok(sol) => (sol, has_base, None),
            Err(err) => {
                // The repair is feasible by construction whenever every
                // stage's demand fits the fleet, so a rejection first
                // checks the stage totals: an over-capacity forecast is
                // certified infeasible outright.
                if warm_repair::exceeds_fleet_capacity(
                    &self.eq_rhs,
                    &self.in_rhs,
                    n,
                    c,
                    forecast_scale(problem),
                ) {
                    return Err(Error::Infeasible);
                }
                // Without a base the start already was the repaired zero
                // point, so there is nothing to retry from: its error
                // stands (`Infeasible` when the start itself was rejected).
                if !has_base {
                    return Err(err);
                }
                // Diagnose *why* the repaired point was rejected so the
                // policy layer can stream an anomaly record — a warm step
                // must never pay a cold solve silently.
                let rejection = warm_rejection_breakdown(
                    &self.warm_x,
                    &self.eq_rhs,
                    &self.in_rhs,
                    n,
                    c,
                    beta2,
                    problem.storage.as_ref(),
                );
                // Cold retry: the repaired zero point, with no seed.
                let solve_start = Instant::now();
                let span = Span::enter_cat("mpc.solve.cold", "solver");
                self.warm_x.fill(0.0);
                warm_repair::repair(problem, &mut self.warm_x, &mut self.repair);
                riccati::to_cumulative(nb, &self.warm_x, &mut self.warm_y);
                skel.to_qp_order(&self.warm_y, &mut self.warm_q);
                let sol = skel.qp_mut().warm_start(&self.warm_q, &[], &mut self.bws);
                drop(span);
                self.timings.solve_ns += solve_start.elapsed().as_nanos() as u64;
                (sol?, false, Some(rejection))
            }
        };
        if warm_started {
            self.warm_solves += 1;
        } else {
            self.cold_solves += 1;
        }
        let mut step_stats = *solution.stats();
        if warm_rejection.is_some() {
            step_stats.cold_fallbacks = 1;
        }
        self.solve_stats.merge(&step_stats);
        let iterations = solution.iterations();
        // Back from the QP order and cumulative y-space to the stacked
        // input changes, reusing the previous warm point's buffer.
        let mut warm_delta = self.warm.take().map(|w| w.delta_u).unwrap_or_default();
        skel.to_stage_order(solution.x(), &mut warm_delta);
        riccati::to_deltas(nb, &mut warm_delta);
        let delta_u = warm_delta.clone();
        self.warm = Some(WarmState {
            delta_u: warm_delta,
            active_set: solution.active_set().to_vec(),
        });

        Ok(finish_plan(
            problem,
            &lambda0,
            beta1,
            beta2,
            n,
            c,
            delta_u,
            iterations,
            warm_started,
            warm_rejection,
        ))
    }

    /// Shifts the previous step's active set and `ΔU` one stage for the
    /// receding horizon and repairs the shifted point back to feasibility
    /// with [`warm_repair::repair`]. Returns whether a usable previous
    /// solution existed. With no usable base the repair builds a feasible
    /// point from all zeros, which is where a cold solve starts.
    fn shift_and_repair_warm(&mut self, problem: &MpcProblem, n: usize, c: usize) -> bool {
        let beta2 = self.config.control_horizon;
        let nc = n * c;
        let nb = problem.block_size();
        let nv = nb * beta2;
        let has_base = matches!(&self.warm, Some(w) if w.delta_u.len() == nv);
        // Re-index the previous active set for the shifted horizon.
        // Every constraint family bounds *cumulative* sums through
        // block `t`, so after dropping the applied first block the
        // activity at new block `t` is the old activity at `t + 1` —
        // and the appended zero change block repeats the old final
        // block's cumulative sums, hence its activity too (for the SoC
        // rows, which keep integrating, the repeat is a heuristic seed
        // the solver filters if inactive). Without this shift most of
        // the seed is filtered out as inactive and the solver
        // re-discovers the set one iteration at a time.
        self.seed.clear();
        if has_base {
            let w = self.warm.as_ref().expect("has_base");
            let ncap = beta2 * n;
            let nnn = beta2 * nc;
            for &ci in &w.active_set {
                let (family, t, rest, stride) = if ci < ncap {
                    (0, ci / n, ci % n, n)
                } else if ci < ncap + nnn {
                    (ncap, (ci - ncap) / nc, (ci - ncap) % nc, nc)
                } else {
                    // Storage families (charge/discharge bounds, SoC
                    // bounds): six blocks of β₂·N rows, stride N.
                    let k = ci - ncap - nnn;
                    let fam = k / ncap;
                    let within = k % ncap;
                    (ncap + nnn + fam * ncap, within / n, within % n, n)
                };
                if t >= 1 {
                    self.seed.push(family + (t - 1) * stride + rest);
                }
                if t == beta2 - 1 {
                    self.seed.push(ci);
                }
            }
        }
        // Receding-horizon shift: drop the applied first block,
        // hold zero change in the newly revealed final block. With
        // no usable previous solution the base is all zeros and
        // the repair builds a feasible point from scratch.
        self.warm_x.clear();
        self.warm_x.resize(nv, 0.0);
        if let (true, Some(w)) = (has_base, &self.warm) {
            for t in 0..beta2 - 1 {
                self.warm_x[t * nb..(t + 1) * nb]
                    .copy_from_slice(&w.delta_u[(t + 1) * nb..(t + 2) * nb]);
            }
        }
        warm_repair::repair(problem, &mut self.warm_x, &mut self.repair);
        has_base
    }

    /// Solves one step with *no* reuse of any kind: drops the cached
    /// skeleton, factorizations and warm-start state first, so the returned
    /// plan comes from a from-scratch solve. Differential oracles use this
    /// as the production baseline that cannot have been helped by caching.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`plan`](Self::plan).
    pub fn plan_cold(&mut self, problem: &MpcProblem) -> Result<MpcPlan> {
        self.reset();
        self.plan(problem)
    }

    /// Rebuilds the cached QP skeleton when the problem structure changed.
    ///
    /// The cache key is everything `A`, `Q`, and the constraint rows
    /// depend on: the dimensions, the marginal power `b₁`, and the
    /// tracking multipliers. Server counts, capacities, forecasts, and
    /// references only enter the per-step right-hand sides.
    fn refresh_structure(&mut self, problem: &MpcProblem, n: usize, c: usize) -> Result<()> {
        let storage_key = problem.storage.as_ref().map(|st| {
            (
                st.charge_efficiency.clone(),
                st.discharge_efficiency.clone(),
            )
        });
        if let Some(cache) = &self.cache {
            if cache.n == n
                && cache.c == c
                && cache.b1_mw == problem.b1_mw
                && cache.tracking_multiplier == problem.tracking_multiplier
                && cache.storage_key == storage_key
            {
                return Ok(());
            }
            // A weight change keeps the warm state usable (same variable
            // layout, same constraints); a dimension change does not —
            // and attaching or detaching storage changes the layout.
            if cache.n != n || cache.c != c || cache.storage_key.is_some() != storage_key.is_some()
            {
                self.warm = None;
            }
        }

        let refresh_start = Instant::now();
        let mut skeleton = RiccatiSkeleton::build(&self.config, problem)?;
        let factor_start = Instant::now();
        skeleton.qp_mut().prepare()?;
        let factored = factor_start.elapsed().as_nanos() as u64;
        self.timings.factor_ns += factored;
        self.timings.refresh_ns +=
            (refresh_start.elapsed().as_nanos() as u64).saturating_sub(factored);
        self.cache = Some(StructureCache {
            n,
            c,
            b1_mw: problem.b1_mw.clone(),
            tracking_multiplier: problem.tracking_multiplier.clone(),
            storage_key,
            skeleton,
        });
        Ok(())
    }

    fn validate(&self, p: &MpcProblem, n: usize, c: usize) -> Result<()> {
        let fail = |what: String| Err(Error::DimensionMismatch { what });
        if n == 0 {
            return fail("at least one IDC required".into());
        }
        if c == 0 || p.prev_input.len() != n * c {
            return fail(format!(
                "prev_input length {} is not a positive multiple of {n} IDCs",
                p.prev_input.len()
            ));
        }
        if p.b0_mw.len() != n || p.servers_on.len() != n || p.capacities.len() != n {
            return fail("b0_mw/servers_on/capacities must have one entry per IDC".into());
        }
        if p.workload_forecast.len() != self.config.control_horizon
            || p.workload_forecast.iter().any(|f| f.len() != c)
        {
            return fail(format!(
                "workload_forecast must be β₂ = {} steps of {c} portals",
                self.config.control_horizon
            ));
        }
        if p.power_reference_mw.len() != self.config.prediction_horizon
            || p.power_reference_mw.iter().any(|r| r.len() != n)
        {
            return fail(format!(
                "power_reference_mw must be β₁ = {} steps of {n} IDCs",
                self.config.prediction_horizon
            ));
        }
        if p.tracking_multiplier.len() != n || p.tracking_multiplier.iter().any(|&m| !(m >= 0.0)) {
            return fail("tracking_multiplier must hold one non-negative value per IDC".into());
        }
        if let Some(st) = &p.storage {
            if st.capacity_mwh.len() != n
                || st.max_charge_mw.len() != n
                || st.max_discharge_mw.len() != n
                || st.charge_efficiency.len() != n
                || st.discharge_efficiency.len() != n
                || st.soc_mwh.len() != n
                || st.prev_charge_mw.len() != n
                || st.prev_discharge_mw.len() != n
            {
                return fail("storage vectors must hold one entry per IDC".into());
            }
            if !(st.dt_hours > 0.0) || !st.dt_hours.is_finite() {
                return fail("storage dt_hours must be positive and finite".into());
            }
            for j in 0..n {
                let ok = st.capacity_mwh[j].is_finite()
                    && st.capacity_mwh[j] >= 0.0
                    && st.max_charge_mw[j].is_finite()
                    && st.max_charge_mw[j] >= 0.0
                    && st.max_discharge_mw[j].is_finite()
                    && st.max_discharge_mw[j] >= 0.0
                    && st.charge_efficiency[j] > 0.0
                    && st.charge_efficiency[j] <= 1.0
                    && st.discharge_efficiency[j] > 0.0
                    && st.discharge_efficiency[j] <= 1.0
                    && st.soc_mwh[j] >= 0.0
                    && st.soc_mwh[j] <= st.capacity_mwh[j]
                    && st.prev_charge_mw[j].is_finite()
                    && st.prev_charge_mw[j] >= 0.0
                    && st.prev_discharge_mw[j].is_finite()
                    && st.prev_discharge_mw[j] >= 0.0;
                if !ok {
                    return fail(format!("storage parameters for IDC {j} are out of range"));
                }
                if !(p.b1_mw[j] > 0.0) {
                    // The rate variables are scaled by 1/b₁_j into req/s
                    // equivalents; a zero marginal power leaves no scale.
                    return fail(format!(
                        "storage requires a positive marginal power b1_mw for IDC {j}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Worst per-family constraint violations of a rejected warm-start point.
///
/// Attached to plans (and streamed as a `warm_start_rejected` anomaly by the
/// policy layer) whenever a warm solve would silently have fallen back to a
/// cold one — the breakdown says *which* constraint family the shifted
/// point violated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WarmRejection {
    /// Worst workload-conservation equality violation (req/s).
    pub conservation: f64,
    /// Worst capacity overshoot (req/s).
    pub capacity: f64,
    /// Worst non-negativity undershoot (req/s).
    pub nonnegativity: f64,
    /// Worst storage-family violation — charge/discharge rate boxes and
    /// SoC bounds, in the controller's req/s-equivalent rate units (0.0
    /// for problems without storage).
    pub storage: f64,
}

impl WarmRejection {
    /// The largest violation across families.
    pub fn worst(&self) -> f64 {
        self.conservation
            .max(self.capacity)
            .max(self.nonnegativity)
            .max(self.storage)
    }
}

/// The largest forecast magnitude (req/s): the scale of the conservation
/// rows and portal sums, anchoring workload-relative tolerances.
fn forecast_scale(problem: &MpcProblem) -> f64 {
    problem
        .workload_forecast
        .iter()
        .flatten()
        .fold(0.0f64, |a, &v| a.max(v.abs()))
}

/// The SoC drift the previous rates alone would cause through the end of
/// stage `t` (MWh): the constant part of the stored-energy expression that
/// moves into the SoC rows' right-hand sides.
fn soc_drift(st: &StorageProblem, j: usize, t: usize) -> f64 {
    st.dt_hours
        * (t as f64 + 1.0)
        * (st.charge_efficiency[j] * st.prev_charge_mw[j]
            - st.prev_discharge_mw[j] / st.discharge_efficiency[j])
}

/// Computes the per-family constraint violations of a rejected warm point
/// (`warm_x` in stacked-ΔU space) so the rejection can be explained instead
/// of silently paying a cold solve.
fn warm_rejection_breakdown(
    warm_x: &[f64],
    eq_rhs: &[f64],
    in_rhs: &[f64],
    n: usize,
    c: usize,
    beta2: usize,
    storage: Option<&StorageProblem>,
) -> WarmRejection {
    let nc = n * c;
    let nb = nc + if storage.is_some() { 2 * n } else { 0 };
    let mut rej = WarmRejection::default();
    let mut cum = vec![0.0; nc];
    for t in 0..beta2 {
        for k in 0..nc {
            cum[k] += warm_x[t * nb + k];
        }
        for i in 0..c {
            let sum: f64 = (0..n).map(|j| cum[j * c + i]).sum();
            rej.conservation = rej.conservation.max((sum - eq_rhs[t * c + i]).abs());
        }
        for j in 0..n {
            let total: f64 = cum[j * c..(j + 1) * c].iter().sum();
            rej.capacity = rej.capacity.max(total - in_rhs[t * n + j]);
        }
        for k in 0..nc {
            rej.nonnegativity = rej
                .nonnegativity
                .max(-(cum[k] + in_rhs[beta2 * n + t * nc + k]));
        }
    }
    if let Some(st) = storage {
        // Families C–H past the non-negativity block: cumulative charge /
        // discharge boxes, then the SoC box (all in scaled units, matching
        // the assembled rhs).
        let base = beta2 * n + beta2 * nc;
        let mut cum_gc = vec![0.0; n];
        let mut cum_gd = vec![0.0; n];
        let mut soc_c = vec![0.0; n];
        let mut soc_d = vec![0.0; n];
        for t in 0..beta2 {
            for j in 0..n {
                cum_gc[j] += warm_x[t * nb + nc + j];
                cum_gd[j] += warm_x[t * nb + nc + n + j];
                soc_c[j] += cum_gc[j];
                soc_d[j] += cum_gd[j];
                let soc =
                    st.charge_efficiency[j] * soc_c[j] - soc_d[j] / st.discharge_efficiency[j];
                let row = t * n + j;
                rej.storage = rej
                    .storage
                    .max(cum_gc[j] - in_rhs[base + row])
                    .max(-cum_gc[j] - in_rhs[base + beta2 * n + row])
                    .max(cum_gd[j] - in_rhs[base + 2 * beta2 * n + row])
                    .max(-cum_gd[j] - in_rhs[base + 3 * beta2 * n + row])
                    .max(soc - in_rhs[base + 4 * beta2 * n + row])
                    .max(-soc - in_rhs[base + 5 * beta2 * n + row]);
            }
        }
    }
    rej
}

/// Assembles the plan from the solved `ΔU`: the applied first block and the
/// predicted per-IDC power trajectory.
fn finish_plan(
    problem: &MpcProblem,
    lambda0: &[f64],
    beta1: usize,
    beta2: usize,
    n: usize,
    c: usize,
    delta_u: Vec<f64>,
    qp_iterations: usize,
    warm_started: bool,
    warm_rejection: Option<WarmRejection>,
) -> MpcPlan {
    let nc = n * c;
    let nb = problem.block_size();
    // Receding horizon: apply only the first block.
    let next_input: Vec<f64> = problem
        .prev_input
        .iter()
        .zip(&delta_u[..nc])
        .map(|(u, d)| (u + d).max(0.0))
        .collect();

    // First-block battery rates, netted: the QP may plan simultaneous
    // charge and discharge (round-trip losses are not in the objective),
    // but physically only the net flow moves — fold it onto one side.
    let (next_charge_mw, next_discharge_mw) = match &problem.storage {
        Some(st) => {
            let mut charge = Vec::with_capacity(n);
            let mut discharge = Vec::with_capacity(n);
            for j in 0..n {
                let raw_c = (st.prev_charge_mw[j] + problem.b1_mw[j] * delta_u[nc + j])
                    .clamp(0.0, st.max_charge_mw[j]);
                let raw_d = (st.prev_discharge_mw[j] + problem.b1_mw[j] * delta_u[nc + n + j])
                    .clamp(0.0, st.max_discharge_mw[j]);
                let net = raw_c - raw_d;
                if net >= 0.0 {
                    charge.push(net);
                    discharge.push(0.0);
                } else {
                    charge.push(0.0);
                    discharge.push(-net);
                }
            }
            (charge, discharge)
        }
        None => (Vec::new(), Vec::new()),
    };

    // Predicted per-IDC grid power over the prediction horizon.
    let mut predicted_power_mw = Vec::with_capacity(beta1);
    for s in 0..beta1 {
        let mut per_idc = Vec::with_capacity(n);
        for j in 0..n {
            let mut lam = lambda0[j];
            for t in 0..=s.min(beta2 - 1) {
                for i in 0..c {
                    lam += delta_u[t * nb + j * c + i];
                }
            }
            let mut p = problem.b1_mw[j] * lam + problem.b0_mw[j] * problem.servers_on[j] as f64;
            if let Some(st) = &problem.storage {
                let mut net = st.prev_charge_mw[j] - st.prev_discharge_mw[j];
                for t in 0..=s.min(beta2 - 1) {
                    net += problem.b1_mw[j]
                        * (delta_u[t * nb + nc + j] - delta_u[t * nb + nc + n + j]);
                }
                p += net;
            }
            per_idc.push(p);
        }
        predicted_power_mw.push(per_idc);
    }

    MpcPlan {
        delta_u,
        next_input,
        next_charge_mw,
        next_discharge_mw,
        predicted_power_mw,
        qp_iterations,
        warm_started,
        warm_rejection,
    }
}

/// The result of one receding-horizon solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MpcPlan {
    delta_u: Vec<f64>,
    next_input: Vec<f64>,
    next_charge_mw: Vec<f64>,
    next_discharge_mw: Vec<f64>,
    predicted_power_mw: Vec<Vec<f64>>,
    qp_iterations: usize,
    warm_started: bool,
    warm_rejection: Option<WarmRejection>,
}

impl MpcPlan {
    /// The full stacked `ΔU(k)` over the control horizon.
    pub fn delta_u(&self) -> &[f64] {
        &self.delta_u
    }

    /// The input to apply now: `U(k) = U(k−1) + ΔU(k|k)`, IDC-major flat.
    pub fn next_input(&self) -> &[f64] {
        &self.next_input
    }

    /// Per-IDC battery charge rate (MW) to apply now, netted against the
    /// planned discharge (at most one of charge/discharge is nonzero per
    /// IDC). Empty when the problem carried no storage.
    pub fn next_charge_mw(&self) -> &[f64] {
        &self.next_charge_mw
    }

    /// Per-IDC battery discharge rate (MW) to apply now, netted against
    /// the planned charge. Empty when the problem carried no storage.
    pub fn next_discharge_mw(&self) -> &[f64] {
        &self.next_discharge_mw
    }

    /// Predicted per-IDC power (MW) for each prediction step.
    pub fn predicted_power_mw(&self) -> &[Vec<f64>] {
        &self.predicted_power_mw
    }

    /// Active-set iterations spent in the QP.
    pub fn qp_iterations(&self) -> usize {
        self.qp_iterations
    }

    /// Whether this plan was solved from the previous step's warm start.
    pub fn warm_started(&self) -> bool {
        self.warm_started
    }

    /// Why this step's warm start was rejected, if it was: `None`
    /// whenever the warm path held. `Some` means a cold solve was paid and
    /// says which constraint family the shifted point violated.
    pub fn warm_rejection(&self) -> Option<&WarmRejection> {
        self.warm_rejection.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// One portal with 10 000 req/s, two IDCs. IDC 0: µ=2-ish parameters,
    /// IDC 1 cheaper reference target.
    fn two_idc_problem(prev: [f64; 2], reference: [f64; 2]) -> MpcProblem {
        MpcProblem {
            b1_mw: vec![67.5e-6, 108.0e-6],
            b0_mw: vec![150.0e-6, 150.0e-6],
            servers_on: vec![8_000, 10_000],
            capacities: vec![15_000.0, 11_500.0],
            prev_input: prev.to_vec(),
            workload_forecast: vec![vec![10_000.0]; 3],
            power_reference_mw: vec![reference.to_vec(); 5],
            tracking_multiplier: MpcProblem::uniform_tracking(2),
            storage: None,
        }
    }

    /// A 4 MWh / 2 MW battery at 95%/95% efficiency per IDC, half charged.
    fn test_storage(n: usize) -> StorageProblem {
        StorageProblem {
            capacity_mwh: vec![4.0; n],
            max_charge_mw: vec![2.0; n],
            max_discharge_mw: vec![2.0; n],
            charge_efficiency: vec![0.95; n],
            discharge_efficiency: vec![0.95; n],
            soc_mwh: vec![2.0; n],
            prev_charge_mw: vec![0.0; n],
            prev_discharge_mw: vec![0.0; n],
            dt_hours: 1.0 / 12.0,
        }
    }

    fn power_of(problem: &MpcProblem, u: &[f64]) -> Vec<f64> {
        (0..2)
            .map(|j| problem.b1_mw[j] * u[j] + problem.b0_mw[j] * problem.servers_on[j] as f64)
            .collect()
    }

    #[test]
    fn degenerate_peak_shaving_instance_terminates() {
        // Regression: captured from the Fig. 6 peak-shaving run. The
        // previous input sits exactly on two capacity faces with many
        // zero entries, making the QP vertex highly degenerate.
        let problem = MpcProblem {
            b1_mw: vec![6.75e-5, 0.000108, 7.714285714285714e-5],
            b0_mw: vec![0.00015, 0.00015, 0.00015],
            servers_on: vec![9002, 40000, 20000],
            capacities: vec![18003.0, 49999.0, 34999.0],
            prev_input: vec![
                0.0, 0.0, 0.0, 0.0, 15002.0, 0.0, 10001.0, 15000.0, 20000.0, 4998.0, 30000.0,
                4999.0, 0.0, 0.0, 0.0,
            ],
            workload_forecast: vec![vec![30000.0, 15000.0, 15000.0, 20000.0, 20000.0]; 3],
            power_reference_mw: vec![vec![5.13, 10.26, 1.6289828571428573]; 5],
            tracking_multiplier: vec![25.0, 25.0, 1.0],
            storage: None,
        };
        let mut controller = MpcController::new(MpcConfig::default());
        let plan = controller.plan(&problem).expect("must terminate");
        let total: f64 = plan.next_input().iter().sum();
        assert!((total - 100_000.0).abs() < 1e-3, "total {total}");
    }

    #[test]
    fn conservation_holds_after_step() {
        let mut controller = MpcController::new(MpcConfig::default());
        let problem = two_idc_problem([10_000.0, 0.0], [1.2, 2.28]);
        let plan = controller.plan(&problem).unwrap();
        let total: f64 = plan.next_input().iter().sum();
        assert!((total - 10_000.0).abs() < 1e-6, "total {total}");
        assert!(plan.next_input().iter().all(|&u| u >= 0.0));
    }

    #[test]
    fn tracking_moves_power_toward_reference() {
        let mut controller = MpcController::new(MpcConfig::default());
        // All load on IDC 0; the reference wants it on IDC 1.
        let problem = two_idc_problem(
            [10_000.0, 0.0],
            [
                150.0e-6 * 8_000.0,                        // idle power only on IDC 0
                108.0e-6 * 10_000.0 + 150.0e-6 * 10_000.0, // full load on IDC 1
            ],
        );
        let before = power_of(&problem, &problem.current_idc_workloads());
        let plan = controller.plan(&problem).unwrap();
        let after_lam = [plan.next_input()[0], plan.next_input()[1]];
        let after = power_of(&problem, &after_lam);
        // Moves in the right direction...
        assert!(after[0] < before[0], "IDC0 {} → {}", before[0], after[0]);
        assert!(after[1] > before[1], "IDC1 {} → {}", before[1], after[1]);
        // ...but the smoothing penalty stops it from jumping all the way.
        assert!(
            after_lam[1] < 10_000.0 - 1.0,
            "smoothing should prevent a full jump, got {after_lam:?}"
        );
    }

    #[test]
    fn higher_smoothing_weight_slows_the_move() {
        let mut fast = MpcController::new(MpcConfig {
            smoothing_weight: 0.1,
            ..MpcConfig::default()
        });
        let mut slow = MpcController::new(MpcConfig {
            smoothing_weight: 50.0,
            ..MpcConfig::default()
        });
        let problem = two_idc_problem([10_000.0, 0.0], [1.2, 2.58]);
        let moved = |plan: &MpcPlan| plan.next_input()[1];
        let fast_move = moved(&fast.plan(&problem).unwrap());
        let slow_move = moved(&slow.plan(&problem).unwrap());
        assert!(
            fast_move > slow_move + 1.0,
            "fast {fast_move} vs slow {slow_move}"
        );
    }

    #[test]
    fn capacity_constraint_binds() {
        let mut controller = MpcController::new(MpcConfig {
            smoothing_weight: 0.0001,
            ..MpcConfig::default()
        });
        // Reference demands everything on IDC 1, but IDC 1 caps at 11 500
        // while 10 000 must also keep flowing... push forecast to 12 000.
        let mut problem = two_idc_problem([12_000.0, 0.0], [0.0, 10.0]);
        problem.workload_forecast = vec![vec![12_000.0]; 3];
        let plan = controller.plan(&problem).unwrap();
        // IDC 1 cannot exceed its capacity.
        assert!(plan.next_input()[1] <= 11_500.0 + 1e-6);
        // Conservation still holds.
        let total: f64 = plan.next_input().iter().sum();
        assert!((total - 12_000.0).abs() < 1e-6);
    }

    #[test]
    fn workload_change_is_absorbed() {
        let mut controller = MpcController::new(MpcConfig::default());
        let mut problem = two_idc_problem([5_000.0, 5_000.0], [1.5, 1.5]);
        // Forecast says the workload jumps to 14 000.
        problem.workload_forecast = vec![vec![14_000.0]; 3];
        let plan = controller.plan(&problem).unwrap();
        let total: f64 = plan.next_input().iter().sum();
        assert!((total - 14_000.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn infeasible_capacity_is_reported() {
        let mut controller = MpcController::new(MpcConfig::default());
        let mut problem = two_idc_problem([10_000.0, 0.0], [1.0, 1.0]);
        problem.workload_forecast = vec![vec![30_000.0]; 3]; // > 26 500 total
        assert!(matches!(controller.plan(&problem), Err(Error::Infeasible)));
    }

    #[test]
    fn dimension_validation() {
        let mut controller = MpcController::new(MpcConfig::default());
        let good = two_idc_problem([10_000.0, 0.0], [1.0, 1.0]);
        let mut bad = good.clone();
        bad.capacities = vec![1.0];
        assert!(matches!(
            controller.plan(&bad),
            Err(Error::DimensionMismatch { .. })
        ));
        let mut bad = good.clone();
        bad.workload_forecast = vec![vec![1.0]; 2]; // β₂ = 3 expected
        assert!(controller.plan(&bad).is_err());
        let mut bad = good;
        bad.power_reference_mw = vec![vec![1.0, 1.0]; 2]; // β₁ = 5 expected
        assert!(controller.plan(&bad).is_err());
    }

    #[test]
    fn perfect_start_stays_put() {
        let mut controller = MpcController::new(MpcConfig::default());
        // Current allocation already produces the reference power.
        let problem = two_idc_problem(
            [6_000.0, 4_000.0],
            [
                67.5e-6 * 6_000.0 + 150.0e-6 * 8_000.0,
                108.0e-6 * 4_000.0 + 150.0e-6 * 10_000.0,
            ],
        );
        let plan = controller.plan(&problem).unwrap();
        assert!((plan.next_input()[0] - 6_000.0).abs() < 1.0);
        assert!((plan.next_input()[1] - 4_000.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "horizons must satisfy")]
    fn config_validation_panics_on_bad_horizons() {
        let _ = MpcController::new(MpcConfig {
            prediction_horizon: 2,
            control_horizon: 3,
            ..MpcConfig::default()
        });
    }

    #[test]
    fn warm_started_steps_match_a_cold_controller() {
        // Drive a closed loop for several steps. A stateful controller
        // (structure cache + warm start) must produce the same plan as a
        // fresh cold-solving controller at every step: the QP is strictly
        // convex, so both find the unique minimizer.
        let mut warm = MpcController::new(MpcConfig::default());
        let mut problem = two_idc_problem([10_000.0, 0.0], [1.2, 2.28]);
        for step in 0..6 {
            let plan = warm.plan(&problem).unwrap();
            let mut cold = MpcController::new(MpcConfig::default());
            let cold_plan = cold.plan(&problem).unwrap();
            for (w, c) in plan.next_input().iter().zip(cold_plan.next_input()) {
                assert!((w - c).abs() < 1e-4, "step {step}: {w} vs {c}");
            }
            if step > 0 {
                assert!(plan.warm_started(), "step {step} should warm start");
            }
            problem.prev_input = plan.next_input().to_vec();
        }
        assert_eq!(warm.warm_solves(), 5);
        assert_eq!(warm.cold_solves(), 1);
    }

    #[test]
    fn warm_state_roundtrip_resumes_bit_identically() {
        // Drive one controller continuously; drive a second that is torn
        // down and rebuilt from the exported warm state mid-run. Both must
        // produce bit-identical plans afterwards: the structure cache
        // rebuilds deterministically and the warm start carries over.
        let mut continuous = MpcController::new(MpcConfig::default());
        let mut problem = two_idc_problem([10_000.0, 0.0], [1.2, 2.28]);
        for _ in 0..3 {
            let plan = continuous.plan(&problem).unwrap();
            problem.prev_input = plan.next_input().to_vec();
        }
        assert!(continuous.warm_state().is_some());

        let mut restored = MpcController::new(MpcConfig::default());
        restored.restore_warm_state(continuous.warm_state());
        let (w, c) = continuous.solve_counters();
        restored.restore_solve_counters(w, c);

        for step in 0..4 {
            let a = continuous.plan(&problem).unwrap();
            let b = restored.plan(&problem).unwrap();
            assert_eq!(a.warm_started(), b.warm_started(), "step {step}");
            for (x, y) in a.next_input().iter().zip(b.next_input()) {
                assert_eq!(x.to_bits(), y.to_bits(), "step {step}: {x} vs {y}");
            }
            problem.prev_input = a.next_input().to_vec();
        }
        assert_eq!(continuous.solve_counters(), restored.solve_counters());
        assert_eq!(continuous.warm_state(), restored.warm_state());

        // Clearing the warm state forces the next solve cold.
        restored.restore_warm_state(None);
        let plan = restored.plan(&problem).unwrap();
        assert!(!plan.warm_started());
    }

    #[test]
    fn structure_cache_rebuilds_on_weight_change() {
        let mut controller = MpcController::new(MpcConfig::default());
        let mut problem = two_idc_problem([10_000.0, 0.0], [1.2, 2.28]);
        controller.plan(&problem).unwrap();
        // Flip to peak-shaving weights mid-run: the skeleton must rebuild
        // and the result match a fresh controller's.
        problem.tracking_multiplier = vec![25.0, 1.0];
        let plan = controller.plan(&problem).unwrap();
        let mut fresh = MpcController::new(MpcConfig::default());
        let fresh_plan = fresh.plan(&problem).unwrap();
        for (a, b) in plan.next_input().iter().zip(fresh_plan.next_input()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn overridden_input_still_warm_starts() {
        let mut controller = MpcController::new(MpcConfig::default());
        let mut problem = two_idc_problem([10_000.0, 0.0], [1.2, 2.28]);
        let plan = controller.plan(&problem).unwrap();
        assert!(!plan.warm_started(), "first solve is cold by definition");

        // The caller overrides the input state externally (the policy's
        // emergency fallback does exactly this). The remembered ΔU tail
        // keeps draining IDC 0, but IDC 0 now holds nothing, so the
        // shifted point dips below the non-negativity floor. The repair
        // clips it and re-routes the workload, so the step stays warm.
        problem.prev_input = vec![0.0, 10_000.0];
        let plan = controller.plan(&problem).unwrap();
        assert!(plan.warm_started(), "the repaired point must be accepted");
        assert!(plan.warm_rejection().is_none());
        assert_eq!(controller.solve_stats().cold_fallbacks, 0);
        let cold = MpcController::new(MpcConfig::default())
            .plan_cold(&problem)
            .unwrap();
        for (a, b) in plan.next_input().iter().zip(cold.next_input()) {
            assert!((a - b).abs() <= 1e-6, "{a} vs {b}");
        }
        let total: f64 = plan.next_input().iter().sum();
        assert!((total - 10_000.0).abs() < 1e-6, "total {total}");
        assert!(plan.next_input().iter().all(|&u| u >= 0.0));
    }

    #[test]
    fn over_capacity_forecast_is_certified_without_the_lp() {
        let mut controller = MpcController::new(MpcConfig::default());
        let mut problem = two_idc_problem([10_000.0, 0.0], [1.2, 2.28]);
        let plan = controller.plan(&problem).unwrap();
        problem.prev_input = plan.next_input().to_vec();

        // Stage 1 asks for more than the 26 500 req/s the fleet can serve.
        // The stage totals certify the infeasibility: no cold retry runs.
        let mut infeasible = problem.clone();
        infeasible.workload_forecast[1] = vec![30_000.0];
        let recorder = Arc::new(idc_obs::FlightRecorder::new(1024));
        idc_obs::bind_thread_recorder(Some(Arc::clone(&recorder)));
        let res = controller.plan(&infeasible);
        idc_obs::bind_thread_recorder(None);
        assert!(matches!(res, Err(Error::Infeasible)), "{res:?}");
        let spans: Vec<String> = recorder
            .snapshot()
            .into_iter()
            .map(|e| e.name.into())
            .collect();
        assert!(spans.iter().any(|s| s == "mpc.solve.warm"), "{spans:?}");
        assert!(!spans.iter().any(|s| s == "mpc.solve.cold"), "{spans:?}");
        assert_eq!(controller.solve_stats().cold_fallbacks, 0);

        // The next feasible step plans normally, warm from the last plan.
        let plan = controller.plan(&problem).unwrap();
        assert!(plan.warm_started());
        assert!(plan.warm_rejection().is_none());
        let total: f64 = plan.next_input().iter().sum();
        assert!((total - 10_000.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn idc_without_servers_is_infeasible_from_the_repaired_point() {
        // IDC 0 has no server on, so its capacity is φ₀ = −1/D₀ and no
        // allocation satisfies it, yet every stage's total still fits the
        // fleet: the stage-total certificate cannot fire.
        let mut problem = two_idc_problem([10_000.0, 0.0], [1.2, 2.28]);
        let mut controller = MpcController::new(MpcConfig::default());
        let plan = controller.plan(&problem).unwrap();
        problem.prev_input = plan.next_input().to_vec();
        problem.servers_on[0] = 0;
        problem.capacities[0] = -1_000.0;
        problem.capacities[1] = 12_000.0;
        problem.workload_forecast = vec![vec![10_000.0]; 3];
        // With a base: the shifted point and then, in the cold retry, the
        // repaired zero point are rejected.
        let recorder = Arc::new(idc_obs::FlightRecorder::new(1024));
        idc_obs::bind_thread_recorder(Some(Arc::clone(&recorder)));
        let res = controller.plan(&problem);
        idc_obs::bind_thread_recorder(None);
        assert!(matches!(res, Err(Error::Infeasible)), "{res:?}");
        let spans: Vec<String> = recorder
            .snapshot()
            .into_iter()
            .map(|e| e.name.into())
            .collect();
        assert!(spans.iter().any(|s| s == "mpc.solve.cold"), "{spans:?}");
        // Without one: the repaired zero point is the only start.
        let res = MpcController::new(MpcConfig::default()).plan(&problem);
        assert!(matches!(res, Err(Error::Infeasible)), "{res:?}");
    }

    #[test]
    fn reset_forces_a_cold_solve() {
        let mut controller = MpcController::new(MpcConfig::default());
        let problem = two_idc_problem([10_000.0, 0.0], [1.2, 2.28]);
        controller.plan(&problem).unwrap();
        controller.plan(&problem).unwrap();
        assert_eq!(controller.warm_solves(), 1);
        controller.reset();
        let plan = controller.plan(&problem).unwrap();
        assert!(!plan.warm_started());
        assert_eq!(controller.cold_solves(), 2);
    }

    #[test]
    fn banded_backend_handles_degenerate_peak_shaving() {
        let problem = MpcProblem {
            b1_mw: vec![6.75e-5, 0.000108, 7.714285714285714e-5],
            b0_mw: vec![0.00015, 0.00015, 0.00015],
            servers_on: vec![9002, 40000, 20000],
            capacities: vec![18003.0, 49999.0, 34999.0],
            prev_input: vec![
                0.0, 0.0, 0.0, 0.0, 15002.0, 0.0, 10001.0, 15000.0, 20000.0, 4998.0, 30000.0,
                4999.0, 0.0, 0.0, 0.0,
            ],
            workload_forecast: vec![vec![30000.0, 15000.0, 15000.0, 20000.0, 20000.0]; 3],
            power_reference_mw: vec![vec![5.13, 10.26, 1.6289828571428573]; 5],
            tracking_multiplier: vec![25.0, 25.0, 1.0],
            storage: None,
        };
        let mut controller = MpcController::new(MpcConfig {
            backend: SolverBackend::BandedRiccati,
            ..MpcConfig::default()
        });
        let plan = controller.plan(&problem).expect("must terminate");
        let total: f64 = plan.next_input().iter().sum();
        assert!((total - 100_000.0).abs() < 1e-3, "total {total}");
    }

    #[test]
    fn repair_survives_partial_serving_headroom() {
        // Regression for the silent cold fallbacks: IDC 0 serves nearly at
        // capacity while IDC 1 idles. A forecast jump larger than IDC 0's
        // headroom used to be distributed over the *serving* IDCs only,
        // overshooting IDC 0's capacity face and silently rejecting the
        // warm point. The repair must spread the excess over all remaining
        // capacity instead and keep the step warm.
        let mut problem = two_idc_problem([9_990.0, 0.0], [0.5, 10.0]);
        problem.workload_forecast = vec![vec![9_990.0]; 3];
        let mut controller = MpcController::new(MpcConfig::default());
        let plan = controller.plan(&problem).unwrap();
        problem.prev_input = plan.next_input().to_vec();
        // Forecast jumps by far more than IDC 0's remaining headroom.
        problem.workload_forecast = vec![vec![12_000.0]; 3];
        let plan = controller.plan(&problem).unwrap();
        assert!(
            plan.warm_started(),
            "repair must keep the step warm when serving headroom is partial"
        );
        assert!(plan.warm_rejection().is_none());
        let total: f64 = plan.next_input().iter().sum();
        assert!((total - 12_000.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn warm_rejection_breakdown_reports_violated_families() {
        // 1 stage would hide cumulative effects; use the standard layout:
        // n = 2 IDCs, c = 1 portal, β₂ = 2 stages.
        let (n, c, beta2) = (2, 1, 2);
        // Stage sums: IDC0 gets 5 then 5 more (cum 10), IDC1 stays 0.
        let warm_x = vec![5.0, 0.0, 5.0, 0.0];
        // Conservation wants 8 per stage: stage 0 off by 3, stage 1 by 2.
        let eq_rhs = vec![8.0, 8.0];
        // Capacity rows (t-major × IDC): IDC0 capacity 7 → cum 10 violates
        // by 3 at stage 1. Non-negativity rhs = prev inputs (all 1).
        let in_rhs = vec![7.0, 100.0, 7.0, 100.0, 1.0, 1.0, 1.0, 1.0];
        let rej = warm_rejection_breakdown(&warm_x, &eq_rhs, &in_rhs, n, c, beta2, None);
        assert!((rej.conservation - 3.0).abs() < 1e-12, "{rej:?}");
        assert!((rej.capacity - 3.0).abs() < 1e-12, "{rej:?}");
        assert_eq!(rej.nonnegativity, 0.0, "{rej:?}");
        assert!((rej.worst() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn plan_timings_accumulate_and_reset() {
        let mut controller = MpcController::new(MpcConfig::default());
        let problem = two_idc_problem([10_000.0, 0.0], [1.2, 2.28]);
        controller.plan(&problem).unwrap();
        let t = controller.timings();
        assert!(t.factor_ns > 0 && t.condense_ns > 0 && t.solve_ns > 0);
        assert!(t.total_ns() >= t.factor_ns + t.condense_ns + t.solve_ns);
        controller.reset_timings();
        assert_eq!(controller.timings(), PlanTimings::default());
    }

    #[test]
    fn problem_accessors() {
        let p = two_idc_problem([6_000.0, 4_000.0], [1.0, 1.0]);
        assert_eq!(p.num_idcs(), 2);
        assert_eq!(p.num_portals(), 1);
        assert_eq!(p.current_idc_workloads(), vec![6_000.0, 4_000.0]);
        let power = p.current_power_mw();
        assert!((power[0] - (67.5e-6 * 6_000.0 + 150.0e-6 * 8_000.0)).abs() < 1e-12);
        assert_eq!(p.block_size(), 2);
        let mut ps = p.clone();
        ps.storage = Some(test_storage(2));
        assert_eq!(ps.block_size(), 6);
        ps.storage.as_mut().unwrap().prev_discharge_mw[1] = 0.5;
        let grid = ps.current_grid_power_mw();
        assert!((grid[0] - power[0]).abs() < 1e-12);
        assert!((grid[1] - (power[1] - 0.5)).abs() < 1e-12);
    }

    /// Advances a belief battery state exactly as the controller's
    /// constraints model it: `soc' = soc + dt·(η_c·c − d/η_d)`.
    fn apply_rates(st: &mut StorageProblem, charge: &[f64], discharge: &[f64]) {
        for j in 0..st.soc_mwh.len() {
            st.soc_mwh[j] += st.dt_hours
                * (st.charge_efficiency[j] * charge[j] - discharge[j] / st.discharge_efficiency[j]);
            st.soc_mwh[j] = st.soc_mwh[j].clamp(0.0, st.capacity_mwh[j]);
            st.prev_charge_mw[j] = charge[j];
            st.prev_discharge_mw[j] = discharge[j];
        }
    }

    #[test]
    fn storage_discharges_against_a_low_reference() {
        // Reference sits 0.5 MW below the IT power each IDC can reach by
        // shifting alone (total workload is fixed), so the cheapest way to
        // track it is battery discharge.
        let mut controller = MpcController::new(MpcConfig::default());
        let mut problem = two_idc_problem(
            [6_000.0, 4_000.0],
            [
                67.5e-6 * 6_000.0 + 150.0e-6 * 8_000.0 - 0.5,
                108.0e-6 * 4_000.0 + 150.0e-6 * 10_000.0 - 0.5,
            ],
        );
        problem.storage = Some(test_storage(2));
        let plan = controller.plan(&problem).unwrap();
        for j in 0..2 {
            assert!(
                plan.next_discharge_mw()[j] > 0.1,
                "IDC {j} should discharge, got {:?}",
                plan.next_discharge_mw()
            );
            assert_eq!(plan.next_charge_mw()[j], 0.0);
        }
        // Predicted grid power moves below the IT-only draw.
        let it_power = problem.current_power_mw();
        assert!(plan.predicted_power_mw()[0][0] < it_power[0]);
    }

    #[test]
    fn storage_rates_respect_caps_and_soc() {
        // A nearly empty battery with a harsh low reference: discharge is
        // wanted hard but must respect both the rate cap and the energy
        // actually stored.
        let mut st = test_storage(2);
        st.soc_mwh = vec![0.05, 0.05];
        let mut problem = two_idc_problem([6_000.0, 4_000.0], [0.2, 0.2]);
        problem.storage = Some(st);
        let mut controller = MpcController::new(MpcConfig::default());
        for _ in 0..6 {
            let plan = controller.plan(&problem).unwrap();
            let st = problem.storage.as_ref().unwrap();
            for j in 0..2 {
                let (c_mw, d_mw) = (plan.next_charge_mw()[j], plan.next_discharge_mw()[j]);
                assert!((0.0..=st.max_charge_mw[j] + 1e-9).contains(&c_mw), "{c_mw}");
                assert!(
                    (0.0..=st.max_discharge_mw[j] + 1e-9).contains(&d_mw),
                    "{d_mw}"
                );
                // Discharging this hard for one step may not overdrain.
                let drained = st.dt_hours * d_mw / st.discharge_efficiency[j];
                assert!(
                    drained <= st.soc_mwh[j] + 1e-9,
                    "discharge {d_mw} MW would overdrain soc {}",
                    st.soc_mwh[j]
                );
            }
            problem.prev_input = plan.next_input().to_vec();
            let (c, d) = (
                plan.next_charge_mw().to_vec(),
                plan.next_discharge_mw().to_vec(),
            );
            apply_rates(problem.storage.as_mut().unwrap(), &c, &d);
            let st = problem.storage.as_ref().unwrap();
            for j in 0..2 {
                assert!(
                    st.soc_mwh[j] >= -1e-9 && st.soc_mwh[j] <= st.capacity_mwh[j] + 1e-9,
                    "soc out of bounds: {}",
                    st.soc_mwh[j]
                );
            }
        }
    }

    #[test]
    fn storage_warm_steps_match_a_cold_controller() {
        let mut warm = MpcController::new(MpcConfig::default());
        let mut problem = two_idc_problem([10_000.0, 0.0], [1.0, 2.2]);
        problem.storage = Some(test_storage(2));
        for step in 0..6 {
            let plan = warm.plan(&problem).unwrap();
            let mut cold = MpcController::new(MpcConfig::default());
            let cold_plan = cold.plan(&problem).unwrap();
            for (w, c) in plan.next_input().iter().zip(cold_plan.next_input()) {
                assert!((w - c).abs() < 1e-4, "step {step}: {w} vs {c}");
            }
            for j in 0..2 {
                let a = plan.next_charge_mw()[j] - plan.next_discharge_mw()[j];
                let b = cold_plan.next_charge_mw()[j] - cold_plan.next_discharge_mw()[j];
                assert!((a - b).abs() < 1e-6, "step {step}: {a} vs {b}");
            }
            problem.prev_input = plan.next_input().to_vec();
            let (c, d) = (
                plan.next_charge_mw().to_vec(),
                plan.next_discharge_mw().to_vec(),
            );
            apply_rates(problem.storage.as_mut().unwrap(), &c, &d);
        }
        assert_eq!(warm.warm_solves(), 5);
    }

    #[test]
    fn battery_outage_forces_zero_rates() {
        // Zero rate caps (the fault-matrix battery-outage kind) pin the
        // rates without a structure rebuild and the plan degrades to the
        // storage-free allocation.
        let mut st = test_storage(2);
        st.max_charge_mw = vec![0.0, 0.0];
        st.max_discharge_mw = vec![0.0, 0.0];
        let mut with = two_idc_problem([10_000.0, 0.0], [1.2, 2.28]);
        with.storage = Some(st);
        let without = two_idc_problem([10_000.0, 0.0], [1.2, 2.28]);
        let mut ca = MpcController::new(MpcConfig::default());
        let mut cb = MpcController::new(MpcConfig::default());
        let plan = ca.plan(&with).unwrap();
        let base = cb.plan(&without).unwrap();
        assert_eq!(plan.next_charge_mw(), &[0.0, 0.0]);
        assert_eq!(plan.next_discharge_mw(), &[0.0, 0.0]);
        for (a, b) in plan.next_input().iter().zip(base.next_input()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn storage_dimension_validation() {
        let mut controller = MpcController::new(MpcConfig::default());
        let good = {
            let mut p = two_idc_problem([10_000.0, 0.0], [1.2, 2.28]);
            p.storage = Some(test_storage(2));
            p
        };
        assert!(controller.plan(&good).is_ok());
        let mut bad = good.clone();
        bad.storage.as_mut().unwrap().soc_mwh = vec![1.0];
        assert!(controller.plan(&bad).is_err());
        let mut bad = good.clone();
        bad.storage.as_mut().unwrap().charge_efficiency[0] = 1.5;
        assert!(controller.plan(&bad).is_err());
        let mut bad = good.clone();
        bad.storage.as_mut().unwrap().soc_mwh[0] = 99.0; // above capacity
        assert!(controller.plan(&bad).is_err());
        let mut bad = good;
        bad.storage.as_mut().unwrap().dt_hours = 0.0;
        assert!(controller.plan(&bad).is_err());
    }

    #[test]
    fn storage_structure_cache_survives_outage_but_not_detach() {
        // Zeroing the caps (outage) must reuse the cached skeleton;
        // detaching storage entirely must rebuild and still solve.
        let mut controller = MpcController::new(MpcConfig::default());
        let mut problem = two_idc_problem([10_000.0, 0.0], [1.2, 2.28]);
        problem.storage = Some(test_storage(2));
        controller.plan(&problem).unwrap();
        let st = problem.storage.as_mut().unwrap();
        st.max_charge_mw = vec![0.0, 0.0];
        st.max_discharge_mw = vec![0.0, 0.0];
        let plan = controller.plan(&problem).unwrap();
        assert!(plan.warm_started(), "outage must not force a cold solve");
        problem.storage = None;
        let plan = controller.plan(&problem).unwrap();
        assert!(
            !plan.warm_started(),
            "layout change must drop the warm state"
        );
        let total: f64 = plan.next_input().iter().sum();
        assert!((total - 10_000.0).abs() < 1e-6);
    }
}
