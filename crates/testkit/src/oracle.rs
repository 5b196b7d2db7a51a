//! Brute-force differential oracles.
//!
//! Small, deliberately naive reference solvers that share **no code** with
//! `idc-opt`: a full-tableau two-phase simplex with Bland's rule for the
//! reference LP (paper eq. 46) and a textbook primal active-set method
//! with dense Gaussian-elimination KKT solves for the MPC QP (paper
//! eq. 42–45, with the battery terms when the step carries storage). No
//! caching, no warm starts, no factorization reuse — every call rebuilds
//! and re-solves from scratch. The production MPC has one monolithic QP
//! path (the banded backend), so these oracles are its only independent
//! reference: production results must agree with them to `1e-8` on the
//! physically meaningful quantities (objective value and horizon power),
//! which is how solver refactors are caught before they silently shift
//! trajectories.

use idc_control::mpc::{MpcConfig, MpcProblem};
use idc_datacenter::idc::IdcConfig;

/// Relative agreement demanded between the oracles and production solvers.
pub const AGREEMENT_TOL: f64 = 1e-8;

// ---------------------------------------------------------------------------
// Dense linear algebra (self-contained).
// ---------------------------------------------------------------------------

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
/// Returns `None` on a (numerically) singular system.
fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let mut piv = col;
        for r in col + 1..n {
            if a[r][col].abs() > a[piv][col].abs() {
                piv = r;
            }
        }
        if a[piv][col].abs() < 1e-300 {
            return None;
        }
        a.swap(col, piv);
        b.swap(col, piv);
        for r in col + 1..n {
            let f = a[r][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[r][k] -= f * a[col][k];
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut s = b[col];
        for k in col + 1..n {
            s -= a[col][k] * x[k];
        }
        x[col] = s / a[col][col];
    }
    Some(x)
}

// ---------------------------------------------------------------------------
// Textbook two-phase simplex.
// ---------------------------------------------------------------------------

/// A dense LP in the oracle's canonical form:
/// `min cᵀx  s.t.  E x = b_eq,  U x ≤ b_ub,  x ≥ 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLp {
    /// Cost coefficients, one per structural variable.
    pub cost: Vec<f64>,
    /// Equality rows.
    pub eq_rows: Vec<Vec<f64>>,
    /// Equality right-hand sides.
    pub eq_rhs: Vec<f64>,
    /// Upper-bound (≤) rows.
    pub ub_rows: Vec<Vec<f64>>,
    /// Upper-bound right-hand sides.
    pub ub_rhs: Vec<f64>,
}

/// An optimal LP point.
#[derive(Debug, Clone, PartialEq)]
pub struct LpPoint {
    /// Optimal structural variables.
    pub x: Vec<f64>,
    /// Optimal objective `cᵀx`.
    pub objective: f64,
}

const LP_TOL: f64 = 1e-9;

impl DenseLp {
    /// Solves the LP by the two-phase full-tableau simplex with Bland's
    /// rule (anti-cycling). Returns `None` when infeasible, unbounded, or
    /// out of iterations.
    pub fn solve(&self) -> Option<LpPoint> {
        let nx = self.cost.len();
        let n_ub = self.ub_rows.len();
        let m = self.eq_rows.len() + n_ub;
        // Columns: structural, slack (one per ≤ row), artificial (one per
        // row), then the rhs.
        let slack0 = nx;
        let art0 = nx + n_ub;
        let ncols = art0 + m;
        let mut tab: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut rhs: Vec<f64> = Vec::with_capacity(m);
        for (r, row) in self.eq_rows.iter().chain(&self.ub_rows).enumerate() {
            debug_assert_eq!(row.len(), nx);
            let mut t = vec![0.0; ncols];
            t[..nx].copy_from_slice(row);
            let mut b = if r < self.eq_rhs.len() {
                self.eq_rhs[r]
            } else {
                self.ub_rhs[r - self.eq_rhs.len()]
            };
            if r >= self.eq_rhs.len() {
                t[slack0 + (r - self.eq_rhs.len())] = 1.0;
            }
            if b < 0.0 {
                for v in t.iter_mut() {
                    *v = -*v;
                }
                b = -b;
            }
            t[art0 + r] = 1.0;
            tab.push(t);
            rhs.push(b);
        }
        let mut basis: Vec<usize> = (0..m).map(|r| art0 + r).collect();

        // Phase 1: minimize the sum of artificials. With the artificial
        // basis, the reduced cost of column j is −Σ_r tab[r][j].
        let mut red = vec![0.0; ncols];
        let mut obj = 0.0;
        for j in 0..art0 {
            red[j] = -(0..m).map(|r| tab[r][j]).sum::<f64>();
        }
        for r in 0..m {
            obj += rhs[r];
        }
        iterate(&mut tab, &mut rhs, &mut red, &mut obj, &mut basis, art0)?;
        if obj > 1e-7 {
            return None; // infeasible
        }
        // Drive leftover artificials out of the basis (degenerate rows).
        for r in 0..m {
            if basis[r] >= art0 {
                if let Some(j) = (0..art0).find(|&j| tab[r][j].abs() > LP_TOL) {
                    pivot(&mut tab, &mut rhs, &mut red, &mut obj, r, j);
                    basis[r] = j;
                }
                // A fully zero row is redundant; its artificial stays basic
                // at zero and (being banned from entering elsewhere) inert.
            }
        }

        // Phase 2: the real objective, artificials banned.
        let mut red = vec![0.0; ncols];
        for j in 0..art0 {
            let mut v = if j < nx { self.cost[j] } else { 0.0 };
            for r in 0..m {
                let cb = if basis[r] < nx {
                    self.cost[basis[r]]
                } else {
                    0.0
                };
                v -= tab[r][j] * cb;
            }
            red[j] = v;
        }
        let mut obj = (0..m)
            .map(|r| {
                let cb = if basis[r] < nx {
                    self.cost[basis[r]]
                } else {
                    0.0
                };
                rhs[r] * cb
            })
            .sum::<f64>();
        iterate(&mut tab, &mut rhs, &mut red, &mut obj, &mut basis, art0)?;

        let mut x = vec![0.0; nx];
        for r in 0..m {
            if basis[r] < nx {
                x[basis[r]] = rhs[r];
            }
        }
        let objective = self.cost.iter().zip(&x).map(|(c, v)| c * v).sum();
        Some(LpPoint { x, objective })
    }
}

/// One simplex phase: Bland entering (smallest eligible index, columns
/// `< banned_from` only), Bland leaving (min ratio, smallest basis index on
/// ties). Returns `None` on unboundedness or the iteration cap.
fn iterate(
    tab: &mut [Vec<f64>],
    rhs: &mut [f64],
    red: &mut [f64],
    obj: &mut f64,
    basis: &mut [usize],
    banned_from: usize,
) -> Option<()> {
    let m = tab.len();
    for _ in 0..20_000 {
        let Some(enter) = (0..banned_from).find(|&j| red[j] < -LP_TOL) else {
            return Some(());
        };
        let mut leave: Option<usize> = None;
        let mut best = f64::INFINITY;
        for r in 0..m {
            if tab[r][enter] > LP_TOL {
                let ratio = rhs[r] / tab[r][enter];
                if ratio < best - 1e-12
                    || (ratio < best + 1e-12 && leave.is_some_and(|l| basis[r] < basis[l]))
                {
                    best = ratio;
                    leave = Some(r);
                }
            }
        }
        let leave = leave?; // None: unbounded
        pivot(tab, rhs, red, obj, leave, enter);
        basis[leave] = enter;
    }
    None
}

/// Pivots the tableau (and the reduced-cost row) on `(row, col)`.
fn pivot(
    tab: &mut [Vec<f64>],
    rhs: &mut [f64],
    red: &mut [f64],
    obj: &mut f64,
    row: usize,
    col: usize,
) {
    let p = tab[row][col];
    for v in tab[row].iter_mut() {
        *v /= p;
    }
    rhs[row] /= p;
    for r in 0..tab.len() {
        if r == row {
            continue;
        }
        let f = tab[r][col];
        if f == 0.0 {
            continue;
        }
        let (pr, cur) = if r < row {
            let (a, b) = tab.split_at_mut(row);
            (&b[0], &mut a[r])
        } else {
            let (a, b) = tab.split_at_mut(r);
            (&a[row], &mut b[0])
        };
        for (v, pv) in cur.iter_mut().zip(pr.iter()) {
            *v -= f * pv;
        }
        rhs[r] -= f * rhs[row];
    }
    let f = red[col];
    if f != 0.0 {
        for (v, pv) in red.iter_mut().zip(tab[row].iter()) {
            *v -= f * pv;
        }
        // The objective moves by (reduced cost) × (entering value).
        *obj += f * rhs[row];
    }
}

// ---------------------------------------------------------------------------
// Reference-LP oracle (paper eq. 46).
// ---------------------------------------------------------------------------

/// Independently rebuilds and solves the reference LP of paper eq. 46 for
/// one `(idcs, offered, prices)` instance:
///
/// ```text
/// min   Σ_j Pr_j · (b1_j·Σ_i λij + b0_j·m_j)        [MW · $/MWh]
/// s.t.  Σ_j λij = L_i                 (conservation, per portal)
///       Σ_i λij − µ_j·m_j ≤ −1/D_j   (latency/capacity, per IDC)
///       m_j ≤ M_j,   λij ≥ 0, m_j ≥ 0
/// ```
///
/// Returns `None` when infeasible. The objective is directly comparable to
/// [`idc_control::reference::ReferenceSolution::cost_rate_per_hour`].
pub fn reference_lp_oracle(idcs: &[IdcConfig], offered: &[f64], prices: &[f64]) -> Option<LpPoint> {
    let n = idcs.len();
    let c = offered.len();
    if n == 0 || c == 0 || prices.len() != n {
        return None;
    }
    let nv = n * c + n;
    let mut cost = vec![0.0; nv];
    for (j, idc) in idcs.iter().enumerate() {
        let b1_mw = idc.pue() * idc.server().b1() / 1e6;
        let b0_mw = idc.pue() * idc.server().b0() / 1e6;
        for i in 0..c {
            cost[j * c + i] = prices[j] * b1_mw;
        }
        cost[n * c + j] = prices[j] * b0_mw;
    }
    let mut eq_rows = Vec::with_capacity(c);
    for i in 0..c {
        let mut row = vec![0.0; nv];
        for j in 0..n {
            row[j * c + i] = 1.0;
        }
        eq_rows.push(row);
    }
    let mut ub_rows = Vec::with_capacity(2 * n);
    let mut ub_rhs = Vec::with_capacity(2 * n);
    for (j, idc) in idcs.iter().enumerate() {
        let mut row = vec![0.0; nv];
        for i in 0..c {
            row[j * c + i] = 1.0;
        }
        row[n * c + j] = -idc.service_rate();
        ub_rows.push(row);
        ub_rhs.push(-1.0 / idc.latency_bound());
    }
    for (j, idc) in idcs.iter().enumerate() {
        let mut row = vec![0.0; nv];
        row[n * c + j] = 1.0;
        ub_rows.push(row);
        ub_rhs.push(idc.total_servers() as f64);
    }
    DenseLp {
        cost,
        eq_rows,
        eq_rhs: offered.to_vec(),
        ub_rows,
        ub_rhs,
    }
    .solve()
}

// ---------------------------------------------------------------------------
// Condensed-QP oracle (paper eq. 42–45).
// ---------------------------------------------------------------------------

/// The dense QP data the oracle assembles from first principles:
/// `min ½ xᵀH x + gᵀx  s.t.  E x = b_eq,  U x ≤ b_ub` over the stacked
/// input changes `x = ΔU`.
struct QpData {
    h: Vec<Vec<f64>>,
    g: Vec<f64>,
    eq_rows: Vec<Vec<f64>>,
    eq_rhs: Vec<f64>,
    ub_rows: Vec<Vec<f64>>,
    ub_rhs: Vec<f64>,
}

/// One weighted least-squares row `w·(aᵀx − b)²` contributing to the QP.
struct LsRow {
    a: Vec<f64>,
    b: f64,
    w: f64,
}

/// The stacked decision vector's stage block: `N·C` workload changes, then
/// with storage `N` charge-rate and `N` discharge-rate changes — the layout
/// of [`MpcPlan::delta_u`](idc_control::mpc::MpcPlan::delta_u). A rate
/// change of `x` moves the rate by `b₁_j·x` MW (req/s-equivalent units).
fn stage_block(problem: &MpcProblem) -> usize {
    let n = problem.num_idcs();
    n * problem.num_portals() + problem.storage.as_ref().map_or(0, |_| 2 * n)
}

/// Coefficients of IDC `j`'s grid-power change through control stage `t`
/// (MW): `b₁_j` on each of its workload changes and, with storage, `+b₁_j`
/// on its charge-rate and `−b₁_j` on its discharge-rate changes, summed
/// over the stages `≤ t` when `cumulative`, else stage `t` only.
fn power_change_row(
    problem: &MpcProblem,
    nv: usize,
    j: usize,
    t: usize,
    cumulative: bool,
) -> Vec<f64> {
    let n = problem.num_idcs();
    let c = problem.num_portals();
    let nb = stage_block(problem);
    let b1 = problem.b1_mw[j];
    let mut a = vec![0.0; nv];
    let first = if cumulative { 0 } else { t };
    for tp in first..=t {
        for i in 0..c {
            a[tp * nb + j * c + i] = b1;
        }
        if problem.storage.is_some() {
            a[tp * nb + n * c + j] = b1;
            a[tp * nb + n * c + n + j] = -b1;
        }
    }
    a
}

/// IDC `j`'s current grid draw (MW): IT power plus the previous period's
/// net battery rate.
fn current_grid_mw(problem: &MpcProblem, j: usize) -> f64 {
    let lambda: f64 = problem.current_idc_workloads()[j];
    let it = problem.b1_mw[j] * lambda + problem.b0_mw[j] * problem.servers_on[j] as f64;
    it + problem
        .storage
        .as_ref()
        .map_or(0.0, |st| st.prev_charge_mw[j] - st.prev_discharge_mw[j])
}

/// All least-squares rows of paper eq. 42: per-IDC grid-power tracking
/// over the prediction horizon, then per-IDC grid-power-change smoothing
/// over the control horizon.
fn ls_rows(config: &MpcConfig, problem: &MpcProblem) -> Vec<LsRow> {
    let n = problem.num_idcs();
    let beta1 = config.prediction_horizon;
    let beta2 = config.control_horizon;
    let nv = stage_block(problem) * beta2;
    let mut rows = Vec::with_capacity((beta1 + beta2) * n);
    for s in 0..beta1 {
        for j in 0..n {
            rows.push(LsRow {
                a: power_change_row(problem, nv, j, s.min(beta2 - 1), true),
                b: problem.power_reference_mw[s][j] - current_grid_mw(problem, j),
                w: config.tracking_weight * problem.tracking_multiplier[j],
            });
        }
    }
    for t in 0..beta2 {
        for j in 0..n {
            rows.push(LsRow {
                a: power_change_row(problem, nv, j, t, false),
                b: 0.0,
                w: config.smoothing_weight,
            });
        }
    }
    rows
}

/// An affine quantity `aᵀx + k` of the decision vector.
struct Affine {
    a: Vec<f64>,
    k: f64,
}

impl Affine {
    fn constant(nv: usize, k: f64) -> Self {
        Affine {
            a: vec![0.0; nv],
            k,
        }
    }
}

/// Appends the rows of `lo ≤ aᵀx + k ≤ hi` (either side may be infinite),
/// divided by `unit` so every row reads in req/s or req/s equivalents.
fn push_box(rows: &mut Vec<Vec<f64>>, rhs: &mut Vec<f64>, q: &Affine, lo: f64, hi: f64, unit: f64) {
    if hi.is_finite() {
        rows.push(q.a.iter().map(|v| v / unit).collect());
        rhs.push((hi - q.k) / unit);
    }
    if lo.is_finite() {
        rows.push(q.a.iter().map(|v| -v / unit).collect());
        rhs.push((q.k - lo) / unit);
    }
}

/// Assembles the dense QP: `H = 2(Σ w·a·aᵀ + ridge·I)`, `g = −2Σ w·b·a`,
/// conservation equalities (eq. 45), capacity and non-negativity
/// inequalities (eq. 43–44) on the allocation after each control stage,
/// and with storage the battery's physical limits after each stage: both
/// rates inside `[0, max]` and the state of charge
/// `soc + dt·Σ(η_c·charge − discharge/η_d)` inside `[0, capacity]`.
fn build_qp(config: &MpcConfig, problem: &MpcProblem) -> QpData {
    let n = problem.num_idcs();
    let c = problem.num_portals();
    let nc = n * c;
    let nb = stage_block(problem);
    let beta2 = config.control_horizon;
    let nv = nb * beta2;
    let lambda0 = problem.current_idc_workloads();

    let mut h = vec![vec![0.0; nv]; nv];
    let mut g = vec![0.0; nv];
    for row in ls_rows(config, problem) {
        for p in 0..nv {
            if row.a[p] == 0.0 {
                continue;
            }
            g[p] -= 2.0 * row.w * row.b * row.a[p];
            for q in 0..nv {
                if row.a[q] != 0.0 {
                    h[p][q] += 2.0 * row.w * row.a[p] * row.a[q];
                }
            }
        }
    }
    for (p, hp) in h.iter_mut().enumerate() {
        hp[p] += 2.0 * config.input_ridge;
    }

    let mut eq_rows = Vec::with_capacity(beta2 * c);
    let mut eq_rhs = Vec::with_capacity(beta2 * c);
    for t in 0..beta2 {
        for i in 0..c {
            let mut row = vec![0.0; nv];
            for tp in 0..=t {
                for j in 0..n {
                    row[tp * nb + j * c + i] = 1.0;
                }
            }
            let prev: f64 = (0..n).map(|j| problem.prev_input[j * c + i]).sum();
            eq_rows.push(row);
            eq_rhs.push(problem.workload_forecast[t][i] - prev);
        }
    }
    let mut ub_rows = Vec::new();
    let mut ub_rhs = Vec::new();
    for t in 0..beta2 {
        for j in 0..n {
            let mut load = Affine::constant(nv, lambda0[j]);
            for tp in 0..=t {
                for i in 0..c {
                    load.a[tp * nb + j * c + i] = 1.0;
                }
            }
            let (rows, rhs) = (&mut ub_rows, &mut ub_rhs);
            push_box(
                rows,
                rhs,
                &load,
                f64::NEG_INFINITY,
                problem.capacities[j],
                1.0,
            );
        }
    }
    for t in 0..beta2 {
        for idx in 0..nc {
            let mut u = Affine::constant(nv, problem.prev_input[idx]);
            for tp in 0..=t {
                u.a[tp * nb + idx] = 1.0;
            }
            push_box(&mut ub_rows, &mut ub_rhs, &u, 0.0, f64::INFINITY, 1.0);
        }
    }
    if let Some(st) = &problem.storage {
        for j in 0..n {
            let b1 = problem.b1_mw[j];
            let mut charge = Affine::constant(nv, st.prev_charge_mw[j]);
            let mut discharge = Affine::constant(nv, st.prev_discharge_mw[j]);
            let mut soc = Affine::constant(nv, st.soc_mwh[j]);
            for t in 0..beta2 {
                // The rates in force during stage t (MW) ...
                charge.a[t * nb + nc + j] = b1;
                discharge.a[t * nb + nc + n + j] = b1;
                // ... move the stored energy over the stage (MWh).
                let (ec, ed) = (st.charge_efficiency[j], st.discharge_efficiency[j]);
                for (v, (cv, dv)) in soc.a.iter_mut().zip(charge.a.iter().zip(&discharge.a)) {
                    *v += st.dt_hours * (ec * cv - dv / ed);
                }
                soc.k += st.dt_hours * (ec * charge.k - discharge.k / ed);
                let (rows, rhs) = (&mut ub_rows, &mut ub_rhs);
                push_box(rows, rhs, &charge, 0.0, st.max_charge_mw[j], b1);
                push_box(rows, rhs, &discharge, 0.0, st.max_discharge_mw[j], b1);
                push_box(rows, rhs, &soc, 0.0, st.capacity_mwh[j], st.dt_hours * b1);
            }
        }
    }
    QpData {
        h,
        g,
        eq_rows,
        eq_rhs,
        ub_rows,
        ub_rhs,
    }
}

/// Builds a feasible stacked decision vector directly: each control step
/// greedily refills the forecast portal workloads across IDCs in index
/// order within their capacities, then converts the absolute allocations
/// to input changes; batteries idle (both rates zero from the first stage
/// on), which keeps the state of charge where it is. Returns `None` when a
/// step's total forecast exceeds the total capacity (the QP is infeasible).
fn feasible_start(config: &MpcConfig, problem: &MpcProblem) -> Option<Vec<f64>> {
    let n = problem.num_idcs();
    let c = problem.num_portals();
    let nc = n * c;
    let nb = stage_block(problem);
    let beta2 = config.control_horizon;
    let mut x = vec![0.0; nb * beta2];
    let mut prev_u = problem.prev_input.clone();
    for t in 0..beta2 {
        let forecast = &problem.workload_forecast[t];
        let total: f64 = forecast.iter().sum();
        let cap_total: f64 = problem.capacities.iter().sum();
        if total > cap_total {
            return None;
        }
        let mut u_t = vec![0.0; nc];
        let mut headroom = problem.capacities.clone();
        for i in 0..c {
            let mut need = forecast[i];
            for j in 0..n {
                if need <= 0.0 {
                    break;
                }
                let take = need.min(headroom[j]);
                u_t[j * c + i] = take;
                headroom[j] -= take;
                need -= take;
            }
            if need > 1e-9 * forecast[i].max(1.0) {
                return None;
            }
        }
        for idx in 0..nc {
            x[t * nb + idx] = u_t[idx] - prev_u[idx];
        }
        prev_u = u_t;
    }
    if let Some(st) = &problem.storage {
        for j in 0..n {
            x[nc + j] = -st.prev_charge_mw[j] / problem.b1_mw[j];
            x[nc + n + j] = -st.prev_discharge_mw[j] / problem.b1_mw[j];
        }
    }
    Some(x)
}

/// The oracle's QP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct QpReplay {
    /// The stacked input changes `ΔU`.
    pub delta_u: Vec<f64>,
    /// The eq. 42 objective value at `delta_u` (see [`qp_objective`]).
    pub objective: f64,
    /// Active-set iterations used.
    pub iterations: usize,
}

const QP_ACT_TOL: f64 = 1e-6;
const QP_MAX_ITERATIONS: usize = 400;

/// Re-solves one captured per-step MPC problem with the naive dense
/// active-set method. Returns `None` when infeasible or the iteration
/// budget runs out (a finding in itself — the production solvers handle
/// every problem this is pointed at).
pub fn replay_qp(config: &MpcConfig, problem: &MpcProblem) -> Option<QpReplay> {
    let data = build_qp(config, problem);
    let mut x = feasible_start(config, problem)?;
    let nv = x.len();
    let n_ub = data.ub_rows.len();

    let residual = |rows: &[Vec<f64>], x: &[f64], r: usize| -> f64 {
        rows[r].iter().zip(x).map(|(a, v)| a * v).sum()
    };
    // Working set: inequalities active at the start point.
    let mut working: Vec<usize> = (0..n_ub)
        .filter(|&r| (data.ub_rhs[r] - residual(&data.ub_rows, &x, r)).abs() <= QP_ACT_TOL)
        .collect();

    for iter in 0..QP_MAX_ITERATIONS {
        // KKT system for the direction to the minimizer on the working set:
        //   [H  Eᵀ  Wᵀ][p;ν;λ] = [−(Hx+g); 0; 0]
        let m_eq = data.eq_rows.len();
        let m_w = working.len();
        let dim = nv + m_eq + m_w;
        let mut kkt = vec![vec![0.0; dim]; dim];
        let mut rhs = vec![0.0; dim];
        for p in 0..nv {
            for q in 0..nv {
                kkt[p][q] = data.h[p][q];
            }
            let mut grad = data.g[p];
            for q in 0..nv {
                grad += data.h[p][q] * x[q];
            }
            rhs[p] = -grad;
        }
        for (r, row) in data.eq_rows.iter().enumerate() {
            for p in 0..nv {
                kkt[nv + r][p] = row[p];
                kkt[p][nv + r] = row[p];
            }
        }
        for (r, &ci) in working.iter().enumerate() {
            for p in 0..nv {
                kkt[nv + m_eq + r][p] = data.ub_rows[ci][p];
                kkt[p][nv + m_eq + r] = data.ub_rows[ci][p];
            }
        }
        let Some(sol) = solve_dense(kkt, rhs) else {
            // Linearly dependent working set: drop the newest member and
            // retry (H is positive definite, so only W can be redundant).
            working.pop()?;
            continue;
        };
        let p_dir = &sol[..nv];
        let multipliers = &sol[nv + m_eq..];

        let scale = x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let p_norm = p_dir.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if p_norm <= 1e-9 * scale {
            // Stationary on the working set: optimal unless a multiplier
            // says a constraint should leave (Bland: smallest index wins).
            let lam_scale = multipliers.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            let mut drop: Option<usize> = None;
            for (r, &lam) in multipliers.iter().enumerate() {
                if lam < -1e-10 * lam_scale && drop.is_none_or(|d| working[r] < working[d]) {
                    drop = Some(r);
                }
            }
            match drop {
                None => {
                    let objective = qp_objective(config, problem, &x);
                    return Some(QpReplay {
                        delta_u: x,
                        objective,
                        iterations: iter + 1,
                    });
                }
                Some(r) => {
                    working.remove(r);
                }
            }
            continue;
        }

        // Ratio test against the inactive inequalities (Bland on ties).
        let mut alpha = 1.0f64;
        let mut blocker: Option<usize> = None;
        for r in 0..n_ub {
            if working.contains(&r) {
                continue;
            }
            let dir: f64 = data.ub_rows[r].iter().zip(p_dir).map(|(a, v)| a * v).sum();
            if dir <= 1e-12 * scale.max(1.0) {
                continue;
            }
            let slack = data.ub_rhs[r] - residual(&data.ub_rows, &x, r);
            let ratio = (slack / dir).max(0.0);
            if ratio < alpha - 1e-12 || (ratio < alpha + 1e-12 && blocker.is_none_or(|b| r < b)) {
                alpha = ratio.min(alpha);
                blocker = Some(r);
            }
        }
        for (v, d) in x.iter_mut().zip(p_dir) {
            *v += alpha * d;
        }
        if alpha < 1.0 {
            if let Some(b) = blocker {
                working.push(b);
                working.sort_unstable();
            }
        }
    }
    None
}

/// The eq. 42 objective evaluated directly from the problem data (no
/// lowering): tracking + smoothing + ridge, all as explicit sums. Both the
/// production plan and the oracle plan are scored with this same function,
/// so agreement checks cannot be fooled by a mis-lowered Hessian.
pub fn qp_objective(config: &MpcConfig, problem: &MpcProblem, delta_u: &[f64]) -> f64 {
    ls_rows(config, problem)
        .iter()
        .map(|row| {
            let r: f64 = row.a.iter().zip(delta_u).map(|(a, v)| a * v).sum::<f64>() - row.b;
            row.w * r * r
        })
        .sum::<f64>()
        + config.input_ridge * delta_u.iter().map(|v| v * v).sum::<f64>()
}

/// The summed predicted per-IDC grid power over the prediction horizon
/// implied by `delta_u` — the same scalar `bench_summary` uses for backend
/// agreement, comparable across solvers at `1e-8` relative.
pub fn horizon_power_sum_mw(config: &MpcConfig, problem: &MpcProblem, delta_u: &[f64]) -> f64 {
    let beta2 = config.control_horizon;
    let nv = delta_u.len();
    let mut total = 0.0;
    for s in 0..config.prediction_horizon {
        for j in 0..problem.num_idcs() {
            let change: f64 = power_change_row(problem, nv, j, s.min(beta2 - 1), true)
                .iter()
                .zip(delta_u)
                .map(|(a, v)| a * v)
                .sum();
            total += current_grid_mw(problem, j) + change;
        }
    }
    total
}

/// `true` when `delta_u` satisfies every constraint of the captured
/// problem within `tol` (req/s, or req/s equivalents for the battery
/// rows).
pub fn qp_feasible(config: &MpcConfig, problem: &MpcProblem, delta_u: &[f64], tol: f64) -> bool {
    let data = build_qp(config, problem);
    let value = |row: &[f64]| -> f64 { row.iter().zip(delta_u).map(|(a, v)| a * v).sum() };
    data.eq_rows
        .iter()
        .zip(&data.eq_rhs)
        .all(|(row, &b)| (value(row) - b).abs() <= tol)
        && data
            .ub_rows
            .iter()
            .zip(&data.ub_rhs)
            .all(|(row, &b)| value(row) <= b + tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_elimination_solves_and_detects_singularity() {
        let x = solve_dense(vec![vec![2.0, 1.0], vec![1.0, 3.0]], vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
        assert!(solve_dense(vec![vec![1.0, 2.0], vec![2.0, 4.0]], vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn simplex_solves_a_textbook_lp() {
        // min −x−y s.t. x+y ≤ 4, x ≤ 3, y ≤ 2 → x=3, y=1, obj −4.
        let lp = DenseLp {
            cost: vec![-1.0, -1.0],
            eq_rows: vec![],
            eq_rhs: vec![],
            ub_rows: vec![vec![1.0, 1.0], vec![1.0, 0.0], vec![0.0, 1.0]],
            ub_rhs: vec![4.0, 3.0, 2.0],
        };
        let p = lp.solve().unwrap();
        assert!((p.objective + 4.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn simplex_handles_equalities_and_negative_rhs() {
        // min x+2y s.t. x+y = 3, −x ≤ −1 (x ≥ 1) → x=3, y=0, obj 3.
        let lp = DenseLp {
            cost: vec![1.0, 2.0],
            eq_rows: vec![vec![1.0, 1.0]],
            eq_rhs: vec![3.0],
            ub_rows: vec![vec![-1.0, 0.0]],
            ub_rhs: vec![-1.0],
        };
        let p = lp.solve().unwrap();
        assert!((p.objective - 3.0).abs() < 1e-9, "{p:?}");
        assert!((p.x[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn simplex_reports_infeasibility() {
        // x ≤ 1 and x ≥ 2 cannot both hold.
        let lp = DenseLp {
            cost: vec![1.0],
            eq_rows: vec![],
            eq_rhs: vec![],
            ub_rows: vec![vec![1.0], vec![-1.0]],
            ub_rhs: vec![1.0, -2.0],
        };
        assert!(lp.solve().is_none());
    }

    #[test]
    fn simplex_reports_unboundedness() {
        let lp = DenseLp {
            cost: vec![-1.0],
            eq_rows: vec![],
            eq_rhs: vec![],
            ub_rows: vec![],
            ub_rhs: vec![],
        };
        assert!(lp.solve().is_none());
    }

    #[test]
    fn reference_oracle_matches_production_lp_on_paper_instances() {
        use idc_datacenter::idc::paper_idcs;
        let idcs = paper_idcs();
        let offered = [30_000.0, 15_000.0, 15_000.0, 20_000.0, 20_000.0];
        for prices in [[43.26, 30.26, 19.06], [49.90, 29.47, 77.97]] {
            let oracle = reference_lp_oracle(&idcs, &offered, &prices).unwrap();
            let prod = idc_control::reference::optimal_reference(&idcs, &offered, &prices).unwrap();
            let rel = (oracle.objective - prod.cost_rate_per_hour()).abs()
                / prod.cost_rate_per_hour().abs().max(1.0);
            assert!(rel <= AGREEMENT_TOL, "rel diff {rel:.3e} at {prices:?}");
        }
    }

    #[test]
    fn reference_oracle_detects_infeasible_load() {
        use idc_datacenter::idc::paper_idcs;
        let idcs = paper_idcs();
        assert!(reference_lp_oracle(&idcs, &[150_000.0], &[1.0, 1.0, 1.0]).is_none());
    }
}
