//! Primal active-set solver for convex quadratic programs.
//!
//! Solves
//!
//! ```text
//! minimize    ½ xᵀH x + gᵀx          (H symmetric positive definite)
//! subject to  A_eq x  = b_eq
//!             A_in x ≤ b_in
//! ```
//!
//! This is the workhorse behind the paper's condensed MPC problem
//! (eq. 42–45): `x = ΔU(k)` stacked over the control horizon, the equalities
//! are the per-portal workload-conservation rows (eq. 45) and the
//! inequalities are the latency/capacity rows (eq. 43) plus non-negativity
//! of the allocated workload (eq. 44).
//!
//! The method is the textbook primal active-set iteration (Nocedal & Wright,
//! Alg. 16.3): each step solves an equality-constrained subproblem through
//! an LU-factored KKT system, then either takes a blocking step (adding a
//! constraint to the working set) or drops the constraint with the most
//! negative multiplier.

use idc_linalg::{cholesky::UpdatableCholesky, lu::Lu, vec_ops, workspace::Workspace, Matrix};

use crate::active_set::{self, ActiveSetOps, WARM_TOL};
use crate::linprog::LinearProgram;
use crate::{Error, Result};

/// Relative size of the iterative-refinement correction above which the
/// incrementally up/downdated working-set factor is judged to have drifted
/// and is rebuilt from scratch (shared with the banded backend).
pub(crate) const REBUILD_TOL: f64 = 1e-6;

/// Reusable scratch memory for [`QuadraticProgram`] solves.
///
/// Every active-set iteration assembles and LU-factors a KKT system; with a
/// workspace those buffers are allocated once and reused, so a steady-state
/// solve (same problem dimensions step after step, as in MPC) performs no
/// per-iteration heap allocation. One workspace may be shared across
/// problems of different sizes — buffers grow to the largest size seen.
#[derive(Debug, Clone)]
pub struct QpWorkspace {
    /// KKT matrix of the equality-constrained subproblem (or, on the
    /// [`QuadraticProgram::prepare`]d fast path, the working-set block of
    /// the Schur complement).
    kkt: Matrix,
    /// Its LU factorization (buffers reused across refactors).
    lu: Lu,
    /// Right-hand side `[−(Hx + g); 0]`.
    rhs: Vec<f64>,
    /// Scratch for `H x`.
    hx: Vec<f64>,
    /// KKT solution `[p; multipliers]`.
    sol: Vec<f64>,
    /// Fast path scratch: `t = H⁻¹·(−(Hx + g))`.
    t: Vec<f64>,
    /// Fast path scratch: Schur rhs and multipliers.
    srhs: Vec<f64>,
    lam: Vec<f64>,
    /// Working set buffer, reused across solves.
    working: Vec<usize>,
    /// Incremental Cholesky factor of the working-set Schur block `S_RR`
    /// (prepared fast path only). Row `r` of the factor corresponds to
    /// column `cols[r]` of the precomputed full Schur complement; the
    /// active-set hooks keep it in sync across adds/drops so a working-set
    /// change costs a rank-1 up/downdate instead of a dense refactorization.
    factor: UpdatableCholesky,
    /// Column map of the factored working system into the full `S`/`Y`.
    cols: Vec<usize>,
    /// Packed append columns / scratch for block factor updates.
    fcol: Vec<f64>,
    /// Linalg scratch pool for block factor updates.
    fws: Workspace,
    /// Iterative-refinement passes since the loop's `begin` (introspection
    /// only; drained into [`crate::SolveStats`] per solve).
    refinements: u64,
    /// Full (re)builds of the working-set factor since `begin`.
    refactorizations: u64,
    /// Incremental factor appends (constraint adds absorbed in place).
    updates: u64,
    /// Incremental factor row removals (constraint drops absorbed in place).
    downdates: u64,
    /// When set, the next working-set mutation discards the incremental
    /// factor and forces a full rebuild (deterministic fault injection for
    /// the stability-rebuild path).
    force_refactor: bool,
}

impl QpWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        QpWorkspace {
            kkt: Matrix::zeros(0, 0),
            lu: Lu::empty(),
            rhs: Vec::new(),
            hx: Vec::new(),
            sol: Vec::new(),
            t: Vec::new(),
            srhs: Vec::new(),
            lam: Vec::new(),
            working: Vec::new(),
            factor: UpdatableCholesky::new(),
            cols: Vec::new(),
            fcol: Vec::new(),
            fws: Workspace::new(),
            refinements: 0,
            refactorizations: 0,
            updates: 0,
            downdates: 0,
            force_refactor: false,
        }
    }

    /// Poisons the incremental working-set factor: the next constraint
    /// add/drop discards it and forces the full stability-rebuild path.
    /// Used by deterministic fault injection (the testkit's
    /// forced-refactorization fault kind); harmless when no prepared cache
    /// is in use.
    pub fn force_refactor_next(&mut self) {
        self.force_refactor = true;
    }
}

impl Default for QpWorkspace {
    fn default() -> Self {
        QpWorkspace::new()
    }
}

/// A convex QP under construction. See the [module docs](self) for the
/// canonical form.
///
/// # Example
///
/// ```
/// use idc_linalg::Matrix;
/// use idc_opt::qp::QuadraticProgram;
///
/// # fn main() -> Result<(), idc_opt::Error> {
/// // min (x0−1)² + (x1−2)²  s.t. x0 + x1 ≤ 2  → (0.5, 1.5)
/// let h = Matrix::diag(&[2.0, 2.0]);
/// let sol = QuadraticProgram::new(h, vec![-2.0, -4.0])?
///     .inequality(vec![1.0, 1.0], 2.0)
///     .solve()?;
/// assert!((sol.x()[0] - 0.5).abs() < 1e-8);
/// assert!((sol.x()[1] - 1.5).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuadraticProgram {
    h: Matrix,
    g: Vec<f64>,
    a_eq: Vec<Vec<f64>>,
    b_eq: Vec<f64>,
    a_in: Vec<Vec<f64>>,
    b_in: Vec<f64>,
    max_iter: usize,
    single_pivot: bool,
    kkt_cache: Option<KktCache>,
}

/// Precomputed factorizations for the active-set iteration, built by
/// [`QuadraticProgram::prepare`].
///
/// The Hessian and the constraint *rows* are fixed for the lifetime of a
/// problem (only `g` and the right-hand sides are retargeted between MPC
/// steps), so the expensive parts of every KKT solve can be hoisted out of
/// the iteration: factor `H` once, and precompute `Y = H⁻¹Aᵀ` and the full
/// Schur complement `S = A H⁻¹ Aᵀ` over *all* constraint rows. Each
/// iteration then only gathers the working-set block of `S` and factors
/// that `m × m` system instead of the dense `(n + m) × (n + m)` KKT matrix.
#[derive(Debug, Clone)]
struct KktCache {
    /// LU factors of `H + εI`.
    hfac: Lu,
    /// `H⁻¹ [A_eqᵀ A_inᵀ]`, shape `n × (m_eq + m_in)`.
    y: Matrix,
    /// `[A_eq; A_in] H⁻¹ [A_eqᵀ A_inᵀ]`, shape `(m_eq+m_in) × (m_eq+m_in)`.
    s: Matrix,
}

impl QuadraticProgram {
    /// Starts a QP `min ½xᵀHx + gᵀx` with an `n × n` Hessian.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `h` is not square or
    /// `g.len()` differs from its dimension.
    pub fn new(h: Matrix, g: Vec<f64>) -> Result<Self> {
        if !h.is_square() || h.rows() != g.len() {
            return Err(Error::DimensionMismatch {
                what: format!(
                    "hessian {}x{} incompatible with gradient of length {}",
                    h.rows(),
                    h.cols(),
                    g.len()
                ),
            });
        }
        Ok(QuadraticProgram {
            h,
            g,
            a_eq: Vec::new(),
            b_eq: Vec::new(),
            a_in: Vec::new(),
            b_in: Vec::new(),
            max_iter: 500,
            single_pivot: false,
            kkt_cache: None,
        })
    }

    /// Adds an equality constraint `rowᵀx = rhs`.
    pub fn equality(mut self, row: Vec<f64>, rhs: f64) -> Self {
        self.a_eq.push(row);
        self.b_eq.push(rhs);
        self.kkt_cache = None;
        self
    }

    /// Adds an inequality constraint `rowᵀx ≤ rhs`.
    pub fn inequality(mut self, row: Vec<f64>, rhs: f64) -> Self {
        self.a_in.push(row);
        self.b_in.push(rhs);
        self.kkt_cache = None;
        self
    }

    /// Precomputes the factorizations that make repeated solves cheap.
    ///
    /// Factors the Hessian and forms the Schur complement `A H⁻¹ Aᵀ` over
    /// all constraint rows, so every active-set iteration solves an
    /// `m × m` working-set system instead of refactoring the dense
    /// `(n+m) × (n+m)` KKT matrix. Worth calling whenever the same problem
    /// skeleton is solved more than a handful of times (the MPC controller
    /// prepares its cached QP once per structure change); pointless for a
    /// one-shot solve. The cache survives [`Self::set_gradient`] and the
    /// rhs setters, and is dropped if constraint rows are added.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] on malformed constraint rows.
    /// * [`Error::Numerical`] if the (ridged) Hessian is singular.
    pub fn prepare(&mut self) -> Result<()> {
        self.validate()?;
        let n = self.num_vars();
        let mt = self.a_eq.len() + self.a_in.len();
        let mut ridged = self.h.clone();
        for i in 0..n {
            ridged[(i, i)] += 1e-12;
        }
        let hfac = Lu::factor(&ridged)?;
        let mut a_all = Matrix::zeros(mt, n);
        for (r, row) in self.a_eq.iter().chain(&self.a_in).enumerate() {
            a_all.row_mut(r).copy_from_slice(row);
        }
        let mut y = Matrix::zeros(n, mt);
        let mut col = Vec::new();
        for r in 0..mt {
            hfac.solve_into(a_all.row(r), &mut col)?;
            for i in 0..n {
                y[(i, r)] = col[i];
            }
        }
        let s = a_all.mul_mat(&y)?;
        self.kkt_cache = Some(KktCache { hfac, y, s });
        Ok(())
    }

    /// Overrides the iteration budget. The default scales with problem
    /// size: `max(500, 4·(variables + constraints))` — an active-set
    /// method may need to add or drop each constraint once.
    pub fn max_iterations(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Restricts the active-set loop to one constraint add/drop per outer
    /// iteration (the textbook reference semantics). The default admits and
    /// drops constraints in batches, which reaches the same optimum in far
    /// fewer KKT solves; single-pivot mode exists for differential tests
    /// pinning the batched loop against the reference behaviour.
    pub fn single_pivot(mut self, yes: bool) -> Self {
        self.single_pivot = yes;
        self
    }

    /// The effective iteration budget for this problem instance.
    fn iteration_budget(&self) -> usize {
        self.max_iter
            .max(4 * (self.num_vars() + self.a_in.len() + self.a_eq.len()))
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.g.len()
    }

    /// Solves the program, computing a feasible starting point internally
    /// via a phase-1 linear program.
    ///
    /// # Errors
    ///
    /// * [`Error::Infeasible`] if the constraints admit no point.
    /// * [`Error::IterationLimit`] if the active-set loop fails to converge.
    /// * [`Error::DimensionMismatch`] on malformed constraint rows.
    /// * [`Error::Numerical`] if a KKT system is singular beyond recovery.
    pub fn solve(&self) -> Result<QpSolution> {
        self.solve_with(&mut QpWorkspace::new())
    }

    /// Like [`Self::solve`], reusing caller-provided scratch memory.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::solve`].
    pub fn solve_with(&self, ws: &mut QpWorkspace) -> Result<QpSolution> {
        self.validate()?;
        let x0 = self.find_feasible_point()?;
        self.solve_from_feasible(&x0, &[], ws)
    }

    /// Solves the program starting from a caller-supplied point.
    ///
    /// A warm start from the previous MPC step's shifted solution typically
    /// converges in a handful of iterations.
    ///
    /// # Errors
    ///
    /// [`Error::Infeasible`] if `x0` violates the constraints by more than
    /// the internal tolerance, plus the failure modes of [`Self::solve`].
    pub fn solve_from(&self, x0: &[f64]) -> Result<QpSolution> {
        self.warm_start(x0, &[], &mut QpWorkspace::new())
    }

    /// Warm-started solve: starts from `x0` with the working set seeded
    /// from `active_set` (typically the previous solve's
    /// [`QpSolution::active_set`]), reusing `ws`'s scratch memory.
    ///
    /// Seeded indices that are out of range or no longer active at `x0`
    /// are ignored, so a slightly stale active set degrades gracefully
    /// into a few extra iterations rather than a failure.
    ///
    /// # Errors
    ///
    /// [`Error::Infeasible`] if `x0` violates the constraints by more than
    /// the internal tolerance, plus the failure modes of [`Self::solve`].
    pub fn warm_start(
        &self,
        x0: &[f64],
        active_set: &[usize],
        ws: &mut QpWorkspace,
    ) -> Result<QpSolution> {
        self.validate()?;
        if x0.len() != self.num_vars() {
            return Err(Error::DimensionMismatch {
                what: format!(
                    "starting point has length {}, expected {}",
                    x0.len(),
                    self.num_vars()
                ),
            });
        }
        if !self.is_feasible(x0, WARM_TOL) {
            return Err(Error::Infeasible);
        }
        self.solve_from_feasible(x0, active_set, ws)
    }

    /// Replaces the gradient `g`, keeping the Hessian and constraints.
    ///
    /// Together with the rhs setters this lets a cached QP skeleton be
    /// re-aimed at a new MPC step without rebuilding matrices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the length differs from the
    /// variable count.
    pub fn set_gradient(&mut self, g: &[f64]) -> Result<()> {
        if g.len() != self.g.len() {
            return Err(Error::DimensionMismatch {
                what: format!("gradient length {} != {}", g.len(), self.g.len()),
            });
        }
        self.g.copy_from_slice(g);
        Ok(())
    }

    /// Replaces the equality right-hand sides, keeping the rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the length differs from the
    /// number of equality constraints.
    pub fn set_equality_rhs(&mut self, rhs: &[f64]) -> Result<()> {
        if rhs.len() != self.b_eq.len() {
            return Err(Error::DimensionMismatch {
                what: format!("equality rhs length {} != {}", rhs.len(), self.b_eq.len()),
            });
        }
        self.b_eq.copy_from_slice(rhs);
        Ok(())
    }

    /// Replaces the inequality right-hand sides, keeping the rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the length differs from the
    /// number of inequality constraints.
    pub fn set_inequality_rhs(&mut self, rhs: &[f64]) -> Result<()> {
        if rhs.len() != self.b_in.len() {
            return Err(Error::DimensionMismatch {
                what: format!("inequality rhs length {} != {}", rhs.len(), self.b_in.len()),
            });
        }
        self.b_in.copy_from_slice(rhs);
        Ok(())
    }

    /// Checks whether `x` satisfies all constraints within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        let scale = 1.0 + vec_ops::norm_inf(x);
        self.a_eq
            .iter()
            .zip(&self.b_eq)
            .all(|(row, &b)| (vec_ops::dot(row, x) - b).abs() <= tol * scale)
            && self
                .a_in
                .iter()
                .zip(&self.b_in)
                .all(|(row, &b)| vec_ops::dot(row, x) - b <= tol * scale)
    }

    fn validate(&self) -> Result<()> {
        let n = self.num_vars();
        for row in self.a_eq.iter().chain(&self.a_in) {
            if row.len() != n {
                return Err(Error::DimensionMismatch {
                    what: format!(
                        "constraint row has {} coefficients, expected {n}",
                        row.len()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Phase 1: finds any feasible point by splitting `x = x⁺ − x⁻` and
    /// solving an LP over non-negative variables. The MPC controller keeps
    /// this off its step: it warm-starts every feasible step from a
    /// repaired point and certifies over-capacity steps from their stage
    /// totals, so on the `perfbench` workloads (seeds 1 and 2012) the LP
    /// runs on no step.
    fn find_feasible_point(&self) -> Result<Vec<f64>> {
        let n = self.num_vars();
        // Minimize Σ(x⁺ + x⁻) to keep the point bounded and small.
        let mut lp = LinearProgram::minimize(vec![1.0; 2 * n]);
        for (row, &b) in self.a_eq.iter().zip(&self.b_eq) {
            let mut split = Vec::with_capacity(2 * n);
            split.extend_from_slice(row);
            split.extend(row.iter().map(|v| -v));
            lp = lp.equality(split, b);
        }
        for (row, &b) in self.a_in.iter().zip(&self.b_in) {
            let mut split = Vec::with_capacity(2 * n);
            split.extend_from_slice(row);
            split.extend(row.iter().map(|v| -v));
            lp = lp.inequality(split, b);
        }
        let z = lp.solve()?.into_x();
        Ok((0..n).map(|i| z[i] - z[n + i]).collect())
    }

    /// Core active-set loop from a feasible `x0`, delegated to the shared
    /// [`active_set`] driver with this problem's dense KKT backend.
    fn solve_from_feasible(
        &self,
        x0: &[f64],
        seed: &[usize],
        ws: &mut QpWorkspace,
    ) -> Result<QpSolution> {
        // Working set and solution buffers are taken out of the workspace so
        // the KKT scratch can be borrowed mutably alongside them; restored
        // before returning.
        let mut working = std::mem::take(&mut ws.working);
        let mut sol = std::mem::take(&mut ws.sol);
        let result = {
            let mut ops = DenseOps { qp: self, ws };
            active_set::solve_from_feasible(&mut ops, x0, seed, &mut working, &mut sol)
        };
        ws.working = working;
        ws.sol = sol;
        result
    }

    /// Solves the equality-constrained subproblem at `x` for the working
    /// set, leaving `[p; multipliers]` in `sol`. Allocation-free once
    /// the workspace buffers have grown to the problem size.
    fn kkt_step(
        &self,
        x: &[f64],
        working: &[usize],
        sol: &mut Vec<f64>,
        ws: &mut QpWorkspace,
    ) -> Result<()> {
        if self.kkt_cache.is_some() {
            return self.kkt_step_prepared(x, working, sol, ws);
        }
        let n = self.num_vars();
        let m = self.a_eq.len() + working.len();
        let dim = n + m;
        let kkt = &mut ws.kkt;
        kkt.resize_zeroed(dim, dim);
        for i in 0..n {
            kkt.row_mut(i)[..n].copy_from_slice(self.h.row(i));
            // Tiny ridge keeps nearly-singular Hessians factorable.
            kkt[(i, i)] += 1e-12;
        }
        let mut fill_row = |r: usize, row: &[f64]| {
            for (j, &v) in row.iter().enumerate() {
                kkt[(n + r, j)] = v;
                kkt[(j, n + r)] = v;
            }
        };
        for (r, row) in self.a_eq.iter().enumerate() {
            fill_row(r, row);
        }
        for (k, &i) in working.iter().enumerate() {
            fill_row(self.a_eq.len() + k, &self.a_in[i]);
        }

        // rhs = [−(Hx + g); 0]
        self.h.mul_vec_into(x, &mut ws.hx)?;
        ws.rhs.clear();
        ws.rhs.resize(dim, 0.0);
        for i in 0..n {
            ws.rhs[i] = -(ws.hx[i] + self.g[i]);
        }
        ws.lu.refactor(kkt)?;
        ws.lu.solve_into(&ws.rhs, sol)?;
        Ok(())
    }

    /// [`Self::kkt_step`] via the [`prepare`](Self::prepare)d Schur
    /// complement: with `v = −(Hx + g)` and `t = H⁻¹v`, the multipliers
    /// solve `S_RR λ = A_R t` over the working rows `R`, and the step is
    /// `p = t − Y_R λ`. The `m × m` Schur block is kept in an incrementally
    /// maintained Cholesky factor — working-set changes cost a rank-1
    /// up/downdate via the active-set hooks, and only a refinement
    /// correction exceeding [`REBUILD_TOL`] triggers a full rebuild.
    fn kkt_step_prepared(
        &self,
        x: &[f64],
        working: &[usize],
        sol: &mut Vec<f64>,
        ws: &mut QpWorkspace,
    ) -> Result<()> {
        let cache = self.kkt_cache.as_ref().expect("checked by caller");
        let n = self.num_vars();
        let me = self.a_eq.len();
        let m = me + working.len();
        // v = −(Hx + g), t = H⁻¹ v.
        self.h.mul_vec_into(x, &mut ws.hx)?;
        ws.rhs.clear();
        ws.rhs.extend((0..n).map(|i| -(ws.hx[i] + self.g[i])));
        cache.hfac.solve_into(&ws.rhs, &mut ws.t)?;
        sol.clear();
        if m == 0 {
            sol.extend_from_slice(&ws.t);
            return Ok(());
        }
        // Column map of the working system into the precomputed S/Y (row r
        // is equality r for r < m_eq, else inequality working[r − m_eq],
        // whose column lives at m_eq + index).
        ws.cols.clear();
        for r in 0..m {
            ws.cols.push(if r < me { r } else { me + working[r - me] });
        }
        let poisoned = self.ensure_schur_factor(ws, m)?;
        ws.srhs.clear();
        for r in 0..m {
            let row = if r < me {
                &self.a_eq[r]
            } else {
                &self.a_in[working[r - me]]
            };
            ws.srhs.push(vec_ops::dot(row, &ws.t));
        }
        ws.lam.clear();
        ws.lam.extend_from_slice(&ws.srhs);
        ws.factor.solve_in_place(&mut ws.lam);
        // One step of iterative refinement: S is substantially worse
        // conditioned than the full KKT matrix it replaces, and multiplier
        // noise near the drop threshold makes the active-set loop cycle.
        // The residual is gathered straight from the cached full S, so no
        // dense copy of the working block is materialized.
        let correction = self.refine_multipliers(ws, m);
        ws.refinements += 1;
        // Stability rebuild: a large correction means the incrementally
        // up/downdated factor has drifted from the true working block.
        // Rebuild it from scratch and re-solve (once per KKT step). A
        // poisoned build rebuilds unconditionally — one refinement pass
        // shrinks the multiplier error but need not reach solver tolerance,
        // and inexact λ makes the step leave the equality manifold.
        if poisoned || correction > REBUILD_TOL * (1.0 + vec_ops::norm_inf(&ws.lam)) {
            ws.factor.clear();
            self.ensure_schur_factor(ws, m)?;
            ws.lam.clear();
            ws.lam.extend_from_slice(&ws.srhs);
            ws.factor.solve_in_place(&mut ws.lam);
            self.refine_multipliers(ws, m);
            ws.refinements += 1;
        }
        // p = t − Y_R λ, stacked with the multipliers as in the dense path.
        for i in 0..n {
            let yrow = cache.y.row(i);
            let mut acc = 0.0;
            for (r, &l) in ws.lam.iter().enumerate() {
                acc += yrow[ws.cols[r]] * l;
            }
            sol.push(ws.t[i] - acc);
        }
        sol.extend_from_slice(&ws.lam);
        Ok(())
    }

    /// Grows the incremental Cholesky factor of the working-set Schur block
    /// to dimension `m`, appending the rows described by `ws.cols` from the
    /// cached full Schur complement. A build from dimension zero counts as
    /// a refactorization; appends to an existing factor count as
    /// incremental updates. Multi-row growth goes through the blocked
    /// append, falling back to row-by-row on failure so the offending row
    /// is identified (and surfaced as [`Error::Numerical`] for the loop's
    /// degenerate-pop recovery). Returns whether a pending poison was
    /// consumed by this build (the caller must then rebuild before using
    /// the factor's solution).
    fn ensure_schur_factor(&self, ws: &mut QpWorkspace, m: usize) -> Result<bool> {
        let cache = self.kkt_cache.as_ref().expect("checked by caller");
        // Consume a pending poison request: corrupt the first row appended
        // in this build so the caller's stability-rebuild path must fire
        // (deterministic fault injection).
        let poison = ws.force_refactor && m > 0;
        if poison {
            ws.force_refactor = false;
            if ws.factor.dim() >= m {
                ws.factor.clear();
            }
        }
        let dim = ws.factor.dim();
        debug_assert!(dim <= m, "factor larger than working system");
        if dim >= m {
            return Ok(false);
        }
        let from_scratch = dim == 0;
        if from_scratch {
            ws.refactorizations += 1;
        }
        if m - dim > 1 && !poison {
            ws.fcol.clear();
            for r in dim..m {
                let src = cache.s.row(ws.cols[r]);
                ws.fcol.extend(ws.cols[..=r].iter().map(|&c| src[c]));
            }
            if ws
                .factor
                .append_block(m - dim, &ws.fcol, &mut ws.fws)
                .is_ok()
            {
                if !from_scratch {
                    ws.updates += (m - dim) as u64;
                }
                return Ok(false);
            }
            // Blocked append commits nothing on failure — fall through to
            // per-row appends so the error points at the first bad row.
        }
        let mut poison_next = poison;
        for r in ws.factor.dim()..m {
            let src = cache.s.row(ws.cols[r]);
            ws.fcol.clear();
            ws.fcol.extend(ws.cols[..=r].iter().map(|&c| src[c]));
            if poison_next {
                // Double the diagonal: stays positive definite (the solve
                // cannot fail) but is wrong by O(1) — the caller rebuilds
                // before any step direction is taken from this factor.
                let last = ws.fcol.len() - 1;
                ws.fcol[last] *= 2.0;
                poison_next = false;
            }
            ws.factor.append(&ws.fcol)?;
            if !from_scratch {
                ws.updates += 1;
            }
        }
        Ok(poison)
    }

    /// One pass of iterative refinement of `ws.lam` against the cached full
    /// Schur complement; returns `‖correction‖∞`. (`rhs` and `hx` are dead
    /// at this point of the KKT step — reused as residual and correction
    /// scratch.)
    fn refine_multipliers(&self, ws: &mut QpWorkspace, m: usize) -> f64 {
        let cache = self.kkt_cache.as_ref().expect("checked by caller");
        ws.rhs.clear();
        for r in 0..m {
            let src = cache.s.row(ws.cols[r]);
            let mut acc = ws.srhs[r];
            for (q, &l) in ws.lam.iter().enumerate() {
                acc -= src[ws.cols[q]] * l;
            }
            ws.rhs.push(acc);
        }
        ws.hx.clear();
        ws.hx.extend_from_slice(&ws.rhs);
        ws.factor.solve_in_place(&mut ws.hx);
        for (l, &d) in ws.lam.iter_mut().zip(&ws.hx) {
            *l += d;
        }
        vec_ops::norm_inf(&ws.hx)
    }

    /// Objective value `½xᵀHx + gᵀx`.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        let hx = self.h.mul_vec(x).expect("validated dimensions");
        0.5 * vec_ops::dot(x, &hx) + vec_ops::dot(&self.g, x)
    }
}

/// Dense backend for the shared [`active_set`] loop. On the prepared fast
/// path the `on_*` hooks keep the incremental Cholesky factor of the
/// working-set Schur block in sync with the working set (drops downdate in
/// place, adds are absorbed lazily at the next KKT step); the unprepared
/// path refactors per iteration and leaves the factor empty.
struct DenseOps<'a> {
    qp: &'a QuadraticProgram,
    ws: &'a mut QpWorkspace,
}

impl ActiveSetOps for DenseOps<'_> {
    fn num_vars(&self) -> usize {
        self.qp.num_vars()
    }

    fn num_eq(&self) -> usize {
        self.qp.a_eq.len()
    }

    fn num_in(&self) -> usize {
        self.qp.a_in.len()
    }

    fn iteration_budget(&self) -> usize {
        self.qp.iteration_budget()
    }

    fn in_dot(&self, i: usize, v: &[f64]) -> f64 {
        vec_ops::dot(&self.qp.a_in[i], v)
    }

    fn in_rhs(&self, i: usize) -> f64 {
        self.qp.b_in[i]
    }

    fn objective_at(&self, x: &[f64]) -> f64 {
        self.qp.objective_at(x)
    }

    fn kkt_step(&mut self, x: &[f64], working: &[usize], sol: &mut Vec<f64>) -> Result<()> {
        self.qp.kkt_step(x, working, sol, self.ws)
    }

    fn begin(&mut self, _working: &[usize]) {
        self.ws.refinements = 0;
        self.ws.refactorizations = 0;
        self.ws.updates = 0;
        self.ws.downdates = 0;
        // The factor (if any) describes a previous solve's working set;
        // the first KKT step rebuilds it for the seeded set.
        // (`force_refactor` deliberately survives: it is armed between
        // solves and consumed by the first factor build.)
        self.ws.factor.clear();
    }

    fn on_remove(&mut self, _working: &[usize], pos: usize) {
        let row = self.qp.a_eq.len() + pos;
        if self.ws.factor.dim() > row {
            self.ws.factor.remove(row);
            self.ws.downdates += 1;
        }
    }

    fn on_pop(&mut self, working: &[usize]) {
        let keep = self.qp.a_eq.len() + working.len();
        if self.ws.factor.dim() > keep {
            self.ws.factor.truncate(keep);
            self.ws.downdates += 1;
        }
    }

    fn take_refinements(&mut self) -> u64 {
        std::mem::take(&mut self.ws.refinements)
    }

    fn single_pivot(&self) -> bool {
        self.qp.single_pivot
    }

    fn take_factor_stats(&mut self) -> (u64, u64, u64) {
        (
            std::mem::take(&mut self.ws.refactorizations),
            std::mem::take(&mut self.ws.updates),
            std::mem::take(&mut self.ws.downdates),
        )
    }
}

/// A solved quadratic program.
#[derive(Debug, Clone, PartialEq)]
pub struct QpSolution {
    x: Vec<f64>,
    objective: f64,
    iterations: usize,
    active_set: Vec<usize>,
    stats: idc_obs::SolveStats,
}

impl QpSolution {
    /// Assembles a solution from the shared active-set loop's results.
    pub(crate) fn from_parts(
        x: Vec<f64>,
        objective: f64,
        iterations: usize,
        active_set: Vec<usize>,
        stats: idc_obs::SolveStats,
    ) -> Self {
        QpSolution {
            x,
            objective,
            iterations,
            active_set,
            stats,
        }
    }

    /// The optimal point.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// The optimal objective value.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Number of active-set iterations performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Indices of the inequality constraints active at the optimum.
    pub fn active_set(&self) -> &[usize] {
        &self.active_set
    }

    /// Introspection counters collected during this solve (iteration,
    /// churn, seeding and refinement detail beyond
    /// [`iterations`](Self::iterations)).
    pub fn stats(&self) -> &idc_obs::SolveStats {
        &self.stats
    }

    /// Consumes the solution, returning the optimal point.
    pub fn into_x(self) -> Vec<f64> {
        self.x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn unconstrained_qp_solves_newton_system() {
        // min (x0−3)² + (x1+1)²
        let sol = QuadraticProgram::new(Matrix::diag(&[2.0, 2.0]), vec![-6.0, 2.0])
            .unwrap()
            .solve()
            .unwrap();
        assert_near(sol.x()[0], 3.0);
        assert_near(sol.x()[1], -1.0);
        assert!(sol.active_set().is_empty());
    }

    #[test]
    fn equality_constrained_qp() {
        // min x0² + x1² s.t. x0 + x1 = 2 → (1, 1)
        let sol = QuadraticProgram::new(Matrix::diag(&[2.0, 2.0]), vec![0.0, 0.0])
            .unwrap()
            .equality(vec![1.0, 1.0], 2.0)
            .solve()
            .unwrap();
        assert_near(sol.x()[0], 1.0);
        assert_near(sol.x()[1], 1.0);
        assert_near(sol.objective(), 2.0);
    }

    #[test]
    fn inactive_inequality_is_ignored() {
        let sol = QuadraticProgram::new(Matrix::diag(&[2.0]), vec![-2.0])
            .unwrap()
            .inequality(vec![1.0], 100.0)
            .solve()
            .unwrap();
        assert_near(sol.x()[0], 1.0);
        assert!(sol.active_set().is_empty());
    }

    #[test]
    fn active_inequality_binds() {
        // min (x−5)² s.t. x ≤ 2 → x = 2, constraint 0 active.
        let sol = QuadraticProgram::new(Matrix::diag(&[2.0]), vec![-10.0])
            .unwrap()
            .inequality(vec![1.0], 2.0)
            .solve()
            .unwrap();
        assert_near(sol.x()[0], 2.0);
        assert_eq!(sol.active_set(), &[0]);
    }

    #[test]
    fn nocedal_wright_example_16_4() {
        // min (x0−1)² + (x1−2.5)²
        // s.t. −x0 + 2x1 ≤ 2; x0 + 2x1 ≤ 6; x0 − 2x1 ≤ 2; x ≥ 0.
        // Optimum (1.4, 1.7).
        let sol = QuadraticProgram::new(Matrix::diag(&[2.0, 2.0]), vec![-2.0, -5.0])
            .unwrap()
            .inequality(vec![-1.0, 2.0], 2.0)
            .inequality(vec![1.0, 2.0], 6.0)
            .inequality(vec![1.0, -2.0], 2.0)
            .inequality(vec![-1.0, 0.0], 0.0)
            .inequality(vec![0.0, -1.0], 0.0)
            .solve()
            .unwrap();
        assert_near(sol.x()[0], 1.4);
        assert_near(sol.x()[1], 1.7);
    }

    #[test]
    fn degenerate_dependent_row_cannot_livelock_the_loop() {
        // Regression: a row numerically dependent on the working set
        // (here row 1 ≈ row 0 + noise) that is tight with a tiny negative
        // slack blocks with alpha = 0, breaks the working-set KKT
        // factorization when admitted, and is popped — then immediately
        // re-selected by the ratio test, forever. The accumulated ban set
        // must break the cycle and let the solve finish at the true
        // optimum governed by the independent constraints.
        let qp = QuadraticProgram::new(Matrix::diag(&[2.0, 2.0]), vec![0.0, -2000.0])
            .unwrap()
            .inequality(vec![1.0, 0.0], 0.0)
            .inequality(vec![1.0, 1e-10], -1e-12)
            .inequality(vec![0.0, 1.0], 500.0);
        let sol = qp
            .warm_start(&[0.0, 0.0], &[0], &mut QpWorkspace::new())
            .unwrap();
        assert_near(sol.x()[1], 500.0);
        assert!(sol.x()[0].abs() < 1e-6, "{}", sol.x()[0]);
        // The livelock geometry must actually have been exercised.
        assert!(
            sol.stats().degenerate_pops >= 1,
            "expected a degenerate-KKT pop, stats: {:?}",
            sol.stats()
        );
    }

    #[test]
    fn warm_start_from_feasible_point() {
        let qp = QuadraticProgram::new(Matrix::diag(&[2.0, 2.0]), vec![-2.0, -4.0])
            .unwrap()
            .inequality(vec![1.0, 1.0], 2.0);
        let cold = qp.solve().unwrap();
        let warm = qp.solve_from(&[0.4, 1.5]).unwrap();
        assert_near(cold.x()[0], warm.x()[0]);
        assert_near(cold.x()[1], warm.x()[1]);
    }

    #[test]
    fn warm_start_with_seeded_active_set_matches_cold() {
        // Nocedal & Wright 16.4 again, this time warm-started at the known
        // optimum with its active set: must converge immediately to the
        // same point.
        let qp = QuadraticProgram::new(Matrix::diag(&[2.0, 2.0]), vec![-2.0, -5.0])
            .unwrap()
            .inequality(vec![-1.0, 2.0], 2.0)
            .inequality(vec![1.0, 2.0], 6.0)
            .inequality(vec![1.0, -2.0], 2.0)
            .inequality(vec![-1.0, 0.0], 0.0)
            .inequality(vec![0.0, -1.0], 0.0);
        let cold = qp.solve().unwrap();
        let mut ws = QpWorkspace::new();
        let warm = qp.warm_start(cold.x(), cold.active_set(), &mut ws).unwrap();
        assert_near(warm.x()[0], cold.x()[0]);
        assert_near(warm.x()[1], cold.x()[1]);
        assert_eq!(warm.active_set(), cold.active_set());
        assert!(warm.iterations() <= cold.iterations());

        // Garbage seed entries (out of range, inactive) are tolerated.
        let sloppy = qp.warm_start(cold.x(), &[99, 1, 1, 0], &mut ws).unwrap();
        assert_near(sloppy.x()[0], cold.x()[0]);
        assert_near(sloppy.x()[1], cold.x()[1]);
    }

    #[test]
    fn workspace_is_reusable_across_different_problems() {
        let mut ws = QpWorkspace::new();
        let a = QuadraticProgram::new(Matrix::diag(&[2.0]), vec![-10.0])
            .unwrap()
            .inequality(vec![1.0], 2.0);
        let b = QuadraticProgram::new(Matrix::diag(&[2.0, 2.0, 2.0]), vec![0.0, 0.0, -2.0])
            .unwrap()
            .equality(vec![1.0, 1.0, 0.0], 1.0);
        for _ in 0..3 {
            let sa = a.solve_with(&mut ws).unwrap();
            assert_near(sa.x()[0], 2.0);
            let sb = b.solve_with(&mut ws).unwrap();
            assert_near(sb.x()[2], 1.0);
            assert_near(sb.x()[0] + sb.x()[1], 1.0);
        }
    }

    #[test]
    fn rhs_and_gradient_mutators_retarget_cached_problem() {
        // min (x0−5)² + x1²  s.t. x1 = 0.5, x0 ≤ 2  → (2, 0.5)
        let mut qp = QuadraticProgram::new(Matrix::diag(&[2.0, 2.0]), vec![-10.0, 0.0])
            .unwrap()
            .equality(vec![0.0, 1.0], 0.5)
            .inequality(vec![1.0, 0.0], 2.0);
        let first = qp.solve().unwrap();
        assert_near(first.x()[0], 2.0);
        assert_near(first.x()[1], 0.5);
        // Move the target, the bound and the equality level: same skeleton,
        // new step data → (1, 1).
        qp.set_gradient(&[-2.0, 0.0]).unwrap();
        qp.set_inequality_rhs(&[5.0]).unwrap();
        qp.set_equality_rhs(&[1.0]).unwrap();
        let second = qp.solve().unwrap();
        assert_near(second.x()[0], 1.0);
        assert_near(second.x()[1], 1.0);
        // Length mismatches are rejected.
        assert!(qp.set_gradient(&[1.0]).is_err());
        assert!(qp.set_equality_rhs(&[]).is_err());
        assert!(qp.set_inequality_rhs(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn infeasible_warm_start_is_rejected() {
        let qp = QuadraticProgram::new(Matrix::diag(&[2.0]), vec![0.0])
            .unwrap()
            .inequality(vec![1.0], 1.0);
        assert!(matches!(qp.solve_from(&[5.0]), Err(Error::Infeasible)));
    }

    #[test]
    fn infeasible_constraints_are_reported() {
        let qp = QuadraticProgram::new(Matrix::diag(&[2.0]), vec![0.0])
            .unwrap()
            .equality(vec![1.0], 3.0)
            .inequality(vec![1.0], 1.0);
        assert!(matches!(qp.solve(), Err(Error::Infeasible)));
    }

    #[test]
    fn kkt_conditions_hold_at_solution() {
        let h = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let qp = QuadraticProgram::new(h.clone(), vec![1.0, -2.0])
            .unwrap()
            .inequality(vec![1.0, 0.0], 0.3)
            .inequality(vec![0.0, 1.0], 0.4)
            .equality(vec![1.0, 1.0], 0.5);
        let sol = qp.solve().unwrap();
        let x = sol.x();
        // Primal feasibility.
        assert!(qp.is_feasible(x, 1e-7));
        // Stationarity along the equality manifold: the projected gradient
        // onto the null space of active constraints must vanish. With the
        // equality x0+x1 = 0.5 and possibly one active bound, verify the
        // objective cannot be improved by feasible perturbations.
        let base = qp.objective_at(x);
        for eps in [1e-4, -1e-4] {
            let trial = [x[0] + eps, x[1] - eps];
            if qp.is_feasible(&trial, 1e-9) {
                assert!(qp.objective_at(&trial) >= base - 1e-9);
            }
        }
    }

    #[test]
    fn negative_rhs_feasible_point_found() {
        // Feasible region entirely in negative orthant: x ≤ −1, min (x+3)².
        let sol = QuadraticProgram::new(Matrix::diag(&[2.0]), vec![6.0])
            .unwrap()
            .inequality(vec![1.0], -1.0)
            .solve()
            .unwrap();
        assert_near(sol.x()[0], -3.0);
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        assert!(QuadraticProgram::new(Matrix::zeros(2, 3), vec![0.0, 0.0]).is_err());
        assert!(QuadraticProgram::new(Matrix::identity(2), vec![0.0]).is_err());
        let qp = QuadraticProgram::new(Matrix::identity(2), vec![0.0, 0.0])
            .unwrap()
            .equality(vec![1.0], 0.0);
        assert!(matches!(qp.solve(), Err(Error::DimensionMismatch { .. })));
    }

    fn nocedal_16_4_qp() -> QuadraticProgram {
        QuadraticProgram::new(Matrix::diag(&[2.0, 2.0]), vec![-2.0, -5.0])
            .unwrap()
            .inequality(vec![-1.0, 2.0], 2.0)
            .inequality(vec![1.0, 2.0], 6.0)
            .inequality(vec![1.0, -2.0], 2.0)
            .inequality(vec![-1.0, 0.0], 0.0)
            .inequality(vec![0.0, -1.0], 0.0)
    }

    #[test]
    fn prepared_solve_matches_unprepared() {
        let mut qp = nocedal_16_4_qp();
        let plain = qp.solve().unwrap();
        qp.prepare().unwrap();
        let fast = qp.solve().unwrap();
        assert_near(fast.x()[0], plain.x()[0]);
        assert_near(fast.x()[1], plain.x()[1]);
        assert_eq!(fast.active_set(), plain.active_set());
        // The prepared path builds the working-set factor incrementally.
        assert!(fast.stats().refactorizations >= 1);
    }

    #[test]
    fn batched_and_single_pivot_reach_same_optimum() {
        let mut batched = nocedal_16_4_qp();
        batched.prepare().unwrap();
        let mut reference = nocedal_16_4_qp().single_pivot(true);
        reference.prepare().unwrap();
        let b = batched.solve().unwrap();
        let s = reference.solve().unwrap();
        assert_near(b.x()[0], s.x()[0]);
        assert_near(b.x()[1], s.x()[1]);
        assert_near(b.objective(), s.objective());
        assert!(b.iterations() <= s.iterations());
    }

    #[test]
    fn forced_refactorization_triggers_stability_rebuild() {
        // min (x−5)² s.t. x ≤ 2: the bound binds with multiplier 6, so a
        // poisoned factor yields a large refinement correction and the
        // rebuild path must fire — while the answer stays exact.
        let mut qp = QuadraticProgram::new(Matrix::diag(&[2.0]), vec![-10.0])
            .unwrap()
            .inequality(vec![1.0], 2.0);
        qp.prepare().unwrap();
        let cold = qp.solve().unwrap();
        assert_near(cold.x()[0], 2.0);
        let mut ws = QpWorkspace::new();
        ws.force_refactor_next();
        let warm = qp.warm_start(cold.x(), cold.active_set(), &mut ws).unwrap();
        assert_near(warm.x()[0], 2.0);
        // Initial (poisoned) build plus the stability rebuild.
        assert!(
            warm.stats().refactorizations >= 2,
            "stats: {:?}",
            warm.stats()
        );
    }

    #[test]
    fn mpc_shaped_delta_u_problem() {
        // Two-variable ΔU with conservation equality Δu0 + Δu1 = 0 (total
        // workload unchanged), rate penalty Hessian, and a capacity bound.
        let qp = QuadraticProgram::new(Matrix::diag(&[2.0, 4.0]), vec![-4.0, 0.0])
            .unwrap()
            .equality(vec![1.0, 1.0], 0.0);
        // Unconstrained optimum on the manifold: min 3Δu0² − 4Δu0 → Δu0 = 2/3.
        let free = qp.clone().solve().unwrap();
        assert_near(free.x()[0], 2.0 / 3.0);
        assert_near(free.x()[1], -2.0 / 3.0);
        // A capacity bound below 2/3 must bind.
        let sol = qp.inequality(vec![1.0, 0.0], 0.5).solve().unwrap();
        assert_near(sol.x()[0], 0.5);
        assert_near(sol.x()[1], -0.5);
    }
}
