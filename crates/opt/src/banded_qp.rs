//! Structure-exploiting active-set solver for block-tridiagonal QPs.
//!
//! Solves the canonical convex QP
//!
//! ```text
//! minimize    ½ xᵀH x + gᵀx          (H symmetric positive definite)
//! subject to  A_eq x  = b_eq
//!             A_in x ≤ b_in
//! ```
//!
//! without ever forming a dense Hessian: `H` is a [`BlockTridiag`] (the
//! shape of the MPC problem in cumulative-input coordinates) and every
//! constraint row is sparse (stage-local). Four structural savings follow:
//!
//! 1. `H⁻¹·v` costs O(β·nb²) through the block Cholesky / Riccati recursion
//!    ([`BlockTridiagChol`]) instead of O((β·nb)²) dense back-substitution,
//! 2. the working-set Schur complement `S_W = C_W H⁻¹ C_Wᵀ` is maintained
//!    *incrementally* under working-set changes, and per independent chain
//!    of Hessian blocks: an inequality row that touches one chain has
//!    exact zeros in `S_W` against every other chain's rows, so `S_W` is an
//!    arrowhead matrix whose only dense block is the equality rows, and
//!    [`ArrowheadCholesky`] keeps one small factor per chain plus the
//!    equalities' reduced Schur complement. An add or drop costs
//!    O(b_j² + m_E·b_j + m_E²) for a chain of `b_j` working rows and `m_E`
//!    equalities, instead of a dense O(m²) — and a coupled `H` is one chain,
//!    which is the dense cost again. `prepare` fills and stores only what
//!    that factor reads of the full `S = C H⁻¹ Cᵀ`: one square block per
//!    chain, each inequality's equality couplings and the equalities'
//!    lower triangle,
//! 3. ratio tests, right-hand sides and the refinement residual `C_W·p`
//!    use sparse row dots, and
//! 4. each row of `Y = H̃⁻¹Cᵀ` is stored only over the span outside which
//!    it is exactly zero, so the `p −= Y_Wᵀλ` sweeps and the Schur fill
//!    touch only that span. When `H` splits into independent chains of
//!    blocks (the MPC Hessian ordered IDC-major: one chain per IDC), a row
//!    that touches one chain keeps its `Y` row inside that chain, and
//!    `prepare` solves each chain's inequality rows as one batch over that
//!    chain's blocks alone; only the equality rows, which couple the
//!    chains, sweep every block. A coupled `H` simply gives full spans.
//!
//! The outer iteration is the textbook primal active-set loop of
//! `active_set`: warm-start seeding, Dantzig/Bland switching and
//! degeneracy recovery live there, the KKT step solves live here.

use idc_linalg::banded::{BlockTridiag, BlockTridiagChol};
use idc_linalg::cholesky::ArrowheadCholesky;
use idc_linalg::par::default_threads;
use idc_linalg::workspace::Workspace;
use idc_linalg::{simd, vec_ops, SpanRows};

use crate::active_set::{self, ActiveSetOps, LoopScratch, QpSolution, WARM_TOL};
use crate::{Error, Result};

/// Relative size of the iterative-refinement correction above which the
/// incrementally up/downdated working-set factor is judged to have drifted
/// and is rebuilt from scratch.
const REBUILD_TOL: f64 = 1e-6;

/// A sparse constraint row: sorted-by-construction `(index, value)` pairs.
///
/// MPC constraint rows touch only one stage (and within it, often only one
/// IDC's portal entries), so rows carry a handful of nonzeros even when the
/// problem has hundreds of variables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseRow {
    entries: Vec<(usize, f64)>,
}

impl SparseRow {
    /// Creates an empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a row from `(index, value)` pairs.
    pub fn from_entries(entries: Vec<(usize, f64)>) -> Self {
        SparseRow { entries }
    }

    /// Appends a nonzero entry.
    pub fn push(&mut self, index: usize, value: f64) {
        self.entries.push((index, value));
    }

    /// The `(index, value)` pairs of this row.
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Dot product with a dense vector.
    pub fn dot(&self, v: &[f64]) -> f64 {
        self.entries.iter().map(|&(i, c)| c * v[i]).sum()
    }

    /// Largest referenced index, if any entry exists.
    fn max_index(&self) -> Option<usize> {
        self.entries.iter().map(|&(i, _)| i).max()
    }
}

/// Reusable scratch memory for [`BandedQp`] solves.
///
/// Holds the incrementally maintained working-set Cholesky factor plus all
/// per-iteration vectors, so a steady-state warm-started solve allocates
/// only the point and active set of the [`QpSolution`] it returns.
#[derive(Debug, Clone, Default)]
pub struct BandedWorkspace {
    /// Incremental arrowhead factor of the working-set Schur block `S_W`,
    /// in *factor order*: chain 0's working inequalities, …, the last
    /// chain's, then the equalities.
    factor: ArrowheadCholesky,
    /// The working inequalities the factor holds, in working order. Always
    /// a prefix of the working set: rows are appended in working order and
    /// leave with their working-set entry.
    held: Vec<usize>,
    /// Each chain's held inequalities in factor order, which is also their
    /// relative working order.
    chain_rows: Vec<Vec<usize>>,
    /// Per-chain cursor for mapping factor-order multipliers back to
    /// working order.
    cursor: Vec<usize>,
    /// `H̃⁻¹·g`, computed once per solve — the Newton point at any iterate
    /// is then `t = −x − H̃⁻¹g` with no Hessian multiply.
    tg: Vec<f64>,
    /// Newton point `t = H̃⁻¹·(−(Hx + g))`.
    t: Vec<f64>,
    /// Schur right-hand side `C_W·t`, solved in place into the multipliers
    /// (factor order).
    lam: Vec<f64>,
    /// Refinement residual `C_W·p`, solved in place into the correction.
    resid: Vec<f64>,
    /// Gather buffer for factor rows (a chain block, a row's chain column,
    /// or the equalities' block).
    col: Vec<f64>,
    /// Gather buffer for a chain block's equality couplings.
    coupling: Vec<f64>,
    /// Global constraint index of each working-system row in factor order,
    /// rebuilt once per KKT step so the row sweeps and residual dots skip
    /// the per-element mapping.
    cols: Vec<usize>,
    /// `H·x`, for the objective at the optimum.
    hx: Vec<f64>,
    /// The active-set loop's own buffers, reused across solves.
    scratch: LoopScratch,
    /// Iterative-refinement passes since `begin` (introspection only;
    /// drained into [`crate::SolveStats`] per solve).
    refinements: u64,
    /// Full (re)builds of the working-set factor since `begin`.
    refactorizations: u64,
    /// Incremental factor appends (constraint adds absorbed in place).
    updates: u64,
    /// Incremental factor row removals (constraint drops absorbed in place).
    downdates: u64,
    /// When set, the next factor build is deterministically poisoned so the
    /// stability-rebuild path must fire (fault injection).
    force_refactor: bool,
}

impl BandedWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Poisons the incremental working-set factor: the next factor build
    /// appends a deterministically corrupted row, forcing the refinement
    /// check to take the full stability-rebuild path. Used by the testkit's
    /// forced-refactorization fault kind.
    pub fn force_refactor_next(&mut self) {
        self.force_refactor = true;
    }
}

/// Precomputed factorizations shared by all solves of one problem skeleton.
#[derive(Debug, Clone)]
struct BandedCache {
    /// Block Cholesky factor of `H + εI`.
    chol: BlockTridiagChol,
    /// `Y` stored by constraint rows: row `r` is `H̃⁻¹·c_rᵀ`, kept only over
    /// the span outside which it is exactly zero, so the step
    /// `p = t − Y_Rᵀλ` accumulates over short contiguous rows. When `H̃`
    /// splits into independent chains of blocks and row `r` touches one
    /// chain, so does its `Y` row.
    y: SpanRows,
    /// The entries of `S = C·H̃⁻¹·Cᵀ` the working-set factor reads.
    s: SchurBlocks,
    /// Independent Hessian chain of each inequality row: `S` is exactly
    /// zero between inequality rows of different chains.
    chains: Vec<usize>,
    /// Number of chains.
    nchains: usize,
}

/// The parts of the Schur complement `S = C·H̃⁻¹·Cᵀ` that the arrowhead
/// working-set factor reads, entry `(r, q)` being `c_q·Y_r`: the
/// equalities' lower triangle, each inequality's couplings to the
/// equalities, and one square block per chain over its inequality rows.
/// Every other entry is either never read (the equality × inequality
/// triangle, mirrored by the couplings) or exactly zero (inequality pairs
/// of different chains).
#[derive(Debug, Clone, Default)]
struct SchurBlocks {
    /// `S[e, f]` for `f ≤ e`, packed by rows.
    eq: Vec<f64>,
    /// `S[m_E + i, 0..m_E]` of inequality `i`, at `i·m_E`.
    coupling: Vec<f64>,
    /// Each chain's block `S[m_E + i, m_E + q]` over its inequality rows
    /// in index order, row-major.
    blocks: Vec<f64>,
    /// Start of each chain's block in `blocks` and the chain's row count.
    block_at: Vec<(usize, usize)>,
    /// Position of each inequality among its chain's rows.
    local: Vec<usize>,
}

impl SchurBlocks {
    /// Inequality `i`'s couplings to the equalities.
    fn coupling(&self, i: usize, me: usize) -> &[f64] {
        &self.coupling[i * me..(i + 1) * me]
    }

    /// `S[m_E + i, m_E + q]` for inequalities `i` and `q` of chain `j`.
    fn pair(&self, j: usize, i: usize, q: usize) -> f64 {
        let (at, len) = self.block_at[j];
        self.blocks[at + self.local[i] * len + self.local[q]]
    }

    /// Number of stored entries.
    #[cfg(test)]
    fn stored(&self) -> usize {
        self.eq.len() + self.coupling.len() + self.blocks.len()
    }
}

/// A convex QP with block-tridiagonal Hessian and sparse constraint rows.
///
/// Built once per problem structure, then retargeted per solve (gradient
/// and right-hand sides) and warm-started; a solve costs
/// O(β·nb³ + m²·iters) instead of the dense O((β·nb)³ + m³·iters).
#[derive(Debug, Clone)]
pub struct BandedQp {
    h: BlockTridiag,
    g: Vec<f64>,
    a_eq: Vec<SparseRow>,
    b_eq: Vec<f64>,
    a_in: Vec<SparseRow>,
    b_in: Vec<f64>,
    max_iter: usize,
    single_pivot: bool,
    cache: Option<BandedCache>,
}

impl BandedQp {
    /// Starts a QP `min ½xᵀHx + gᵀx` with a block-tridiagonal Hessian.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `g.len()` differs from
    /// `h.dim()`.
    pub fn new(h: BlockTridiag, g: Vec<f64>) -> Result<Self> {
        if h.dim() != g.len() {
            return Err(Error::DimensionMismatch {
                what: format!(
                    "block-tridiagonal hessian of dimension {} incompatible with gradient of length {}",
                    h.dim(),
                    g.len()
                ),
            });
        }
        Ok(BandedQp {
            h,
            g,
            a_eq: Vec::new(),
            b_eq: Vec::new(),
            a_in: Vec::new(),
            b_in: Vec::new(),
            max_iter: 500,
            single_pivot: false,
            cache: None,
        })
    }

    /// Adds an equality constraint `rowᵀx = rhs`.
    pub fn equality(mut self, row: SparseRow, rhs: f64) -> Self {
        self.a_eq.push(row);
        self.b_eq.push(rhs);
        self.cache = None;
        self
    }

    /// Adds an inequality constraint `rowᵀx ≤ rhs`.
    pub fn inequality(mut self, row: SparseRow, rhs: f64) -> Self {
        self.a_in.push(row);
        self.b_in.push(rhs);
        self.cache = None;
        self
    }

    /// Overrides the iteration budget (the default scales as
    /// `max(500, 4·(variables + constraints))`).
    pub fn max_iterations(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Restricts the active-set loop to one constraint add/drop per outer
    /// iteration (the textbook reference semantics; batched pivoting is the
    /// default).
    pub fn single_pivot(mut self, yes: bool) -> Self {
        self.single_pivot = yes;
        self
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.g.len()
    }

    fn iteration_budget(&self) -> usize {
        self.max_iter
            .max(4 * (self.num_vars() + self.a_in.len() + self.a_eq.len()))
    }

    /// Replaces the gradient `g`, keeping the Hessian and constraints.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] on a length mismatch.
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
    /// Returns [`Error::DimensionMismatch`] on a length mismatch.
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
    /// Returns [`Error::DimensionMismatch`] on a length mismatch.
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
            .all(|(row, &b)| (row.dot(x) - b).abs() <= tol * scale)
            && self
                .a_in
                .iter()
                .zip(&self.b_in)
                .all(|(row, &b)| row.dot(x) - b <= tol * scale)
    }

    /// Objective value `½xᵀHx + gᵀx`.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        self.objective_in(x, &mut Vec::new())
    }

    /// [`objective_at`](Self::objective_at) with `H·x` formed in `hx`.
    fn objective_in(&self, x: &[f64], hx: &mut Vec<f64>) -> f64 {
        hx.clear();
        hx.resize(self.num_vars(), 0.0);
        self.h.mul_vec_into(x, hx);
        0.5 * vec_ops::dot(x, hx) + vec_ops::dot(&self.g, x)
    }

    fn validate(&self) -> Result<()> {
        let n = self.num_vars();
        for row in self.a_eq.iter().chain(&self.a_in) {
            if row.max_index().is_some_and(|i| i >= n) {
                return Err(Error::DimensionMismatch {
                    what: format!(
                        "sparse constraint row references index {} beyond {n} variables",
                        row.max_index().unwrap_or(0)
                    ),
                });
            }
        }
        Ok(())
    }

    /// Precomputes the block Cholesky of `H + εI`, the rows of
    /// `Y = H̃⁻¹Cᵀ` and the parts of the Schur complement `S = C·H̃⁻¹·Cᵀ`
    /// that the working-set factor reads.
    ///
    /// The equality rows couple the chains and are solved as one batch over
    /// every Hessian block; each chain's inequality rows are solved as one
    /// batch over that chain's blocks only.
    ///
    /// Called automatically by the solve entry points when needed; the cache
    /// survives gradient/rhs retargeting and is dropped when constraint rows
    /// are added.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] on malformed constraint rows.
    /// * [`Error::Numerical`] if the Hessian is not positive definite.
    pub fn prepare(&mut self) -> Result<()> {
        self.validate()?;
        let n = self.num_vars();
        let (me, mi) = (self.a_eq.len(), self.a_in.len());
        let mut pool = Workspace::new();
        let mut chol = match self.cache.take() {
            Some(c) => c.chol,
            None => BlockTridiagChol::new(),
        };
        // Factor H exactly when possible — the KKT step then reconstructs
        // the Newton point as `t = −x − H⁻¹g` without ever multiplying by
        // H, which keeps the per-iteration cost O(n + m²). Only when the
        // exact factorization breaks down fall back to a tiny ridge (the
        // solve then optimizes the εI-perturbed problem, indistinguishable
        // at solver tolerance).
        if chol.refactor(&self.h, &mut pool).is_err() {
            let mut ridged = self.h.clone();
            for t in 0..ridged.nblocks() {
                let nb = ridged.nb();
                let d = ridged.diag_mut(t);
                for i in 0..nb {
                    d[i * nb + i] += 1e-12;
                }
            }
            chol.refactor(&ridged, &mut pool)?;
        }
        let (chains, ranges) = self.inequality_chain_ids();
        let nchains = ranges.len();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); nchains];
        for (i, &j) in chains.iter().enumerate() {
            members[j].push(i);
        }
        // Each batch is one multi-RHS sweep: the stage-coupling corrections
        // go through GEMM. The equality rows, which span every block, are
        // banded across worker threads; a chain's batch is small enough
        // that spawning threads for it costs more than it saves, so it runs
        // on the caller's thread (the solve is bitwise independent of the
        // thread count). A chain's range is bounded by zero subdiagonal
        // blocks, so its rows solve at the chain's width exactly as they
        // would at full width (the rest of a full-width row is ±0).
        let mut y = SpanRows::new(me + mi, n);
        let mut buf = Vec::new();
        let equalities: Vec<usize> = (0..me).collect();
        self.solve_batch(
            &chol,
            &equalities,
            (0, chol.nblocks()),
            default_threads(),
            (&mut buf, &mut pool),
            &mut y,
        );
        for (rows, &range) in members.iter().zip(&ranges) {
            let global: Vec<usize> = rows.iter().map(|&i| me + i).collect();
            self.solve_batch(&chol, &global, range, 1, (&mut buf, &mut pool), &mut y);
        }
        let s = self.schur_blocks(&y, &members);
        self.cache = Some(BandedCache {
            chol,
            y,
            s,
            chains,
            nchains,
        });
        Ok(())
    }

    /// Solves the constraint rows `rows` (global indices) against the
    /// factor's blocks `first..end` as one batch on up to `threads`
    /// threads, storing each `Y` row over its nonzero span. Every row's
    /// entries must lie inside the range.
    fn solve_batch(
        &self,
        chol: &BlockTridiagChol,
        rows: &[usize],
        (first, end): (usize, usize),
        threads: usize,
        (buf, pool): (&mut Vec<f64>, &mut Workspace),
        y: &mut SpanRows,
    ) {
        if rows.is_empty() {
            return;
        }
        let nb = self.h.nb();
        let (off, width) = (first * nb, (end - first) * nb);
        buf.clear();
        buf.resize(rows.len() * width, 0.0);
        for (row, &r) in buf.chunks_exact_mut(width).zip(rows) {
            for &(i, c) in self.crow(r).entries() {
                row[i - off] += c;
            }
        }
        chol.solve_rows_with_threads(buf, rows.len(), first, end - first, pool, threads);
        for (row, &r) in buf.chunks_exact(width).zip(rows) {
            let (lo, hi) = nonzero_span(row);
            y.set_row(r, off + lo, &row[lo..hi]);
        }
    }

    /// Fills the Schur entries the working-set factor reads (see
    /// [`SchurBlocks`]) from the `Y` rows, given each chain's inequality
    /// rows in index order. Each dot `S[r, q] = c_q·Y_r` runs over row
    /// `q`'s entries inside `Y_r`'s span; the others meet exact zeros.
    fn schur_blocks(&self, y: &SpanRows, members: &[Vec<usize>]) -> SchurBlocks {
        let me = self.a_eq.len();
        let entry = |r: usize, q: usize| -> f64 {
            let (lo, hi) = y.span(r);
            let yrow = y.row(r);
            self.crow(q)
                .entries()
                .iter()
                .filter(|&&(i, _)| lo <= i && i < hi)
                .map(|&(i, c)| c * yrow[i - lo])
                .sum()
        };
        let mut s = SchurBlocks {
            local: vec![0; self.a_in.len()],
            ..SchurBlocks::default()
        };
        for e in 0..me {
            s.eq.extend((0..=e).map(|f| entry(e, f)));
        }
        for i in 0..self.a_in.len() {
            s.coupling.extend((0..me).map(|e| entry(me + i, e)));
        }
        for rows in members {
            s.block_at.push((s.blocks.len(), rows.len()));
            for (k, &i) in rows.iter().enumerate() {
                s.local[i] = k;
                s.blocks.extend(rows.iter().map(|&q| entry(me + i, me + q)));
            }
        }
        s
    }

    /// Splits the inequality rows into independent chains. A chain is a
    /// maximal run of Hessian blocks joined by nonzero subdiagonal blocks;
    /// runs that one inequality row spans are merged (union-find). Then
    /// `H̃⁻¹` is block diagonal over the chains, and so is the inequality
    /// part of `S = C·H̃⁻¹·Cᵀ`. Returns each row's chain, numbered in
    /// block order (an empty row joins chain 0), and each chain's block
    /// range `first..end`, from its first run's first block to its last
    /// run's end (at least one chain). A merged chain's range also covers
    /// the runs between its own; its rows are zero there.
    fn inequality_chain_ids(&self) -> (Vec<usize>, Vec<(usize, usize)>) {
        let nb = self.h.nb();
        let mut run = Vec::with_capacity(self.h.nblocks());
        let mut run_ends = Vec::new();
        for t in 0..self.h.nblocks() {
            if t > 0 && self.h.sub(t - 1).iter().all(|&v| v == 0.0) {
                run_ends.push(t);
            }
            run.push(run_ends.len());
        }
        run_ends.push(self.h.nblocks());
        let runs = run_ends.len();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut parent: Vec<usize> = (0..runs).collect();
        for row in &self.a_in {
            let mut blocks = row.entries().iter().map(|&(i, _)| run[i / nb]);
            if let Some(first) = blocks.next() {
                let mut root = find(&mut parent, first);
                for r in blocks {
                    let other = find(&mut parent, r);
                    if other != root {
                        let (lo, hi) = (root.min(other), root.max(other));
                        parent[hi] = lo;
                        root = lo;
                    }
                }
            }
        }
        // Roots are the smallest run of their chain, so labelling in run
        // order numbers the chains in block order.
        let mut label = vec![usize::MAX; runs];
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        for r in 0..runs {
            let root = find(&mut parent, r);
            if root == r {
                label[r] = ranges.len();
                ranges.push((if r == 0 { 0 } else { run_ends[r - 1] }, run_ends[r]));
            } else {
                ranges[label[root]].1 = run_ends[r];
            }
        }
        let chains = self
            .a_in
            .iter()
            .map(|row| {
                row.entries()
                    .first()
                    .map_or(0, |&(i, _)| label[find(&mut parent, run[i / nb])])
            })
            .collect();
        (chains, ranges)
    }

    /// The independent Hessian chain of each inequality row, as derived by
    /// [`prepare`](Self::prepare) (`None` before it): the working-set
    /// factor keeps one block per chain. Rows of different chains have
    /// exact zeros between them in the Schur complement `C·H̃⁻¹·Cᵀ`.
    pub fn inequality_chains(&self) -> Option<&[usize]> {
        self.cache.as_ref().map(|c| c.chains.as_slice())
    }

    /// The Hessian `H`.
    pub fn hessian(&self) -> &BlockTridiag {
        &self.h
    }

    /// The constraint rows in global order: equalities, then inequalities.
    pub fn rows(&self) -> impl Iterator<Item = &SparseRow> {
        self.a_eq.iter().chain(&self.a_in)
    }

    /// Constraint row `gr` in global ordering (equalities first).
    fn crow(&self, gr: usize) -> &SparseRow {
        if gr < self.a_eq.len() {
            &self.a_eq[gr]
        } else {
            &self.a_in[gr - self.a_eq.len()]
        }
    }

    /// Solves the program from the feasible point `x0`, with the working
    /// set seeded from `active_set` (typically the previous solve's
    /// [`QpSolution::active_set`]; empty for a cold solve), reusing `ws`'s
    /// scratch memory. The solver never searches for a feasible point
    /// itself: the caller supplies one, as the MPC controller does with its
    /// warm-start repair.
    ///
    /// # Errors
    ///
    /// * [`Error::Infeasible`] if `x0` violates the constraints by more than
    ///   the internal tolerance.
    /// * [`Error::IterationLimit`] if the active-set loop fails to converge.
    /// * [`Error::DimensionMismatch`] on malformed constraint rows or a
    ///   starting point of the wrong length.
    /// * [`Error::Numerical`] if the Hessian or a KKT system is singular
    ///   beyond recovery.
    pub fn warm_start(
        &mut self,
        x0: &[f64],
        active_set: &[usize],
        ws: &mut BandedWorkspace,
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
        if self.cache.is_none() {
            self.prepare()?;
        }
        let mut scratch = std::mem::take(&mut ws.scratch);
        let result = {
            let mut ops = BandedOps { qp: self, ws };
            active_set::solve_from_feasible(&mut ops, x0, active_set, &mut scratch)
        };
        ws.scratch = scratch;
        result
    }
}

/// The range `lo..hi` from the first to one past the last nonzero of `row`
/// (`(0, 0)` for an all-zero row).
fn nonzero_span(row: &[f64]) -> (usize, usize) {
    match row.iter().position(|&v| v != 0.0) {
        Some(lo) => (
            lo,
            row.iter().rposition(|&v| v != 0.0).map_or(lo, |h| h + 1),
        ),
        None => (0, 0),
    }
}

/// Banded backend for the shared `active_set` loop.
///
/// The Newton point `t = H̃⁻¹(−(Hx+g))` is recomputed each iteration through
/// the O(β·nb²) banded solve (cheap enough that incremental tracking is not
/// worth the drift risk), while the working-set Schur factor is maintained
/// incrementally across iterations through the `on_*` hooks.
struct BandedOps<'a> {
    qp: &'a BandedQp,
    ws: &'a mut BandedWorkspace,
}

impl<'a> BandedOps<'a> {
    fn cache(&self) -> &'a BandedCache {
        self.qp.cache.as_ref().expect("prepared by warm_start")
    }

    /// Empties the working-set factor (it holds nothing, not even the
    /// equalities, until the next build).
    fn reset_factor(&mut self) {
        let nchains = self.cache().nchains;
        let ws = &mut *self.ws;
        ws.factor.reset(nchains, self.qp.a_eq.len());
        ws.held.clear();
        ws.chain_rows.resize_with(nchains, Vec::new);
        for rows in &mut ws.chain_rows {
            rows.clear();
        }
    }

    /// Extends the incremental factor until it holds every row of the
    /// current working system, gathering entries from the precomputed
    /// Schur blocks.
    ///
    /// A build of an empty factor counts as a refactorization: every chain
    /// block and then the equalities' block in one blocked pass each,
    /// falling back to the equalities plus row-by-row appends on failure so
    /// the error points at the first bad row. Appends to a built factor go
    /// one row at a time, in working order, and count as incremental
    /// updates. Returns whether a pending poison was consumed by this build
    /// (the caller must then rebuild before using the factor's solution).
    fn ensure_factor(&mut self, working: &[usize]) -> Result<bool> {
        // Consume a pending poison request: corrupt the first row of a
        // fresh build so the caller's stability-rebuild path must fire
        // (deterministic fault injection).
        let poison = self.ws.force_refactor && self.qp.a_eq.len() + working.len() > 0;
        if poison {
            self.ws.force_refactor = false;
            self.reset_factor();
        }
        let from_scratch = !self.ws.factor.is_built();
        if from_scratch {
            self.ws.refactorizations += 1;
            if self.build_blocked(working, poison).is_ok() {
                return Ok(poison);
            }
            // Start over from the equalities alone; the appends below then
            // stop at the first bad row.
            self.reset_factor();
            self.build_blocked(&[], false).map_err(Error::from)?;
        }
        while self.ws.held.len() < working.len() {
            self.append_row(working[self.ws.held.len()])?;
            if !from_scratch {
                self.ws.updates += 1;
            }
        }
        Ok(poison)
    }

    /// Builds the empty factor over `working` in blocked passes (over the
    /// equalities alone when `working` is empty). A poisoned
    /// build doubles the diagonal of the first working-system row (the
    /// first equality, else the first working inequality): the factor stays
    /// positive definite, so nothing fails, but it is wrong by O(1).
    fn build_blocked(&mut self, working: &[usize], poison: bool) -> idc_linalg::Result<()> {
        let me = self.qp.a_eq.len();
        let cache = self.cache();
        let ws = &mut *self.ws;
        for &i in working {
            ws.chain_rows[cache.chains[i]].push(i);
        }
        for (j, rows) in ws.chain_rows.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            ws.col.clear();
            ws.coupling.clear();
            for (a, &i) in rows.iter().enumerate() {
                ws.col
                    .extend(rows[..=a].iter().map(|&q| cache.s.pair(j, i, q)));
                ws.coupling.extend_from_slice(cache.s.coupling(i, me));
            }
            if poison && me == 0 && rows[0] == working[0] {
                ws.col[0] *= 2.0;
            }
            ws.factor
                .build_chain(j, rows.len(), &ws.col, &ws.coupling)?;
        }
        ws.col.clear();
        ws.col.extend_from_slice(&cache.s.eq);
        if poison && me > 0 {
            ws.col[0] *= 2.0;
        }
        ws.factor.build_tail(&ws.col)?;
        ws.held.extend_from_slice(working);
        Ok(())
    }

    /// Appends working inequality `i` to the end of its chain.
    ///
    /// # Errors
    ///
    /// [`Error::Numerical`] with the factor unchanged when the row is
    /// numerically dependent on the rows held (the outer loop then pops the
    /// degenerate addition).
    fn append_row(&mut self, i: usize) -> Result<()> {
        let me = self.qp.a_eq.len();
        let cache = self.cache();
        let ws = &mut *self.ws;
        let j = cache.chains[i];
        ws.col.clear();
        ws.col
            .extend(ws.chain_rows[j].iter().map(|&q| cache.s.pair(j, i, q)));
        ws.col.push(cache.s.pair(j, i, i));
        ws.factor
            .append(j, &ws.col, cache.s.coupling(i, me))
            .map_err(Error::from)?;
        ws.chain_rows[j].push(i);
        ws.held.push(i);
        Ok(())
    }

    /// Solves the working system from the current factor: `λ = S_W⁻¹·C_W·t`
    /// and `p = t − Y_Wᵀλ` into `sol[..n]`, then one pass of iterative
    /// refinement, all in factor order. The residual is taken from the step
    /// as `r = C_W·p` (sparse row dots, O(nnz)); since `C_W·Y_Wᵀ = S_W`, it
    /// equals `C_W·t − S_W·λ` without touching the Schur block. The
    /// correction `δ = S_W⁻¹·r` updates both `λ += δ` and `p −= Y_Wᵀδ`.
    /// Returns `‖δ‖∞`.
    fn solve_refined(&mut self, sol: &mut Vec<f64>) -> f64 {
        let cache = self.cache();
        let ws = &mut *self.ws;
        ws.lam.clear();
        ws.lam
            .extend(ws.cols.iter().map(|&gr| self.qp.crow(gr).dot(&ws.t)));
        ws.factor.solve_in_place(&mut ws.lam);
        sol.clear();
        sol.extend_from_slice(&ws.t);
        simd::axpy_rows(-1.0, &cache.y, &ws.cols, &ws.lam, sol);
        ws.resid.clear();
        ws.resid
            .extend(ws.cols.iter().map(|&gr| self.qp.crow(gr).dot(sol)));
        ws.factor.solve_in_place(&mut ws.resid);
        for (l, &d) in ws.lam.iter_mut().zip(&ws.resid) {
            *l += d;
        }
        simd::axpy_rows(-1.0, &cache.y, &ws.cols, &ws.resid, sol);
        ws.refinements += 1;
        vec_ops::norm_inf(&ws.resid)
    }
}

impl ActiveSetOps for BandedOps<'_> {
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
        self.qp.a_in[i].dot(v)
    }

    fn in_rhs(&self, i: usize) -> f64 {
        self.qp.b_in[i]
    }

    fn objective_at(&mut self, x: &[f64]) -> f64 {
        self.qp.objective_in(x, &mut self.ws.hx)
    }

    fn begin(&mut self, _working: &[usize]) {
        self.ws.refinements = 0;
        self.ws.refactorizations = 0;
        self.ws.updates = 0;
        self.ws.downdates = 0;
        // (`force_refactor` deliberately survives: it is armed between
        // solves and consumed by the first factor build.)
        self.reset_factor();
        // One banded solve per call amortizes the Newton point across the
        // whole active-set iteration: t(x) = −x − H̃⁻¹g for the fixed g.
        let cache = self.cache();
        self.ws.tg.clear();
        self.ws.tg.extend_from_slice(&self.qp.g);
        cache.chol.solve_in_place(&mut self.ws.tg);
    }

    fn on_remove(&mut self, _working: &[usize], pos: usize) {
        if pos >= self.ws.held.len() {
            return;
        }
        let i = self.ws.held.remove(pos);
        let j = self.cache().chains[i];
        let rows = &mut self.ws.chain_rows[j];
        let k = rows
            .iter()
            .position(|&q| q == i)
            .expect("a held row is in its chain");
        rows.remove(k);
        self.ws.factor.remove(j, k);
        self.ws.downdates += 1;
    }

    fn on_pop(&mut self, working: &[usize]) {
        // The popped entry sat at position `working.len()`.
        self.on_remove(working, working.len());
    }

    fn kkt_step(&mut self, x: &[f64], working: &[usize], sol: &mut Vec<f64>) -> Result<()> {
        let me = self.qp.a_eq.len();
        // t = H̃⁻¹(−(Hx + g)) = −x − H̃⁻¹g, with H̃⁻¹g precomputed in
        // `begin` — no Hessian multiply or banded solve per iteration.
        self.ws.t.clear();
        self.ws
            .t
            .extend(x.iter().zip(&self.ws.tg).map(|(&xi, &ti)| -xi - ti));
        sol.clear();
        if me + working.len() == 0 {
            sol.extend_from_slice(&self.ws.t);
            return Ok(());
        }
        let poisoned = self.ensure_factor(working)?;
        let ws = &mut *self.ws;
        ws.cols.clear();
        for rows in &ws.chain_rows {
            ws.cols.extend(rows.iter().map(|&i| me + i));
        }
        ws.cols.extend(0..me);
        // λ and p from the incrementally maintained factor, plus one step
        // of iterative refinement against the residual of the step itself.
        let correction = self.solve_refined(sol);
        // Stability rebuild: a large correction means the up/downdated
        // factor has drifted from the true working block. Rebuild from
        // scratch and re-solve (once per KKT step). A poisoned build
        // rebuilds unconditionally — one refinement pass shrinks the
        // multiplier error but need not reach solver tolerance, and inexact
        // λ makes the step leave the equality manifold. The rebuilt factor
        // holds the same rows in the same order, so `cols` stands.
        if poisoned || correction > REBUILD_TOL * (1.0 + vec_ops::norm_inf(&self.ws.lam)) {
            self.reset_factor();
            self.ensure_factor(working)?;
            self.solve_refined(sol);
        }
        // Multipliers leave in working order: equalities (the factor's
        // tail), then each working inequality from its chain's block.
        let chains = &self.cache().chains;
        let ws = &mut *self.ws;
        let nin = working.len();
        sol.extend_from_slice(&ws.lam[nin..]);
        ws.cursor.clear();
        let mut start = 0;
        for rows in &ws.chain_rows {
            ws.cursor.push(start);
            start += rows.len();
        }
        for &i in working {
            let at = &mut ws.cursor[chains[i]];
            sol.push(ws.lam[*at]);
            *at += 1;
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use idc_linalg::lu::Lu;
    use idc_linalg::Matrix;

    fn pseudo(seed: &mut u64) -> f64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((seed.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    /// Random SPD block-tridiagonal Hessian.
    fn random_h(nb: usize, t: usize, seed: &mut u64) -> BlockTridiag {
        let mut h = BlockTridiag::new(nb, t);
        for bt in 0..t.saturating_sub(1) {
            for v in h.sub_mut(bt) {
                *v = 0.3 * pseudo(seed);
            }
        }
        for bt in 0..t {
            let d = h.diag_mut(bt);
            for i in 0..nb {
                for j in 0..i {
                    let v = 0.3 * pseudo(seed);
                    d[i * nb + j] = v;
                    d[j * nb + i] = v;
                }
                d[i * nb + i] = 2.0 * nb as f64 + pseudo(seed).abs();
            }
        }
        h
    }

    /// Dense copy of a block-tridiagonal matrix.
    fn densify(h: &BlockTridiag) -> Matrix {
        let (nb, t) = (h.nb(), h.nblocks());
        let mut dense = Matrix::zeros(nb * t, nb * t);
        for bt in 0..t {
            for i in 0..nb {
                for j in 0..nb {
                    dense[(bt * nb + i, bt * nb + j)] = h.diag(bt)[i * nb + j];
                }
            }
        }
        for bt in 0..t.saturating_sub(1) {
            for i in 0..nb {
                for j in 0..nb {
                    let v = h.sub(bt)[i * nb + j];
                    dense[((bt + 1) * nb + i, bt * nb + j)] = v;
                    dense[(bt * nb + j, (bt + 1) * nb + i)] = v;
                }
            }
        }
        dense
    }

    /// A random problem with stage-local equality rows and bound-style
    /// inequalities.
    fn random_problem(nb: usize, t: usize, seed: &mut u64) -> BandedQp {
        let h = random_h(nb, t, seed);
        let n = nb * t;
        let g: Vec<f64> = (0..n).map(|_| 8.0 * pseudo(seed)).collect();
        let mut qp = BandedQp::new(h, g).unwrap();
        // One stage-sum equality per stage.
        for bt in 0..t {
            let row = SparseRow::from_entries((0..nb).map(|i| (bt * nb + i, 1.0)).collect());
            qp = qp.equality(row, 0.15 * pseudo(seed));
        }
        // Upper bounds on every variable: each stage's bounds sum past the
        // largest equality level (feasible), yet some bind at the optimum.
        for i in 0..n {
            let b = 0.1 + 0.2 * pseudo(seed).abs();
            qp = qp.inequality(SparseRow::from_entries(vec![(i, 1.0)]), b);
        }
        qp
    }

    /// The start the generators above make feasible by construction: each
    /// equality row's level spread evenly over its unit entries (every
    /// variable sits in exactly one equality row). The levels are small
    /// enough that the spread stays inside every bound.
    fn centre(qp: &BandedQp) -> Vec<f64> {
        let mut x = vec![0.0; qp.num_vars()];
        for (row, &b) in qp.a_eq.iter().zip(&qp.b_eq) {
            let k = row.entries().len() as f64;
            for &(i, _) in row.entries() {
                x[i] = b / k;
            }
        }
        x
    }

    /// Solves `qp` cold: from [`centre`] with no seed.
    fn cold_solve(qp: &mut BandedQp, ws: &mut BandedWorkspace) -> QpSolution {
        let x0 = centre(qp);
        qp.warm_start(&x0, &[], ws).unwrap()
    }

    /// A one-stage problem `min ½xᵀHx + gᵀx` over a dense Hessian.
    fn one_block(h: &[&[f64]], g: Vec<f64>) -> BandedQp {
        let nb = g.len();
        let mut bt = BlockTridiag::new(nb, 1);
        for (i, row) in h.iter().enumerate() {
            bt.diag_mut(0)[i * nb..(i + 1) * nb].copy_from_slice(row);
        }
        BandedQp::new(bt, g).unwrap()
    }

    /// The same problem posed densely: one block holding every variable,
    /// so its Hessian factor and Schur complement share no band structure
    /// with the original's.
    fn densified(qp: &BandedQp) -> BandedQp {
        let n = qp.num_vars();
        let h = densify(&qp.h);
        let mut one = BlockTridiag::new(n, 1);
        for i in 0..n {
            for j in 0..n {
                one.diag_mut(0)[i * n + j] = h[(i, j)];
            }
        }
        let mut dense = BandedQp::new(one, qp.g.clone()).unwrap();
        for (crow, &b) in qp.a_eq.iter().zip(&qp.b_eq) {
            dense = dense.equality(crow.clone(), b);
        }
        for (crow, &b) in qp.a_in.iter().zip(&qp.b_in) {
            dense = dense.inequality(crow.clone(), b);
        }
        dense
    }

    /// A sparse row from dense coefficients.
    fn row(coeffs: &[f64]) -> SparseRow {
        SparseRow::from_entries(
            coeffs
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0.0)
                .map(|(i, &c)| (i, c))
                .collect(),
        )
    }

    /// Optimality certificate that shares nothing with the active-set
    /// loop: at the returned active set `W`, solve the dense KKT system
    /// `[H Eᵀ A_Wᵀ; E 0 0; A_W 0 0]·[x; ν; λ] = [−g; b_eq; b_W]` by LU, then
    /// require that it reproduces the returned point, that the
    /// stationarity residual `Hx + g + Eᵀν + A_Wᵀλ` vanishes there, that
    /// every working multiplier is non-negative and that the point is
    /// primal feasible.
    fn assert_kkt(qp: &BandedQp, sol: &QpSolution) {
        let n = qp.num_vars();
        let me = qp.a_eq.len();
        let w = sol.active_set();
        let dim = n + me + w.len();
        let h = densify(&qp.h);
        let mut kkt = Matrix::zeros(dim, dim);
        let mut rhs = vec![0.0; dim];
        for i in 0..n {
            for j in 0..n {
                kkt[(i, j)] = h[(i, j)];
            }
            rhs[i] = -qp.g[i];
        }
        let rows = qp
            .a_eq
            .iter()
            .zip(&qp.b_eq)
            .chain(w.iter().map(|&i| (&qp.a_in[i], &qp.b_in[i])));
        for (r, (crow, &b)) in rows.enumerate() {
            for &(i, c) in crow.entries() {
                kkt[(n + r, i)] += c;
                kkt[(i, n + r)] += c;
            }
            rhs[n + r] = b;
        }
        let z = Lu::factor(&kkt).unwrap().solve(&rhs).unwrap();
        let x = sol.x();
        let scale = 1.0 + vec_ops::norm_inf(&z);
        for i in 0..n {
            assert!(
                (z[i] - x[i]).abs() <= 1e-7 * scale,
                "x[{i}]: {} vs {}",
                z[i],
                x[i]
            );
            let stationarity: f64 = (0..n).map(|j| h[(i, j)] * x[j]).sum::<f64>()
                + qp.g[i]
                + (n..dim).map(|r| kkt[(r, i)] * z[r]).sum::<f64>();
            assert!(
                stationarity.abs() <= 1e-7 * scale,
                "stationarity[{i}] = {stationarity}"
            );
        }
        for (k, &lam) in z[n + me..].iter().enumerate() {
            assert!(
                lam >= -1e-7 * scale,
                "multiplier of constraint {} is {lam}",
                w[k]
            );
        }
        assert!(qp.is_feasible(x, 1e-9), "primal infeasible: {x:?}");
    }

    #[test]
    fn satisfies_kkt_certificate_on_random_problems() {
        let mut seed = 0xdead_beefu64;
        let mut binding = 0;
        for &(nb, t) in &[(2usize, 2usize), (3, 3), (4, 5)] {
            let mut qp = random_problem(nb, t, &mut seed);
            let sol = cold_solve(&mut qp, &mut BandedWorkspace::new());
            assert_kkt(&qp, &sol);
            binding += sol.active_set().len();
        }
        assert!(
            binding > 0,
            "no bound binds: the certificate saw no multipliers"
        );
    }

    #[test]
    fn warm_start_replays_cold_active_set() {
        let mut seed = 0x1357u64;
        let mut qp = random_problem(3, 4, &mut seed);
        let mut ws = BandedWorkspace::new();
        let cold = cold_solve(&mut qp, &mut ws);
        let warm = qp.warm_start(cold.x(), cold.active_set(), &mut ws).unwrap();
        assert!((warm.objective() - cold.objective()).abs() < 1e-8);
        assert!(
            warm.iterations() <= 3,
            "warm restart took {}",
            warm.iterations()
        );
        assert_eq!(warm.active_set(), cold.active_set());
        // Garbage seed entries (out of range, duplicated) are tolerated.
        let mut sloppy_seed = vec![999];
        sloppy_seed.extend(cold.active_set().iter().flat_map(|&i| [i, i]));
        let sloppy = qp.warm_start(cold.x(), &sloppy_seed, &mut ws).unwrap();
        assert!((sloppy.objective() - cold.objective()).abs() < 1e-8);
    }

    #[test]
    fn warm_start_replays_dense_active_set() {
        let mut seed = 0x1357u64;
        let mut banded = random_problem(3, 4, &mut seed);
        let mut dense = densified(&banded);
        let dense_sol = cold_solve(&mut dense, &mut BandedWorkspace::new());
        assert_kkt(&dense, &dense_sol);
        let warm = banded
            .warm_start(
                dense_sol.x(),
                dense_sol.active_set(),
                &mut BandedWorkspace::new(),
            )
            .unwrap();
        assert!((warm.objective() - dense_sol.objective()).abs() < 1e-8);
        assert!(
            warm.iterations() <= 3,
            "warm restart took {}",
            warm.iterations()
        );
        assert_eq!(warm.active_set(), dense_sol.active_set());
    }

    #[test]
    fn workspace_reuse_and_rhs_retargeting() {
        let mut seed = 0x2468u64;
        let mut qp = random_problem(2, 3, &mut seed);
        let mut ws = BandedWorkspace::new();
        let first = cold_solve(&mut qp, &mut ws);
        // Retarget gradient and rhs, resolve warm from the previous
        // optimum's active set, and compare with a fresh cold solve.
        let n = qp.num_vars();
        let g2: Vec<f64> = (0..n).map(|_| 2.0 * pseudo(&mut seed)).collect();
        qp.set_gradient(&g2).unwrap();
        let eq2: Vec<f64> = (0..3).map(|_| 0.15 * pseudo(&mut seed)).collect();
        qp.set_equality_rhs(&eq2).unwrap();
        let fresh = cold_solve(&mut qp.clone(), &mut BandedWorkspace::new());
        let sb = qp
            .warm_start(fresh.x(), first.active_set(), &mut ws)
            .unwrap();
        assert!(
            (sb.objective() - fresh.objective()).abs() / (1.0 + fresh.objective().abs()) <= 1e-8
        );
        assert_kkt(&qp, &sb);
        // Length mismatches are rejected.
        assert!(qp.set_gradient(&[1.0]).is_err());
        assert!(qp.set_equality_rhs(&[]).is_err());
        assert!(qp.set_inequality_rhs(&[1.0]).is_err());
    }

    #[test]
    fn infeasible_start_and_bad_rows_are_rejected() {
        let h = random_h(2, 2, &mut 5u64);
        let mut qp = BandedQp::new(h, vec![0.0; 4])
            .unwrap()
            .inequality(SparseRow::from_entries(vec![(0, 1.0)]), 1.0);
        let mut ws = BandedWorkspace::new();
        assert!(matches!(
            qp.warm_start(&[5.0, 0.0, 0.0, 0.0], &[], &mut ws),
            Err(Error::Infeasible)
        ));
        assert!(matches!(
            qp.warm_start(&[0.0], &[], &mut ws),
            Err(Error::DimensionMismatch { .. })
        ));
        let h2 = random_h(2, 2, &mut 6u64);
        let mut bad = BandedQp::new(h2, vec![0.0; 4])
            .unwrap()
            .inequality(SparseRow::from_entries(vec![(9, 1.0)]), 1.0);
        assert!(matches!(
            bad.warm_start(&[0.0; 4], &[], &mut ws),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let h = BlockTridiag::new(2, 1);
        assert!(matches!(
            BandedQp::new(h.clone(), vec![0.0]),
            Err(Error::DimensionMismatch { .. })
        ));
        let mut qp = one_block(&[&[1.0, 0.0], &[0.0, 1.0]], vec![0.0, 0.0])
            .equality(SparseRow::from_entries(vec![(2, 1.0)]), 0.0);
        assert!(matches!(
            qp.warm_start(&[0.0, 0.0], &[], &mut BandedWorkspace::new()),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn nocedal_wright_example_16_4() {
        // min (x0−1)² + (x1−2.5)²
        // s.t. −x0 + 2x1 ≤ 2; x0 + 2x1 ≤ 6; x0 − 2x1 ≤ 2; x ≥ 0.
        // Optimum (1.4, 1.7) with the first constraint active.
        let mut qp = one_block(&[&[2.0, 0.0], &[0.0, 2.0]], vec![-2.0, -5.0])
            .inequality(row(&[-1.0, 2.0]), 2.0)
            .inequality(row(&[1.0, 2.0]), 6.0)
            .inequality(row(&[1.0, -2.0]), 2.0)
            .inequality(row(&[-1.0, 0.0]), 0.0)
            .inequality(row(&[0.0, -1.0]), 0.0);
        let sol = qp
            .warm_start(&[0.0, 0.0], &[], &mut BandedWorkspace::new())
            .unwrap();
        assert_near(sol.x()[0], 1.4);
        assert_near(sol.x()[1], 1.7);
        assert_eq!(sol.active_set(), &[0]);
        assert_kkt(&qp, &sol);
        // The textbook start: x0 = (2, 0) with constraints 3 and 5 (here 2
        // and 4) working. Both must be dropped on the way to the optimum.
        let textbook = qp
            .warm_start(&[2.0, 0.0], &[2, 4], &mut BandedWorkspace::new())
            .unwrap();
        assert_near(textbook.x()[0], 1.4);
        assert_near(textbook.x()[1], 1.7);
        assert!(
            textbook.stats().constraints_dropped >= 2,
            "stats: {:?}",
            textbook.stats()
        );
        assert_kkt(&qp, &textbook);
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
        let mut qp = one_block(&[&[2.0, 0.0], &[0.0, 2.0]], vec![0.0, -2000.0])
            .inequality(row(&[1.0, 0.0]), 0.0)
            .inequality(row(&[1.0, 1e-10]), -1e-12)
            .inequality(row(&[0.0, 1.0]), 500.0);
        let sol = qp
            .warm_start(&[0.0, 0.0], &[0], &mut BandedWorkspace::new())
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
    fn infeasible_constraints_are_reported() {
        // x = 3 and x ≤ 1 cannot both hold, so every start is rejected.
        let mut qp = one_block(&[&[2.0]], vec![0.0])
            .equality(row(&[1.0]), 3.0)
            .inequality(row(&[1.0]), 1.0);
        for x0 in [3.0, 1.0, 0.0] {
            assert!(matches!(
                qp.warm_start(&[x0], &[], &mut BandedWorkspace::new()),
                Err(Error::Infeasible)
            ));
        }
    }

    #[test]
    fn negative_rhs_feasible_point_found() {
        // Feasible region entirely in the negative half-line: x ≤ −1,
        // min (x+3)². The origin is rejected as a start; from the bound
        // the solver drops it and moves on to the optimum.
        let mut qp = one_block(&[&[2.0]], vec![6.0]).inequality(row(&[1.0]), -1.0);
        let mut ws = BandedWorkspace::new();
        assert!(matches!(
            qp.warm_start(&[0.0], &[], &mut ws),
            Err(Error::Infeasible)
        ));
        let sol = qp.warm_start(&[-1.0], &[0], &mut ws).unwrap();
        assert_near(sol.x()[0], -3.0);
        assert!(sol.active_set().is_empty());
    }

    #[test]
    fn kkt_conditions_hold_at_solution() {
        let mut qp = one_block(&[&[4.0, 1.0], &[1.0, 3.0]], vec![1.0, -2.0])
            .inequality(row(&[1.0, 0.0]), 0.3)
            .inequality(row(&[0.0, 1.0]), 0.4)
            .equality(row(&[1.0, 1.0]), 0.5);
        let sol = qp
            .warm_start(&[0.25, 0.25], &[], &mut BandedWorkspace::new())
            .unwrap();
        assert_kkt(&qp, &sol);
        // The certificate agrees with feasible perturbations along the
        // equality manifold: none improves the objective.
        let x = sol.x();
        let base = qp.objective_at(x);
        for eps in [1e-4, -1e-4] {
            let trial = [x[0] + eps, x[1] - eps];
            if qp.is_feasible(&trial, 1e-9) {
                assert!(qp.objective_at(&trial) >= base - 1e-9);
            }
        }
    }

    #[test]
    fn batched_and_single_pivot_reach_same_optimum() {
        let mut seed = 0xace1u64;
        let mut batched = random_problem(3, 4, &mut seed);
        let mut single = batched.clone().single_pivot(true);
        let sb = cold_solve(&mut batched, &mut BandedWorkspace::new());
        let ss = cold_solve(&mut single, &mut BandedWorkspace::new());
        assert!(
            (sb.objective() - ss.objective()).abs() / (1.0 + ss.objective().abs()) <= 1e-8,
            "batched {} vs single-pivot {}",
            sb.objective(),
            ss.objective()
        );
        assert!(sb.iterations() <= ss.iterations());
    }

    #[test]
    fn forced_refactorization_triggers_stability_rebuild() {
        let mut seed = 0x97531u64;
        let mut qp = random_problem(3, 3, &mut seed);
        let mut ws = BandedWorkspace::new();
        let cold = cold_solve(&mut qp, &mut ws);
        ws.force_refactor_next();
        let poisoned = qp.warm_start(cold.x(), cold.active_set(), &mut ws).unwrap();
        assert!(
            (poisoned.objective() - cold.objective()).abs()
                <= 1e-8 * (1.0 + cold.objective().abs())
        );
        // Initial (poisoned) build plus the stability rebuild.
        assert!(
            poisoned.stats().refactorizations >= 2,
            "stats: {:?}",
            poisoned.stats()
        );
    }

    /// The refinement residual is taken from the step, `C_W·(t − Y_Wᵀλ)`;
    /// pin that it equals the Schur-block form `srhs − S_W·λ` read from the
    /// full-width reference Schur complement, for an arbitrary (not
    /// converged) λ.
    #[test]
    fn step_residual_matches_schur_residual() {
        let mut seed = 0x7e51du64;
        for &(nb, t) in &[(2usize, 3usize), (3, 4), (5, 6)] {
            let mut banded = random_problem(nb, t, &mut seed);
            banded.prepare().unwrap();
            let cache = banded.cache.as_ref().unwrap();
            let (_, s) = reference(&banded);
            let n = banded.num_vars();
            let me = banded.a_eq.len();
            // Working system: every equality plus a seeded subset of bounds.
            let mut cols: Vec<usize> = (0..me).collect();
            cols.extend(
                (0..banded.a_in.len())
                    .filter(|i| i % 3 != 1)
                    .map(|i| me + i),
            );
            let tvec: Vec<f64> = (0..n).map(|_| 2.0 * pseudo(&mut seed)).collect();
            let lam: Vec<f64> = (0..cols.len()).map(|_| pseudo(&mut seed)).collect();
            let srhs: Vec<f64> = cols.iter().map(|&gr| banded.crow(gr).dot(&tvec)).collect();
            let mut p = tvec.clone();
            simd::axpy_rows(-1.0, &cache.y, &cols, &lam, &mut p);
            let tol = 1e-10 * (1.0 + vec_ops::norm_inf(&srhs));
            for (r, &gr) in cols.iter().enumerate() {
                let from_step = banded.crow(gr).dot(&p);
                let from_schur = srhs[r]
                    - cols
                        .iter()
                        .zip(&lam)
                        .map(|(&gq, &lq)| s[(gr, gq)] * lq)
                        .sum::<f64>();
                assert!(
                    (from_step - from_schur).abs() <= tol,
                    "nb={nb} t={t} row {gr}: {from_step} vs {from_schur}"
                );
            }
        }
    }

    /// A separable problem: `groups` independent chains of `len` blocks
    /// (the subdiagonal block between chains is zero), coupled only by
    /// one-entry-per-chain equality rows, plus chain-local sums and bounds.
    /// For `nb·groups ≥ 6` and `groups ≥ 3` the equality levels keep
    /// [`centre`] inside every bound (`|x| < 0.6/(nb·groups) ≤ 0.1`) and
    /// every chain-local sum (`< 0.6/groups ≤ 0.2`).
    fn block_diagonal_problem(nb: usize, groups: usize, len: usize, seed: &mut u64) -> BandedQp {
        let mut h = random_h(nb, groups * len, seed);
        for g in 1..groups {
            h.sub_mut(g * len - 1).fill(0.0);
        }
        let n = nb * groups * len;
        let chain = nb * len;
        let grad: Vec<f64> = (0..n).map(|_| 8.0 * pseudo(seed)).collect();
        let mut qp = BandedQp::new(h, grad).unwrap();
        for k in 0..chain {
            let row = SparseRow::from_entries((0..groups).map(|g| (g * chain + k, 1.0)).collect());
            qp = qp.equality(row, 0.6 * pseudo(seed) / (nb * groups) as f64);
        }
        for g in 0..groups {
            let row = SparseRow::from_entries((0..nb).map(|i| (g * chain + i, 1.0)).collect());
            qp = qp.inequality(row, 0.2);
        }
        for i in 0..n {
            let b = 0.1 + 0.2 * pseudo(seed).abs();
            qp = qp.inequality(SparseRow::from_entries(vec![(i, 1.0)]), b);
        }
        qp
    }

    /// The full-width reference: every constraint row solved in one sweep
    /// over all Hessian blocks into a dense `Yᵀ`, and the dense `S` from a
    /// dot of every constraint row with every `Y` row.
    fn reference(qp: &BandedQp) -> (Matrix, Matrix) {
        let chol = &qp.cache.as_ref().unwrap().chol;
        let mt = qp.a_eq.len() + qp.a_in.len();
        let mut yt = Matrix::zeros(mt, qp.num_vars());
        for r in 0..mt {
            for &(i, c) in qp.crow(r).entries() {
                yt[(r, i)] += c;
            }
        }
        if mt > 0 {
            let mut pool = Workspace::new();
            chol.solve_rows_in_place(yt.as_mut_slice(), mt, 0, chol.nblocks(), &mut pool);
        }
        let s = Matrix::from_fn(mt, mt, |r, q| qp.crow(q).dot(yt.row(r)));
        (yt, s)
    }

    /// Prepares `qp` and checks the cache against [`reference`]: each
    /// stored `Y` row is the reference row over its exact nonzero span, and
    /// every stored Schur entry equals the reference entry, both up to the
    /// sign of zero; inequality pairs of different chains are exact zeros in
    /// the reference; and the cache stores exactly the compact count.
    fn assert_prepare_matches_reference(qp: &mut BandedQp) {
        qp.prepare().unwrap();
        let cache = qp.cache.as_ref().unwrap();
        let (yt, s) = reference(qp);
        let (me, mi) = (qp.a_eq.len(), qp.a_in.len());
        let mut spans = 0;
        for r in 0..me + mi {
            let (lo, hi) = cache.y.span(r);
            let full = yt.row(r);
            assert_eq!((lo, hi), nonzero_span(full), "row {r}");
            assert!(full[..lo].iter().chain(&full[hi..]).all(|&v| v == 0.0));
            assert!(cache
                .y
                .row(r)
                .iter()
                .zip(&full[lo..hi])
                .all(|(a, b)| a == b));
            spans += hi - lo;
        }
        let eq = &cache.s.eq;
        for e in 0..me {
            for f in 0..=e {
                assert!(eq[e * (e + 1) / 2 + f] == s[(e, f)], "S[{e}, {f}]");
            }
        }
        let mut blocks = vec![0; cache.nchains];
        for i in 0..mi {
            let j = cache.chains[i];
            blocks[j] += 1;
            for e in 0..me {
                assert!(
                    cache.s.coupling(i, me)[e] == s[(me + i, e)],
                    "S[in {i}, {e}]"
                );
            }
            for q in 0..mi {
                let full = s[(me + i, me + q)];
                if cache.chains[q] == j {
                    assert!(cache.s.pair(j, i, q) == full, "S[in {i}, in {q}]");
                } else {
                    assert!(full == 0.0, "S[in {i}, in {q}] crosses chains");
                }
            }
        }
        let compact =
            spans + mi * me + blocks.iter().map(|b| b * b).sum::<usize>() + me * (me + 1) / 2;
        assert_eq!(cache.y.stored() + cache.s.stored(), compact);
    }

    #[test]
    fn prepare_matches_full_width_reference() {
        let mut seed = 0x9e7au64;
        let (nb, groups, len) = (3, 4, 3);
        let separable = block_diagonal_problem(nb, groups, len, &mut seed);
        assert_prepare_matches_reference(&mut separable.clone());
        // A row spanning groups 0 and 2 merges them into one chain whose
        // block range covers group 1 too.
        let chain = nb * len;
        let mut merged = separable.clone().inequality(
            SparseRow::from_entries(vec![(1, 1.0), (2 * chain, 1.0)]),
            1.0,
        );
        assert_prepare_matches_reference(&mut merged);
        // A coupled Hessian is one chain.
        assert_prepare_matches_reference(&mut random_problem(3, 4, &mut seed));
        // No inequalities: only the equalities' sweep and triangle.
        let mut equalities = BandedQp::new(separable.h.clone(), separable.g.clone()).unwrap();
        for (row, &b) in separable.a_eq.iter().zip(&separable.b_eq) {
            equalities = equalities.equality(row.clone(), b);
        }
        assert_prepare_matches_reference(&mut equalities);
        // An empty inequality row joins chain 0 with an empty span.
        let mut empty = separable.inequality(SparseRow::new(), 1.0);
        assert_prepare_matches_reference(&mut empty);
        let cache = empty.cache.as_ref().unwrap();
        assert_eq!(cache.y.span(cache.y.rows() - 1), (0, 0));
    }

    #[test]
    fn separable_hessian_gives_exact_zeros_outside_each_span() {
        let mut seed = 0x5a7au64;
        let (nb, groups, len) = (3, 4, 3);
        let chain = nb * len;
        let mut qp = block_diagonal_problem(nb, groups, len, &mut seed);
        assert_prepare_matches_reference(&mut qp);
        let me = qp.a_eq.len();
        let cache = qp.cache.as_ref().unwrap();
        let n = qp.num_vars();
        let mt = cache.y.rows();
        for r in 0..mt {
            let (lo, hi) = cache.y.span(r);
            assert!(lo < hi, "row {r} has an empty span");
            if r < me {
                // Coupling rows reach every chain.
                assert_eq!((lo, hi), (0, n), "row {r}");
            } else {
                // A chain-local row stays inside its chain.
                let g = qp.crow(r).entries()[0].0 / chain;
                assert!(g * chain <= lo && hi <= (g + 1) * chain, "row {r}");
            }
        }
        // The span sweep equals the full-row sweep up to the sign of zero.
        let (yt, _) = reference(&qp);
        let mut full_rows = SpanRows::new(mt, n);
        for r in 0..mt {
            full_rows.set_row(r, 0, yt.row(r));
        }
        let cols: Vec<usize> = (0..mt).filter(|r| r % 5 != 2).collect();
        let lam: Vec<f64> = cols.iter().map(|_| pseudo(&mut seed)).collect();
        let t0: Vec<f64> = (0..n).map(|_| pseudo(&mut seed)).collect();
        let (mut spanned, mut swept) = (t0.clone(), t0);
        simd::axpy_rows(-1.0, &cache.y, &cols, &lam, &mut spanned);
        simd::axpy_rows(-1.0, &full_rows, &cols, &lam, &mut swept);
        assert!(spanned.iter().zip(&swept).all(|(a, b)| a == b));
        // And the solve through the spans satisfies the KKT certificate.
        let sol = cold_solve(&mut qp, &mut BandedWorkspace::new());
        assert!(!sol.active_set().is_empty());
        assert_kkt(&qp, &sol);
    }

    #[test]
    fn coupled_hessian_gets_full_spans() {
        let mut seed = 0xc0u64;
        let mut qp = random_problem(3, 4, &mut seed);
        assert_prepare_matches_reference(&mut qp);
        let cache = qp.cache.as_ref().unwrap();
        let n = qp.num_vars();
        let mt = cache.y.rows();
        assert!((0..mt).all(|r| cache.y.span(r) == (0, n)));
        let cols: Vec<usize> = (0..mt).collect();
        let lam: Vec<f64> = cols.iter().map(|_| pseudo(&mut seed)).collect();
        let mut p = vec![0.5; n];
        simd::axpy_rows(-1.0, &cache.y, &cols, &lam, &mut p);
        let mut by_row = vec![0.5; n];
        for (&r, &l) in cols.iter().zip(&lam) {
            simd::axpy_rows(-1.0, &cache.y, &[r], &[l], &mut by_row);
        }
        assert_eq!(p, by_row);
        let sol = cold_solve(&mut qp, &mut BandedWorkspace::new());
        assert_kkt(&qp, &sol);
    }

    #[test]
    fn chains_follow_hessian_blocks_and_merge_across_spanning_rows() {
        let mut seed = 0xc4a1u64;
        let (nb, groups, len) = (2, 3, 2);
        let chain = nb * len;
        let separable = block_diagonal_problem(nb, groups, len, &mut seed);
        let mut qp = separable.clone();
        assert!(qp.inequality_chains().is_none());
        qp.prepare().unwrap();
        // One chain per group of blocks, numbered in block order.
        let chains = qp.inequality_chains().unwrap();
        for (row, &c) in qp.a_in.iter().zip(chains) {
            assert_eq!(c, row.entries()[0].0 / chain);
        }
        assert_eq!(qp.cache.as_ref().unwrap().nchains, groups);
        // A row spanning groups 0 and 2 merges them; group 1 keeps its own.
        let mut merged = separable.inequality(
            SparseRow::from_entries(vec![(1, 1.0), (2 * chain, 1.0)]),
            1.0,
        );
        merged.prepare().unwrap();
        let chains = merged.inequality_chains().unwrap();
        for (row, &c) in merged.a_in.iter().zip(chains) {
            let group = row.entries()[0].0 / chain;
            assert_eq!(c, usize::from(group == 1), "row {row:?}");
        }
        assert_eq!(merged.cache.as_ref().unwrap().nchains, 2);
        // A coupled Hessian is one chain.
        let mut coupled = random_problem(3, 4, &mut seed);
        coupled.prepare().unwrap();
        assert!(coupled.inequality_chains().unwrap().iter().all(|&c| c == 0));
        assert_eq!(coupled.cache.as_ref().unwrap().nchains, 1);
    }

    /// The per-chain working-set factor against the same problem posed as
    /// one dense block (a single chain, so a single dense Schur factor).
    #[test]
    fn per_chain_factor_solves_like_one_dense_block() {
        let mut seed = 0xb10c5u64;
        for &(nb, groups, len) in &[(2usize, 3usize, 2usize), (3, 4, 3), (2, 6, 1)] {
            let mut qp = block_diagonal_problem(nb, groups, len, &mut seed);
            let sol = cold_solve(&mut qp, &mut BandedWorkspace::new());
            assert_kkt(&qp, &sol);
            assert!(!sol.active_set().is_empty());
            let mut dense = densified(&qp);
            let dense_sol = cold_solve(&mut dense, &mut BandedWorkspace::new());
            assert_eq!(sol.active_set(), dense_sol.active_set());
            assert!(
                (sol.objective() - dense_sol.objective()).abs()
                    <= 1e-8 * (1.0 + dense_sol.objective().abs()),
                "{} vs {}",
                sol.objective(),
                dense_sol.objective()
            );
        }
    }

    #[test]
    fn unconstrained_banded_qp_is_newton_step() {
        let mut h = BlockTridiag::new(2, 1);
        h.diag_mut(0).copy_from_slice(&[2.0, 0.0, 0.0, 2.0]);
        let mut qp = BandedQp::new(h, vec![-6.0, 2.0]).unwrap();
        let sol = qp
            .warm_start(&[0.0, 0.0], &[], &mut BandedWorkspace::new())
            .unwrap();
        assert!((sol.x()[0] - 3.0).abs() < 1e-8);
        assert!((sol.x()[1] + 1.0).abs() < 1e-8);
        assert!(sol.active_set().is_empty());
    }
}
