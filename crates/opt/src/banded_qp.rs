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
//! constraint row is sparse (stage-local). Six structural savings follow:
//!
//! 1. **Bounds fix variables.** An inequality row with a single entry
//!    (`c·x_k ≤ b`: the non-negativity rows of eq. 44 and the storage rate
//!    limits) is a bound. A working bound fixes its variable (`p_k = 0`)
//!    instead of joining the working-set factor. Each independent chain of
//!    Hessian blocks keeps `H̃_FF⁻¹`, the inverse of its Hessian over its
//!    free variables, as a small dense matrix; fixing or freeing a variable
//!    changes it by rank 1, and changes the Schur complement of the general
//!    rows by the same rank-1 term that holding the bound row would. Bound
//!    multipliers come from the reduced gradient `(Hx + g + C_Gᵀλ)_k` at
//!    stationary points only, and a bound's ratio test reads one entry of
//!    the step.
//! 2. The working-set Schur complement `S_G = C_G H̃_FF⁻¹ C_Gᵀ` over the
//!    *general* rows (the equalities and the multi-entry inequalities) is
//!    maintained *incrementally*, per chain: a general inequality that
//!    touches one chain has exact zeros in `S_G` against every other
//!    chain's rows, so `S_G` is an arrowhead matrix whose only dense block
//!    is the equality rows, and [`ArrowheadCholesky`] keeps one small
//!    factor per chain plus the equalities' reduced Schur complement. An
//!    add or drop of a general row costs O(b_j² + m_E·b_j + m_E²) for a
//!    chain of `b_j` working rows and `m_E` equalities; fixing or freeing a
//!    bound is a rank-1 change of the chain's block and the equalities'
//!    block. A coupled `H` is one chain, which is the dense cost again. A
//!    general row enters by one append only, whether the loop admits it or
//!    a from-scratch build holds it (the build fixes its bounds in one
//!    batch and factors the equalities first), so every general row meets
//!    one dependency test.
//! 3. `Y = H̃_FF⁻¹C_Gᵀ` is never stored: the step `p = t − H̃_FF⁻¹C_Gᵀλ`
//!    scatters `C_Gᵀλ` and sweeps each chain's inverse over its free
//!    variables, and a general row's Schur entries are formed from the
//!    inverse when it enters the factor. `prepare` only inverts each
//!    independent run of Hessian blocks.
//! 4. Ratio tests, right-hand sides and the refinement residual `C_G·p`
//!    use sparse row dots. The general rows' entries are listed once, flat
//!    and with no reference to the free slots, and listed again only when
//!    a general row enters or leaves: bound fixes and frees leave the list
//!    standing.
//! 5. **A blocked step that admits only bounds updates the step instead of
//!    solving for it.** With `Z` the projected inverse of the working set,
//!    the step is `p = −Z·∇f(x)` and `ZHZ = Z`, so after a step of length
//!    `α` the minimiser is `(1 − α)·p` away. Fixing bound `k` takes
//!    `z_k·z_kᵀ/Z_kk` out of `Z`, with `z_k = √d·(ũ − H̃_FF⁻¹C_Gᵀ·S_G⁻¹w)`
//!    and `Z_kk = d·(1 − wᵀS_G⁻¹w)` read off the fix's own `d = M_kk`, `ũ`
//!    and `w`; the step moves by `−(p_k/Z_kk)·z_k`. Each admitted bound
//!    costs its fix, one factor solve and one sweep, where a full KKT
//!    solve pays two of each and the right-hand side and residual. A full
//!    solve is still taken on a solve's first iteration (and so after a
//!    poisoned build), after a drop, a degenerate pop or the admission of
//!    a general row, when more than two bounds enter at once, when the
//!    update cancels most of the step or leaves it stationary (stationarity
//!    and multipliers are read from full solves only), and after 16
//!    updates in a row.
//! 6. **The working-set state outlives the solve.** Consecutive solves of
//!    one prepared problem (an MPC step's QP retargeted to the next step)
//!    share the Hessian, every row and most of the working set, so the
//!    [`BandedWorkspace`] keeps the free-set inverses, the Schur factor and
//!    the held rows, and the next solve edits them into its seed: a held
//!    bound whose partner the seed holds instead is flipped onto it, the
//!    other held rows the seed lacks are freed or removed, the new ones
//!    fixed or appended, and `tg` is recomputed from the new gradient.
//!    The state depends only on the prepared `H̃⁻¹`, the rows and the order
//!    of those index operations, never on an iterate, so a [`FactorLog`] —
//!    the working set of the last from-scratch build and every change
//!    since — rebuilds it bit for bit ([`BandedQp::replay`]): a restored
//!    checkpoint resumes the solves an uninterrupted run makes. A solve
//!    builds from scratch, and starts a new log, when it carries no state
//!    for the problem, when its edits would take the log past
//!    [`factor_log_cap`], when an edit fails, and on a stability rebuild.
//!
//! The outer iteration is the textbook primal active-set loop of
//! `active_set`: warm-start seeding, Dantzig/Bland switching and
//! degeneracy recovery live there, the KKT step solves live here. Bounds
//! keep their inequality indices, so warm seeds and returned active sets
//! number every row alike.

use idc_linalg::banded::BlockTridiag;
use idc_linalg::cholesky::{ArrowheadCholesky, Cholesky};
use idc_linalg::{simd, vec_ops};

use crate::active_set::{self, LoopScratch, QpSolution, WARM_TOL};
use crate::SolveStats;
use crate::{Error, Result};

/// Relative size of the iterative-refinement correction above which the
/// incrementally up/downdated working-set factor is judged to have drifted
/// and is rebuilt from scratch.
const REBUILD_TOL: f64 = 1e-6;

/// Most bounds one blocked step may admit for the step to be updated
/// rather than solved for. Each costs a factor solve and a sweep, and a
/// full KKT solve two of each, so from three bounds on the solve is
/// cheaper.
const MAX_UPDATE_BOUNDS: usize = 2;

/// An updated step stands only when its largest entry is at least this
/// fraction of the step it was updated from. Its rounding error scales
/// with that earlier step, so a step the update nearly cancels — one that
/// a full solve would find stationary, say — is solved for instead.
const MIN_UPDATE_RATIO: f64 = 0.1;

/// A row is numerically dependent on the rows held when its pivot — its
/// Schur complement against them — is at most this fraction of its own
/// diagonal `c·H̃⁻¹·cᵀ`, the test a dense factor holding every working row
/// would apply.
const PIVOT_TOL: f64 = 1e-12;

/// Changes a [`FactorLog`] may record per row of its base (see
/// [`factor_log_cap`]).
const FACTOR_LOG_PER_ROW: usize = 8;

/// Changes a [`FactorLog`] may record whatever its base (see
/// [`factor_log_cap`]).
const FACTOR_LOG_MIN: usize = 256;

/// Most changes a [`FactorLog`] records after a base of `base_rows` rows:
/// 8 per row, and at least 256. A from-scratch build costs about what one
/// change costs per row it holds, so a rebuild at the cap adds about an
/// eighth to the changes it ends. A
/// solve whose transition would take the log past the cap starts from
/// scratch (and a new log); one that outgrows it mid-solve keeps its state
/// to the end of that solve only. The cap bounds the rounding a carried
/// factor gathers, the replay a restore pays and the bytes a checkpoint
/// carries.
pub fn factor_log_cap(base_rows: usize) -> usize {
    FACTOR_LOG_MIN.max(FACTOR_LOG_PER_ROW * base_rows)
}

/// One change to the working-set state, named by the inequality row it
/// concerns (see [`FactorLog`]). Rows are numbered below 2³².
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorOp {
    /// A bound row was taken in: its variable fixed.
    Fix(u32),
    /// A held bound row was let go: its variable freed.
    Free(u32),
    /// A general row was appended to its chain's block.
    Append(u32),
    /// A held general row was removed from its chain's block.
    Remove(u32),
    /// A held bound row was relabelled as its partner, the opposite bound
    /// on the same variable.
    Flip(u32),
}

impl FactorOp {
    /// Number of operation kinds: [`kind`](Self::kind) is below it.
    pub const KINDS: u8 = 5;

    /// The operation's kind as a number: 0 fix, 1 free, 2 append,
    /// 3 remove, 4 flip.
    pub fn kind(self) -> u8 {
        match self {
            FactorOp::Fix(_) => 0,
            FactorOp::Free(_) => 1,
            FactorOp::Append(_) => 2,
            FactorOp::Remove(_) => 3,
            FactorOp::Flip(_) => 4,
        }
    }

    /// The inequality row the operation concerns.
    pub fn row(self) -> usize {
        match self {
            FactorOp::Fix(i)
            | FactorOp::Free(i)
            | FactorOp::Append(i)
            | FactorOp::Remove(i)
            | FactorOp::Flip(i) => i as usize,
        }
    }

    /// The operation of `kind` on `row`; `None` for an unknown kind or a
    /// row from 2³² on.
    pub fn from_parts(kind: u8, row: u64) -> Option<Self> {
        let row = u32::try_from(row).ok()?;
        Some(match kind {
            0 => FactorOp::Fix(row),
            1 => FactorOp::Free(row),
            2 => FactorOp::Append(row),
            3 => FactorOp::Remove(row),
            4 => FactorOp::Flip(row),
            _ => return None,
        })
    }
}

/// The index log that rebuilds a workspace's working-set state bit for
/// bit: the working set of its last from-scratch build, then every change
/// since, in order. The free-set inverses and the Schur factor depend only
/// on the prepared Hessian inverse, the constraint rows and this sequence
/// — never on the iterate or the gradient — so
/// [`BandedQp::replay`] on the same prepared problem reproduces them
/// exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FactorLog {
    /// The working set of the last from-scratch build, in working order.
    pub base: Vec<usize>,
    /// The changes since, at most [`factor_log_cap`] of the base's length.
    pub ops: Vec<FactorOp>,
}

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

    /// `(index, value)` of a row with exactly one nonzero entry: as an
    /// inequality, a bound on one variable.
    fn bound(&self) -> Option<(usize, f64)> {
        match self.entries[..] {
            [(k, c)] if c != 0.0 => Some((k, c)),
            _ => None,
        }
    }
}

/// Reusable scratch memory for [`BandedQp`] solves.
///
/// Holds the incrementally maintained working-set factor and free-set
/// inverses plus all per-iteration vectors, so a steady-state
/// warm-started solve allocates only the point and active set of the
/// [`QpSolution`] it returns.
///
/// The working-set state outlives a solve: the next solve of the same
/// prepared problem edits it into its seed instead of rebuilding it (see
/// [`BandedQp::warm_start`]), and [`factor_log`](Self::factor_log)
/// exports the index log that rebuilds it.
#[derive(Debug, Clone, Default)]
pub struct BandedWorkspace {
    /// The prepared problem the working-set state belongs to (its cache's
    /// `id`), or 0 when no state is carried.
    owner: u64,
    /// The index log of the working-set state since its last from-scratch
    /// build.
    log: FactorLog,
    /// Scratch for the transition at a solve's start: the accepted seed in
    /// seed order, and a mask of the held rows.
    seed_rows: Vec<usize>,
    held_mask: Vec<bool>,
    /// Incremental arrowhead factor of the general rows' Schur block
    /// `S_G = C_G·H̃_FF⁻¹·C_Gᵀ`, in *factor order*: chain 0's working
    /// general inequalities, …, the last chain's, then the equalities.
    factor: ArrowheadCholesky,
    /// The working inequalities the factor accounts for (bounds as fixed
    /// variables, general rows as factor rows), in working order. Always a
    /// prefix of the working set: rows enter in working order and leave
    /// with their working-set entry.
    held: Vec<usize>,
    /// Each chain's held general inequalities in factor order, which is
    /// also their relative working order.
    chain_rows: Vec<Vec<usize>>,
    /// Each chain's free-set inverse `H̃_FF⁻¹`.
    inv: Vec<FreeInverse>,
    /// Whether each variable is fixed by a held bound.
    fixed: Vec<bool>,
    /// `H̃_FF⁻¹·(g + H̃_FB·x_B)` on the free variables and `−x_k` on each
    /// fixed `k`, so the Newton point at an iterate `x` is `t = −x − tg`
    /// with no Hessian multiply: exact zeros on the fixed variables.
    tg: Vec<f64>,
    /// Per-chain cursor for mapping factor-order multipliers back to
    /// working order.
    cursor: Vec<usize>,
    /// Newton point `t`.
    t: Vec<f64>,
    /// Schur right-hand side `C_G·t`, solved in place into the multipliers
    /// (factor order).
    lam: Vec<f64>,
    /// Refinement residual `C_G·p`, solved in place into the correction;
    /// in a step update, a bound fix's `w = C_G·ũ` solved into `S_G⁻¹·w`.
    resid: Vec<f64>,
    /// Gather buffer for factor rows (a chain block or the equalities'
    /// block), and for a rank-1 change's chain entries.
    col: Vec<f64>,
    /// Gather buffer for a chain block's equality couplings, and for a
    /// rank-1 change's tail entries.
    coupling: Vec<f64>,
    /// Global constraint index of each general working row in factor
    /// order.
    cols: Vec<usize>,
    /// Every entry of those rows as `(position in cols, variable,
    /// coefficient)`, fixed variables included: bound fixes and frees
    /// leave it standing, and it is listed again only when a general row
    /// enters or leaves the factor (`cols_stale`).
    entries: Vec<(usize, usize, f64)>,
    /// Whether a general row entered or left since `cols` was listed.
    cols_stale: bool,
    /// Where each variable's slot sits in `zs`: its chain's `base` plus its
    /// slot in the chain's free-set inverse, kept current by every fix and
    /// free.
    pos: Vec<usize>,
    /// A sweep's `C_Gᵀ·λ` by slot, the chains' slots back to back (each
    /// chain's free slots lead its range); all zeros between sweeps.
    zs: Vec<f64>,
    /// `0, 1, 2, …`: every slot of the widest chain.
    iota: Vec<usize>,
    /// The step's end `x + p`, for the bound multipliers.
    z: Vec<f64>,
    /// One chain's local vector: a row image `H̃_FF⁻¹·cᵀ` or a Hessian
    /// column.
    local: Vec<f64>,
    /// The rank-1 vector `ũ` of a bound change, over one chain's variables.
    u: Vec<f64>,
    /// Slot-ordered scratch of a chain's free-set inverse: a gathered step,
    /// an image or a rank-1 vector.
    slots: Vec<f64>,
    /// Slots and coefficients of one chain's sweep.
    sweep_rows: Vec<usize>,
    sweep_coeffs: Vec<f64>,
    /// `C_Gᵀ·λ_G` over the variables, for the bound multipliers.
    hx: Vec<f64>,
    /// The active-set loop's own buffers, reused across solves.
    scratch: LoopScratch,
    /// Iterative-refinement passes since `begin` (introspection only;
    /// drained into [`crate::SolveStats`] per solve).
    refinements: u64,
    /// Full (re)builds of the working-set factor since `begin`.
    refactorizations: u64,
    /// Incremental working-set changes absorbed in place: general rows
    /// appended and variables fixed.
    updates: u64,
    /// Incremental working-set removals: general rows removed and
    /// variables freed.
    downdates: u64,
    /// When set, the next factor build is deterministically poisoned so the
    /// stability-rebuild path must fire (fault injection).
    force_refactor: bool,
    /// Whether this solve times its parts (a recorder is bound).
    timed: bool,
    /// Nanoseconds in working-set updates, factor solves and sweeps since
    /// `begin` (only when `timed`).
    update_ns: u64,
    factor_ns: u64,
    sweep_ns: u64,
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

    /// The index log of the working-set state this workspace carries into
    /// the next solve of `qp`, or `None` when it carries none for `qp` (no
    /// solve yet, another problem's state, a log that outgrew
    /// [`factor_log_cap`] or a state dropped mid-solve).
    pub fn factor_log(&self, qp: &BandedQp) -> Option<&FactorLog> {
        let id = qp.cache.as_ref()?.id;
        (self.owner == id && self.factor.is_built()).then_some(&self.log)
    }

    /// Drops the carried working-set state: the next solve builds from
    /// scratch.
    pub fn drop_carry(&mut self) {
        self.owner = 0;
    }
}

/// Identity of a prepared problem, so a workspace never carries one
/// problem's working-set state into another's solve; clones share it,
/// as they share the prepared factors.
fn next_problem_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Precomputed factorizations shared by all solves of one problem skeleton.
#[derive(Debug, Clone)]
struct BandedCache {
    /// This preparation's identity (see [`next_problem_id`]).
    id: u64,
    /// The ridge `ε` of `H̃ = H + εI`: zero unless `H` itself failed to
    /// factor.
    ridge: f64,
    /// The independent chains of Hessian blocks.
    chains: Vec<Chain>,
    /// Chain of each variable.
    var_chain: Vec<usize>,
    /// Position of each variable among its chain's variables.
    var_local: Vec<usize>,
    /// Independent Hessian chain of each inequality row: `S` is exactly
    /// zero between inequality rows of different chains.
    row_chain: Vec<usize>,
    /// `(variable, coefficient)` of each inequality that is a bound.
    bound: Vec<Option<(usize, f64)>>,
    /// Each bound's partner: the first other bound on the same variable
    /// whose coefficient has the opposite sign, which a flip holds in its
    /// place (see [`BandedOps::flip`]).
    partner: Vec<Option<usize>>,
    /// Each inequality's all-free diagonal `c·H̃⁻¹·cᵀ`, the scale its
    /// dependency test is judged against.
    diag: Vec<f64>,
    /// The equalities' all-free Schur block `C_E·H̃⁻¹·C_Eᵀ`, packed lower,
    /// and its diagonal: the scales the equalities' pivots are judged
    /// against.
    s_ee: Vec<f64>,
    s_ee_diag: Vec<f64>,
}

/// One independent chain of Hessian blocks.
#[derive(Debug, Clone)]
struct Chain {
    /// The chain's variables, ascending.
    vars: Vec<usize>,
    /// `H̃⁻¹` over the chain's variables, row-major in local order
    /// (exactly zero between the chain's different runs).
    inv: Vec<f64>,
    /// The equality rows' entries on the chain's variables, as
    /// `(equality, local index, coefficient)` by equality.
    eq: Vec<(usize, usize, f64)>,
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

    /// Adds an inequality constraint `rowᵀx ≤ rhs`. A row with a single
    /// nonzero entry is a bound on that variable.
    pub fn inequality(mut self, row: SparseRow, rhs: f64) -> Self {
        self.a_in.push(row);
        self.b_in.push(rhs);
        self.cache = None;
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

    /// Active-set iterations allowed per solve: `4·(variables +
    /// constraints)`, and never fewer than 500. Bounds count as
    /// constraints.
    fn iteration_budget(&self) -> usize {
        500.max(4 * (self.num_vars() + self.a_in.len() + self.a_eq.len()))
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
        let mut hx = vec![0.0; self.num_vars()];
        self.h.mul_vec_into(x, &mut hx);
        0.5 * vec_ops::dot(x, &hx) + vec_ops::dot(&self.g, x)
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

    /// Splits the variables into independent chains and inverts each
    /// chain's `H̃ = H + εI`: one dense Cholesky per independent run of
    /// blocks, at the run's own width (the inverse is block diagonal over
    /// a chain's runs). Finds the bounds among the inequality rows.
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
        let (row_chain, runs) = self.inequality_chain_ids();
        // Invert H exactly when possible — the KKT step then reconstructs
        // the Newton point as `t = −x − tg` without ever multiplying by H,
        // which keeps the per-iteration cost O(n + m²). Only when some run
        // fails to factor retry every run with a tiny ridge (the solve then
        // optimizes the εI-perturbed problem, indistinguishable at solver
        // tolerance).
        let (ridge, mut chains) = match self.chain_inverses(&runs, 0.0) {
            Ok(chains) => (0.0, chains),
            Err(_) => (1e-12, self.chain_inverses(&runs, 1e-12)?),
        };
        let mut var_chain = vec![0; n];
        let mut var_local = vec![0; n];
        for (j, chain) in chains.iter().enumerate() {
            for (l, &k) in chain.vars.iter().enumerate() {
                var_chain[k] = j;
                var_local[k] = l;
            }
        }
        for (e, row) in self.a_eq.iter().enumerate() {
            for &(k, c) in row.entries() {
                chains[var_chain[k]].eq.push((e, var_local[k], c));
            }
        }
        let bound: Vec<_> = self.a_in.iter().map(SparseRow::bound).collect();
        // The first bound of each sign on each variable, `[c > 0, c < 0]`.
        let mut first = vec![[None; 2]; n];
        for (i, b) in bound.iter().enumerate() {
            if let Some((k, c)) = *b {
                first[k][usize::from(c < 0.0)].get_or_insert(i);
            }
        }
        let partner = bound
            .iter()
            .map(|b| b.and_then(|(k, c)| first[k][usize::from(c > 0.0)]))
            .collect();
        // c·M·cᵀ over the pairs of a row's entries (all in one chain).
        let diag = self
            .a_in
            .iter()
            .map(|row| {
                let mut d = 0.0;
                for &(a, ca) in row.entries() {
                    let chain = &chains[var_chain[a]];
                    let dim = chain.vars.len();
                    for &(b, cb) in row.entries() {
                        if var_chain[b] == var_chain[a] {
                            d += ca * cb * chain.inv[var_local[a] * dim + var_local[b]];
                        }
                    }
                }
                d
            })
            .collect();
        let me = self.a_eq.len();
        let mut s_ee = vec![0.0; me * (me + 1) / 2];
        for chain in &chains {
            let dim = chain.vars.len();
            let mut group_end = 0;
            for &(e, a, c) in &chain.eq {
                while group_end < chain.eq.len() && chain.eq[group_end].0 <= e {
                    group_end += 1;
                }
                let row = &chain.inv[a * dim..][..dim];
                let packed = &mut s_ee[e * (e + 1) / 2..];
                for &(f, b, d) in &chain.eq[..group_end] {
                    packed[f] += c * d * row[b];
                }
            }
        }
        self.cache = Some(BandedCache {
            id: next_problem_id(),
            ridge,
            chains,
            var_chain,
            var_local,
            row_chain,
            bound,
            partner,
            diag,
            s_ee_diag: (0..me).map(|e| s_ee[e * (e + 1) / 2 + e]).collect(),
            s_ee,
        });
        Ok(())
    }

    /// Each chain's variables and `(H + ridge·I)⁻¹` over them, from the
    /// chains' runs of blocks: each run copied out dense, factored by
    /// Cholesky and inverted at its own width; entries between different
    /// runs are exact zeros.
    fn chain_inverses(
        &self,
        runs: &[Vec<(usize, usize)>],
        ridge: f64,
    ) -> idc_linalg::Result<Vec<Chain>> {
        let nb = self.h.nb();
        runs.iter()
            .map(|chain_runs| {
                let width: usize = chain_runs.iter().map(|&(a, b)| (b - a) * nb).sum();
                let mut vars = Vec::with_capacity(width);
                let mut inv = vec![0.0; width * width];
                for &(first, end) in chain_runs {
                    let mut h = self.h.dense(first, end);
                    let w = h.rows();
                    for i in 0..w {
                        h[(i, i)] += ridge;
                    }
                    let run_inv = Cholesky::factor(&h)?.inverse();
                    let at = vars.len();
                    for (a, row) in run_inv.as_slice().chunks_exact(w).enumerate() {
                        inv[(at + a) * width + at..][..w].copy_from_slice(row);
                    }
                    vars.extend(first * nb..end * nb);
                }
                Ok(Chain {
                    vars,
                    inv,
                    eq: Vec::new(),
                })
            })
            .collect()
    }

    /// Splits the variables and the inequality rows into independent
    /// chains. A chain is a maximal run of Hessian blocks joined by nonzero
    /// subdiagonal blocks; runs that one inequality row spans are merged
    /// (union-find). Then `H̃⁻¹` is block diagonal over the chains, and so
    /// is the inequality part of `S = C·H̃⁻¹·Cᵀ`. Returns each row's chain,
    /// numbered in block order (an empty row joins chain 0), and each
    /// chain's runs of blocks `first..end`, in block order (at least one
    /// chain).
    fn inequality_chain_ids(&self) -> (Vec<usize>, Vec<Vec<(usize, usize)>>) {
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
        let mut chain_runs: Vec<Vec<(usize, usize)>> = Vec::new();
        for r in 0..runs {
            let span = (if r == 0 { 0 } else { run_ends[r - 1] }, run_ends[r]);
            let root = find(&mut parent, r);
            if root == r {
                label[r] = chain_runs.len();
                chain_runs.push(vec![span]);
            } else {
                chain_runs[label[root]].push(span);
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
        (chains, chain_runs)
    }

    /// The independent Hessian chain of each inequality row, as derived by
    /// [`prepare`](Self::prepare) (`None` before it): the working-set
    /// factor keeps one block per chain. Rows of different chains have
    /// exact zeros between them in the Schur complement `C·H̃⁻¹·Cᵀ`.
    pub fn inequality_chains(&self) -> Option<&[usize]> {
        self.cache.as_ref().map(|c| c.row_chain.as_slice())
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
    /// scratch memory. When `ws` carries the working-set state of an
    /// earlier solve of this prepared problem, the solve edits it into the
    /// seed instead of building it from scratch (see the module docs). The
    /// solver never searches for a feasible point itself: the caller
    /// supplies one, as the MPC controller does with its warm-start repair.
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
        // `prepare` validated a prepared problem's rows, and adding a row
        // drops the preparation.
        if self.cache.is_none() {
            self.validate()?;
        }
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

    /// Rebuilds `ws`'s working-set state from `log` — a from-scratch build
    /// of its base, then each change in order — so that the next solve of
    /// this problem starts from the state the logging workspace carried,
    /// bit for bit. Prepares the problem first if needed.
    ///
    /// # Errors
    ///
    /// * [`Error::BadFactorLog`] naming the first part of the log that
    ///   does not fit this problem or the state before it: a row beyond
    ///   the inequalities, a log longer than [`factor_log_cap`], a base
    ///   that does not build, or a change of the wrong kind for its row or
    ///   of a row the state does not (or already does) hold.
    /// * Those of [`prepare`](Self::prepare).
    ///
    /// `ws` carries no state after an error.
    pub fn replay(&mut self, log: &FactorLog, ws: &mut BandedWorkspace) -> Result<()> {
        if self.cache.is_none() {
            self.prepare()?;
        }
        let result = BandedOps { qp: self, ws }.replay(log);
        if result.is_err() {
            ws.owner = 0;
        }
        result
    }
}

/// `Σ cₖ·v[local(k)]` over a row's entries: the row dotted with a vector
/// over one chain's variables.
fn local_dot(row: &SparseRow, var_local: &[usize], v: &[f64]) -> f64 {
    row.entries()
        .iter()
        .map(|&(k, c)| c * v[var_local[k]])
        .sum()
}

/// Row `k` of a block-tridiagonal `H` dotted with `v`: the diagonal
/// block's row and the two off-diagonal blocks beside it.
fn hessian_row_dot(h: &BlockTridiag, k: usize, v: &[f64]) -> f64 {
    let nb = h.nb();
    let (b, a) = (k / nb, k % nb);
    let at = |blk: usize| &v[blk * nb..(blk + 1) * nb];
    let mut r = vec_ops::dot(&h.diag(b)[a * nb..(a + 1) * nb], at(b));
    if b > 0 {
        r += vec_ops::dot(&h.sub(b - 1)[a * nb..(a + 1) * nb], at(b - 1));
    }
    if b + 1 < h.nblocks() {
        let sub = h.sub(b);
        r += at(b + 1)
            .iter()
            .enumerate()
            .map(|(i, &vi)| sub[i * nb + a] * vi)
            .sum::<f64>();
    }
    r
}

/// Calls `visit(r, H_rk)` for each entry of column `k` of a
/// block-tridiagonal `H`: the blocks before, at and after `k`'s block.
fn hessian_column(h: &BlockTridiag, k: usize, mut visit: impl FnMut(usize, f64)) {
    let nb = h.nb();
    let (blk, ak) = (k / nb, k % nb);
    for i in 0..nb {
        visit(blk * nb + i, h.diag(blk)[i * nb + ak]);
        if blk + 1 < h.nblocks() {
            visit((blk + 1) * nb + i, h.sub(blk)[i * nb + ak]);
        }
        if blk > 0 {
            visit((blk - 1) * nb + i, h.sub(blk - 1)[ak * nb + i]);
        }
    }
}

/// Clock reading for a timed solve, `0` otherwise.
fn clock(timed: bool) -> u64 {
    if timed {
        idc_obs::now_ns()
    } else {
        0
    }
}

/// The KKT side of the `active_set` loop: one problem and its workspace.
///
/// [`kkt_step`](Self::kkt_step) and [`update_step`](Self::update_step) are
/// the expensive operations: a full solve, or, after a blocked step that
/// admitted only bounds, a rank-1 update of the step per bound. The Newton
/// point `t = −x − tg` is read off the maintained `tg` each iteration,
/// while the free-set inverses and the general rows' Schur factor are
/// maintained incrementally: the loop calls [`on_remove`](Self::on_remove)
/// *after* it removed a working-set entry, and additions need no hook
/// because the next `kkt_step` or `update_step` extends the factor.
pub(crate) struct BandedOps<'a> {
    qp: &'a BandedQp,
    ws: &'a mut BandedWorkspace,
}

impl<'a> BandedOps<'a> {
    fn cache(&self) -> &'a BandedCache {
        self.qp.cache.as_ref().expect("prepared by warm_start")
    }

    /// Whether the workspace carries a working-set state built for this
    /// problem.
    fn carries(&self) -> bool {
        self.ws.owner == self.cache().id && self.ws.factor.is_built()
    }

    /// Records a change to the working-set state in its log. A change past
    /// [`factor_log_cap`] goes unrecorded: the state then serves the rest
    /// of this solve but is not carried past it.
    fn log(&mut self, op: FactorOp) {
        let ws = &mut *self.ws;
        if ws.log.ops.len() < factor_log_cap(ws.log.base.len()) {
            ws.log.ops.push(op);
        } else {
            ws.owner = 0;
        }
    }

    /// Empties the working-set factor (it holds nothing, not even the
    /// equalities, until the next build, which also rebuilds the free-set
    /// inverses and `tg`, and starts a new log).
    fn reset_factor(&mut self) {
        let nchains = self.cache().chains.len();
        let ws = &mut *self.ws;
        ws.owner = 0;
        ws.factor.reset(nchains, self.qp.a_eq.len());
        ws.held.clear();
        ws.chain_rows.resize_with(nchains, Vec::new);
        for rows in &mut ws.chain_rows {
            rows.clear();
        }
        ws.cols_stale = true;
    }

    /// Extends the incremental factor until it accounts for every row of
    /// the current working set.
    ///
    /// A build of an empty factor counts as a refactorization: its bounds
    /// in one batch, then its general rows one append each (see
    /// [`build`](Self::build)), falling back to the equalities plus
    /// row-by-row additions on failure so the error points at the first
    /// bad row. Additions to a built factor go one row at a time, in
    /// working order, and count as incremental updates. Returns whether a
    /// pending poison was consumed by this build (the caller must then
    /// rebuild before using the factor's solution).
    fn ensure_factor(&mut self, x: &[f64], working: &[usize]) -> Result<bool> {
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
            if self.build(x, working, poison).is_ok() {
                return Ok(poison);
            }
            // Start over from the equalities alone; the additions below
            // then stop at the first bad row.
            self.reset_factor();
            self.build(x, &[], false)?;
        }
        while self.ws.held.len() < working.len() {
            self.add_row(working[self.ws.held.len()], x)?;
            if !from_scratch {
                self.ws.updates += 1;
            }
        }
        Ok(poison)
    }

    /// Builds the empty factor over `working` (over the equalities alone
    /// when `working` is empty) in two phases. The bounds go in one batch:
    /// the free-set inverse of every chain with its working bounds fixed,
    /// `tg` at `x`, and the equalities' reduced block as the tail. The
    /// general rows then go in one at a time, in working order, by the
    /// append the loop makes, so every general row meets one dependency
    /// test. A poisoned build doubles the diagonal of the first factor row
    /// (the first equality, else the first working general inequality):
    /// the factor stays positive definite, so nothing fails, but it is
    /// wrong by O(1).
    ///
    /// A chain's inverse starts from its all-free `H̃⁻¹` and loses its
    /// fixed variables one rank-1 step at a time; a duplicated bound
    /// variable or a failed pivot fails the build. A build that succeeds
    /// starts a new log with `working` as its base.
    fn build(&mut self, x: &[f64], working: &[usize], poison: bool) -> Result<()> {
        let singular = || Err(Error::Numerical(idc_linalg::Error::NotPositiveDefinite));
        let me = self.qp.a_eq.len();
        let n = self.qp.num_vars();
        let cache = self.cache();
        let qp = self.qp;
        let ws = &mut *self.ws;
        ws.fixed.clear();
        ws.fixed.resize(n, false);
        for &i in working {
            if let Some((k, _)) = cache.bound[i] {
                if ws.fixed[k] {
                    return singular();
                }
                ws.fixed[k] = true;
            }
        }
        ws.inv.resize_with(cache.chains.len(), FreeInverse::default);
        ws.tg.clear();
        ws.tg.resize(n, 0.0);
        ws.pos.resize(n, 0);
        ws.zs.clear();
        ws.zs.resize(n, 0.0);
        let mut base = 0;
        for (chain, inv) in cache.chains.iter().zip(&mut ws.inv) {
            let dim = chain.vars.len();
            inv.reset(&chain.inv, &chain.vars, base, &mut ws.pos);
            base += dim;
            // y = H̃⁻¹g over the chain: the all-free Newton offset.
            ws.sweep_rows.clear();
            ws.sweep_coeffs.clear();
            for (l, &k) in chain.vars.iter().enumerate() {
                if qp.g[k] != 0.0 {
                    ws.sweep_rows.push(l);
                    ws.sweep_coeffs.push(qp.g[k]);
                }
            }
            ws.slots.clear();
            ws.slots.resize(dim, 0.0);
            simd::axpy_rows(
                1.0,
                &chain.inv,
                dim,
                &ws.sweep_rows,
                &ws.sweep_coeffs,
                &mut ws.slots,
            );
            for (&k, &y) in chain.vars.iter().zip(&ws.slots) {
                ws.tg[k] = y;
            }
            // Fix the chain's bounded variables one by one: each is a
            // rank-1 Schur complement of the inverse, and moves tg so that
            // −x − tg stays the Newton point of the shrinking free set.
            for (l, &k) in chain.vars.iter().enumerate() {
                if ws.fixed[k] {
                    if inv.get(l, l) <= PIVOT_TOL * chain.inv[l * dim + l] {
                        return singular();
                    }
                    let step = (-x[k] - ws.tg[k]) / inv.get(l, l).sqrt();
                    let tg = &mut ws.tg;
                    inv.fix(l, &mut ws.slots, &mut ws.pos, |v, u| tg[v] += u * step);
                    ws.tg[k] = -x[k];
                }
            }
        }
        // The equalities' block S_EE = Σ_j C_E,j·H̃_FF⁻¹·C_E,jᵀ, packed
        // lower: the all-free block less, for each chain with fixed
        // variables, the difference its fixes made to its pairs of entries
        // (by equality order).
        ws.col.clear();
        ws.col.extend_from_slice(&cache.s_ee);
        for (chain, inv) in cache.chains.iter().zip(&ws.inv) {
            if inv.free == chain.vars.len() {
                continue;
            }
            let dim = chain.vars.len();
            let mut group_end = 0;
            for &(e, a, c) in &chain.eq {
                while group_end < chain.eq.len() && chain.eq[group_end].0 <= e {
                    group_end += 1;
                }
                let all_free = &chain.inv[a * dim..][..dim];
                let packed = &mut ws.col[e * (e + 1) / 2..];
                for &(f, b, d) in &chain.eq[..group_end] {
                    packed[f] -= c * d * (all_free[b] - inv.get(a, b));
                }
            }
        }
        if poison && me > 0 {
            ws.col[0] *= 2.0;
        }
        ws.factor.build_tail(&ws.col, &cache.s_ee_diag)?;
        let mut poison = poison && me == 0;
        for &i in working {
            if cache.bound[i].is_none() {
                self.append_general(i, std::mem::take(&mut poison))?;
            }
        }
        let ws = &mut *self.ws;
        ws.held.extend_from_slice(working);
        ws.owner = cache.id;
        ws.log.base.clear();
        ws.log.base.extend_from_slice(working);
        ws.log.ops.clear();
        // Room for the whole log now, so logging never allocates mid-solve.
        ws.log.ops.reserve(factor_log_cap(working.len()));
        Ok(())
    }

    /// Adds working inequality `i` to the factor: a bound fixes its
    /// variable, a general row is appended to the end of its chain.
    ///
    /// # Errors
    ///
    /// [`Error::Numerical`] with the factor unchanged when the row is
    /// numerically dependent on the rows held (the outer loop then pops the
    /// degenerate addition).
    fn add_row(&mut self, i: usize, x: &[f64]) -> Result<()> {
        let op = match self.cache().bound[i] {
            Some((k, _)) => {
                self.fix(k, x, None)?;
                FactorOp::Fix(i as u32)
            }
            None => {
                self.append_general(i, false)?;
                FactorOp::Append(i as u32)
            }
        };
        self.log(op);
        self.ws.held.push(i);
        Ok(())
    }

    /// Removes the held row at working position `pos` from the state: a
    /// bound frees its variable, a general row leaves its chain's block.
    /// A free that finds the inverse drifted empties the factor.
    fn remove_held(&mut self, pos: usize) {
        let i = self.ws.held.remove(pos);
        match self.cache().bound[i] {
            Some((k, _)) => {
                self.log(FactorOp::Free(i as u32));
                self.free(k);
            }
            None => {
                self.log(FactorOp::Remove(i as u32));
                let j = self.cache().row_chain[i];
                let rows = &mut self.ws.chain_rows[j];
                let k = rows
                    .iter()
                    .position(|&q| q == i)
                    .expect("a held row is in its chain");
                rows.remove(k);
                self.ws.factor.remove(j, k);
                self.ws.cols_stale = true;
            }
        }
    }

    /// Appends general inequality `i` to the end of its chain, its Schur
    /// entries formed from its image `H̃_FF⁻¹·cᵢᵀ`. The pivot is judged
    /// against the row's all-free diagonal `cᵢ·H̃⁻¹·cᵢᵀ`. A `poison`ed
    /// append doubles the row's diagonal (see [`build`](Self::build)).
    fn append_general(&mut self, i: usize, poison: bool) -> Result<()> {
        let me = self.qp.a_eq.len();
        let cache = self.cache();
        let qp = self.qp;
        let ws = &mut *self.ws;
        let j = cache.row_chain[i];
        let (chain, inv) = (&cache.chains[j], &ws.inv[j]);
        let row = &qp.a_in[i];
        inv.image(row, &cache.var_local, &mut ws.slots, &mut ws.local);
        ws.col.clear();
        ws.col.extend(
            ws.chain_rows[j]
                .iter()
                .map(|&q| local_dot(&qp.a_in[q], &cache.var_local, &ws.local)),
        );
        let diag = local_dot(row, &cache.var_local, &ws.local);
        ws.col.push(if poison { 2.0 * diag } else { diag });
        ws.coupling.clear();
        ws.coupling.resize(me, 0.0);
        for &(e, l, c) in &chain.eq {
            ws.coupling[e] += c * ws.local[l];
        }
        ws.factor
            .append(j, &ws.col, &ws.coupling, cache.diag[i])
            .map_err(Error::from)?;
        ws.chain_rows[j].push(i);
        ws.cols_stale = true;
        Ok(())
    }

    /// Fixes variable `k` at its value in `x`: with `ũ = M·e_k/√M_kk` for
    /// the chain's free-set inverse `M`, the inverse loses `ũ·ũᵀ`, the
    /// general rows' Schur block loses `w·wᵀ` with `w = C_G·ũ`, and
    /// `tg` moves along `ũ` so that `t` stays the Newton point of the new
    /// free set. The pivot `M_kk·(1 − ‖L⁻¹w‖²)` — the bound row's Schur
    /// complement against the rows held — is judged against the all-free
    /// `H̃⁻¹_kk`.
    ///
    /// Given the `step` to the minimiser on the working set without the
    /// bound, also moves it to the minimiser with it (see
    /// [`update_step`](Self::update_step)).
    fn fix(&mut self, k: usize, x: &[f64], step: Option<&mut [f64]>) -> Result<()> {
        let cache = self.cache();
        let (j, a) = (cache.var_chain[k], cache.var_local[k]);
        let chain = &cache.chains[j];
        let d = self.ws.inv[j].get(a, a);
        let all_free = chain.inv[a * chain.vars.len() + a];
        if self.ws.fixed[k] || d <= PIVOT_TOL * all_free {
            return Err(Error::Numerical(idc_linalg::Error::NotPositiveDefinite));
        }
        let root = d.sqrt();
        let ws = &mut *self.ws;
        ws.inv[j].column(a, 1.0 / root, &mut ws.u);
        rank_one_images(
            self.qp,
            cache,
            j,
            &ws.chain_rows[j],
            &ws.u,
            &mut ws.col,
            &mut ws.coupling,
        );
        debug_assert_eq!(ws.coupling.len(), self.qp.a_eq.len());
        // The step's update reads `y = S_G⁻¹·w` from the factor before the
        // downdate, and its sweep from the inverse before the fix.
        let wy = if step.is_some() {
            self.solve_rank_one(j)
        } else {
            0.0
        };
        let ws = &mut *self.ws;
        ws.factor
            .downdate(j, &ws.col, &ws.coupling, PIVOT_TOL * all_free / d)
            .map_err(Error::from)?;
        if let Some(p) = step {
            self.move_step(k, j, root * (1.0 - wy), p);
        }
        let ws = &mut *self.ws;
        let tg_step = (-x[k] - ws.tg[k]) / root;
        let tg = &mut ws.tg;
        ws.inv[j].fix(a, &mut ws.slots, &mut ws.pos, |v, u| tg[v] += u * tg_step);
        ws.tg[k] = -x[k];
        ws.fixed[k] = true;
        Ok(())
    }

    /// `y = S_G⁻¹·w` into `resid` in factor order, for the images `w` of a
    /// bound fix on chain `j` in `col` (the chain's rows) and `coupling`
    /// (the equalities). Returns `wᵀy`.
    fn solve_rank_one(&mut self, j: usize) -> f64 {
        let ws = &mut *self.ws;
        let t0 = clock(ws.timed);
        let at: usize = ws.chain_rows[..j].iter().map(Vec::len).sum();
        let (chain, tail) = (at..at + ws.col.len(), ws.cols.len() - ws.coupling.len());
        ws.resid.clear();
        ws.resid.resize(ws.cols.len(), 0.0);
        ws.resid[chain.clone()].copy_from_slice(&ws.col);
        ws.resid[tail..].copy_from_slice(&ws.coupling);
        ws.factor.solve_in_place(&mut ws.resid);
        let wy =
            vec_ops::dot(&ws.col, &ws.resid[chain]) + vec_ops::dot(&ws.coupling, &ws.resid[tail..]);
        ws.factor_ns += clock(ws.timed) - t0;
        wy
    }

    /// Moves the step `p` along the projected inverse's column
    /// `z_k = √d·(ũ − M·C_Gᵀ·y)` of the bound on `k` (chain `j`), so that
    /// `p_k` becomes zero: `p −= (p_k/Z_kk)·z_k`, with `ũ` in `u`, `y` in
    /// `resid` and `root_zkk = Z_kk/√d`. Reads `M` before the fix.
    fn move_step(&mut self, k: usize, j: usize, root_zkk: f64, p: &mut [f64]) {
        let t0 = clock(self.ws.timed);
        let beta = p[k] / root_zkk;
        let mut y = std::mem::take(&mut self.ws.resid);
        for v in &mut y {
            *v *= -beta;
        }
        self.sweep(&y, p);
        self.ws.resid = y;
        for (&v, &u) in self.cache().chains[j].vars.iter().zip(&self.ws.u) {
            p[v] -= beta * u;
        }
        p[k] = 0.0;
        self.ws.sweep_ns += clock(self.ws.timed) - t0;
    }

    /// Takes in the bounds that a blocked step of length `alpha` admitted —
    /// the entries of `working` past the rows the factor holds — and
    /// updates `p`, the step to the minimiser on the working set before
    /// them, to the step on the working set after them, with no KKT solve.
    ///
    /// With `Z` the projected inverse of the working set, `p = −Z·∇f(x)`
    /// and `ZHZ = Z`, so after the step the minimiser is `p̂ = (1 − α)·p`
    /// away. Fixing bound `k` at `x_k` takes `z_k·z_kᵀ/Z_kk` from `Z`
    /// (`z_k = Z·e_k`), which moves the minimiser by `−(p̂_k/Z_kk)·z_k`.
    /// Each bound in admission order costs its fix, a factor solve and a
    /// sweep; a tied bound after the first takes a zero step.
    ///
    /// Returns `false` with nothing changed when an admitted row is a
    /// general row, more than [`MAX_UPDATE_BOUNDS`] were admitted or the
    /// factor's row list is stale; `false` after a bound whose fix fails
    /// (a dependent bound), where the caller's full KKT step meets the same
    /// failure; and `false` with every bound fixed when the update shrank
    /// the step below [`MIN_UPDATE_RATIO`] of `p̂`. The caller then solves
    /// for the step.
    pub(crate) fn update_step(
        &mut self,
        x: &[f64],
        working: &[usize],
        alpha: f64,
        p: &mut [f64],
    ) -> bool {
        let cache = self.cache();
        let admitted = &working[self.ws.held.len()..];
        if self.ws.cols_stale
            || admitted.len() > MAX_UPDATE_BOUNDS
            || admitted.iter().any(|&i| cache.bound[i].is_none())
        {
            return false;
        }
        let start = clock(self.ws.timed);
        let solves = self.ws.factor_ns + self.ws.sweep_ns;
        for v in p.iter_mut() {
            *v *= 1.0 - alpha;
        }
        let p_hat = vec_ops::norm_inf(p);
        let mut fixed_all = true;
        for &i in admitted {
            let (k, _) = cache.bound[i].expect("only bounds are admitted here");
            if self.fix(k, x, Some(p)).is_err() {
                fixed_all = false;
                break;
            }
            self.log(FactorOp::Fix(i as u32));
            self.ws.held.push(i);
            self.ws.updates += 1;
        }
        let ws = &mut *self.ws;
        let elapsed = clock(ws.timed) - start;
        ws.update_ns += elapsed.saturating_sub(ws.factor_ns + ws.sweep_ns - solves);
        fixed_all && vec_ops::norm_inf(p) >= MIN_UPDATE_RATIO * p_hat
    }

    /// Frees variable `k`: with `h` the chain's Hessian column `k`,
    /// `v = M·h` and `s = H̃_kk − hᵀv`, the bordered inverse is
    /// `M + ũ·ũᵀ` with `ũ = (e_k − v)/√s`, the general rows' Schur block
    /// gains `w·wᵀ` with `w = C_G·ũ`, and `tg` moves along `ũ` by
    /// `(g_k − hᵀ·tg)/√s`. Always succeeds in exact arithmetic; a
    /// non-positive `s` means the inverse has drifted, and the factor is
    /// emptied so the next KKT step rebuilds it.
    fn free(&mut self, k: usize) {
        let cache = self.cache();
        let qp = self.qp;
        let ws = &mut *self.ws;
        let (j, a) = (cache.var_chain[k], cache.var_local[k]);
        let chain = &cache.chains[j];
        let nl = chain.vars.len();
        // The Hessian column over the chain.
        ws.local.clear();
        ws.local.resize(nl, 0.0);
        hessian_column(&qp.h, k, |r, v| {
            if v != 0.0 && cache.var_chain[r] == j {
                ws.local[cache.var_local[r]] = v;
            }
        });
        ws.local[a] += cache.ridge;
        let htg: f64 = chain
            .vars
            .iter()
            .zip(&ws.local)
            .map(|(&v, &h)| h * ws.tg[v])
            .sum();
        ws.fixed[k] = false;
        let Some(root) = ws.inv[j].free(a, &ws.local, &mut ws.slots, &mut ws.u, &mut ws.pos) else {
            self.reset_factor();
            return;
        };
        let step = (qp.g[k] - htg) / root;
        rank_one_images(
            qp,
            cache,
            j,
            &ws.chain_rows[j],
            &ws.u,
            &mut ws.col,
            &mut ws.coupling,
        );
        ws.factor.update(j, &ws.col, &ws.coupling);
        for (&v, &u) in chain.vars.iter().zip(&ws.u) {
            ws.tg[v] += u * step;
        }
    }

    /// `p −= H̃_FF⁻¹·C_Gᵀ·coeffs` over the general working rows `cols`:
    /// scatter `C_Gᵀ·coeffs` onto the slots, then sweep each chain's
    /// inverse rows over its free ones. Entries on fixed variables land in
    /// slots past the free ones, which no sweep reads, so fixed variables
    /// keep `p_k` unchanged.
    fn sweep(&mut self, coeffs: &[f64], p: &mut [f64]) {
        let ws = &mut *self.ws;
        for &(r, k, c) in &ws.entries {
            ws.zs[ws.pos[k]] += c * coeffs[r];
        }
        for inv in &ws.inv {
            let free = inv.free;
            let z = &ws.zs[inv.base..inv.base + free];
            if z.iter().all(|&v| v == 0.0) {
                continue;
            }
            let global = &inv.global[..free];
            ws.slots.clear();
            ws.slots.extend(global.iter().map(|&k| p[k]));
            simd::axpy_rows(-1.0, &inv.m, inv.dim, &ws.iota[..free], z, &mut ws.slots);
            for (&k, &v) in global.iter().zip(&ws.slots) {
                p[k] = v;
            }
        }
        ws.zs.fill(0.0);
    }

    /// Solves the working system from the current factor: `λ = S_G⁻¹·C_G·t`
    /// and `p = t − H̃_FF⁻¹C_Gᵀλ` into `sol[..n]`, then one pass of
    /// iterative refinement, all in factor order. The residual is taken
    /// from the step as `r = C_G·p` (sparse row dots, O(nnz)); since
    /// `C_G·H̃_FF⁻¹·C_Gᵀ = S_G`, it equals `C_G·t − S_G·λ` without
    /// touching the Schur block. The correction `δ = S_G⁻¹·r` updates both
    /// `λ += δ` and `p −= H̃_FF⁻¹C_Gᵀδ`. Returns `‖δ‖∞`.
    fn solve_refined(&mut self, sol: &mut Vec<f64>) -> f64 {
        let timed = self.ws.timed;
        let t0 = clock(timed);
        let mut lam = std::mem::take(&mut self.ws.lam);
        let mut resid = std::mem::take(&mut self.ws.resid);
        lam.clear();
        lam.resize(self.ws.cols.len(), 0.0);
        for &(r, k, c) in &self.ws.entries {
            lam[r] += c * self.ws.t[k];
        }
        let t1 = clock(timed);
        self.ws.factor.solve_in_place(&mut lam);
        let t2 = clock(timed);
        sol.clear();
        sol.extend_from_slice(&self.ws.t);
        self.sweep(&lam, sol);
        resid.clear();
        resid.resize(lam.len(), 0.0);
        for &(r, k, c) in &self.ws.entries {
            resid[r] += c * sol[k];
        }
        let t3 = clock(timed);
        self.ws.factor.solve_in_place(&mut resid);
        let t4 = clock(timed);
        for (l, &d) in lam.iter_mut().zip(&resid) {
            *l += d;
        }
        self.sweep(&resid, sol);
        let t5 = clock(timed);
        self.ws.factor_ns += (t2 - t1) + (t4 - t3);
        self.ws.sweep_ns += (t1 - t0) + (t3 - t2) + (t5 - t4);
        self.ws.refinements += 1;
        let correction = vec_ops::norm_inf(&resid);
        self.ws.lam = lam;
        self.ws.resid = resid;
        correction
    }

    /// Number of decision variables.
    pub(crate) fn num_vars(&self) -> usize {
        self.qp.num_vars()
    }

    /// Number of equality constraints (always in the working system).
    pub(crate) fn num_eq(&self) -> usize {
        self.qp.a_eq.len()
    }

    /// Number of inequality constraints.
    pub(crate) fn num_in(&self) -> usize {
        self.qp.a_in.len()
    }

    /// Iteration budget for this problem instance.
    pub(crate) fn iteration_budget(&self) -> usize {
        self.qp.iteration_budget()
    }

    /// Dot product of inequality row `i` with `v`: one product for a bound.
    pub(crate) fn in_dot(&self, i: usize, v: &[f64]) -> f64 {
        match self.cache().bound[i] {
            Some((k, c)) => c * v[k],
            None => self.qp.a_in[i].dot(v),
        }
    }

    /// Right-hand side of inequality `i`.
    pub(crate) fn in_rhs(&self, i: usize) -> f64 {
        self.qp.b_in[i]
    }

    /// The partner of working bound `i` (see [`flip`](Self::flip)) when it
    /// is tight at `x`: its slack is at most `tol`, the tolerance at which
    /// a blocked step admits the rows it leaves tight.
    pub(crate) fn tight_partner(&self, i: usize, x: &[f64], tol: f64) -> Option<usize> {
        let j = self.cache().partner[i]?;
        (self.in_rhs(j) - self.in_dot(j, x) <= tol).then_some(j)
    }

    /// Holds bound `j` in place of the bound at working position `pos`, its
    /// partner on the same variable, and returns `c_i/c_j`, the factor that
    /// turns the old row's multiplier into the new one's. The variable
    /// stays fixed, so the free-set inverses, the Schur factor and `tg` all
    /// stand: only the held row's label changes. At a stationary point
    /// `c_j·μ_j = c_i·μ_i` keeps stationarity, and with opposite signs a
    /// negative `μ_i` becomes a positive `μ_j`.
    pub(crate) fn flip(&mut self, pos: usize, j: usize) -> f64 {
        let cache = self.cache();
        let i = std::mem::replace(&mut self.ws.held[pos], j);
        self.log(FactorOp::Flip(i as u32));
        let ((k, ci), (kj, cj)) = (
            cache.bound[i].expect("a flipped row is a bound"),
            cache.bound[j].expect("a partner is a bound"),
        );
        debug_assert_eq!(k, kj, "partners bound one variable");
        ci / cj
    }

    /// Whether the loop admits/drops at most one constraint per outer
    /// iteration (see [`BandedQp::single_pivot`]).
    pub(crate) fn single_pivot(&self) -> bool {
        self.qp.single_pivot
    }

    /// The clock and the other timed parts at the start of a pivot (zeros
    /// in an untimed solve).
    pub(crate) fn pivot_mark(&self) -> (u64, u64) {
        (clock(self.ws.timed), self.timed_parts())
    }

    /// Nanoseconds since `mark` in a timed solve, less the other parts
    /// timed in between: a drop's factor removal is an update, and a step
    /// update's fixes, solves and sweeps count as theirs, not as the
    /// pivot's.
    pub(crate) fn pivot_ns(&self, (start, parts): (u64, u64)) -> u64 {
        (clock(self.ws.timed) - start).saturating_sub(self.timed_parts() - parts)
    }

    /// Working-set update, factor solve and sweep time since `begin`.
    fn timed_parts(&self) -> u64 {
        self.ws.update_ns + self.ws.factor_ns + self.ws.sweep_ns
    }

    /// Called once after warm-start seeding, before the first iteration,
    /// with the accepted seed in `working` (`in_working` its mask): zeroes
    /// the counters, then edits the working-set state the workspace
    /// carries from this problem's last solve into the seed (see
    /// [`transition`](Self::transition)), or empties the factor for a
    /// from-scratch build when it carries none or a poisoned build is
    /// armed. Timing is switched on for this solve when a trace recorder
    /// is bound.
    pub(crate) fn begin(&mut self, x: &[f64], working: &mut Vec<usize>, in_working: &[bool]) {
        self.ws.refinements = 0;
        self.ws.refactorizations = 0;
        self.ws.updates = 0;
        self.ws.downdates = 0;
        self.ws.update_ns = 0;
        self.ws.factor_ns = 0;
        self.ws.sweep_ns = 0;
        self.ws.timed = idc_obs::recording();
        // (`force_refactor` deliberately survives: it is armed between
        // solves and consumed by the first factor build.)
        if self.ws.force_refactor || !self.carries() {
            self.reset_factor();
            return;
        }
        let start = clock(self.ws.timed);
        self.transition(x, working, in_working);
        self.ws.update_ns += clock(self.ws.timed) - start;
    }

    /// Reaches the seed from the carried state by editing it: a held bound
    /// the seed lacks whose partner (the opposite bound on the same
    /// variable) the seed holds is flipped onto it, which keeps the
    /// variable fixed and changes no factor; the other held rows the seed
    /// lacks are freed or removed, last first; `working` is reordered so
    /// the rows still held keep their held order and come first, the
    /// seed's new rows following in seed order (so `held` stays a prefix
    /// of `working`); the new rows are fixed or appended; and `tg` is
    /// recomputed from this solve's gradient at `x`. Each removal is a
    /// downdate and each addition an update. Empties the factor for a
    /// from-scratch build instead when the edits would take the log past
    /// [`factor_log_cap`], and when an edit fails.
    fn transition(&mut self, x: &[f64], working: &mut Vec<usize>, in_working: &[bool]) {
        let cache = self.cache();
        let ws = &mut *self.ws;
        ws.held_mask.resize(in_working.len(), false);
        for &i in &ws.held {
            ws.held_mask[i] = true;
        }
        let flips_onto = |i: usize, mask: &[bool]| {
            cache.partner[i].filter(|&j| !in_working[i] && in_working[j] && !mask[j])
        };
        let (mut kept, mut flips) = (0, 0);
        for &i in &ws.held {
            if in_working[i] {
                kept += 1;
            } else if flips_onto(i, &ws.held_mask).is_some() {
                flips += 1;
            }
        }
        let edits = ws.held.len() + working.len() - 2 * (kept + flips);
        let cap = factor_log_cap(ws.log.base.len());
        if ws.log.ops.len() + flips + edits > cap {
            for &i in &ws.held {
                ws.held_mask[i] = false;
            }
            self.reset_factor();
            return;
        }
        for pos in 0..ws.held.len() {
            let i = self.ws.held[pos];
            if let Some(j) = flips_onto(i, &self.ws.held_mask) {
                self.flip(pos, j);
                self.ws.held_mask[i] = false;
                self.ws.held_mask[j] = true;
            }
        }
        for pos in (0..self.ws.held.len()).rev() {
            let i = self.ws.held[pos];
            if !in_working[i] {
                self.ws.held_mask[i] = false;
                self.remove_held(pos);
                if !self.ws.factor.is_built() {
                    self.ws.held_mask.fill(false);
                    return;
                }
                self.ws.downdates += 1;
            }
        }
        let ws = &mut *self.ws;
        ws.seed_rows.clear();
        ws.seed_rows.extend_from_slice(working);
        working.clear();
        working.extend_from_slice(&ws.held);
        working.extend(ws.seed_rows.iter().filter(|&&i| !ws.held_mask[i]));
        for &i in &ws.held {
            ws.held_mask[i] = false;
        }
        for pos in self.ws.held.len()..working.len() {
            if self.add_row(working[pos], x).is_err() {
                self.reset_factor();
                return;
            }
            self.ws.updates += 1;
        }
        self.refresh_tg(x);
    }

    /// Recomputes `tg` at `x` for the held free sets: per chain,
    /// `tg_F = M·(g_F + H̃_FX·x_X)` over the free variables `F` (one sweep
    /// of the inverse) and `tg_X = −x_X` over the fixed ones.
    fn refresh_tg(&mut self, x: &[f64]) {
        let qp = self.qp;
        let ws = &mut *self.ws;
        ws.hx.clear();
        ws.hx.extend_from_slice(&qp.g);
        for inv in &ws.inv {
            for &k in &inv.global[inv.free..] {
                if x[k] != 0.0 {
                    hessian_column(&qp.h, k, |r, h| ws.hx[r] += h * x[k]);
                }
            }
        }
        for inv in &ws.inv {
            let free = &inv.global[..inv.free];
            ws.sweep_rows.clear();
            ws.sweep_coeffs.clear();
            for (s, &k) in free.iter().enumerate() {
                if ws.hx[k] != 0.0 {
                    ws.sweep_rows.push(s);
                    ws.sweep_coeffs.push(ws.hx[k]);
                }
            }
            ws.slots.clear();
            ws.slots.resize(inv.free, 0.0);
            simd::axpy_rows(
                1.0,
                &inv.m,
                inv.dim,
                &ws.sweep_rows,
                &ws.sweep_coeffs,
                &mut ws.slots,
            );
            for (&k, &y) in free.iter().zip(&ws.slots) {
                ws.tg[k] = y;
            }
            for &k in &inv.global[inv.free..] {
                ws.tg[k] = -x[k];
            }
        }
    }

    /// Rebuilds the working-set state from `log` (see
    /// [`BandedQp::replay`]): the base by a from-scratch build, then each
    /// change, which the state's own log records again as it applies.
    fn replay(&mut self, log: &FactorLog) -> Result<()> {
        let cache = self.cache();
        let (n, mi) = (self.num_vars(), self.num_in());
        let bad = |what: String| Err(Error::BadFactorLog { what });
        let cap = factor_log_cap(log.base.len());
        if log.ops.len() > cap {
            return bad(format!(
                "{} changes after its base, above the cap of {cap}",
                log.ops.len()
            ));
        }
        let mut rows = log
            .base
            .iter()
            .copied()
            .chain(log.ops.iter().map(|op| op.row()));
        if let Some(i) = rows.find(|&i| i >= mi) {
            return bad(format!("row {i} beyond the {mi} inequality rows"));
        }
        self.reset_factor();
        // `tg` is recomputed by the next solve's transition, so the build
        // may take it at any point.
        let x = vec![0.0; n];
        if let Err(e) = self.build(&x, &log.base, false) {
            self.reset_factor();
            return bad(format!(
                "its base of {} rows does not build ({e})",
                log.base.len()
            ));
        }
        for (at, &op) in log.ops.iter().enumerate() {
            let i = op.row();
            let is_bound = cache.bound[i].is_some();
            let pos = self.ws.held.iter().position(|&h| h == i);
            let applied = match op {
                FactorOp::Fix(_) | FactorOp::Append(_) => {
                    pos.is_none()
                        && is_bound == matches!(op, FactorOp::Fix(_))
                        && self.add_row(i, &x).is_ok()
                }
                FactorOp::Free(_) | FactorOp::Remove(_) => match pos {
                    Some(pos) if is_bound == matches!(op, FactorOp::Free(_)) => {
                        self.remove_held(pos);
                        self.ws.factor.is_built()
                    }
                    _ => false,
                },
                FactorOp::Flip(_) => match (pos, cache.partner[i]) {
                    (Some(pos), Some(j)) if !self.ws.held.contains(&j) => {
                        self.flip(pos, j);
                        true
                    }
                    _ => false,
                },
            };
            if !applied {
                self.reset_factor();
                return bad(format!(
                    "change {at}, {op:?}, does not apply to the state before it"
                ));
            }
        }
        debug_assert_eq!(&self.ws.log, log, "a replay logs what it applies");
        Ok(())
    }

    /// Called after the entry at position `pos` was removed from the
    /// working set (a multiplier drop, or a degenerate-KKT pop of the last
    /// entry).
    pub(crate) fn on_remove(&mut self, pos: usize) {
        if pos >= self.ws.held.len() {
            return;
        }
        let start = clock(self.ws.timed);
        self.remove_held(pos);
        self.ws.downdates += 1;
        self.ws.update_ns += clock(self.ws.timed) - start;
    }

    /// Solves the equality-constrained subproblem at `x` for the working
    /// set, leaving `[p; multipliers]` in `sol` (multipliers ordered
    /// equalities first, then `working` in order). A bound's multiplier is
    /// left at zero: [`bound_multipliers`](Self::bound_multipliers) fills
    /// it in at stationary points.
    pub(crate) fn kkt_step(
        &mut self,
        x: &[f64],
        working: &[usize],
        sol: &mut Vec<f64>,
    ) -> Result<()> {
        let me = self.qp.a_eq.len();
        let start = clock(self.ws.timed);
        let poisoned = self.ensure_factor(x, working);
        self.ws.update_ns += clock(self.ws.timed) - start;
        let poisoned = poisoned?;
        self.newton_point(x);
        if self.ws.cols_stale {
            self.list_cols();
        }
        let ws = &mut *self.ws;
        sol.clear();
        let general = !ws.cols.is_empty();
        // λ and p from the incrementally maintained factor, plus one step
        // of iterative refinement against the residual of the step itself.
        let correction = if general {
            self.solve_refined(sol)
        } else {
            0.0
        };
        // Stability rebuild: a large correction means the up/downdated
        // factor has drifted from the true working block. Rebuild from
        // scratch and re-solve (once per KKT step). A poisoned build
        // rebuilds unconditionally — one refinement pass shrinks the
        // multiplier error but need not reach solver tolerance, and inexact
        // λ makes the step leave the equality manifold. The rebuilt factor
        // holds the same rows in the same order, so `cols` stands.
        if poisoned || correction > REBUILD_TOL * (1.0 + vec_ops::norm_inf(&self.ws.lam)) {
            let start = clock(self.ws.timed);
            self.reset_factor();
            let rebuilt = self.ensure_factor(x, working);
            self.ws.update_ns += clock(self.ws.timed) - start;
            rebuilt?;
            self.newton_point(x);
            if self.ws.cols_stale {
                self.list_cols();
            }
            if general {
                self.solve_refined(sol);
            }
        }
        if !general {
            // Bounds alone: the Newton point of the free variables is the
            // step.
            sol.extend_from_slice(&self.ws.t);
            sol.resize(self.ws.t.len() + working.len(), 0.0);
            return Ok(());
        }
        // Multipliers leave in working order: equalities (the factor's
        // tail), then each working general inequality from its chain's
        // block; bounds get a placeholder.
        let cache = self.cache();
        let ws = &mut *self.ws;
        let ngen = ws.cols.len() - me;
        sol.extend_from_slice(&ws.lam[ngen..]);
        ws.cursor.clear();
        let mut start = 0;
        for rows in &ws.chain_rows {
            ws.cursor.push(start);
            start += rows.len();
        }
        for &i in working {
            if cache.bound[i].is_some() {
                sol.push(0.0);
            } else {
                let at = &mut ws.cursor[cache.row_chain[i]];
                sol.push(ws.lam[*at]);
                *at += 1;
            }
        }
        Ok(())
    }

    /// Lists the general working rows in factor order (each chain's
    /// block, then the equalities) into `cols` and flattens their entries.
    fn list_cols(&mut self) {
        let me = self.qp.a_eq.len();
        let ws = &mut *self.ws;
        ws.cols.clear();
        for rows in &ws.chain_rows {
            ws.cols.extend(rows.iter().map(|&i| me + i));
        }
        ws.cols.extend(0..me);
        self.flatten_cols();
        self.ws.cols_stale = false;
    }

    /// Lists every entry of the working system's rows `cols` as one flat
    /// array, so the right-hand side, the residual and the sweeps stream
    /// one buffer instead of chasing each row's own. Entries on fixed
    /// variables meet exact zeros in `t` and `p`, and a sweep never gathers
    /// them, so the list holds across bound fixes and frees.
    fn flatten_cols(&mut self) {
        let qp = self.qp;
        let ws = &mut *self.ws;
        ws.entries.clear();
        for (r, &gr) in ws.cols.iter().enumerate() {
            ws.entries
                .extend(qp.crow(gr).entries().iter().map(|&(k, c)| (r, k, c)));
        }
        let widest = ws.inv.iter().map(|inv| inv.dim).max().unwrap_or(0);
        if ws.iota.len() < widest {
            ws.iota.clear();
            ws.iota.extend(0..widest);
        }
    }

    /// The Newton point `t = −x − tg` (exact zeros on fixed variables).
    fn newton_point(&mut self, x: &[f64]) {
        let ws = &mut *self.ws;
        ws.t.clear();
        ws.t.extend(x.iter().zip(&ws.tg).map(|(&xi, &ti)| -xi - ti));
    }

    /// Fills in the working bounds' multipliers of a [`kkt_step`]
    /// solution `sol = [p; multipliers]`, from the reduced gradient at the
    /// step's end: stationarity `H(x + p) + g + C_Gᵀλ_G + cₖμ·e_k = 0`
    /// gives `μ = −(H(x + p) + g + C_Gᵀλ_G)_k / cₖ` for a bound `cₖ·x_k ≤ b`.
    /// Called at stationary points only, where the loop reads multipliers.
    ///
    /// [`kkt_step`]: Self::kkt_step
    pub(crate) fn bound_multipliers(&mut self, x: &[f64], working: &[usize], sol: &mut [f64]) {
        let (n, me) = (self.num_vars(), self.num_eq());
        let cache = self.cache();
        let qp = self.qp;
        let ws = &mut *self.ws;
        if working.iter().all(|&i| cache.bound[i].is_none()) {
            return;
        }
        let (p, mult) = sol.split_at_mut(n);
        ws.z.clear();
        ws.z.extend(x.iter().zip(p.iter()).map(|(&xi, &pi)| xi + pi));
        ws.hx.clear();
        ws.hx.resize(n, 0.0);
        let general = qp.a_eq.iter().zip(&mult[..me]).chain(
            working
                .iter()
                .zip(&mult[me..])
                .filter(|(&i, _)| cache.bound[i].is_none())
                .map(|(&i, l)| (&qp.a_in[i], l)),
        );
        for (row, &l) in general {
            for &(k, c) in row.entries() {
                ws.hx[k] += c * l;
            }
        }
        for (&i, m) in working.iter().zip(&mut mult[me..]) {
            if let Some((k, c)) = cache.bound[i] {
                let r = hessian_row_dot(&qp.h, k, &ws.z) + cache.ridge * ws.z[k] + qp.g[k];
                *m = -(r + ws.hx[k]) / c;
            }
        }
    }

    /// Drains the refinement, working-set factor and timing counters
    /// accumulated since [`begin`](Self::begin) into `stats`.
    pub(crate) fn take_counters(&mut self, stats: &mut SolveStats) {
        let ws = &mut *self.ws;
        stats.refinement_passes = std::mem::take(&mut ws.refinements);
        stats.refactorizations = std::mem::take(&mut ws.refactorizations);
        stats.updates_applied = std::mem::take(&mut ws.updates);
        stats.downdates_applied = std::mem::take(&mut ws.downdates);
        stats.update_ns = std::mem::take(&mut ws.update_ns);
        stats.factor_solve_ns = std::mem::take(&mut ws.factor_ns);
        stats.sweep_ns = std::mem::take(&mut ws.sweep_ns);
    }
}

/// One chain's free-set inverse `M = H̃_FF⁻¹`, kept compact: the free
/// variables occupy the leading slots, so `M` is the leading `free × free`
/// block of a row-major array whose stride is the chain's width. Fixing a
/// variable moves it to the last free slot and shrinks the block; freeing
/// one grows it by a slot.
#[derive(Debug, Clone, Default)]
struct FreeInverse {
    /// Row-major `dim × dim`; only the leading `free × free` block is read.
    m: Vec<f64>,
    /// The chain's width, the row stride.
    dim: usize,
    /// Where the chain's slots start in a sweep's slot-ordered buffer.
    base: usize,
    /// The number of free variables.
    free: usize,
    /// Slot of each of the chain's variables (local order).
    slot: Vec<usize>,
    /// Variable (local index) in each slot.
    var: Vec<usize>,
    /// Variable (global index) in each slot.
    global: Vec<usize>,
    /// Scratch: the slots and coefficients of a Hessian column's sweep.
    rows: Vec<usize>,
    coeffs: Vec<f64>,
}

impl FreeInverse {
    /// Every variable free: `M = m0`, the chain's all-free inverse, its
    /// slots from `base` on; records each variable's position in `pos`.
    fn reset(&mut self, m0: &[f64], vars: &[usize], base: usize, pos: &mut [usize]) {
        let dim = vars.len();
        self.m.clear();
        self.m.extend_from_slice(m0);
        self.dim = dim;
        self.base = base;
        self.free = dim;
        for (s, &k) in vars.iter().enumerate() {
            pos[k] = base + s;
        }
        self.slot.clear();
        self.slot.extend(0..dim);
        self.var.clear();
        self.var.extend(0..dim);
        self.global.clear();
        self.global.extend_from_slice(vars);
    }

    /// Whether local variable `l` is free.
    fn is_free(&self, l: usize) -> bool {
        self.slot[l] < self.free
    }

    /// The free row of local variable `l`, in slot order.
    fn row(&self, l: usize) -> &[f64] {
        &self.m[self.slot[l] * self.dim..][..self.free]
    }

    /// `M[la, lb]` (zero unless both are free).
    fn get(&self, la: usize, lb: usize) -> f64 {
        if self.is_free(la) && self.is_free(lb) {
            self.row(la)[self.slot[lb]]
        } else {
            0.0
        }
    }

    /// `scale·M·e_l` in local order into `out` (zeros on fixed variables).
    fn column(&self, l: usize, scale: f64, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.dim, 0.0);
        for (&v, &m) in self.var.iter().zip(self.row(l)) {
            out[v] = scale * m;
        }
    }

    /// The image `M·cᵀ` of a row on the chain's variables, in local order
    /// into `out` (`slots` is scratch).
    fn image(
        &self,
        row: &SparseRow,
        var_local: &[usize],
        slots: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        slots.clear();
        slots.resize(self.free, 0.0);
        for &(k, c) in row.entries() {
            let l = var_local[k];
            if self.is_free(l) {
                for (o, &m) in slots.iter_mut().zip(self.row(l)) {
                    *o += c * m;
                }
            }
        }
        out.clear();
        out.resize(self.dim, 0.0);
        for (&v, &y) in self.var.iter().zip(slots.iter()) {
            out[v] = y;
        }
    }

    /// Swaps slots `a` and `b` of the leading `n × n` block, rows and
    /// columns, and their variables, whose positions it updates in `pos`.
    fn swap_slots(&mut self, a: usize, b: usize, n: usize, pos: &mut [usize]) {
        if a == b {
            return;
        }
        let dim = self.dim;
        for c in 0..n {
            self.m.swap(a * dim + c, b * dim + c);
        }
        for r in 0..n {
            self.m.swap(r * dim + a, r * dim + b);
        }
        self.var.swap(a, b);
        self.global.swap(a, b);
        self.slot[self.var[a]] = a;
        self.slot[self.var[b]] = b;
        pos[self.global[a]] = self.base + a;
        pos[self.global[b]] = self.base + b;
    }

    /// Fixes free local variable `l`: with `d = M_ll` and `ũ = M·e_l/√d`,
    /// `M −= ũ·ũᵀ`, whose row and column `l` then vanish; `l` moves to the
    /// last free slot, which leaves the block (`pos` follows the moved
    /// slots). Calls `visit(k, ũ_k)` for each free variable `k` (global
    /// index) and returns `√d`; `d` must be positive.
    fn fix(
        &mut self,
        l: usize,
        slots: &mut Vec<f64>,
        pos: &mut [usize],
        mut visit: impl FnMut(usize, f64),
    ) -> f64 {
        let root = self.row(l)[self.slot[l]].sqrt();
        slots.clear();
        slots.extend(self.row(l).iter().map(|&m| m / root));
        simd::add_outer(-1.0, slots, &mut self.m, self.dim);
        for (&k, &s) in self.global.iter().zip(slots.iter()) {
            visit(k, s);
        }
        let last = self.free - 1;
        self.swap_slots(self.slot[l], last, self.free, pos);
        self.free = last;
        root
    }

    /// Frees fixed local variable `l`, given the chain's Hessian column
    /// `h` at `l` (local order): with `v = M·h` over the free variables and
    /// `s = h_l − hᵀv`, the bordered inverse is `M + ũ·ũᵀ` with
    /// `ũ = (e_l − v)/√s`. Leaves `ũ` in local order in `u` and returns
    /// `√s`, or `None` with `l` free but `M` unusable when `s` is not
    /// safely positive (the inverse has drifted). `pos` follows the moved
    /// slots.
    fn free(
        &mut self,
        l: usize,
        h: &[f64],
        slots: &mut Vec<f64>,
        u: &mut Vec<f64>,
        pos: &mut [usize],
    ) -> Option<f64> {
        let n = self.free;
        self.swap_slots(self.slot[l], n, n, pos);
        self.free = n + 1;
        let dim = self.dim;
        for c in 0..=n {
            self.m[n * dim + c] = 0.0;
            self.m[c * dim + n] = 0.0;
        }
        // v = M·h over the old free block (row and column n are zero).
        self.rows.clear();
        self.coeffs.clear();
        for (slot, &w) in self.var[..n].iter().enumerate() {
            if h[w] != 0.0 {
                self.rows.push(slot);
                self.coeffs.push(h[w]);
            }
        }
        slots.clear();
        slots.resize(n + 1, 0.0);
        simd::axpy_rows(1.0, &self.m, dim, &self.rows, &self.coeffs, slots);
        let hl = h[l];
        let s = hl
            - self.var[..n]
                .iter()
                .zip(slots.iter())
                .map(|(&w, &v)| h[w] * v)
                .sum::<f64>();
        if s <= PIVOT_TOL * hl.abs() {
            return None;
        }
        let root = s.sqrt();
        for x in slots.iter_mut() {
            *x = -*x / root;
        }
        slots[n] = 1.0 / root;
        simd::add_outer(1.0, slots, &mut self.m, dim);
        u.clear();
        u.resize(dim, 0.0);
        for (&w, &x) in self.var.iter().zip(slots.iter()) {
            u[w] = x;
        }
        Some(root)
    }
}

/// The general rows' images `w = C_G·ũ` of a rank-1 vector `ũ` over chain
/// `j`: the chain's held general rows into `chain_part`, the equalities
/// into `tail_part`.
fn rank_one_images(
    qp: &BandedQp,
    cache: &BandedCache,
    j: usize,
    rows: &[usize],
    u: &[f64],
    chain_part: &mut Vec<f64>,
    tail_part: &mut Vec<f64>,
) {
    chain_part.clear();
    chain_part.extend(
        rows.iter()
            .map(|&q| local_dot(&qp.a_in[q], &cache.var_local, u)),
    );
    tail_part.clear();
    tail_part.resize(qp.a_eq.len(), 0.0);
    for &(e, l, c) in &cache.chains[j].eq {
        tail_part[e] += c * u[l];
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
        h.dense(0, h.nblocks())
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
        let cold_obj = qp.objective_at(cold.x());
        assert!((qp.objective_at(warm.x()) - cold_obj).abs() < 1e-8);
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
        assert!((qp.objective_at(sloppy.x()) - cold_obj).abs() < 1e-8);
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
        assert!((banded.objective_at(warm.x()) - dense.objective_at(dense_sol.x())).abs() < 1e-8);
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
        let fresh_obj = qp.objective_at(fresh.x());
        assert!((qp.objective_at(sb.x()) - fresh_obj).abs() / (1.0 + fresh_obj.abs()) <= 1e-8);
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
        let (sb_obj, ss_obj) = (batched.objective_at(sb.x()), single.objective_at(ss.x()));
        assert!(
            (sb_obj - ss_obj).abs() / (1.0 + ss_obj.abs()) <= 1e-8,
            "batched {sb_obj} vs single-pivot {ss_obj}"
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
        let cold_obj = qp.objective_at(cold.x());
        assert!((qp.objective_at(poisoned.x()) - cold_obj).abs() <= 1e-8 * (1.0 + cold_obj.abs()));
        // Initial (poisoned) build plus the stability rebuild.
        assert!(
            poisoned.stats().refactorizations >= 2,
            "stats: {:?}",
            poisoned.stats()
        );
    }

    /// A general row nearly dependent on a held bound (`x₀ + 1e-7·x₁ ≤ 1`
    /// with `x₀` fixed) has a pivot of about 1e-14 of its all-free
    /// diagonal. A from-scratch build and an append to a built factor
    /// judge it by the same test, so both refuse it.
    #[test]
    fn row_nearly_dependent_on_a_held_bound_is_refused_by_build_and_append() {
        let mut qp = one_block(&[&[2.0, 0.3], &[0.3, 2.0]], vec![0.0, 0.0])
            .inequality(row(&[1.0, 0.0]), 1.0)
            .inequality(row(&[1.0, 1e-7]), 1.0);
        qp.prepare().unwrap();
        let x = [1.0, 0.0];
        let mut ws = BandedWorkspace::new();
        let mut ops = BandedOps {
            qp: &qp,
            ws: &mut ws,
        };
        ops.reset_factor();
        assert!(ops.build(&x, &[0, 1], false).is_err(), "build");
        ops.reset_factor();
        ops.ensure_factor(&x, &[0]).unwrap();
        assert!(ops.add_row(1, &x).is_err(), "append");
        assert_eq!(ops.ws.held, [0]);
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

    /// The dense reference `H̃⁻¹`: LU's inverse of the whole ridged
    /// Hessian.
    fn reference(qp: &BandedQp) -> Matrix {
        let mut h = densify(&qp.h);
        let ridge = qp.cache.as_ref().unwrap().ridge;
        for i in 0..h.rows() {
            h[(i, i)] += ridge;
        }
        Lu::factor(&h).unwrap().inverse().unwrap()
    }

    /// The dense reference of a chain's free-set inverse: `H̃_FF⁻¹` over the
    /// variables not in `fixed`, embedded with zeros at the fixed ones.
    fn reduced_reference(qp: &BandedQp, fixed: &[bool]) -> Matrix {
        let n = qp.num_vars();
        let h = densify(&qp.h);
        let free: Vec<usize> = (0..n).filter(|&k| !fixed[k]).collect();
        let hff = Matrix::from_fn(free.len(), free.len(), |a, b| h[(free[a], free[b])]);
        let inv = Lu::factor(&hff).unwrap().inverse().unwrap();
        let mut out = Matrix::zeros(n, n);
        for (a, &ka) in free.iter().enumerate() {
            for (b, &kb) in free.iter().enumerate() {
                out[(ka, kb)] = inv[(a, b)];
            }
        }
        out
    }

    /// Entry `(ka, kb)` of the workspace's free-set inverses (zero across
    /// chains).
    fn held_inverse(qp: &BandedQp, ws: &BandedWorkspace, ka: usize, kb: usize) -> f64 {
        let cache = qp.cache.as_ref().unwrap();
        let j = cache.var_chain[ka];
        if cache.var_chain[kb] != j {
            return 0.0;
        }
        let (la, lb) = (cache.var_local[ka], cache.var_local[kb]);
        assert_eq!(ws.inv[j].is_free(la), !ws.fixed[ka]);
        ws.inv[j].get(la, lb)
    }

    /// Checks the workspace's free-set inverses, `tg` and working-set
    /// factor against dense references for the variables it holds fixed:
    /// the inverse entrywise, `tg = H̃_FF⁻¹(g + H̃_FB·x_B)` on free and
    /// `−x_B` on fixed variables, and a factor solve against the reduced
    /// Schur block `C_G·H̃_FF⁻¹·C_Gᵀ` in factor order.
    fn assert_free_set_state(qp: &BandedQp, ws: &mut BandedWorkspace, x: &[f64], seed: &mut u64) {
        let n = qp.num_vars();
        let me = qp.a_eq.len();
        let m = reduced_reference(qp, &ws.fixed);
        let scale = 1.0 + m.norm_max();
        for ka in 0..n {
            for kb in 0..n {
                let held = held_inverse(qp, ws, ka, kb);
                assert!(
                    (held - m[(ka, kb)]).abs() <= 1e-10 * scale,
                    "M[{ka}, {kb}]: {held} vs {}",
                    m[(ka, kb)]
                );
            }
        }
        let h = densify(&qp.h);
        let q: Vec<f64> = (0..n)
            .map(|i| {
                qp.g[i]
                    + (0..n)
                        .filter(|&k| ws.fixed[k])
                        .map(|k| h[(i, k)] * x[k])
                        .sum::<f64>()
            })
            .collect();
        for i in 0..n {
            let expect = if ws.fixed[i] {
                -x[i]
            } else {
                (0..n).map(|k| m[(i, k)] * q[k]).sum()
            };
            assert!(
                (ws.tg[i] - expect).abs() <= 1e-9 * (1.0 + expect.abs()),
                "tg[{i}]"
            );
        }
        let mut cols: Vec<usize> = ws.chain_rows.iter().flatten().map(|&i| me + i).collect();
        cols.extend(0..me);
        let s = Matrix::from_fn(cols.len(), cols.len(), |r, c| {
            let (a, b) = (qp.crow(cols[r]), qp.crow(cols[c]));
            a.entries()
                .iter()
                .map(|&(i, ci)| {
                    b.entries()
                        .iter()
                        .map(|&(k, ck)| ci * ck * m[(i, k)])
                        .sum::<f64>()
                })
                .sum()
        });
        let rhs: Vec<f64> = cols.iter().map(|_| pseudo(seed)).collect();
        let mut x = rhs.clone();
        ws.factor.solve_in_place(&mut x);
        let expect = Lu::factor(&s).unwrap().solve(&rhs).unwrap();
        let scale = 1.0 + vec_ops::norm_inf(&expect);
        for (r, (a, b)) in x.iter().zip(&expect).enumerate() {
            assert!(
                (a - b).abs() <= 1e-7 * scale,
                "factor solve row {r}: {a} vs {b}"
            );
        }
    }

    /// A from-scratch build fixes the seeded bounds; incremental fixes and
    /// frees afterwards keep the free-set inverse, `tg` and the general rows'
    /// factor equal to dense references of the current free set, across
    /// separate chains and a coupled Hessian.
    #[test]
    fn free_set_inverse_matches_dense_reference() {
        let mut seed = 0xf1eeu64;
        let separable = block_diagonal_problem(3, 4, 2, &mut seed);
        let coupled = random_problem(3, 4, &mut seed);
        for mut qp in [separable, coupled] {
            qp.prepare().unwrap();
            let n = qp.num_vars();
            let x: Vec<f64> = (0..n).map(|_| 0.1 * pseudo(&mut seed)).collect();
            let bounds: Vec<usize> = (0..qp.a_in.len())
                .filter(|&i| qp.a_in[i].bound().is_some())
                .collect();
            let general: Vec<usize> = (0..qp.a_in.len())
                .filter(|&i| qp.a_in[i].bound().is_none())
                .collect();
            // Seed: every third bound plus the first general row (if any).
            let mut working: Vec<usize> = bounds.iter().step_by(5).copied().collect();
            working.extend(general.first());
            let mut ws = BandedWorkspace::new();
            let mut ops = BandedOps {
                qp: &qp,
                ws: &mut ws,
            };
            ops.reset_factor();
            ops.ensure_factor(&x, &working).unwrap();
            assert_eq!(ops.ws.refactorizations, 1);
            assert_free_set_state(&qp, ops.ws, &x, &mut seed);
            // Fix more bounds one at a time, then another general row.
            let more: Vec<usize> = bounds
                .iter()
                .skip(1)
                .step_by(4)
                .filter(|i| !working.contains(i))
                .copied()
                .collect();
            working.extend(more);
            working.extend(general.get(1));
            ops.ensure_factor(&x, &working).unwrap();
            assert!(ops.ws.updates > 0);
            assert_free_set_state(&qp, ops.ws, &x, &mut seed);
            // Free some bounds (and drop a general row) from the middle.
            for pos in [working.len() - 1, working.len() / 2, 1, 0] {
                working.remove(pos);
                ops.on_remove(pos);
            }
            assert_eq!(ops.ws.downdates, 4);
            assert_free_set_state(&qp, ops.ws, &x, &mut seed);
            assert_eq!(ops.ws.refactorizations, 1, "no rebuild was needed");
        }
    }

    /// The refinement residual is taken from the step, `C_G·(t − Y_Gᵀλ)`
    /// with `Y_G = H̃_FF⁻¹C_Gᵀ` applied by the chain sweeps; pin that it
    /// equals the Schur-block form `srhs − S_G·λ` read from the dense
    /// reduced reference, for an arbitrary (not converged) λ, with some
    /// variables fixed.
    #[test]
    fn step_residual_matches_schur_residual() {
        let mut seed = 0x7e51du64;
        for &(nb, t) in &[(2usize, 3usize), (3, 4), (5, 6)] {
            let mut banded = random_problem(nb, t, &mut seed);
            banded.prepare().unwrap();
            let n = banded.num_vars();
            let me = banded.a_eq.len();
            // Working set: a seeded subset of bounds; every equality is a
            // general row.
            let working: Vec<usize> = (0..banded.a_in.len()).filter(|i| i % 3 == 1).collect();
            let mut ws = BandedWorkspace::new();
            let mut ops = BandedOps {
                qp: &banded,
                ws: &mut ws,
            };
            ops.reset_factor();
            let x0 = centre(&banded);
            ops.ensure_factor(&x0, &working).unwrap();
            ops.ws.cols.clear();
            ops.ws.cols.extend(0..me);
            ops.flatten_cols();
            let m = reduced_reference(&banded, &ops.ws.fixed);
            let cols = ops.ws.cols.clone();
            let tvec: Vec<f64> = (0..n).map(|_| 2.0 * pseudo(&mut seed)).collect();
            let lam: Vec<f64> = (0..cols.len()).map(|_| pseudo(&mut seed)).collect();
            let srhs: Vec<f64> = cols.iter().map(|&gr| banded.crow(gr).dot(&tvec)).collect();
            let mut p = tvec.clone();
            ops.sweep(&lam, &mut p);
            let s = |a: usize, b: usize| -> f64 {
                let (ra, rb) = (banded.crow(a), banded.crow(b));
                ra.entries()
                    .iter()
                    .map(|&(i, ci)| {
                        rb.entries()
                            .iter()
                            .map(|&(k, ck)| ci * ck * m[(i, k)])
                            .sum::<f64>()
                    })
                    .sum()
            };
            let tol = 1e-10 * (1.0 + vec_ops::norm_inf(&srhs));
            for (r, &gr) in cols.iter().enumerate() {
                let from_step = banded.crow(gr).dot(&p);
                let from_schur = srhs[r]
                    - cols
                        .iter()
                        .zip(&lam)
                        .map(|(&gq, &lq)| s(gr, gq) * lq)
                        .sum::<f64>();
                assert!(
                    (from_step - from_schur).abs() <= tol,
                    "nb={nb} t={t} row {gr}: {from_step} vs {from_schur}"
                );
            }
            // Fixed variables keep their entry of t.
            for k in (0..n).filter(|&k| ops.ws.fixed[k]) {
                assert_eq!(p[k], tvec[k]);
            }
        }
    }

    /// Relative tolerance of a chain's inverse against the LU reference:
    /// the two factor the same well-conditioned matrix in different
    /// orders.
    const INV_TOL: f64 = 1e-12;

    /// Prepares `qp` and checks the cache against [`reference`]: each
    /// chain's square is the reference over the chain to [`INV_TOL`]
    /// relative to the reference's largest entry, and exactly symmetric;
    /// its entries between different runs of blocks are exact zeros, and
    /// so are the reference's entries there and across chains (LU keeps a
    /// block-diagonal matrix's zeros, up to sign); the chains partition the
    /// variables; the bounds are the single-entry rows; each chain lists
    /// its equality entries; and the cache stores one square per chain.
    fn assert_prepare_matches_reference(qp: &mut BandedQp) {
        qp.prepare().unwrap();
        let cache = qp.cache.as_ref().unwrap();
        let inv = reference(qp);
        let tol = INV_TOL * inv.norm_max();
        let n = qp.num_vars();
        let nb = qp.h.nb();
        // The run of blocks of each variable.
        let run_of = |k: usize| {
            (1..=k / nb)
                .filter(|&t| qp.h.sub(t - 1).iter().all(|&v| v == 0.0))
                .count()
        };
        let mut seen = vec![false; n];
        for (j, chain) in cache.chains.iter().enumerate() {
            for (l, &k) in chain.vars.iter().enumerate() {
                assert!(!seen[k], "variable {k} in two chains");
                seen[k] = true;
                assert_eq!((cache.var_chain[k], cache.var_local[k]), (j, l));
                let dim = chain.vars.len();
                for (lb, &kb) in chain.vars.iter().enumerate() {
                    let held = chain.inv[l * dim + lb];
                    assert!((held - inv[(k, kb)]).abs() <= tol, "M[{k}, {kb}]");
                    assert_eq!(held.to_bits(), chain.inv[lb * dim + l].to_bits());
                    if run_of(k) != run_of(kb) {
                        assert!(held.to_bits() == 0, "M[{k}, {kb}] outside its run");
                        assert!(inv[(k, kb)] == 0.0, "reference M[{k}, {kb}]");
                    }
                }
                for kb in (0..n).filter(|&kb| cache.var_chain[kb] != j) {
                    assert!(inv[(k, kb)] == 0.0, "M[{k}, {kb}] crosses chains");
                }
            }
            let mut eq: Vec<(usize, usize, f64)> = Vec::new();
            for (e, row) in qp.a_eq.iter().enumerate() {
                for &(k, c) in row.entries() {
                    if cache.var_chain[k] == j {
                        eq.push((e, cache.var_local[k], c));
                    }
                }
            }
            assert_eq!(chain.eq, eq);
            assert!(chain.vars.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(seen.iter().all(|&s| s));
        for (row, &b) in qp.a_in.iter().zip(&cache.bound) {
            let single = row.entries().len() == 1 && row.entries()[0].1 != 0.0;
            assert_eq!(b.is_some(), single, "{row:?}");
        }
        let squares: usize = cache.chains.iter().map(|c| c.vars.len().pow(2)).sum();
        assert_eq!(
            cache.chains.iter().map(|c| c.inv.len()).sum::<usize>(),
            squares
        );
    }

    #[test]
    fn prepare_matches_full_width_reference() {
        let mut seed = 0x9e7au64;
        let (nb, groups, len) = (3, 4, 3);
        let separable = block_diagonal_problem(nb, groups, len, &mut seed);
        assert_prepare_matches_reference(&mut separable.clone());
        // A row spanning groups 0 and 2 merges them into one chain of two
        // runs; group 1 keeps its own.
        let chain = nb * len;
        let mut merged = separable.clone().inequality(
            SparseRow::from_entries(vec![(1, 1.0), (2 * chain, 1.0)]),
            1.0,
        );
        assert_prepare_matches_reference(&mut merged);
        let vars = &merged.cache.as_ref().unwrap().chains[0].vars;
        assert_eq!(vars.len(), 2 * chain, "two runs");
        assert_eq!(vars[chain], 2 * chain, "the second run is group 2");
        // A coupled Hessian is one chain.
        assert_prepare_matches_reference(&mut random_problem(3, 4, &mut seed));
        // No inequalities: only the chains and their equality entries.
        let mut equalities = BandedQp::new(separable.h.clone(), separable.g.clone()).unwrap();
        for (row, &b) in separable.a_eq.iter().zip(&separable.b_eq) {
            equalities = equalities.equality(row.clone(), b);
        }
        assert_prepare_matches_reference(&mut equalities);
        // An empty inequality row joins chain 0 and is no bound.
        let mut empty = separable.inequality(SparseRow::new(), 1.0);
        assert_prepare_matches_reference(&mut empty);
        let cache = empty.cache.as_ref().unwrap();
        assert_eq!(*cache.row_chain.last().unwrap(), 0);
    }

    #[test]
    fn separable_hessian_gives_exact_zeros_outside_each_span() {
        let mut seed = 0x5a7au64;
        let (nb, groups, len) = (3, 4, 3);
        let chain = nb * len;
        let mut qp = block_diagonal_problem(nb, groups, len, &mut seed);
        assert_prepare_matches_reference(&mut qp);
        let me = qp.a_eq.len();
        let n = qp.num_vars();
        {
            let cache = qp.cache.as_ref().unwrap();
            // One chain per group, each contiguous, each row spanning its
            // own chain only.
            assert_eq!(cache.chains.len(), groups);
            for (g, c) in cache.chains.iter().enumerate() {
                assert_eq!(c.vars, (g * chain..(g + 1) * chain).collect::<Vec<_>>());
            }
            // A chain-local general row stays inside its chain.
            for (i, row) in qp.a_in.iter().enumerate() {
                let g = row.entries()[0].0 / chain;
                assert_eq!(cache.row_chain[i], g, "row {i}");
            }
        }
        // The chain sweeps equal a dense sweep with the dense reference
        // when nothing is fixed.
        let inv = reference(&qp);
        let mut ws = BandedWorkspace::new();
        let mut ops = BandedOps {
            qp: &qp,
            ws: &mut ws,
        };
        ops.reset_factor();
        ops.ensure_factor(&centre(&qp), &[]).unwrap();
        ops.ws.cols.clear();
        ops.ws
            .cols
            .extend((0..me).chain((0..groups).map(|g| me + g)));
        ops.flatten_cols();
        let cols = ops.ws.cols.clone();
        let lam: Vec<f64> = cols.iter().map(|_| pseudo(&mut seed)).collect();
        let t0: Vec<f64> = (0..n).map(|_| pseudo(&mut seed)).collect();
        let mut swept = t0.clone();
        ops.sweep(&lam, &mut swept);
        let mut z = vec![0.0; n];
        for (&gr, &l) in cols.iter().zip(&lam) {
            for &(k, c) in qp.crow(gr).entries() {
                z[k] += c * l;
            }
        }
        for i in 0..n {
            let dense = t0[i] - (0..n).map(|k| inv[(i, k)] * z[k]).sum::<f64>();
            assert!(
                (swept[i] - dense).abs() <= 1e-12 * (1.0 + dense.abs()),
                "p[{i}]"
            );
        }
        // And the solve satisfies the KKT certificate.
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
        assert_eq!(cache.chains.len(), 1);
        let chain = &cache.chains[0];
        assert_eq!(chain.vars, (0..n).collect::<Vec<_>>());
        // The fused sweep over the inverse's rows equals one axpy per row.
        let rows: Vec<usize> = (0..n).collect();
        let coeffs: Vec<f64> = rows.iter().map(|_| pseudo(&mut seed)).collect();
        let mut p = vec![0.5; n];
        simd::axpy_rows(-1.0, &chain.inv, n, &rows, &coeffs, &mut p);
        let mut by_row = vec![0.5; n];
        for (&r, &c) in rows.iter().zip(&coeffs) {
            simd::axpy_rows(-1.0, &chain.inv, n, &[r], &[c], &mut by_row);
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
        assert_eq!(qp.cache.as_ref().unwrap().chains.len(), groups);
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
        assert_eq!(merged.cache.as_ref().unwrap().chains.len(), 2);
        // The merged chain still solves to the KKT certificate.
        let sol = cold_solve(&mut merged, &mut BandedWorkspace::new());
        assert_kkt(&merged, &sol);
        // A coupled Hessian is one chain.
        let mut coupled = random_problem(3, 4, &mut seed);
        coupled.prepare().unwrap();
        assert!(coupled.inequality_chains().unwrap().iter().all(|&c| c == 0));
        assert_eq!(coupled.cache.as_ref().unwrap().chains.len(), 1);
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
            let (obj, dense_obj) = (qp.objective_at(sol.x()), dense.objective_at(dense_sol.x()));
            assert!(
                (obj - dense_obj).abs() <= 1e-8 * (1.0 + dense_obj.abs()),
                "{obj} vs {dense_obj}"
            );
        }
    }

    /// The multipliers the KKT step reports at a returned optimum — the
    /// general rows' from the Schur factor, the bounds' from the reduced
    /// gradient — equal the LU solution of the dense KKT system at the
    /// returned active set, bounds included.
    #[test]
    fn bound_multipliers_match_the_lu_certificate() {
        let mut seed = 0xb0a7du64;
        let mut bounds_checked = 0;
        let problems = [
            random_problem(3, 4, &mut seed),
            block_diagonal_problem(3, 4, 3, &mut seed),
            block_diagonal_problem(2, 3, 2, &mut seed),
        ];
        for mut qp in problems {
            let sol = cold_solve(&mut qp, &mut BandedWorkspace::new());
            assert_kkt(&qp, &sol);
            let n = qp.num_vars();
            let me = qp.a_eq.len();
            let w = sol.active_set();
            // The dense KKT system at W, as in `assert_kkt`.
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
            let mut ws = BandedWorkspace::new();
            let mut ops = BandedOps {
                qp: &qp,
                ws: &mut ws,
            };
            ops.reset_factor();
            let mut step = Vec::new();
            ops.kkt_step(sol.x(), w, &mut step).unwrap();
            ops.bound_multipliers(sol.x(), w, &mut step);
            let scale = 1.0 + vec_ops::norm_inf(&z);
            assert!(
                vec_ops::norm_inf(&step[..n]) <= 1e-8 * scale,
                "not stationary"
            );
            for (r, (&lu, &ours)) in z[n..].iter().zip(&step[n..]).enumerate() {
                assert!(
                    (lu - ours).abs() <= 1e-7 * scale,
                    "multiplier {r}: LU {lu} vs {ours}"
                );
            }
            bounds_checked += w.iter().filter(|&&i| qp.a_in[i].bound().is_some()).count();
        }
        assert!(bounds_checked > 0, "no bound was active");
    }

    /// A battery outage pins a variable with `lower == upper`: both bound
    /// rows are tight at every feasible point. The solve keeps at most one
    /// of them in its working set; seeding both makes the second a
    /// dependent fix, popped, and the optimum is unchanged.
    #[test]
    fn outage_pins_a_variable_between_equal_bounds() {
        let mut seed = 0x0a7a6eu64;
        let h = random_h(2, 3, &mut seed);
        let n = 6;
        let g: Vec<f64> = (0..n).map(|_| 4.0 * pseudo(&mut seed)).collect();
        let mut qp = BandedQp::new(h, g)
            .unwrap()
            .equality(row(&[0.0, 1.0, 1.0, 0.0, 0.0, 1.0]), 0.05)
            .inequality(SparseRow::from_entries(vec![(0, 1.0)]), 0.0)
            .inequality(SparseRow::from_entries(vec![(0, -1.0)]), 0.0);
        for i in 1..n {
            qp = qp
                .inequality(SparseRow::from_entries(vec![(i, 1.0)]), 0.1)
                .inequality(SparseRow::from_entries(vec![(i, -1.0)]), 0.1);
        }
        let x0 = [0.0, 0.05 / 3.0, 0.05 / 3.0, 0.0, 0.0, 0.05 / 3.0];
        let cold = qp
            .warm_start(&x0, &[], &mut BandedWorkspace::new())
            .unwrap();
        assert_eq!(cold.x()[0], 0.0);
        let pinned = cold.active_set().iter().filter(|&&i| i < 2).count();
        assert_eq!(pinned, 1, "active set {:?}", cold.active_set());
        assert_kkt(&qp, &cold);
        let mut seeded = vec![0, 1];
        seeded.extend(cold.active_set().iter().filter(|&&i| i >= 2));
        let warm = qp
            .warm_start(cold.x(), &seeded, &mut BandedWorkspace::new())
            .unwrap();
        assert!(warm.stats().degenerate_pops >= 1, "{:?}", warm.stats());
        assert!((qp.objective_at(warm.x()) - qp.objective_at(cold.x())).abs() <= 1e-10);
        assert_eq!(warm.x()[0], 0.0);
        assert_kkt(&qp, &warm);
    }

    /// A banded problem whose first variable sits in the box `0 ≤ x₀ ≤ width`
    /// (rows 0 and 1), with a gradient that pushes `x₀` up hard.
    fn boxed_problem(width: f64) -> BandedQp {
        let mut seed = 0xf11bu64;
        let h = random_h(2, 3, &mut seed);
        let mut g: Vec<f64> = (0..6).map(|_| pseudo(&mut seed)).collect();
        g[0] = -10.0;
        BandedQp::new(h, g)
            .unwrap()
            .inequality(SparseRow::from_entries(vec![(0, 1.0)]), width)
            .inequality(SparseRow::from_entries(vec![(0, -1.0)]), 0.0)
    }

    /// A zero-width box seeded on its lower side, whose multiplier is
    /// negative at the optimum, flips onto the upper side: one flip, no
    /// drop and no re-admission, and the same point as the solve seeded on
    /// the upper side and as the dense reference.
    #[test]
    fn zero_width_box_flips_onto_its_tight_opposite_bound() {
        let mut qp = boxed_problem(0.0);
        let x0 = [0.0; 6];
        let flipped = qp
            .warm_start(&x0, &[1], &mut BandedWorkspace::new())
            .unwrap();
        let stats = flipped.stats();
        assert_eq!(stats.bound_flips, 1, "{stats:?}");
        assert_eq!(stats.constraints_dropped, 0, "{stats:?}");
        assert_eq!(stats.constraints_added, 0, "{stats:?}");
        assert_eq!(stats.readmissions, 0, "{stats:?}");
        assert_eq!(flipped.active_set(), &[0]);
        assert_kkt(&qp, &flipped);
        let upper = qp
            .warm_start(&x0, &[0], &mut BandedWorkspace::new())
            .unwrap();
        assert_eq!(upper.stats().bound_flips, 0);
        let mut dense = densified(&qp);
        let reference = dense
            .warm_start(&x0, &[], &mut BandedWorkspace::new())
            .unwrap();
        assert_same_point(flipped.x(), upper.x());
        assert_same_point(flipped.x(), reference.x());
    }

    fn assert_same_point(a: &[f64], b: &[f64]) {
        assert!(
            a.iter().zip(b).all(|(u, v)| (u - v).abs() <= 1e-9),
            "{a:?} vs {b:?}"
        );
    }

    /// A box of positive width has no tight partner at its lower side, so
    /// the lower bound's negative multiplier drops it.
    #[test]
    fn positive_width_box_drops_its_bound() {
        let mut qp = boxed_problem(10.0);
        let sol = qp
            .warm_start(&[0.0; 6], &[1], &mut BandedWorkspace::new())
            .unwrap();
        let stats = sol.stats();
        assert_eq!(stats.bound_flips, 0, "{stats:?}");
        assert_eq!(stats.constraints_dropped, 1, "{stats:?}");
        assert!(sol.active_set().is_empty());
        assert!(sol.x()[0] > 0.0 && sol.x()[0] < 10.0, "{:?}", sol.x());
        assert_kkt(&qp, &sol);
        let reference = densified(&qp)
            .warm_start(&[0.0; 6], &[], &mut BandedWorkspace::new())
            .unwrap();
        assert_same_point(sol.x(), reference.x());
    }

    /// A conservation row whose every variable sits at its bound: with
    /// `x₀ + x₁ + x₂ = 0` and `x ≥ 0` the only feasible point has them at
    /// zero, and fixing the last of the three would leave the row no free
    /// part. That fix fails like a dependent row (a degenerate pop), and
    /// the solve ends with two of the bounds and the row working. A fourth
    /// variable outside the row stays free.
    #[test]
    fn conservation_row_with_every_variable_at_its_bound() {
        let mut qp = one_block(
            &[
                &[2.0, 0.5, 0.0, 0.1],
                &[0.5, 2.0, 0.5, 0.0],
                &[0.0, 0.5, 2.0, 0.2],
                &[0.1, 0.0, 0.2, 1.0],
            ],
            vec![3.0, 2.0, 1.0, -1.0],
        )
        .equality(row(&[1.0, 1.0, 1.0, 0.0]), 0.0)
        .inequality(row(&[-1.0, 0.0, 0.0, 0.0]), 0.0)
        .inequality(row(&[0.0, -1.0, 0.0, 0.0]), 0.0)
        .inequality(row(&[0.0, 0.0, -1.0, 0.0]), 0.0);
        for seed in [vec![], vec![0, 1, 2], vec![2, 0, 1]] {
            let sol = qp
                .warm_start(&[0.0; 4], &seed, &mut BandedWorkspace::new())
                .unwrap();
            assert!(
                sol.x()[..3].iter().all(|&v| v.abs() <= 1e-12),
                "{:?}",
                sol.x()
            );
            assert_near(sol.x()[3], 1.0);
            assert_eq!(sol.active_set().len(), 2, "seed {seed:?}");
            assert_kkt(&qp, &sol);
            if seed.len() == 3 {
                assert!(sol.stats().degenerate_pops >= 1, "{:?}", sol.stats());
            }
        }
    }

    /// The solve's timed parts stay zero unless a trace recorder is bound
    /// on the solving thread; bound, they are positive and sum to at most
    /// the solve's own wall time.
    #[test]
    fn solve_parts_are_timed_only_under_a_recorder() {
        let mut seed = 0x71de5u64;
        let mut qp = block_diagonal_problem(3, 4, 3, &mut seed);
        let untimed = cold_solve(&mut qp, &mut BandedWorkspace::new());
        let stats = untimed.stats();
        assert_eq!(
            (
                stats.update_ns,
                stats.factor_solve_ns,
                stats.sweep_ns,
                stats.ratio_test_ns
            ),
            (0, 0, 0, 0)
        );
        idc_obs::bind_thread_recorder(Some(std::sync::Arc::new(idc_obs::FlightRecorder::new(16))));
        let start = std::time::Instant::now();
        let timed = cold_solve(&mut qp, &mut BandedWorkspace::new());
        let wall = start.elapsed().as_nanos() as u64;
        idc_obs::bind_thread_recorder(None);
        let stats = timed.stats();
        assert!(
            stats.update_ns > 0 && stats.factor_solve_ns > 0,
            "{stats:?}"
        );
        assert!(stats.sweep_ns > 0 && stats.ratio_test_ns > 0, "{stats:?}");
        assert!(
            stats.parts_ns() <= wall,
            "{} ns of parts in {wall} ns",
            stats.parts_ns()
        );
        // Timing never feeds back into the solve.
        assert_eq!(timed.x(), untimed.x());
        assert_eq!(timed.active_set(), untimed.active_set());
    }

    /// A blocked step of length `alpha` from `x` admits the `admit` bounds
    /// outside `working` whose variables the step moves most: the rank-1
    /// step update then equals a fresh KKT step at the new iterate within
    /// 1e-9 of the step's size, and is exactly zero on every fixed
    /// variable.
    fn assert_update_matches_fresh_step(
        qp: &BandedQp,
        x: &[f64],
        working: &[usize],
        alpha: f64,
        admit: usize,
    ) {
        let n = qp.num_vars();
        let mut ws = BandedWorkspace::new();
        let mut ops = BandedOps { qp, ws: &mut ws };
        ops.reset_factor();
        let mut sol = Vec::new();
        ops.kkt_step(x, working, &mut sol).unwrap();
        let mut moved: Vec<(usize, usize)> = (0..qp.a_in.len())
            .filter(|i| !working.contains(i))
            .filter_map(|i| qp.a_in[i].bound().map(|(k, _)| (i, k)))
            .filter(|&(_, k)| !ops.ws.fixed[k])
            .collect();
        moved.sort_by(|a, b| sol[b.1].abs().total_cmp(&sol[a.1].abs()));
        assert!(sol[moved[admit - 1].1].abs() > 1e-3 * vec_ops::norm_inf(&sol[..n]));
        let mut x1 = x.to_vec();
        vec_ops::axpy(alpha, &sol[..n], &mut x1);
        let mut w1 = working.to_vec();
        w1.extend(moved[..admit].iter().map(|&(i, _)| i));
        assert!(ops.update_step(&x1, &w1, alpha, &mut sol[..n]));
        assert_eq!(ops.ws.held, w1);
        let fixed = ops.ws.fixed.clone();
        let mut fresh_ws = BandedWorkspace::new();
        let mut fresh_ops = BandedOps {
            qp,
            ws: &mut fresh_ws,
        };
        fresh_ops.reset_factor();
        let mut fresh = Vec::new();
        fresh_ops.kkt_step(&x1, &w1, &mut fresh).unwrap();
        let scale = vec_ops::norm_inf(&fresh[..n]);
        assert!(scale > 0.0);
        for k in 0..n {
            if fixed[k] {
                assert_eq!(sol[k], 0.0, "p[{k}] on a fixed variable");
            }
            assert!(
                (sol[k] - fresh[k]).abs() <= 1e-9 * scale,
                "admit {admit}: p[{k}] {} vs fresh {}",
                sol[k],
                fresh[k]
            );
        }
    }

    /// The step update after a blocked step that fixes one bound, and after
    /// a tie of two, on problems with equalities, general inequalities and
    /// bounds, across separate chains and a coupled Hessian.
    #[test]
    fn updated_step_matches_a_fresh_kkt_step() {
        let mut seed = 0x5e7a9u64;
        let problems = [
            block_diagonal_problem(3, 4, 2, &mut seed),
            block_diagonal_problem(4, 3, 3, &mut seed),
            random_problem(3, 4, &mut seed).inequality(row(&[1.0, -1.0, 0.0, 0.5]), 1.0),
        ];
        for mut qp in problems {
            qp.prepare().unwrap();
            let x = centre(&qp);
            let mut working: Vec<usize> = (0..qp.a_in.len())
                .filter(|&i| qp.a_in[i].bound().is_some())
                .step_by(5)
                .collect();
            working.extend((0..qp.a_in.len()).find(|&i| qp.a_in[i].bound().is_none()));
            for (admit, alpha) in [(1, 0.37), (2, 0.61), (2, 0.0)] {
                assert_update_matches_fresh_step(&qp, &x, &working, alpha, admit);
            }
        }
    }

    /// A fleet-shaped instance — 3-stage chains coupled by a 48-row
    /// equality tail, with a capacity row per chain and a bound on every
    /// variable — takes most of its blocked steps by step updates, and
    /// its cold and warm optima meet the KKT certificate.
    #[test]
    fn fleet_shaped_solve_updates_its_steps() {
        let mut seed = 0xf1ee7u64;
        let mut qp = block_diagonal_problem(16, 4, 3, &mut seed);
        assert_eq!(qp.a_eq.len(), 48);
        assert!(qp.a_in.len() > 100);
        let mut ws = BandedWorkspace::new();
        let cold = cold_solve(&mut qp, &mut ws);
        assert_kkt(&qp, &cold);
        let stats = cold.stats();
        assert!(stats.step_updates > 0, "{stats:?}");
        assert!(stats.refinement_passes < stats.iterations, "{stats:?}");
        let n = qp.num_vars();
        let g: Vec<f64> = (0..n).map(|_| 8.0 * pseudo(&mut seed)).collect();
        qp.set_gradient(&g).unwrap();
        let warm = qp.warm_start(cold.x(), cold.active_set(), &mut ws).unwrap();
        assert_kkt(&qp, &warm);
    }

    /// The iteration budget counts every inequality, bounds included.
    #[test]
    fn iteration_budget_counts_bound_rows() {
        let mut seed = 0xb0d6e7u64;
        let mut qp = block_diagonal_problem(4, 8, 4, &mut seed);
        qp.prepare().unwrap();
        let (n, me, mi) = (qp.num_vars(), qp.a_eq.len(), qp.a_in.len());
        let bounds = qp.a_in.iter().filter(|r| r.bound().is_some()).count();
        assert_eq!(bounds, n);
        assert_eq!(qp.iteration_budget(), 4 * (n + mi + me));
        assert!(
            4 * (n + mi - bounds + me) > 500,
            "the budget exceeds its floor either way"
        );
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

    /// A singular positive-semidefinite run fails the exact factor, so
    /// `prepare` retries every run with the `1e-12` ridge — the regular
    /// run too — and the solve meets the KKT conditions of the ridged
    /// problem. Every bound binds at the optimum, so the point and the
    /// multipliers do not pass through the `1/ε` null-space entries.
    #[test]
    fn singular_hessian_prepares_through_the_ridge() {
        let mut h = BlockTridiag::new(2, 2);
        h.diag_mut(0).copy_from_slice(&[2.0, 0.0, 0.0, 2.0]);
        h.diag_mut(1).copy_from_slice(&[1.0, 1.0, 1.0, 1.0]);
        let mut qp = BandedQp::new(h, vec![-5.0; 4]).unwrap();
        for k in 0..4 {
            qp = qp.inequality(SparseRow::from_entries(vec![(k, 1.0)]), 1.0);
        }
        qp.prepare().unwrap();
        let cache = qp.cache.as_ref().unwrap();
        assert_eq!(cache.ridge, 1e-12);
        assert_eq!(cache.chains.len(), 2);
        let regular = cache.chains[0].inv[0];
        assert!(regular < 0.5 && (regular - 1.0 / (2.0 + 1e-12)).abs() < 1e-15);
        let sol = qp
            .warm_start(&[0.0; 4], &[], &mut BandedWorkspace::new())
            .unwrap();
        assert_eq!(sol.active_set(), &[0, 1, 2, 3][..]);
        assert!(
            sol.x().iter().all(|&x| (x - 1.0).abs() < 1e-9),
            "{:?}",
            sol.x()
        );
        let mut ridged = qp.clone();
        for t in 0..2 {
            let d = ridged.h.diag_mut(t);
            d[0] += 1e-12;
            d[3] += 1e-12;
        }
        assert_kkt(&ridged, &sol);
    }

    /// An indefinite Hessian fails the ridged factor too: `prepare`, and
    /// so every solve, reports a numerical error.
    #[test]
    fn indefinite_hessian_is_a_numerical_error() {
        let mut qp = one_block(&[&[1.0, 2.0], &[2.0, 1.0]], vec![0.0, 0.0]);
        assert!(matches!(
            qp.prepare(),
            Err(Error::Numerical(idc_linalg::Error::NotPositiveDefinite))
        ));
        assert!(qp.cache.is_none());
        assert!(matches!(
            qp.warm_start(&[0.0, 0.0], &[], &mut BandedWorkspace::new()),
            Err(Error::Numerical(_))
        ));
    }

    /// Asserts two workspaces hold the same working-set state bit for bit:
    /// the held rows, each chain's rows, the fixed variables and their
    /// slots, the free block of every chain's inverse, the log and the
    /// Schur factor (its block sizes and its solve of every unit vector).
    fn assert_same_state(a: &BandedWorkspace, b: &BandedWorkspace) {
        assert_eq!(a.held, b.held);
        assert_eq!(a.chain_rows, b.chain_rows);
        assert_eq!(a.fixed, b.fixed);
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.log, b.log);
        assert_eq!(a.inv.len(), b.inv.len());
        for (x, y) in a.inv.iter().zip(&b.inv) {
            assert_eq!((x.free, &x.slot, &x.global), (y.free, &y.slot, &y.global));
            for r in 0..x.free {
                let (rx, ry) = (&x.m[r * x.dim..][..x.free], &y.m[r * y.dim..][..y.free]);
                assert!(rx.iter().zip(ry).all(|(u, v)| u.to_bits() == v.to_bits()));
            }
        }
        let dim = a.factor.dim();
        assert_eq!(dim, b.factor.dim());
        for j in 0..a.chain_rows.len() {
            assert_eq!(a.factor.chain_dim(j), b.factor.chain_dim(j));
        }
        for i in 0..dim {
            let mut u = vec![0.0; dim];
            u[i] = 1.0;
            let mut v = u.clone();
            a.factor.solve_in_place(&mut u);
            b.factor.solve_in_place(&mut v);
            assert!(u.iter().zip(&v).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }

    /// Replays `ws`'s log into a fresh workspace, checks it holds the same
    /// state bit for bit, and returns it with the log's operation kinds.
    fn replayed(qp: &mut BandedQp, ws: &BandedWorkspace) -> (BandedWorkspace, Vec<u8>) {
        let log = ws.factor_log(qp).expect("the state is carried").clone();
        let mut fresh = BandedWorkspace::new();
        qp.replay(&log, &mut fresh).unwrap();
        assert_same_state(ws, &fresh);
        (fresh, log.ops.iter().map(|op| op.kind()).collect())
    }

    /// The carried state is a function of its log: after each solve of a
    /// sequence that fixes, frees, appends, removes and flips (in its
    /// loop and in the transition into the next seed), a fresh workspace
    /// that replays the log holds the same free-set inverses, Schur factor
    /// and held rows, bit for bit, and the next solve from it is the same
    /// solve, bit for bit.
    #[test]
    fn replaying_the_log_rebuilds_the_carried_state_bit_for_bit() {
        let mut seed = 0x10c5u64;
        let mut qp = block_diagonal_problem(3, 4, 3, &mut seed);
        let n = qp.num_vars();
        let g1 = qp.g.clone();
        let g2: Vec<f64> = (0..n).map(|_| 8.0 * pseudo(&mut seed)).collect();
        let mut ws = BandedWorkspace::new();
        let mut kinds = Vec::new();
        let first = cold_solve(&mut qp, &mut ws);
        kinds.extend(replayed(&mut qp, &ws).1);
        // Towards g2 from the first optimum, then back to g1 from it: the
        // second transition edits the state g2's solve left into g1's
        // active set.
        let mut from = first.clone();
        for g in [&g2, &g1, &g2] {
            qp.set_gradient(g).unwrap();
            let (x0, seed_rows) = (first.x().to_vec(), first.active_set().to_vec());
            let (mut fresh, k) = replayed(&mut qp, &ws);
            kinds.extend(k);
            let live = qp.warm_start(&x0, &seed_rows, &mut ws).unwrap();
            let again = qp.warm_start(&x0, &seed_rows, &mut fresh).unwrap();
            assert_eq!(live.stats().refactorizations, 0, "{:?}", live.stats());
            assert_eq!(live, again);
            assert_same_state(&ws, &fresh);
            assert_kkt(&qp, &live);
            kinds.extend(replayed(&mut qp, &ws).1);
            from = live;
        }
        assert!(!from.active_set().is_empty());
        // A zero-width box seeded on its wrong side flips in the loop, and
        // flips back in the transition when the next seed holds the other
        // side.
        let mut boxed = boxed_problem(0.0);
        let mut ws = BandedWorkspace::new();
        let x0 = [0.0; 6];
        let up = boxed.warm_start(&x0, &[1], &mut ws).unwrap();
        assert_eq!(up.stats().bound_flips, 1);
        kinds.extend(replayed(&mut boxed, &ws).1);
        let mut g = boxed.g.clone();
        g[0] = 10.0;
        boxed.set_gradient(&g).unwrap();
        let (mut fresh, _) = replayed(&mut boxed, &ws);
        let live = boxed.warm_start(&x0, &[1], &mut ws).unwrap();
        assert_eq!(live.stats().bound_flips, 0);
        assert_eq!(live.active_set(), &[1]);
        assert_eq!(live, boxed.warm_start(&x0, &[1], &mut fresh).unwrap());
        kinds.extend(replayed(&mut boxed, &ws).1);
        for kind in 0..FactorOp::KINDS {
            assert!(
                kinds.contains(&kind),
                "no operation of kind {kind} in {kinds:?}"
            );
        }
    }

    /// A log that does not fit the problem is refused with a named reason,
    /// and the workspace then carries nothing.
    #[test]
    fn a_log_that_does_not_fit_is_refused_by_name() {
        let mut seed = 0xbad1u64;
        let mut qp = block_diagonal_problem(2, 3, 2, &mut seed);
        let mut ws = BandedWorkspace::new();
        cold_solve(&mut qp, &mut ws);
        let log = ws.factor_log(&qp).unwrap().clone();
        let mi = qp.a_in.len();
        let general = (0..mi).find(|&i| qp.a_in[i].bound().is_none()).unwrap();
        let bound = (0..mi).find(|&i| qp.a_in[i].bound().is_some()).unwrap();
        let with = |base: Vec<usize>, ops: Vec<FactorOp>| FactorLog { base, ops };
        let cases = [
            (with(vec![mi], vec![]), "beyond the"),
            (with(vec![], vec![FactorOp::Fix(mi as u32 + 3)]), "row"),
            (
                with(vec![], vec![FactorOp::Fix(general as u32)]),
                "change 0",
            ),
            (
                with(vec![], vec![FactorOp::Append(bound as u32)]),
                "change 0",
            ),
            (with(vec![], vec![FactorOp::Free(bound as u32)]), "change 0"),
            (
                with(vec![bound], vec![FactorOp::Remove(bound as u32)]),
                "change 0",
            ),
            (with(vec![bound, bound], vec![]), "does not build"),
            (
                with(
                    vec![],
                    vec![FactorOp::Fix(bound as u32); FACTOR_LOG_MIN + 1],
                ),
                "above the cap",
            ),
        ];
        for (bad, reason) in cases {
            let mut fresh = BandedWorkspace::new();
            qp.replay(&log, &mut fresh).unwrap();
            match qp.replay(&bad, &mut fresh) {
                Err(Error::BadFactorLog { what }) => assert!(what.contains(reason), "{what}"),
                other => panic!("{bad:?} must be refused, got {other:?}"),
            }
            assert!(fresh.factor_log(&qp).is_none());
        }
        // Another problem's workspace carries nothing into this one.
        let mut other = block_diagonal_problem(2, 3, 2, &mut seed);
        other.prepare().unwrap();
        assert!(ws.factor_log(&other).is_none());
        let sol = other.warm_start(&centre(&other), &[], &mut ws).unwrap();
        assert_eq!(sol.stats().refactorizations, 1);
    }
}
