//! Sharded (multi-region) backend for the condensed MPC.
//!
//! The y-space Hessian of [`crate::riccati`] is block-diagonal across IDCs —
//! tracking and smoothing couple portals *within* one IDC only — so a
//! contiguous IDC range `[jlo, jhi)` owns a contiguous per-stage variable
//! slice whose restricted Hessian is **exact**. The fleet therefore splits
//! into regional shards whose subproblems share no variables; only two
//! structures couple them:
//!
//! * **workload conservation** (paper eq. 45): each `(stage, portal)` row
//!   sums one entry from every IDC, and
//! * **the global peak-power budget** (paper eq. 31): an optional cap on
//!   total fleet power per stage.
//!
//! Conservation is coordinated by exchange ADMM
//! ([`idc_shard::consensus`]): each shard solves its *local* banded QP —
//! capacity and non-negativity rows only, with the stage-diagonal penalty
//! `ρ·aaᵀ` folded into its block-tridiagonal Hessian once at build time —
//! against a per-round gradient target, and the coordinator exchanges only
//! portal sums and multipliers. The peak budget is priced by projected dual
//! ascent on the per-stage total power, which never touches the factored
//! Hessians.
//!
//! The outer loop stops on two residuals in workload units: the primal
//! conservation gap and the max *per-shard* portal-sum movement (the honest
//! dual residual — the average's movement is blind to zero-sum reallocation
//! across shards). The update itself runs over-relaxed (α = 1.6) on
//! shard-local projection state, and when the dual residual lags the primal
//! by an order of magnitude a one-sided balancer halves ρ, which pulls the
//! near-flat transport-fiber directions (portal splits that tracking cannot
//! see) through their otherwise `1 − ε/ρ` proximal crawl. Behind the strict
//! tolerance test sits a windowed diminishing-returns stop: a slowly
//! crawling conservation gap inside the stall band is accepted once the
//! dual is at tolerance, because the gap is repaired exactly after the
//! loop while a still-moving dual hides real suboptimality.
//!
//! Warm starts carry **both** levels across control steps: each shard seeds
//! its active set from the (globally indexed, receding-horizon-shifted)
//! previous working set, and the outer multipliers resume from the previous
//! step's consensus duals. At a steady-state step both barely move, so the
//! outer loop typically certifies convergence in a handful of rounds of
//! near-instant inner solves.
//!
//! Determinism: shard subproblems run on a persistent per-solve worker
//! pool — each worker owns a contiguous ascending shard range and processes
//! one broadcast command per round, so a round costs two channel handoffs
//! per worker instead of a thread spawn/join — and every coordinator
//! reduction is a sequential loop in fixed shard order over the workers'
//! replies, so plans are bitwise identical across thread counts (the
//! `threads ≤ 1` inline path runs the same per-cell code).

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

use idc_linalg::banded::BlockTridiag;
use idc_obs::SolveStats;
use idc_opt::banded_qp::{BandedQp, BandedWorkspace, SparseRow};
use idc_opt::{Error, Result};
use idc_shard::{run_shards, ExchangeConsensus, OuterStats, Partition, PeakDual};

use crate::mpc::{MpcConfig, MpcProblem};
use crate::warm_repair;

/// Worst per-family constraint violations of a rejected warm-start point.
///
/// Attached to plans (and streamed as a `warm_start_rejected` anomaly by the
/// policy layer) whenever a warm solve silently would have fallen back to a
/// cold one — the breakdown says *which* constraint family the shifted
/// point violated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WarmRejection {
    /// Shard that rejected its warm point (0 for the monolithic backend).
    pub shard: usize,
    /// Worst workload-conservation equality violation (req/s).
    pub conservation: f64,
    /// Worst capacity overshoot (req/s).
    pub capacity: f64,
    /// Worst non-negativity undershoot (req/s).
    pub nonnegativity: f64,
    /// Worst storage-family violation — charge/discharge rate boxes and
    /// SoC bounds, in the controller's req/s-equivalent rate units (0.0
    /// for problems without storage; the sharded backend never carries
    /// storage).
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

/// One regional subproblem: a restricted banded QP plus its per-round
/// buffers. Everything a round's worker thread touches lives in the cell,
/// so shard solves share no mutable state.
#[derive(Debug, Clone)]
struct ShardCell {
    /// Owned IDC range `[jlo, jhi)`.
    jlo: usize,
    jhi: usize,
    /// Restricted banded QP: exact local Hessian + `ρ·aaᵀ` penalty,
    /// capacity and non-negativity rows only.
    qp: BandedQp,
    ws: BandedWorkspace,
    /// Per-step tracking gradient for the local variables.
    base_grad: Vec<f64>,
    /// Per-round full gradient (base − ρ·Aᵀv + μ-priced power).
    grad: Vec<f64>,
    /// Per-round coordinator target `v_s` (one entry per coupling row).
    v: Vec<f64>,
    /// Local relaxed projection `z_s` (the shard-owned over-relaxation
    /// state; `Σ_s z_s = b` after every update). Re-seeded from the warm
    /// sums each step by the round-zero `α = 1` update.
    z: Vec<f64>,
    /// Current local iterate in cumulative y-space.
    x: Vec<f64>,
    /// Local portal sums `w_s = A_s x_s`.
    w: Vec<f64>,
    /// Previous round's portal sums, for the per-shard dual movement.
    w_prev: Vec<f64>,
    /// This round's movement `‖w − w_prev‖∞`. The outer dual residual is
    /// the max over shards: unlike the average's movement it also sees
    /// reallocation that sums to zero across shards (the near-flat
    /// transport-fiber directions tracking is blind to), so termination
    /// cannot fire while shards are still trading workload.
    move_inf: f64,
    /// Local per-stage marginal power `q_s[t] = Σ_j b₁_j·Σ_i y_t[j,i]`.
    q: Vec<f64>,
    /// Local inequality rhs (capacity rows then non-negativity rows).
    in_rhs: Vec<f64>,
    /// Penalty-free values of the diagonal Hessian entries the consensus
    /// penalty touches, one per `(stage, local IDC)` — all portals share
    /// the value. Penalty retunes rewrite the touched entries *absolutely*
    /// as `base + ρ` (off-diagonal entries are `ρ` alone), so the Hessian
    /// bits are a pure function of the current ρ. Incremental `+= Δρ`
    /// patches would accumulate rounding across retunes, and a
    /// checkpoint-restored skeleton (rebuilt fresh at ρ₀) would then
    /// diverge from the in-memory run in the last bits.
    penalty_base: Vec<f64>,
    /// Local active-set seed for the next inner warm start.
    seed: Vec<usize>,
    /// Accumulated inner-solver stats for the current step.
    stats: SolveStats,
    iterations: u64,
    /// Warm starts rejected this step (each forced a local cold solve).
    fallbacks: u64,
    /// Violation breakdown of the first rejection this step.
    rejection: Option<WarmRejection>,
    /// First unrecoverable inner-solver error this step.
    error: Option<Error>,
}

impl ShardCell {
    fn num_local_idcs(&self) -> usize {
        self.jhi - self.jlo
    }
}

/// Per-round broadcast from the coordinator to the round workers.
#[derive(Clone)]
struct RoundCmd {
    /// Relaxed average gap `g = α·(w̄ − b/S)` from the coordinator's last
    /// dual update; each worker folds it into its local projection
    /// (`z_s ← α·w_s + (1−α)·z_s − g`) and target (`v_s = z_s − u`).
    gap: Arc<Vec<f64>>,
    /// Scaled consensus dual `u` after the same update.
    u: Arc<Vec<f64>>,
    /// Over-relaxation factor for this round's `z_s` update (1 on round
    /// zero, which seeds `z_s` from the warm sums).
    alpha: f64,
    /// Peak-budget multipliers, when a budget is configured.
    peak_mu: Option<Arc<Vec<f64>>>,
    /// Absolute penalty this round's gradients use; workers patch their
    /// cells' Hessians lazily when it differs from the previous round's.
    rho_abs: f64,
    /// Fault injection: re-solve against the previous round's stale target.
    stalled: bool,
    /// Round zero: a rejected warm start may fall back to a local cold
    /// solve instead of surfacing as infeasible.
    cold_first: bool,
}

/// One shard's report back to the coordinator after a round.
struct CellRound {
    /// Portal sums `w_s = A_s x_s` at the new iterate.
    w: Vec<f64>,
    /// Per-stage marginal power at the new iterate.
    q: Vec<f64>,
    /// This round's movement `‖w − w_prev‖∞`.
    move_inf: f64,
}

/// One worker's reply for its whole cell range, in ascending shard order.
struct RoundReply {
    cells: Vec<CellRound>,
    any_error: bool,
}

/// A round's gathered results: per-shard reports in fixed shard order
/// regardless of how many workers produced them, so every coordinator
/// reduction is bitwise independent of the thread count.
struct RoundData {
    cells: Vec<CellRound>,
    any_error: bool,
}

/// How a round's shard solves execute. Both variants run the same per-cell
/// code ([`ShardCell::solve_round`]) over cells in ascending shard order.
enum RoundRunner<'a> {
    /// `threads ≤ 1`: the coordinator thread solves every cell itself.
    Inline {
        cells: &'a mut [ShardCell],
        cur_rho: f64,
        c: usize,
        beta2: usize,
        b1_mw: &'a [f64],
    },
    /// Persistent round workers, spawned once per solve: each owns a
    /// contiguous ascending cell range and blocks on its command channel,
    /// so a round costs two channel handoffs per worker instead of the
    /// thread spawn/join that previously dominated small-fleet rounds.
    Pool {
        cmd_txs: Vec<Sender<RoundCmd>>,
        reply_rxs: Vec<Receiver<RoundReply>>,
    },
}

impl RoundRunner<'_> {
    /// Runs one round over every cell and gathers the per-shard reports in
    /// shard order.
    fn round(&mut self, cmd: &RoundCmd) -> RoundData {
        match self {
            RoundRunner::Inline {
                cells,
                cur_rho,
                c,
                beta2,
                b1_mw,
            } => {
                let changed = cmd.rho_abs != *cur_rho;
                *cur_rho = cmd.rho_abs;
                let mut out = Vec::with_capacity(cells.len());
                for cell in cells.iter_mut() {
                    if changed {
                        cell.set_penalty_rho(cmd.rho_abs, *c, *beta2);
                    }
                    cell.solve_round(*c, *beta2, b1_mw, cmd);
                    out.push(cell.round_report());
                }
                RoundData {
                    any_error: cells.iter().any(|cell| cell.error.is_some()),
                    cells: out,
                }
            }
            RoundRunner::Pool { cmd_txs, reply_rxs } => {
                for tx in cmd_txs.iter() {
                    // A send only fails when a worker panicked; the panic
                    // resurfaces at scope join.
                    let _ = tx.send(cmd.clone());
                }
                let mut cells = Vec::new();
                let mut any_error = false;
                for rx in reply_rxs.iter() {
                    match rx.recv() {
                        Ok(reply) => {
                            any_error |= reply.any_error;
                            cells.extend(reply.cells);
                        }
                        Err(_) => any_error = true,
                    }
                }
                RoundData { cells, any_error }
            }
        }
    }
}

// Residual balancing (one-sided variant of Boyd et al. §3.4.1): when the
// dual residual lags the primal by 10×, retune ρ *down* by 2×. The
// near-flat transport-fiber directions contract like `1 − ε/ρ`, so a
// lagging dual (shards still trading workload the conservation rows don't
// see) is rescued by a smaller penalty. The symmetric up-move is
// deliberately absent: measurements show it traps the loop — a raised ρ
// freezes the flat directions at a 1e-4-scale dual plateau the stall band
// then rejects — while the primal needs no help (the exchange projection
// drives conservation directly). Retunes repatch and refactor the shard
// Hessians, so a cooldown and a hard count keep that churn a small
// fraction of the round budget.
const BALANCE_MU: f64 = 10.0;
const BALANCE_TAU: f64 = 2.0;
const BALANCE_COOLDOWN: usize = 16;
const BALANCE_MAX_RETUNES: u64 = 4;
const BALANCE_SPAN: f64 = 1024.0;

/// Exchange-ADMM over-relaxation factor (Boyd et al. §3.4.3). The slow
/// outer directions here are the near-flat transport fibers, whose plain
/// update contracts like `1 − ε/ρ`; over-relaxation multiplies that rate by
/// roughly `α`, and 1.6 is the conservative end of the 1.5–1.8 range the
/// literature recommends.
const RELAX_ALPHA: f64 = 1.6;

/// Diminishing-returns stop: once the combined residual sits within
/// [`STALL_SLACK`]× of the tolerance, the loop watches its decay *rate*
/// over a sliding [`STALL_WINDOW`]-round window and accepts as soon as the
/// window improves by less than [`STALL_RATE`]⁻¹ (i.e. fewer than one
/// octave per window). That covers both true plateaus — the inner solver's
/// relative stationarity tolerance puts a noise floor under the portal
/// sums, each of which aggregates O(N) variables solved to `TOL·(1+‖x‖)` —
/// and the near-flat transport-fiber tail, whose `1 − ε/ρ` contraction can
/// crawl for hundreds of rounds inside the band while the plan itself is
/// long since settled. A plain no-new-best patience counter catches
/// neither: slow geometric descent posts a "new best" every few rounds
/// forever. The residual left behind is repaired exactly by the
/// conservation projection after the loop, so the band costs well under
/// the cross-backend equivalence gate in plan cost.
const STALL_WINDOW: usize = 16;
const STALL_SLACK: f64 = 100.0;
const STALL_RATE: f64 = 0.5;
/// A round "improves" the peak violation only when it beats the previous
/// best by this factor — jitter must not reset the ascent-gain patience.
const STALL_IMPROVEMENT: f64 = 0.9;

// Peak-ascent gain schedule. The budget multipliers climb by
// `κ·(P_t − cap)` per round, so a small κ (tuned not to destabilise the
// consensus rows) needs geometrically many rounds to price a deep
// violation — the dominant round sink on steps where the cap binds hard.
// When the worst violation has not improved for [`PEAK_PATIENCE`] rounds
// the ascent step doubles, up to [`PEAK_GAIN_MAX`]× the base step; the
// gain is loop-local, so every solve restarts from the conservatively
// tuned base.
const PEAK_PATIENCE: usize = 4;
const PEAK_GAIN_MAX: f64 = 256.0;

/// The coordinator side of the exchange-ADMM outer loop, shared by the
/// inline and pooled runners: broadcast the target correction and prices,
/// reduce the replies in shard order, advance the duals, balance ρ.
///
/// Returns the outer stats plus the absolute penalty left baked into the
/// cell Hessians — balancing retunes the dual scaling immediately but
/// reaches the cells lazily at the next dispatch, so the two diverge when
/// the loop exits right after a retune.
#[allow(clippy::too_many_arguments)]
fn run_outer_loop(
    runner: &mut RoundRunner<'_>,
    consensus: &mut ExchangeConsensus,
    peak: &mut Option<PeakDual>,
    rho0_abs: f64,
    peak_step_per_rho: f64,
    max_outer: usize,
    tol: f64,
    step: &ShardedStep<'_>,
    beta2: usize,
) -> (OuterStats, f64) {
    let tol_abs = tol * (1.0 + step.scale.abs());
    let mut outer = OuterStats::default();
    let mut decision_rho = rho0_abs;
    let mut cells_rho = rho0_abs;
    let mut balance_ready = BALANCE_COOLDOWN;
    // Ring buffer of combined residuals, one slot per window round.
    let mut stall_window = [f64::INFINITY; STALL_WINDOW];
    let mut peak_gain = 1.0f64;
    let mut peak_best = f64::INFINITY;
    let mut peak_since = 0usize;
    for round in 0..max_outer {
        // Fault injection: the coordinator "stalls" on round 1 — the shards
        // re-solve against the previous round's stale targets and the dual
        // update plus residual check are skipped, as if the round's
        // exchange was lost in flight.
        let stalled = step.drop_round && round == 1;
        let cmd = RoundCmd {
            gap: Arc::new(consensus.gap().to_vec()),
            u: Arc::new(consensus.multipliers().to_vec()),
            // Round zero's α = 1 update seeds each shard's z from its warm
            // sums (the plain exchange projection).
            alpha: if round == 0 { 1.0 } else { RELAX_ALPHA },
            peak_mu: peak.as_ref().map(|p| Arc::new(p.multipliers().to_vec())),
            rho_abs: decision_rho,
            stalled,
            cold_first: round == 0,
        };
        let data = runner.round(&cmd);
        cells_rho = decision_rho;
        if data.any_error {
            // The caller surfaces the first cell error; the partial stats
            // are discarded with the failed solve.
            return (outer, cells_rho);
        }
        outer.rounds += 1;
        if stalled {
            outer.stalled_rounds += 1;
            continue;
        }
        let res = {
            let wrefs: Vec<&[f64]> = data.cells.iter().map(|cl| cl.w.as_slice()).collect();
            consensus.advance(&wrefs)
        };
        // The honest dual residual: the max *per-shard* movement. The
        // average's movement (`res.dual`) is blind to reallocation that
        // sums to zero across shards, and exactly those directions are
        // the slow near-flat ones — stopping on the average terminates
        // at consensus-feasible but suboptimal splits.
        let shard_move = data.cells.iter().map(|cl| cl.move_inf).fold(0.0, f64::max);
        outer.primal_residual = res.primal / (1.0 + step.scale.abs());
        outer.dual_residual = shard_move / (1.0 + step.scale.abs());
        let peak_ok = match peak.as_mut() {
            Some(p) => {
                let mut totals = vec![step.base_power_mw; beta2];
                for cl in &data.cells {
                    for t in 0..beta2 {
                        totals[t] += cl.q[t];
                    }
                }
                let worst = p.ascend(&totals);
                let peak_tol = tol * (1.0 + step.base_power_mw.abs());
                if worst > peak_tol {
                    if worst < STALL_IMPROVEMENT * peak_best {
                        peak_best = worst;
                        peak_since = 0;
                    } else {
                        peak_since += 1;
                    }
                    if peak_since >= PEAK_PATIENCE && peak_gain < PEAK_GAIN_MAX {
                        peak_gain *= 2.0;
                        peak_since = 0;
                        peak_best = worst;
                        p.set_step(decision_rho * peak_step_per_rho * peak_gain);
                    }
                } else {
                    // Satisfied (or overshot): drop back toward the base
                    // step so a later re-activation starts gently.
                    if peak_gain > 1.0 {
                        peak_gain = 1.0;
                        p.set_step(decision_rho * peak_step_per_rho);
                    }
                    peak_best = f64::INFINITY;
                    peak_since = 0;
                }
                worst <= peak_tol
            }
            None => true,
        };
        if res.primal <= tol_abs && shard_move <= tol_abs && peak_ok {
            outer.converged = true;
            break;
        }
        let combined = res.primal.max(shard_move);
        let window_ago = stall_window[round % STALL_WINDOW];
        stall_window[round % STALL_WINDOW] = combined;
        if res.primal <= STALL_SLACK * tol_abs
            && shard_move <= tol_abs
            && combined > STALL_RATE * window_ago
            && peak_ok
        {
            // Diminishing returns: descending at under an octave per
            // window with the *dual* already at tolerance — the shards
            // have stopped trading workload, so the slowly-contracting
            // movement bounds the distance to the fixed point by a small
            // multiple of tol, and only the conservation gap (repaired
            // exactly after the loop) is still crawling through the
            // band. The primal-side slack is safe precisely because of
            // that repair; the dual side gets none, since a still-moving
            // dual at contraction rate r leaves `move/(1−r)` ≈ tens of
            // moves of genuine suboptimality behind.
            outer.converged = true;
            break;
        }
        balance_ready = balance_ready.saturating_sub(1);
        // Balancing stays armed exactly while the dual residual is
        // unconverged: that is the regime the down-retune rescues (a
        // `1 − ε/ρ` crawl through the flat directions contracts 2× faster
        // per halving of ρ). Once the shards have stopped trading — the
        // noise-floor regime, where the primal/dual ratio is jitter, not
        // conditioning — retunes are frozen so ρ cannot be dragged around
        // by noise.
        let balance_active = shard_move > tol_abs;
        if balance_active && balance_ready == 0 && outer.rho_retunes < BALANCE_MAX_RETUNES {
            let retuned = if shard_move > BALANCE_MU * res.primal {
                (decision_rho / BALANCE_TAU).max(rho0_abs / BALANCE_SPAN)
            } else {
                decision_rho
            };
            if retuned != decision_rho {
                // The dual rescale and ascent step apply now; the cell
                // Hessians patch lazily at the next round's dispatch.
                consensus.rescale_rho(retuned);
                if let Some(p) = peak.as_mut() {
                    p.set_step(retuned * peak_step_per_rho * peak_gain);
                }
                decision_rho = retuned;
                outer.rho_retunes += 1;
                balance_ready = BALANCE_COOLDOWN;
            }
        }
    }
    (outer, cells_rho)
}

/// Per-step inputs to [`ShardedSkeleton::solve`], borrowed from the
/// controller's scratch buffers.
#[derive(Debug)]
pub struct ShardedStep<'a> {
    /// Conservation targets `b` per `(stage, portal)` row (the monolithic
    /// equality rhs).
    pub eq_rhs: &'a [f64],
    /// Monolithic inequality rhs (capacity rows then non-negativity rows,
    /// global indexing).
    pub in_rhs: &'a [f64],
    /// Tracking rhs rows (`rhs[s·N + j] = reference − current power`).
    pub tracking_rhs: &'a [f64],
    /// Feasibility-repaired warm point in cumulative y-space.
    pub warm_y: &'a [f64],
    /// Previous active set, global (monolithic) indexing, already
    /// receding-horizon-shifted.
    pub seed: &'a [usize],
    /// Persisted outer multipliers (consensus duals then peak duals),
    /// already receding-horizon-shifted; `None` or a stale length solves
    /// with zero multipliers.
    pub multipliers: Option<&'a [f64]>,
    /// Fleet power at the current allocation (MW) — the constant part of
    /// each stage's total power, needed to price the peak budget.
    pub base_power_mw: f64,
    /// Workload scale (req/s) the relative stopping rule is anchored to.
    pub scale: f64,
    /// Fault injection: drop one coordinator round (the shards re-solve but
    /// the dual update and residual check are lost for that round).
    pub drop_round: bool,
    /// Worker threads for the shard runner.
    pub threads: usize,
}

/// The outcome of one sharded solve.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Global cumulative-space solution (conservation repaired exactly).
    pub y: Vec<f64>,
    /// Converged active set, global (monolithic) indexing, sorted.
    pub active_set: Vec<usize>,
    /// Inner active-set iterations summed over shards and rounds.
    pub iterations: usize,
    /// Aggregated solver counters (including the outer-loop counters).
    pub stats: SolveStats,
    /// Outer-loop outcome.
    pub outer: OuterStats,
    /// Multiplier state to persist (consensus duals then peak duals).
    pub multipliers: Vec<f64>,
    /// Inner warm starts rejected this step (local cold re-solves).
    pub fallbacks: u64,
    /// Violation breakdown per rejecting shard.
    pub rejections: Vec<WarmRejection>,
}

/// The sharded solver skeleton for one problem structure, cached by the
/// controller exactly like the banded skeleton.
#[derive(Debug, Clone)]
pub struct ShardedSkeleton {
    n: usize,
    c: usize,
    beta1: usize,
    beta2: usize,
    partition: Partition,
    cells: Vec<ShardCell>,
    consensus: ExchangeConsensus,
    /// Active absolute ADMM penalty currently baked into the cell Hessians.
    /// Starts at [`Self::rho0_abs`] every step; residual balancing may
    /// retune it between rounds (see [`Self::set_rho`]).
    rho_abs: f64,
    /// Configured absolute penalty `ρ₀ = rho · mean base Hessian diagonal`.
    /// Everything persisted across steps (cell Hessians between solves, the
    /// scaled consensus dual in snapshots) is anchored to ρ₀, so restores
    /// rebuild bit-identical state from the config alone.
    rho0_abs: f64,
    /// Peak-budget ascent step per unit of absolute penalty, so retunes
    /// keep the two coupling families conditioned alike.
    peak_step_per_rho: f64,
    max_outer: usize,
    /// Relative residual tolerance of the outer stopping rule.
    tol: f64,
    /// Per-IDC gradient coefficient `−2·b₁_j·Q·multiplier_j`.
    grad_coeff: Vec<f64>,
    /// Per-IDC marginal power, for the peak-budget price.
    b1_mw: Vec<f64>,
    /// Optional peak-budget dual state (per-stage cap + multipliers).
    peak: Option<PeakDual>,
}

impl ShardedSkeleton {
    /// Assembles the per-shard restricted QPs (exact local Hessian plus the
    /// stage-diagonal consensus penalty) for the given structure.
    ///
    /// `shards` is clamped to `[1, N]`; `rho` is the *relative* penalty
    /// (scaled by the mean base Hessian diagonal so tuning is
    /// problem-size-independent).
    pub fn build(
        config: &MpcConfig,
        problem: &MpcProblem,
        shards: usize,
        rho: f64,
        max_outer: usize,
        tol: f64,
    ) -> Result<Self> {
        assert!(rho > 0.0, "consensus penalty must be positive");
        assert!(max_outer > 0, "at least one outer round");
        assert!(tol > 0.0, "outer tolerance must be positive");
        let n = problem.num_idcs();
        let c = problem.num_portals();
        let beta1 = config.prediction_horizon;
        let beta2 = config.control_horizon;
        let tw = config.tracking_weight;
        let sw = config.smoothing_weight;
        let ridge = config.input_ridge;
        let partition = Partition::contiguous(n, shards);
        let num_shards = partition.num_shards();

        // Diagonal entry of the *base* (unsharded) Hessian for (τ, j); its
        // mean anchors the relative penalty so `rho = 1` means "as stiff as
        // the objective's own curvature" at every fleet size. Computed from
        // global problem data only, so every shard layout derives the same
        // ρ_abs.
        let mut diag_sum = 0.0;
        for tau in 0..beta2 {
            let track_count = if tau + 1 < beta2 {
                1.0
            } else {
                (beta1 - beta2 + 1) as f64
            };
            let smooth_count = if tau + 1 < beta2 { 2.0 } else { 1.0 };
            for j in 0..n {
                let b1 = problem.b1_mw[j];
                diag_sum += 2.0
                    * b1
                    * b1
                    * (tw * problem.tracking_multiplier[j] * track_count + sw * smooth_count)
                    + 2.0 * ridge * smooth_count;
            }
        }
        let rho_abs = rho * diag_sum / (beta2 * n) as f64;

        let mut cells = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let (jlo, jhi) = partition.range(s);
            cells.push(Self::build_cell(
                config, problem, jlo, jhi, rho_abs, beta1, beta2,
            )?);
        }

        let rows = beta2 * c;
        let mut consensus = ExchangeConsensus::new(rows, num_shards, rho_abs);
        consensus.set_relaxation(RELAX_ALPHA);
        // Projected dual ascent step per unit of ρ_abs, conditioned like
        // the consensus penalty: a conservation row has squared norm N (one
        // unit entry per IDC) and effective dual step ρ_abs/S, so the power
        // row (squared norm C·Σ_j b₁²) gets the step that equalizes
        // `step × ‖row‖²` across the two coupling families.
        let b1_sq: f64 = problem.b1_mw.iter().map(|&b| b * b).sum();
        let peak_step_per_rho = n as f64 / (num_shards as f64 * (c as f64 * b1_sq).max(1e-300));
        let peak = config
            .sharded_peak_budget_mw
            .map(|cap| PeakDual::new(vec![cap; beta2], rho_abs * peak_step_per_rho));

        let grad_coeff = (0..n)
            .map(|j| -2.0 * problem.b1_mw[j] * tw * problem.tracking_multiplier[j])
            .collect();
        Ok(ShardedSkeleton {
            n,
            c,
            beta1,
            beta2,
            partition,
            cells,
            consensus,
            rho_abs,
            rho0_abs: rho_abs,
            peak_step_per_rho,
            max_outer,
            tol,
            grad_coeff,
            b1_mw: problem.b1_mw.clone(),
            peak,
        })
    }

    /// Builds one shard's restricted QP over IDCs `[jlo, jhi)`.
    fn build_cell(
        config: &MpcConfig,
        problem: &MpcProblem,
        jlo: usize,
        jhi: usize,
        rho_abs: f64,
        beta1: usize,
        beta2: usize,
    ) -> Result<ShardCell> {
        let c = problem.num_portals();
        let ns = jhi - jlo;
        let ncs = ns * c;
        let tw = config.tracking_weight;
        let sw = config.smoothing_weight;
        let ridge = config.input_ridge;

        // Restricted Hessian: identical per-IDC blocks to the monolithic
        // riccati assembly (the restriction is exact), plus the consensus
        // penalty ρ·aaᵀ — each conservation row couples the same portal
        // entry across the shard's IDCs within one stage, so the penalty is
        // stage-diagonal and the block-tridiagonal shape survives.
        let mut h = BlockTridiag::new(ncs, beta2);
        let mut penalty_base = Vec::with_capacity(beta2 * ns);
        for tau in 0..beta2 {
            let track_count = if tau + 1 < beta2 {
                1.0
            } else {
                (beta1 - beta2 + 1) as f64
            };
            let smooth_count = if tau + 1 < beta2 { 2.0 } else { 1.0 };
            let block = h.diag_mut(tau);
            for lj in 0..ns {
                let b1 = problem.b1_mw[jlo + lj];
                let couple = 2.0
                    * b1
                    * b1
                    * (tw * problem.tracking_multiplier[jlo + lj] * track_count
                        + sw * smooth_count);
                for a in 0..c {
                    for b in 0..c {
                        block[(lj * c + a) * ncs + (lj * c + b)] = couple;
                    }
                }
            }
            for d in 0..ncs {
                block[d * ncs + d] += 2.0 * ridge * smooth_count;
            }
            for lj in 0..ns {
                penalty_base.push(block[(lj * c) * ncs + (lj * c)]);
            }
            for i in 0..c {
                for lj1 in 0..ns {
                    for lj2 in 0..ns {
                        block[(lj1 * c + i) * ncs + (lj2 * c + i)] += rho_abs;
                    }
                }
            }
        }
        for tau in 0..beta2.saturating_sub(1) {
            let block = h.sub_mut(tau);
            for lj in 0..ns {
                let b1 = problem.b1_mw[jlo + lj];
                let couple = -2.0 * sw * b1 * b1;
                for a in 0..c {
                    for b in 0..c {
                        block[(lj * c + a) * ncs + (lj * c + b)] = couple;
                    }
                }
            }
            for d in 0..ncs {
                block[d * ncs + d] -= 2.0 * ridge;
            }
        }

        // Local inequality rows in the monolithic family order: capacity
        // t-major × IDC, then non-negativity t-major × entry.
        let mut qp = BandedQp::new(h, vec![0.0; beta2 * ncs])?;
        for t in 0..beta2 {
            for lj in 0..ns {
                let mut row = SparseRow::new();
                for i in 0..c {
                    row.push(t * ncs + lj * c + i, 1.0);
                }
                qp = qp.inequality(row, 0.0);
            }
        }
        for t in 0..beta2 {
            for k in 0..ncs {
                qp = qp.inequality(SparseRow::from_entries(vec![(t * ncs + k, -1.0)]), 0.0);
            }
        }
        let rows = beta2 * c;
        Ok(ShardCell {
            jlo,
            jhi,
            qp,
            ws: BandedWorkspace::new(),
            base_grad: vec![0.0; beta2 * ncs],
            grad: vec![0.0; beta2 * ncs],
            v: vec![0.0; rows],
            z: vec![0.0; rows],
            x: vec![0.0; beta2 * ncs],
            w: vec![0.0; rows],
            w_prev: vec![0.0; rows],
            move_inf: 0.0,
            q: vec![0.0; beta2],
            in_rhs: vec![0.0; beta2 * ns + beta2 * ncs],
            penalty_base,
            seed: Vec::new(),
            stats: SolveStats::default(),
            iterations: 0,
            fallbacks: 0,
            rejection: None,
            error: None,
        })
    }

    /// Factors every shard's (penalty-augmented) Hessian and precomputes
    /// its all-rows Schur complement, concurrently on the deterministic
    /// runner. Call once per structure build.
    pub fn prepare(&mut self, threads: usize) -> Result<()> {
        run_shards(&mut self.cells, threads, |_, cell| {
            if let Err(e) = cell.qp.prepare() {
                cell.error = Some(e);
            }
        });
        self.take_first_error()
    }

    /// Retunes the absolute consensus penalty to `new_rho`: patches each
    /// shard's `ρ·aaᵀ` Hessian term in place and refactors (concurrently,
    /// on the deterministic runner), rescales the scaled consensus dual so
    /// the physical prices `λ = ρ·u` are continuous, and rescales the
    /// peak-budget ascent step. The per-solve workspace factors rebuild
    /// from the fresh Schur complement on the next inner solve, so nothing
    /// stale survives a retune.
    fn set_rho(&mut self, new_rho: f64, threads: usize) -> Result<()> {
        if new_rho != self.rho_abs {
            let (c, beta2) = (self.c, self.beta2);
            run_shards(&mut self.cells, threads, |_, cell| {
                cell.set_penalty_rho(new_rho, c, beta2);
            });
            self.take_first_error()?;
            self.rho_abs = new_rho;
        }
        // During a solve, balancing rescales the consensus dual immediately
        // but patches the cell Hessians lazily at the next dispatch, so the
        // two scalings can disagree here; each syncs independently.
        if self.consensus.rho() != new_rho {
            self.consensus.rescale_rho(new_rho);
        }
        if let Some(peak) = &mut self.peak {
            peak.set_step(new_rho * self.peak_step_per_rho);
        }
        Ok(())
    }

    /// Number of shards in the partition.
    pub fn num_shards(&self) -> usize {
        self.partition.num_shards()
    }

    /// Length of the persisted multiplier vector (consensus duals plus peak
    /// duals when a budget is configured).
    pub fn multiplier_len(&self) -> usize {
        self.beta2 * self.c + if self.peak.is_some() { self.beta2 } else { 0 }
    }

    /// Rows per stage of the persisted multiplier vector's two families,
    /// for the receding-horizon shift: `(consensus rows, peak rows)`.
    pub fn multiplier_stage_lens(&self) -> (usize, usize) {
        (self.c, if self.peak.is_some() { 1 } else { 0 })
    }

    fn take_first_error(&mut self) -> Result<()> {
        for cell in &mut self.cells {
            if let Some(e) = cell.error.take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Solves one control step: exchange-ADMM outer loop over warm-started
    /// local active-set solves, then an exact conservation repair of the
    /// reassembled plan.
    ///
    /// # Errors
    ///
    /// * [`Error::Infeasible`] when the stage demand exceeds the fleet
    ///   capacity (matching the monolithic backend's phase-1 verdict), or
    ///   when the outer loop stalls far from primal feasibility.
    /// * Inner solver errors ([`Error::IterationLimit`],
    ///   [`Error::Numerical`]) surface from the first failing shard.
    pub fn solve(&mut self, step: &ShardedStep<'_>) -> Result<ShardedOutcome> {
        let (n, c, beta2) = (self.n, self.c, self.beta2);
        let nc = n * c;
        let rows = beta2 * c;
        assert_eq!(step.eq_rhs.len(), rows, "conservation rhs length");
        assert_eq!(
            step.in_rhs.len(),
            beta2 * n + beta2 * nc,
            "inequality rhs length"
        );
        assert_eq!(step.warm_y.len(), beta2 * nc, "warm point length");

        // Aggregate feasibility, caught before any rounds run: the same
        // stage-total certificate the monolithic backend uses.
        if warm_repair::exceeds_fleet_capacity(step.eq_rhs, step.in_rhs, n, c, step.scale) {
            return Err(Error::Infeasible);
        }

        // A previous solve that errored out mid-adaptation may have left
        // the cell Hessians at a retuned penalty; every step starts from
        // the configured ρ₀ so persisted multipliers and restored runs see
        // one consistent scaling.
        if self.rho_abs != self.rho0_abs || self.consensus.rho() != self.rho0_abs {
            self.set_rho(self.rho0_abs, step.threads)?;
        }

        // Split the persisted multipliers into the two families; a missing
        // or stale-length vector resumes from zero duals.
        let mlen = self.multiplier_len();
        let mut u = vec![0.0; rows];
        let mut mu = vec![0.0; if self.peak.is_some() { beta2 } else { 0 }];
        if let Some(m) = step.multipliers {
            if m.len() == mlen {
                u.copy_from_slice(&m[..rows]);
                mu.copy_from_slice(&m[rows..]);
            }
        }
        self.consensus.begin_step(step.eq_rhs, &u);
        if let Some(peak) = &mut self.peak {
            peak.set_multipliers(&mu);
        }

        // ---- Scatter the step into the cells: local rhs, tracking
        // gradient, warm iterate, seed, and initial portal sums. ----
        {
            let cells = &mut self.cells;
            let grad_coeff = &self.grad_coeff;
            let b1_mw = &self.b1_mw;
            let (beta1, tracking) = (self.beta1, step.tracking_rhs);
            run_shards(cells, step.threads, |_, cell| {
                let (jlo, jhi) = (cell.jlo, cell.jhi);
                let ns = cell.num_local_idcs();
                let ncs = ns * c;
                cell.stats = SolveStats::default();
                cell.iterations = 0;
                cell.move_inf = 0.0;
                cell.fallbacks = 0;
                cell.rejection = None;
                cell.error = None;
                // Local inequality rhs in family order.
                for t in 0..beta2 {
                    for lj in 0..ns {
                        cell.in_rhs[t * ns + lj] = step.in_rhs[t * n + jlo + lj];
                    }
                }
                for t in 0..beta2 {
                    let src = beta2 * n + t * nc + jlo * c;
                    cell.in_rhs[beta2 * ns + t * ncs..beta2 * ns + (t + 1) * ncs]
                        .copy_from_slice(&step.in_rhs[src..src + ncs]);
                }
                if let Err(e) = cell.qp.set_inequality_rhs(&cell.in_rhs.clone()) {
                    cell.error = Some(e);
                    return;
                }
                // Tracking gradient restricted to the local IDCs (same
                // lowering as RiccatiSkeleton::gradient_into).
                for tau in 0..beta2 {
                    for lj in 0..ns {
                        let j = jlo + lj;
                        let sum: f64 = if tau + 1 < beta2 {
                            tracking[tau * n + j]
                        } else {
                            (beta2 - 1..beta1).map(|s| tracking[s * n + j]).sum()
                        };
                        let g = grad_coeff[j] * sum;
                        for i in 0..c {
                            cell.base_grad[tau * ncs + lj * c + i] = g;
                        }
                    }
                }
                // Warm iterate and the previous step's active set, mapped
                // from global (monolithic) to local indices.
                for t in 0..beta2 {
                    cell.x[t * ncs..(t + 1) * ncs]
                        .copy_from_slice(&step.warm_y[t * nc + jlo * c..t * nc + jhi * c]);
                }
                cell.seed.clear();
                let ncap = beta2 * n;
                for &ci in step.seed {
                    if ci < ncap {
                        let (t, j) = (ci / n, ci % n);
                        if (jlo..jhi).contains(&j) {
                            cell.seed.push(t * ns + (j - jlo));
                        }
                    } else {
                        let r = ci - ncap;
                        let (t, idx) = (r / nc, r % nc);
                        if (jlo * c..jhi * c).contains(&idx) {
                            cell.seed.push(beta2 * ns + t * ncs + (idx - jlo * c));
                        }
                    }
                }
                cell.refresh_sums(c, b1_mw);
            });
        }
        self.take_first_error()?;

        // Round-zero average, so the first targets see the warm sums.
        {
            let wrefs: Vec<&[f64]> = self.cells.iter().map(|cell| cell.w.as_slice()).collect();
            self.consensus.prime(&wrefs);
        }

        // ---- Outer loop: local solves against broadcast coordinator
        // targets, then a fixed-order reduction and dual update. Shard
        // solves run on a persistent worker pool spawned once per solve
        // (one command/reply exchange per round), or inline on the
        // coordinator thread when `threads ≤ 1` — the same per-cell code
        // either way, so plans are bitwise identical across thread
        // counts. ----
        let (outer, cells_rho) = {
            let rho0_abs = self.rho0_abs;
            let peak_step_per_rho = self.peak_step_per_rho;
            let max_outer = self.max_outer;
            let tol = self.tol;
            let cells = &mut self.cells;
            let consensus = &mut self.consensus;
            let peak = &mut self.peak;
            let b1_mw = self.b1_mw.as_slice();
            let num_workers = step.threads.clamp(1, cells.len().max(1));
            if num_workers > 1 {
                std::thread::scope(|scope| {
                    let ncells = cells.len();
                    let mut cmd_txs = Vec::with_capacity(num_workers);
                    let mut reply_rxs = Vec::with_capacity(num_workers);
                    let mut rest: &mut [ShardCell] = cells;
                    for wid in 0..num_workers {
                        let lo = wid * ncells / num_workers;
                        let hi = (wid + 1) * ncells / num_workers;
                        let (mine, tail) = rest.split_at_mut(hi - lo);
                        rest = tail;
                        let (cmd_tx, cmd_rx) = mpsc::channel::<RoundCmd>();
                        let (reply_tx, reply_rx) = mpsc::channel::<RoundReply>();
                        scope.spawn(move || {
                            let mut cur_rho = rho0_abs;
                            while let Ok(cmd) = cmd_rx.recv() {
                                let changed = cmd.rho_abs != cur_rho;
                                cur_rho = cmd.rho_abs;
                                let mut out = Vec::with_capacity(mine.len());
                                for cell in mine.iter_mut() {
                                    if changed {
                                        cell.set_penalty_rho(cmd.rho_abs, c, beta2);
                                    }
                                    cell.solve_round(c, beta2, b1_mw, &cmd);
                                    out.push(cell.round_report());
                                }
                                let reply = RoundReply {
                                    any_error: mine.iter().any(|cell| cell.error.is_some()),
                                    cells: out,
                                };
                                if reply_tx.send(reply).is_err() {
                                    break;
                                }
                            }
                        });
                        cmd_txs.push(cmd_tx);
                        reply_rxs.push(reply_rx);
                    }
                    let mut runner = RoundRunner::Pool { cmd_txs, reply_rxs };
                    // Dropping the runner closes the command channels; the
                    // workers drain out and the scope joins them.
                    run_outer_loop(
                        &mut runner,
                        consensus,
                        peak,
                        rho0_abs,
                        peak_step_per_rho,
                        max_outer,
                        tol,
                        step,
                        beta2,
                    )
                })
            } else {
                let mut runner = RoundRunner::Inline {
                    cells,
                    cur_rho: rho0_abs,
                    c,
                    beta2,
                    b1_mw,
                };
                run_outer_loop(
                    &mut runner,
                    consensus,
                    peak,
                    rho0_abs,
                    peak_step_per_rho,
                    max_outer,
                    tol,
                    step,
                    beta2,
                )
            }
        };
        // Balancing retunes reach the cells lazily, so after the loop the
        // Hessians may lag the coordinator's last decision; resync the
        // tracked penalty before anything (the ρ₀ park below, a later
        // error recovery) derives a patch delta from it.
        self.rho_abs = cells_rho;
        self.take_first_error()?;
        if !outer.converged && outer.primal_residual > 1e-4 {
            // The coordinator stalled far from primal feasibility: the
            // coupled problem is (numerically) infeasible in a way the
            // aggregate pre-check cannot see.
            return Err(Error::Infeasible);
        }
        // Park the penalty back at ρ₀: the persisted scaled dual and the
        // cell Hessians the next step starts from are then anchored to the
        // configuration alone, so checkpoint/restore rebuilds identical
        // state. A no-op (and free) when no retune fired.
        self.set_rho(self.rho0_abs, step.threads)?;

        // ---- Reassemble, repair conservation exactly, and aggregate. ----
        let mut y = vec![0.0; beta2 * nc];
        for cell in &self.cells {
            let ns = cell.num_local_idcs();
            let ncs = ns * c;
            for t in 0..beta2 {
                y[t * nc + cell.jlo * c..t * nc + cell.jhi * c]
                    .copy_from_slice(&cell.x[t * ncs..(t + 1) * ncs]);
            }
        }
        repair_conservation(&mut y, step.eq_rhs, step.in_rhs, n, c, beta2);

        let mut active_set = Vec::new();
        let mut stats = SolveStats::default();
        let mut iterations = 0u64;
        let mut fallbacks = 0u64;
        let mut rejections = Vec::new();
        for (s, cell) in self.cells.iter().enumerate() {
            let ns = cell.num_local_idcs();
            let ncs = ns * c;
            let ncap_local = beta2 * ns;
            for &li in &cell.seed {
                if li < ncap_local {
                    let (t, lj) = (li / ns, li % ns);
                    active_set.push(t * n + cell.jlo + lj);
                } else {
                    let r = li - ncap_local;
                    let (t, lidx) = (r / ncs, r % ncs);
                    active_set.push(beta2 * n + t * nc + cell.jlo * c + lidx);
                }
            }
            stats.merge(&cell.stats);
            iterations += cell.iterations;
            fallbacks += cell.fallbacks;
            if let Some(mut rej) = cell.rejection {
                rej.shard = s;
                rejections.push(rej);
            }
        }
        active_set.sort_unstable();
        stats.outer_iterations = outer.rounds;
        stats.consensus_residual_nano =
            (outer.primal_residual * 1e9).round().clamp(0.0, 1e18) as u64;
        stats.cold_fallbacks = fallbacks;

        let mut multipliers = Vec::with_capacity(mlen);
        multipliers.extend_from_slice(self.consensus.multipliers());
        if let Some(peak) = &self.peak {
            multipliers.extend_from_slice(peak.multipliers());
        }

        Ok(ShardedOutcome {
            y,
            active_set,
            iterations: iterations as usize,
            stats,
            outer,
            multipliers,
            fallbacks,
            rejections,
        })
    }
}

impl ShardCell {
    /// Adds `delta` to the consensus-penalty term of the local Hessian
    /// (`ρ·aaᵀ` is stage-diagonal: every portal-matched IDC pair carries
    /// the penalty) and refactors. A factorization error parks in
    /// `self.error`.
    /// Rewrites the consensus-penalty entries of the Hessian for a new
    /// absolute ρ. The writes are absolute (`base + ρ` on the diagonal, ρ
    /// alone off it, single rounding each — exactly how [`build_cell`]
    /// assembles them) so the Hessian bits depend only on the current ρ,
    /// never on the retune history; see [`ShardCell::penalty_base`].
    fn set_penalty_rho(&mut self, rho_abs: f64, c: usize, beta2: usize) {
        let ns = self.num_local_idcs();
        let ncs = ns * c;
        let base = &self.penalty_base;
        self.qp.update_hessian(|h| {
            for tau in 0..beta2 {
                let block = h.diag_mut(tau);
                for i in 0..c {
                    for lj1 in 0..ns {
                        for lj2 in 0..ns {
                            block[(lj1 * c + i) * ncs + (lj2 * c + i)] = if lj1 == lj2 {
                                base[tau * ns + lj1] + rho_abs
                            } else {
                                rho_abs
                            };
                        }
                    }
                }
            }
        });
        if let Err(e) = self.qp.prepare() {
            self.error = Some(e);
        }
    }

    /// One outer round for this cell: derive the exchange target from the
    /// broadcast correction, rebuild the priced gradient, warm-start the
    /// local QP, and refresh the portal sums. Errors park in `self.error`.
    fn solve_round(&mut self, c: usize, beta2: usize, b1_mw: &[f64], cmd: &RoundCmd) {
        if self.error.is_some() {
            return;
        }
        let ns = self.num_local_idcs();
        let ncs = ns * c;
        if !cmd.stalled {
            for r in 0..self.v.len() {
                self.z[r] = cmd.alpha * self.w[r] + (1.0 - cmd.alpha) * self.z[r] - cmd.gap[r];
                self.v[r] = self.z[r] - cmd.u[r];
            }
        }
        let peak_mu = cmd.peak_mu.as_deref();
        for t in 0..beta2 {
            for lj in 0..ns {
                let price = peak_mu.map_or(0.0, |mu| mu[t] * b1_mw[self.jlo + lj]);
                for i in 0..c {
                    let k = t * ncs + lj * c + i;
                    self.grad[k] = self.base_grad[k] - cmd.rho_abs * self.v[t * c + i] + price;
                }
            }
        }
        if let Err(e) = self.qp.set_gradient(&self.grad) {
            self.error = Some(e);
            return;
        }
        let solved = match self.qp.warm_start(&self.x, &self.seed, &mut self.ws) {
            Ok(sol) => Ok(sol),
            Err(Error::Infeasible) if cmd.cold_first => {
                // The repaired warm point violated a local constraint:
                // diagnose, then pay a cold solve.
                self.fallbacks += 1;
                self.rejection = Some(self.diagnose_rejection(c, beta2));
                self.qp.solve_with(&mut self.ws)
            }
            Err(e) => Err(e),
        };
        match solved {
            Ok(sol) => {
                self.stats.merge(sol.stats());
                self.iterations += sol.iterations() as u64;
                self.seed.clear();
                self.seed.extend_from_slice(sol.active_set());
                self.x.copy_from_slice(&sol.into_x());
                self.w_prev.copy_from_slice(&self.w);
                self.refresh_sums(c, b1_mw);
                self.move_inf = self
                    .w
                    .iter()
                    .zip(&self.w_prev)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// Clones the coordinator-facing results of the last round.
    fn round_report(&self) -> CellRound {
        CellRound {
            w: self.w.clone(),
            q: self.q.clone(),
            move_inf: self.move_inf,
        }
    }

    /// Recomputes the portal sums `w = A_s x` and the per-stage marginal
    /// power `q` from the current iterate.
    fn refresh_sums(&mut self, c: usize, b1_mw: &[f64]) {
        let ns = self.num_local_idcs();
        let ncs = ns * c;
        let beta2 = self.w.len() / c;
        self.w.fill(0.0);
        self.q.fill(0.0);
        for t in 0..beta2 {
            for lj in 0..ns {
                let b1 = b1_mw[self.jlo + lj];
                for i in 0..c {
                    let v = self.x[t * ncs + lj * c + i];
                    self.w[t * c + i] += v;
                    self.q[t] += b1 * v;
                }
            }
        }
    }

    /// Computes the per-family violation breakdown of the current (rejected)
    /// warm iterate against the local rows. Shards carry no conservation
    /// rows, so that family is always zero here.
    fn diagnose_rejection(&self, c: usize, beta2: usize) -> WarmRejection {
        let ns = self.num_local_idcs();
        let ncs = ns * c;
        let mut rej = WarmRejection::default();
        for t in 0..beta2 {
            for lj in 0..ns {
                let total: f64 = self.x[t * ncs + lj * c..t * ncs + (lj + 1) * c]
                    .iter()
                    .sum();
                rej.capacity = rej.capacity.max(total - self.in_rhs[t * ns + lj]);
            }
            for k in 0..ncs {
                let floor = -self.in_rhs[beta2 * ns + t * ncs + k];
                rej.nonnegativity = rej.nonnegativity.max(floor - self.x[t * ncs + k]);
            }
        }
        rej
    }
}

/// Distributes each `(stage, portal)` conservation residual of the
/// reassembled plan across IDCs — capacity headroom absorbs additions,
/// distance to the non-negativity floor absorbs removals — so eq. 45 holds
/// *exactly* after the outer loop stops at its (tiny) residual tolerance.
fn repair_conservation(
    y: &mut [f64],
    eq_rhs: &[f64],
    in_rhs: &[f64],
    n: usize,
    c: usize,
    beta2: usize,
) {
    let nc = n * c;
    let mut idc_sum = vec![0.0; n];
    let mut weights = vec![0.0; n];
    for t in 0..beta2 {
        for j in 0..n {
            idc_sum[j] = y[t * nc + j * c..t * nc + (j + 1) * c].iter().sum();
        }
        for i in 0..c {
            let sum_i: f64 = (0..n).map(|j| y[t * nc + j * c + i]).sum();
            let d = eq_rhs[t * c + i] - sum_i;
            if d == 0.0 {
                continue;
            }
            let mut total = 0.0;
            for j in 0..n {
                weights[j] = if d > 0.0 {
                    (in_rhs[t * n + j] - idc_sum[j]).max(0.0)
                } else {
                    // Distance to the non-negativity floor −in_rhs.
                    (y[t * nc + j * c + i] + in_rhs[beta2 * n + t * nc + j * c + i]).max(0.0)
                };
                total += weights[j];
            }
            if total <= 0.0 {
                weights.iter_mut().for_each(|w| *w = 1.0);
                total = n as f64;
            }
            for j in 0..n {
                let add = d * weights[j] / total;
                y[t * nc + j * c + i] += add;
                idc_sum[j] += add;
            }
        }
    }
}
