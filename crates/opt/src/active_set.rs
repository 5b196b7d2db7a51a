//! The primal active-set iteration.
//!
//! The textbook loop (Nocedal & Wright, Alg. 16.3) — solve an
//! equality-constrained subproblem, take the largest feasible step, add the
//! blocking constraint or drop the most negative multiplier. This module
//! owns the loop (Dantzig/Bland switching, degeneracy bookkeeping,
//! warm-start seeding) and drives the KKT subproblem solves of
//! [`banded_qp`](crate::banded_qp) through its `BandedOps`, which keeps the
//! pivoting logic apart from the linear algebra.
//!
//! The default pivot is blocked: a blocking step admits every row it
//! leaves tight, and a stationary point drops every working row whose
//! multiplier is at most `DROP_RATIO·μ_min`, `μ_min` being the most
//! negative one. Dropping every negative multiplier at once freed many
//! rows that came straight back at the next, zero-length step, and each
//! return costs a factor update and its later downdate. The
//! `readmissions` counter of [`SolveStats`] counts those returns. Before
//! any drop, a working bound with a negative multiplier whose opposite
//! bound on the same variable is tight flips onto that bound instead (see
//! `flip_bounds`), which costs no iteration and no factor change.
//!
//! Most blocked steps admit a single bound. The next step then comes from
//! [`BandedOps::update_step`], a rank-1 update of the step just taken,
//! instead of a KKT solve; the `step_updates` counter of [`SolveStats`]
//! counts the iterations that took one. Multipliers and stationarity are
//! read from full solves only, so an updated step that is stationary is
//! solved for again, and so is every step after `MAX_STEP_UPDATES`
//! updates in a row.

use idc_linalg::vec_ops;
use idc_obs::SolveStats;

use crate::banded_qp::BandedOps;
use crate::{Error, Result};

/// Feasibility/optimality tolerance.
pub(crate) const TOL: f64 = 1e-8;

/// Tolerance used to accept caller-supplied starting points and to decide
/// which seeded constraints are still active at a warm-start point. A
/// warm point is accepted when every constraint holds within
/// `WARM_TOL·(1 + ‖x‖∞)`.
pub const WARM_TOL: f64 = 1e-6;

/// Consecutive degenerate (zero-length, blocked) steps tolerated before the
/// drop rule switches from Dantzig's most-negative multiplier to Bland's
/// anti-cycling smallest index. The switch latches for the remainder of
/// the solve (see `bland_latched` in [`solve_from_feasible`]).
const DEGENERATE_PATIENCE: usize = 12;

/// A batched drop removes the working rows whose multiplier is at most
/// `DROP_RATIO·μ_min`, where `μ_min` is the most negative multiplier, so
/// the most negative row always goes and the loop still terminates. A
/// smaller ratio drops more rows per stationary point and re-admits more
/// of them at the next step.
const DROP_RATIO: f64 = 0.5;

/// Consecutive iterations that may take their step from a rank-1 update of
/// the previous one (see [`BandedOps::update_step`]) before a full KKT
/// solve, whose refinement and drift check the updates skip. On
/// `fleet_8x16` (seed 1) a cap of 4 / 8 / 16 / 32 / none leaves 18.5 /
/// 16.6 / 15.7 / 15.5 / 15.4 full solves per step at the same iteration
/// count, so caps past 16 buy almost nothing.
const MAX_STEP_UPDATES: usize = 16;

/// Every buffer of [`solve_from_feasible`], owned by the caller so a
/// workspace recycles them across solves: a steady-state solve allocates
/// only the [`QpSolution`] it returns.
#[derive(Debug, Clone, Default)]
pub(crate) struct LoopScratch {
    /// The working set.
    working: Vec<usize>,
    /// `[p; multipliers]` of the latest KKT step.
    sol: Vec<f64>,
    /// The iterate.
    x: Vec<f64>,
    /// Membership mask mirroring `working` — the ratio test consults it
    /// once per inequality per iteration, where a linear scan of the
    /// working set would cost O(m·num_in) per iteration.
    in_working: Vec<bool>,
    /// Snapshot of the accepted seed, so the converged set can be diffed
    /// into the `working_set_delta` gauge.
    seeded: Vec<bool>,
    /// Constraints popped by degenerate-KKT recoveries since the iterate
    /// last made progress (see the recovery arm of the loop).
    banned: Vec<bool>,
    /// Batched pivoting: working-set positions to drop.
    drops: Vec<usize>,
    /// Rows dropped on a negative multiplier earlier in this solve, so an
    /// admission can be counted as a re-admission.
    dropped: Vec<bool>,
    /// Batched pivoting: `(index, a·p, slack)` ratio-test candidates.
    adds: Vec<(usize, f64, f64)>,
}

/// Core active-set loop from a feasible `x0`, with the working set seeded
/// from `seed` (invalid or inactive entries are skipped).
pub(crate) fn solve_from_feasible(
    ops: &mut BandedOps<'_>,
    x0: &[f64],
    seed: &[usize],
    scratch: &mut LoopScratch,
) -> Result<QpSolution> {
    let LoopScratch {
        working,
        sol,
        x,
        in_working,
        seeded,
        banned,
        drops,
        dropped,
        adds,
    } = scratch;
    let (n, me, mi) = (ops.num_vars(), ops.num_eq(), ops.num_in());
    x.clear();
    x.extend_from_slice(x0);
    working.clear();
    in_working.clear();
    in_working.resize(mi, false);
    let mut stats = SolveStats {
        solves: 1,
        seed_offered: seed.len() as u64,
        ..SolveStats::default()
    };
    let scale = 1.0 + vec_ops::norm_inf(x0);
    for &i in seed {
        // Keep the KKT system square-solvable: never seed more working
        // constraints than free directions.
        if me + working.len() >= n {
            break;
        }
        if i < mi && !in_working[i] && (ops.in_dot(i, x0) - ops.in_rhs(i)).abs() <= WARM_TOL * scale
        {
            working.push(i);
            in_working[i] = true;
        }
    }
    stats.seed_accepted = working.len() as u64;
    seeded.clear();
    seeded.extend_from_slice(in_working);
    ops.begin(x, working, in_working);
    let mut iterations = 0;
    let mut degenerate_streak = 0usize;
    // Once the loop has been driven to Bland's rule, stay there for the
    // rest of the solve. A resettable switch is unsound: a cycle whose
    // period includes one tiny-but-nonzero step clears the streak, the
    // loop re-enters batched Dantzig, and the same working sets repeat
    // forever — observed on a degenerate scaled-fleet instance where a
    // 10× iteration budget still never converged. Bland's smallest-index
    // rule is finitely terminating, so latching it guarantees the loop
    // ends; the Dantzig speed only matters on the non-degenerate bulk of
    // solves, which never trip the latch.
    let mut bland_latched = false;
    let budget = ops.iteration_budget();
    // Constraints popped by degenerate-KKT recoveries since the iterate
    // last made progress, excluded from the ratio test while their a·p is
    // at noise level (see the recovery arm below). The set accumulates —
    // a single-slot ban merely rotates a livelock through two or more
    // mutually dependent rows — and clears whenever the iterate moves
    // materially or a multiplier drop changes the working set.
    banned.clear();
    banned.resize(mi, false);
    let mut any_banned = false;
    dropped.clear();
    dropped.resize(mi, false);
    // Whether `sol[..n]` holds a step updated after a bound-only blocked
    // step, and how many updates in a row led to it.
    let mut updated = false;
    let mut updates_in_row = 0usize;

    loop {
        if iterations >= budget {
            return Err(Error::IterationLimit { iterations: budget });
        }
        iterations += 1;
        // Stationarity is judged relative to the iterate's scale: with
        // workload-sized variables (O(1e4)) a step of 1e-8 is numerical
        // noise, not progress.
        let x_scale = TOL * (1.0 + vec_ops::norm_inf(x));
        // An updated step is taken as it stands unless it is stationary:
        // stationarity and the multipliers are read from full solves only.
        if std::mem::take(&mut updated) && vec_ops::norm_inf(&sol[..n]) >= x_scale {
            stats.step_updates += 1;
        } else {
            updates_in_row = 0;
            match ops.kkt_step(x, working, sol) {
                Ok(()) => {}
                Err(Error::Numerical(_)) if !working.is_empty() => {
                    // Degenerate working set — drop the most recent
                    // addition and ban it from the next ratio test. Without
                    // the ban the loop can livelock: a constraint row that
                    // is numerically dependent on the working set (a·p at
                    // noise level) still passes the `ap > TOL` blocking test
                    // with a tiny negative slack, re-enters with a
                    // zero-length step, re-breaks the KKT factorization and
                    // is popped again, forever.
                    let dropped = working.pop().expect("non-empty");
                    in_working[dropped] = false;
                    banned[dropped] = true;
                    any_banned = true;
                    stats.degenerate_pops += 1;
                    // The popped entry sat at position `working.len()`.
                    ops.on_remove(working.len());
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        let p_norm = vec_ops::norm_inf(&sol[..n]);
        let pivot_start = ops.pivot_mark();
        // Batched (blocked Dantzig) pivoting is the default; Bland's
        // anti-cycling rule and the differential-test reference mode are
        // strictly single-pivot.
        let bland = bland_latched || degenerate_streak >= DEGENERATE_PATIENCE;
        let batch_pivots = !bland && !ops.single_pivot();
        if p_norm < x_scale {
            // Multipliers of working inequality constraints live after
            // the equality multipliers. Normally drop every row whose
            // multiplier is at most `DROP_RATIO` times the most negative
            // one in one outer iteration (blocked Dantzig — the working
            // set jumps toward the optimal one instead of shedding a
            // single constraint per KKT solve); after a streak of
            // degenerate zero-length steps, switch to Bland's single
            // smallest-constraint-index drop, which cannot cycle. Pure
            // Bland is safe but walks the working set essentially one
            // index at a time, which on a large warm-started transient
            // costs thousands of KKT solves.
            ops.bound_multipliers(x, working, sol);
            stats.bound_flips +=
                flip_bounds(ops, x, x_scale, working, in_working, &mut sol[n + me..]);
            let ineq_mult = &sol[n + me..];
            if any_banned {
                banned.fill(false);
                any_banned = false;
            }
            if batch_pivots {
                select_drops(ineq_mult, drops);
                if drops.is_empty() {
                    stats.ratio_test_ns += ops.pivot_ns(pivot_start);
                    return finish(ops, x, iterations, working, in_working, seeded, stats);
                }
                // Highest position first, so earlier positions stay valid
                // across the removals.
                for &k in drops.iter().rev() {
                    let row = working.remove(k);
                    in_working[row] = false;
                    dropped[row] = true;
                    stats.constraints_dropped += 1;
                    ops.on_remove(k);
                }
            } else {
                let candidates = ineq_mult.iter().enumerate().filter(|(_, &m)| m < -TOL);
                let worst = if !bland {
                    candidates.min_by(|a, b| a.1.partial_cmp(b.1).expect("multipliers are finite"))
                } else {
                    candidates.min_by_key(|&(k, _)| working[k])
                };
                match worst {
                    None => {
                        stats.ratio_test_ns += ops.pivot_ns(pivot_start);
                        return finish(ops, x, iterations, working, in_working, seeded, stats);
                    }
                    Some((idx, _)) => {
                        let row = working.remove(idx);
                        in_working[row] = false;
                        dropped[row] = true;
                        stats.constraints_dropped += 1;
                        ops.on_remove(idx);
                    }
                }
            }
        } else {
            let p = &sol[..n];
            // Ratio test against inactive inequality constraints (one
            // product per bound).
            let mut alpha = 1.0;
            let mut blocking = None;
            adds.clear();
            for i in 0..mi {
                if in_working[i] {
                    continue;
                }
                let ap = ops.in_dot(i, p);
                if ap > TOL {
                    // A popped row whose a·p is noise-level is the
                    // degenerate-KKT livelock: skipping it is safe because
                    // the step (alpha ≤ 1) can violate it by at most a·p,
                    // which is WARM_TOL-relative to the step scale.
                    if banned[i] && ap <= WARM_TOL * (1.0 + p_norm) {
                        continue;
                    }
                    let slack = ops.in_rhs(i) - ops.in_dot(i, x);
                    let ai = (slack / ap).max(0.0);
                    if ai < alpha {
                        alpha = ai;
                        blocking = Some(i);
                    }
                    if batch_pivots {
                        adds.push((i, ap, slack));
                    }
                }
            }
            // A blocked step whose *displacement* is negligible at the
            // iterate's scale means a degenerate vertex — the only
            // place Dantzig's rule can cycle.
            if alpha * p_norm <= x_scale && blocking.is_some() {
                degenerate_streak += 1;
                if degenerate_streak == DEGENERATE_PATIENCE && !bland_latched {
                    bland_latched = true;
                    stats.bland_switches += 1;
                }
            } else {
                degenerate_streak = 0;
            }
            if any_banned && alpha * p_norm > x_scale {
                // Real movement: the slacks change, so stale dependency
                // bans no longer describe the geometry at the new iterate.
                banned.fill(false);
                any_banned = false;
            }
            vec_ops::axpy(alpha, p, x);
            if let Some(i) = blocking {
                if batch_pivots {
                    // Admit every constraint that became (numerically)
                    // tight at the new iterate, not just the single
                    // blocking one — ratio-test near-ties are what force
                    // the one-at-a-time crawl on warm-started transients.
                    // They enter in index order, the blocking one among
                    // them: which of two exactly tied rows the ratio test
                    // names is rounding noise, and a degenerate pop drops
                    // the last entry. The working set is kept strictly
                    // smaller than the free directions so the KKT system
                    // stays solvable; the blocking row always enters.
                    for &(j, ap, slack) in adds.iter() {
                        let pending = usize::from(!in_working[i]);
                        let room = me + working.len() + pending < n;
                        if j == i || (slack - alpha * ap <= x_scale && room) {
                            working.push(j);
                            in_working[j] = true;
                            stats.constraints_added += 1;
                            stats.readmissions += u64::from(dropped[j]);
                        }
                    }
                } else {
                    working.push(i);
                    in_working[i] = true;
                    stats.constraints_added += 1;
                    stats.readmissions += u64::from(dropped[i]);
                }
                // Bounds alone: update the step instead of solving for it.
                if updates_in_row < MAX_STEP_UPDATES {
                    updated = ops.update_step(x, working, alpha, &mut sol[..n]);
                    updates_in_row += usize::from(updated);
                }
            }
        }
        stats.ratio_test_ns += ops.pivot_ns(pivot_start);
    }
}

/// Flipping bounds: every working bound whose multiplier is below `−TOL`
/// while its partner, the opposite bound on the same variable, is tight at
/// `x` swaps for that partner instead of being dropped (Ferreau et al.,
/// qpOASES). The variable stays fixed, so the step stays zero and every
/// other multiplier stands, and the flipped row's multiplier turns
/// positive. A zero-width box, such as a gated battery rate, would
/// otherwise cost a drop, a zero-length step straight back into the
/// partner and its admission. Takes no iteration; returns the number of
/// flips.
///
/// Kept out of line: inlined into [`solve_from_feasible`] it changed the
/// code generated for the loop, and `fleet_8x16`, which never flips, ran
/// about 6 % slower in alternated runs.
#[inline(never)]
fn flip_bounds(
    ops: &mut BandedOps<'_>,
    x: &[f64],
    x_scale: f64,
    working: &mut [usize],
    in_working: &mut [bool],
    ineq_mult: &mut [f64],
) -> u64 {
    let mut flips = 0;
    for (pos, m) in ineq_mult.iter_mut().enumerate() {
        let i = working[pos];
        if *m >= -TOL {
            continue;
        }
        let Some(j) = ops.tight_partner(i, x, x_scale) else {
            continue;
        };
        debug_assert!(!in_working[j], "a partner fixes a variable already fixed");
        *m *= ops.flip(pos, j);
        working[pos] = j;
        in_working[i] = false;
        in_working[j] = true;
        flips += 1;
    }
    flips
}

/// Fills `drops` with the working-set positions of a batched drop, in
/// ascending order: every multiplier below `−TOL` and at most
/// `DROP_RATIO·μ_min`, where `μ_min` is the most negative multiplier.
/// Empty when no multiplier is below `−TOL`.
fn select_drops(ineq_mult: &[f64], drops: &mut Vec<usize>) {
    drops.clear();
    let mu_min = ineq_mult.iter().copied().fold(0.0, f64::min);
    if mu_min >= -TOL {
        return;
    }
    let cut = DROP_RATIO * mu_min;
    drops.extend(
        ineq_mult
            .iter()
            .enumerate()
            .filter(|(_, &m)| m < -TOL && m <= cut)
            .map(|(k, _)| k),
    );
}

/// Builds the optimal [`QpSolution`] once no negative multipliers remain.
fn finish(
    ops: &mut BandedOps<'_>,
    x: &[f64],
    iterations: usize,
    working: &mut [usize],
    in_working: &[bool],
    seeded_mask: &[bool],
    mut stats: SolveStats,
) -> Result<QpSolution> {
    working.sort_unstable();
    stats.iterations = iterations as u64;
    ops.take_counters(&mut stats);
    stats.working_set_delta = seeded_mask
        .iter()
        .zip(in_working)
        .filter(|(s, w)| s != w)
        .count() as u64;
    Ok(QpSolution::from_parts(
        x.to_vec(),
        iterations,
        working.to_vec(),
        stats,
    ))
}

/// A solved quadratic program.
#[derive(Debug, Clone, PartialEq)]
pub struct QpSolution {
    x: Vec<f64>,
    iterations: usize,
    active_set: Vec<usize>,
    stats: SolveStats,
}

impl QpSolution {
    /// Assembles a solution from the active-set loop's results.
    pub(crate) fn from_parts(
        x: Vec<f64>,
        iterations: usize,
        active_set: Vec<usize>,
        stats: SolveStats,
    ) -> Self {
        QpSolution {
            x,
            iterations,
            active_set,
            stats,
        }
    }

    /// The optimal point.
    pub fn x(&self) -> &[f64] {
        &self.x
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
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded_qp::{BandedQp, BandedWorkspace, SparseRow};
    use idc_linalg::banded::BlockTridiag;

    /// `min ½xᵀHx + gᵀx` over one dense block, with every bound `x_i ≤ 0`.
    fn bounded_above_by_zero(h: &[&[f64]], g: &[f64]) -> BandedQp {
        let n = g.len();
        let mut bt = BlockTridiag::new(n, 1);
        for (i, row) in h.iter().enumerate() {
            bt.diag_mut(0)[i * n..(i + 1) * n].copy_from_slice(row);
        }
        let mut qp = BandedQp::new(bt, g.to_vec()).unwrap();
        for i in 0..n {
            qp = qp.inequality(SparseRow::from_entries(vec![(i, 1.0)]), 0.0);
        }
        qp
    }

    fn identity(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..n).map(|j| f64::from(u8::from(i == j))).collect())
            .collect()
    }

    #[test]
    fn batched_drop_keeps_multipliers_above_the_ratio_cut() {
        let mu_min = -10.0;
        let cut = DROP_RATIO * mu_min;
        let mut drops = Vec::new();
        // The most negative row, one between it and the cut, one exactly
        // at the cut, one above it, a noise-level one and a positive one.
        select_drops(
            &[
                -3.0,
                mu_min,
                cut,
                0.5 * (mu_min + cut),
                0.5 * cut,
                -1e-9,
                4.0,
            ],
            &mut drops,
        );
        assert_eq!(drops, vec![1, 2, 3]);
        // A lone negative multiplier always goes; noise alone drops nothing.
        select_drops(&[2.0, -1e-3, 0.0], &mut drops);
        assert_eq!(drops, vec![1]);
        select_drops(&[2.0, -1e-9, 0.0], &mut drops);
        assert!(drops.is_empty());
    }

    /// A separable QP whose seeded multipliers differ by far more than 2×:
    /// at `x = 0` with every bound working, bound `i` has multiplier
    /// `−g_i`. Each stationary point drops only the rows at or below
    /// `DROP_RATIO·μ_min` of the rows still working, so the solve takes
    /// one drop and one full step per distinct batch.
    #[test]
    fn one_batched_drop_removes_only_rows_at_or_below_the_cut() {
        let cut = 10.0 * DROP_RATIO;
        // Batches: {0, 1} (≤ cut), then {2} (−cut/2 is the new minimum and
        // row 3 sits above half of it), then {3}.
        let g = [10.0, 0.5 * (10.0 + cut), 0.5 * cut, 0.1 * cut];
        let h = identity(4);
        let rows: Vec<&[f64]> = h.iter().map(Vec::as_slice).collect();
        let mut qp = bounded_above_by_zero(&rows, &g);
        let sol = qp
            .warm_start(&[0.0; 4], &[0, 1, 2, 3], &mut BandedWorkspace::new())
            .unwrap();
        for (x, g) in sol.x().iter().zip(g) {
            assert!((x + g).abs() < 1e-9, "{x} vs {}", -g);
        }
        assert!(sol.active_set().is_empty());
        let stats = sol.stats();
        assert_eq!(stats.seed_accepted, 4);
        assert_eq!(stats.constraints_dropped, 4);
        // Three drops, three steps and the final stationary point; dropping
        // every negative multiplier at once would take three iterations.
        assert_eq!(sol.iterations(), 7, "{stats:?}");
        assert_eq!(stats.readmissions, 0);
    }

    /// Both seeded bounds carry the same multiplier, so any ratio drops
    /// both; the coupled Hessian then steps straight back into bound 0,
    /// which the zero-length blocking step admits again.
    #[test]
    fn readmission_of_a_dropped_bound_is_counted() {
        let mut qp = bounded_above_by_zero(&[&[1.0, 0.9], &[0.9, 0.85]], &[1.0, 1.0]);
        let sol = qp
            .warm_start(&[0.0, 0.0], &[0, 1], &mut BandedWorkspace::new())
            .unwrap();
        assert_eq!(sol.active_set(), &[0]);
        assert!(sol.x()[0].abs() < 1e-12);
        assert!((sol.x()[1] + 1.0 / 0.85).abs() < 1e-9, "{:?}", sol.x());
        let stats = sol.stats();
        assert_eq!(stats.constraints_dropped, 2, "{stats:?}");
        assert_eq!(stats.constraints_added, 1, "{stats:?}");
        assert_eq!(stats.readmissions, 1, "{stats:?}");
    }

    #[test]
    fn unconstrained_solve_counts_no_readmissions() {
        let mut bt = BlockTridiag::new(2, 1);
        bt.diag_mut(0).copy_from_slice(&[2.0, 0.5, 0.5, 1.0]);
        let mut qp = BandedQp::new(bt, vec![1.0, -3.0]).unwrap();
        let sol = qp
            .warm_start(&[0.0, 0.0], &[], &mut BandedWorkspace::new())
            .unwrap();
        assert!(sol.active_set().is_empty());
        assert_eq!(sol.stats().readmissions, 0);
        assert_eq!(sol.stats().constraints_dropped, 0);
    }
}
