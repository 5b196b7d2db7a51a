//! Cumulative introspection counters for the active-set QP solver.

/// Counters collected by the primal active-set loop of the banded QP
/// solver.
///
/// All fields are cumulative over however many solves were merged in —
/// [`merge`](Self::merge) is associative, so a controller can accumulate
/// per-solve stats into a running total and a caller can subtract
/// checkpoints with [`since`](Self::since) to get per-step deltas.
///
/// Semantics of each counter (see DESIGN §9 for the full taxonomy):
///
/// * `solves` — number of active-set solves merged in (warm and cold).
/// * `iterations` — active-set iterations, summed over solves.
/// * `constraints_added` — inequality constraints activated by a blocking
///   ratio test (`working.push`).
/// * `constraints_dropped` — constraints deactivated on a negative
///   multiplier (Dantzig or Bland rule).
/// * `readmissions` — inequality constraints activated again after a
///   negative-multiplier drop earlier in the same solve: the churn a
///   batched drop pays when it frees a row the next step needs back.
/// * `bound_flips` — working bounds with a negative multiplier swapped for
///   the tight opposite bound on the same variable instead of dropped: the
///   variable stays fixed, and no drop, step or re-admission is paid.
/// * `degenerate_pops` — constraints popped after a singular KKT
///   factorization, the numerical-degeneracy recovery path.
/// * `bland_switches` — times the pivot rule switched from Dantzig's most
///   negative multiplier to Bland's smallest index after the degeneracy
///   patience ran out (transitions, not Bland-rule drops).
/// * `seed_offered` / `seed_accepted` — warm-start seed constraints offered
///   to and accepted by the seeding filter; their ratio is the
///   [`seed_survival`](Self::seed_survival) fraction.
/// * `refinement_passes` — iterative-refinement passes performed inside KKT
///   solves: one per full solve, two when a stability rebuild re-solves.
/// * `step_updates` — iterations whose step came from a rank-1 update of
///   the previous step after a blocked step admitted only bounds, in place
///   of a full KKT solve.
/// * `cold_fallbacks` — solves where a warm start was attempted and failed,
///   forcing a cold re-solve (counted by the controller, not the loop).
/// * `refactorizations` — full rebuilds of the working-set factor, either
///   at solve start, after a stability trigger (large refinement
///   correction), or forced by fault injection.
/// * `updates_applied` / `downdates_applied` — incremental rows appended
///   to / removed from the working-set Cholesky factor in place of a fresh
///   factorization.
/// * `working_set_delta` — symmetric difference between the seeded initial
///   working set and the converged final one, summed over solves; per-solve
///   this is the gauge of how much the active set actually moved.
///
/// Four wall-clock parts of the solve follow, in nanoseconds. The solver
/// reads the clock for them only while a trace recorder is bound
/// ([`crate::recording`]), so untraced solves leave them at zero and stay
/// clock-free. They are timings, not counters: compare them across hosts
/// only with care.
///
/// * `update_ns` — working-set updates: factor builds, appends, removals,
///   and the fixing and freeing of bounded variables.
/// * `factor_solve_ns` — the two working-set factor solves per KKT step.
/// * `sweep_ns` — the step sweeps `p −= H̃⁻¹C_Gᵀλ` with their refinement,
///   including the right-hand-side and residual row dots.
/// * `ratio_test_ns` — the ratio test and the pivot that follows it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Active-set solves merged into this total.
    pub solves: u64,
    /// Active-set iterations across all solves.
    pub iterations: u64,
    /// Constraints activated by blocking ratio tests.
    pub constraints_added: u64,
    /// Constraints deactivated on negative multipliers.
    pub constraints_dropped: u64,
    /// Constraints activated again after a drop in the same solve.
    pub readmissions: u64,
    /// Working bounds flipped onto their tight opposite bound.
    pub bound_flips: u64,
    /// Constraints popped on singular KKT factorizations.
    pub degenerate_pops: u64,
    /// Dantzig→Bland pivot-rule switches.
    pub bland_switches: u64,
    /// Warm-start seed constraints offered to the seeding filter.
    pub seed_offered: u64,
    /// Warm-start seed constraints accepted as the initial working set.
    pub seed_accepted: u64,
    /// Iterative-refinement passes inside KKT solves.
    pub refinement_passes: u64,
    /// Steps updated in place of a full KKT solve.
    pub step_updates: u64,
    /// Warm-start attempts that failed and fell back to a cold solve.
    pub cold_fallbacks: u64,
    /// Full working-set factor rebuilds (start-of-solve, stability, forced).
    pub refactorizations: u64,
    /// Incremental factor rows appended on constraint adds.
    pub updates_applied: u64,
    /// Incremental factor rows removed on constraint drops/pops.
    pub downdates_applied: u64,
    /// Symmetric difference between seeded and converged working sets.
    pub working_set_delta: u64,
    /// Nanoseconds in working-set updates (traced solves only).
    pub update_ns: u64,
    /// Nanoseconds in working-set factor solves (traced solves only).
    pub factor_solve_ns: u64,
    /// Nanoseconds in step sweeps and refinement (traced solves only).
    pub sweep_ns: u64,
    /// Nanoseconds in ratio tests and pivots (traced solves only).
    pub ratio_test_ns: u64,
}

impl SolveStats {
    /// Field-wise accumulation of `other` into `self`.
    pub fn merge(&mut self, other: &SolveStats) {
        self.solves += other.solves;
        self.iterations += other.iterations;
        self.constraints_added += other.constraints_added;
        self.constraints_dropped += other.constraints_dropped;
        self.readmissions += other.readmissions;
        self.bound_flips += other.bound_flips;
        self.degenerate_pops += other.degenerate_pops;
        self.bland_switches += other.bland_switches;
        self.seed_offered += other.seed_offered;
        self.seed_accepted += other.seed_accepted;
        self.refinement_passes += other.refinement_passes;
        self.step_updates += other.step_updates;
        self.cold_fallbacks += other.cold_fallbacks;
        self.refactorizations += other.refactorizations;
        self.updates_applied += other.updates_applied;
        self.downdates_applied += other.downdates_applied;
        self.working_set_delta += other.working_set_delta;
        self.update_ns += other.update_ns;
        self.factor_solve_ns += other.factor_solve_ns;
        self.sweep_ns += other.sweep_ns;
        self.ratio_test_ns += other.ratio_test_ns;
    }

    /// Field-wise saturating difference `self - earlier`, for per-step
    /// deltas between two cumulative checkpoints.
    pub fn since(&self, earlier: &SolveStats) -> SolveStats {
        SolveStats {
            solves: self.solves.saturating_sub(earlier.solves),
            iterations: self.iterations.saturating_sub(earlier.iterations),
            constraints_added: self
                .constraints_added
                .saturating_sub(earlier.constraints_added),
            constraints_dropped: self
                .constraints_dropped
                .saturating_sub(earlier.constraints_dropped),
            readmissions: self.readmissions.saturating_sub(earlier.readmissions),
            bound_flips: self.bound_flips.saturating_sub(earlier.bound_flips),
            degenerate_pops: self.degenerate_pops.saturating_sub(earlier.degenerate_pops),
            bland_switches: self.bland_switches.saturating_sub(earlier.bland_switches),
            seed_offered: self.seed_offered.saturating_sub(earlier.seed_offered),
            seed_accepted: self.seed_accepted.saturating_sub(earlier.seed_accepted),
            refinement_passes: self
                .refinement_passes
                .saturating_sub(earlier.refinement_passes),
            step_updates: self.step_updates.saturating_sub(earlier.step_updates),
            cold_fallbacks: self.cold_fallbacks.saturating_sub(earlier.cold_fallbacks),
            refactorizations: self
                .refactorizations
                .saturating_sub(earlier.refactorizations),
            updates_applied: self.updates_applied.saturating_sub(earlier.updates_applied),
            downdates_applied: self
                .downdates_applied
                .saturating_sub(earlier.downdates_applied),
            working_set_delta: self
                .working_set_delta
                .saturating_sub(earlier.working_set_delta),
            update_ns: self.update_ns.saturating_sub(earlier.update_ns),
            factor_solve_ns: self.factor_solve_ns.saturating_sub(earlier.factor_solve_ns),
            sweep_ns: self.sweep_ns.saturating_sub(earlier.sweep_ns),
            ratio_test_ns: self.ratio_test_ns.saturating_sub(earlier.ratio_test_ns),
        }
    }

    /// The timed parts of the solve, summed: `update_ns + factor_solve_ns +
    /// sweep_ns + ratio_test_ns` (zero for untraced solves).
    pub fn parts_ns(&self) -> u64 {
        self.update_ns + self.factor_solve_ns + self.sweep_ns + self.ratio_test_ns
    }

    /// Total working-set churn: adds + drops + degenerate pops.
    pub fn working_set_churn(&self) -> u64 {
        self.constraints_added + self.constraints_dropped + self.degenerate_pops
    }

    /// Fraction of offered warm-seed constraints that survived the seeding
    /// filter, in `[0, 1]`. Defined as 1 when nothing was offered (an empty
    /// seed "survives" trivially — cold solves do not dilute the ratio).
    pub fn seed_survival(&self) -> f64 {
        if self.seed_offered == 0 {
            1.0
        } else {
            self.seed_accepted as f64 / self.seed_offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_since_are_inverse() {
        let a = SolveStats {
            solves: 2,
            iterations: 10,
            constraints_added: 4,
            constraints_dropped: 1,
            readmissions: 1,
            bound_flips: 2,
            degenerate_pops: 1,
            bland_switches: 1,
            seed_offered: 6,
            seed_accepted: 5,
            refinement_passes: 10,
            step_updates: 6,
            cold_fallbacks: 1,
            refactorizations: 2,
            updates_applied: 7,
            downdates_applied: 3,
            working_set_delta: 5,
            update_ns: 40,
            factor_solve_ns: 30,
            sweep_ns: 20,
            ratio_test_ns: 10,
        };
        let b = SolveStats {
            solves: 1,
            iterations: 3,
            seed_offered: 2,
            seed_accepted: 2,
            refactorizations: 1,
            updates_applied: 4,
            bound_flips: 3,
            ..SolveStats::default()
        };
        let mut total = a;
        total.merge(&b);
        assert_eq!(total.since(&a), b);
        assert_eq!(total.since(&b), a);
        assert_eq!(total.working_set_churn(), 6);
        assert_eq!(total.iterations, 13);
    }

    #[test]
    fn seed_survival_handles_empty_seed() {
        assert_eq!(SolveStats::default().seed_survival(), 1.0);
        let s = SolveStats {
            seed_offered: 4,
            seed_accepted: 3,
            ..SolveStats::default()
        };
        assert_eq!(s.seed_survival(), 0.75);
    }
}
