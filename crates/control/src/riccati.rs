//! Block-banded "Riccati" formulation of the MPC step (paper eq. 42–45).
//!
//! Condensing the tracking/smoothing least squares over the stacked input
//! changes gives a dense `nv × nv` Hessian (`nv = N·C·β₂`) whose
//! cumulative-sum constraint rows are fully dense — every active-set
//! iteration would pay `O(nv·m)` gathers and an `O(m³)` working-set
//! factorization. This module removes that density at the source by a
//! change of variables: instead of the stacked input *changes*
//! `ΔU = (x_0, …, x_{β₂−1})` it optimizes the stacked *cumulative* changes
//!
//! ```text
//! y_t = Σ_{t'≤t} x_{t'}            (so x_t = y_t − y_{t−1}, y_{−1} = 0)
//! ```
//!
//! In `y` every constraint of the paper becomes **stage-local**:
//!
//! * conservation (eq. 45): `Σ_j y_t[j·C+i] = rhs`, `n` entries in stage `t`;
//! * capacity (eq. 43): `Σ_i y_t[j·C+i] ≤ rhs`, `c` entries in stage `t`;
//! * non-negativity (eq. 44): `−y_t[idx] ≤ rhs`, a single entry;
//!
//! and the Hessian is **separable across IDCs** and banded in time: the
//! tracking term touches one stage of one IDC per prediction row, and the
//! smoothing/ridge term is a first-order difference in `y` that couples
//! adjacent stages of the same IDC. Only conservation couples IDCs, and it
//! does so through the constraints, not the Hessian.
//!
//! # Variable layout
//!
//! The QP orders its variables **IDC-major**: block `(j, t)` at position
//! `j·β₂ + t` holds IDC `j`'s `C` portal entries at stage `t`, followed by
//! its charge and discharge rate entries when storage is present. The
//! Hessian is then a [`BlockTridiag`] of `N·β₂` blocks of size `C` (or
//! `C + 2`) whose subdiagonal block between `(j, β₂−1)` and `(j+1, 0)` is
//! exactly zero, so `H⁻¹` is block diagonal over the IDCs.
//! [`idc_opt::banded_qp`] copies each IDC's `β₂`-block chain out dense,
//! factors and inverts it with one Cholesky (`O(N·(β₂·C)³)` per structure
//! rebuild, exact zeros between IDCs), and keeps one small free-set
//! inverse per IDC: the single-entry rows (eq. 44's
//! non-negativity and the storage rate limits) are bounds that fix their
//! variable in it, and only the conservation, capacity and SoC rows enter
//! the working-set Schur factor it maintains across active-set changes.
//!
//! The controller keeps `ΔU` stage-major (`x_t` contiguous, IDC-major
//! inside, then the `N` charge and `N` discharge entries), the layout of
//! warm states and snapshots. The skeleton converts at the solver
//! boundary: it sums `ΔU` into `y` and permutes it into the QP order on the
//! way in, and undoes both on the way out.
//!
//! # Row families
//!
//! The skeleton is the only code that knows the constraint rows' layout.
//! It keeps one table of row families — conservation, capacity,
//! non-negativity, then with storage the charge and discharge rate boxes
//! and the SoC box — each with its first row and its rows per stage, the
//! rows of a family running stage by stage. From that table it builds the
//! rows, writes their right-hand sides each step from the [`MpcProblem`],
//! shifts the previous active set for the receding horizon, certifies a
//! forecast beyond the fleet's capacity, and explains a rejected warm
//! start family by family. Active sets index the inequality rows in that
//! order; only the rows' column indices follow the QP layout. The
//! objective is the eq. 42 least squares without its constant `bᵀQb`.

use std::ops::Range;

use idc_linalg::banded::BlockTridiag;
use idc_opt::banded_qp::{BandedQp, BandedWorkspace, SparseRow};
use idc_opt::{QpSolution, Result};

use crate::mpc::{MpcConfig, MpcProblem, StorageProblem, WarmRejection};

/// A family of constraint rows, in the order the skeleton emits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// Eq. 45, one equality per portal: `Σ_j y_t[j,i] = L̂_i − Σ_j u_prev[j,i]`.
    Conservation,
    /// Eq. 43, one row per IDC: `Σ_i y_t[j,i] ≤ φ_j − λ_j`.
    Capacity,
    /// Eq. 44, one row per entry: `−y_t[j,i] ≤ u_prev[j,i]`.
    Nonnegativity,
    /// The charge rate's upper box, one row per IDC.
    ChargeMax,
    /// The charge rate's lower box (zero).
    ChargeMin,
    /// The discharge rate's upper box.
    DischargeMax,
    /// The discharge rate's lower box (zero).
    DischargeMin,
    /// State of charge at most the capacity at the end of stage `t`.
    SocMax,
    /// State of charge at least zero at the end of stage `t`.
    SocMin,
}

impl Family {
    /// Appends the right-hand sides of stage `t`'s rows to `rhs`, in the
    /// rows' units: req/s for the workload families, req/s equivalents
    /// (rates divided by `b₁_j`, energies by `dt·b₁_j`) for the storage
    /// ones.
    fn push_stage(self, p: &MpcProblem, t: usize, rhs: &mut Vec<f64>) {
        let (n, c, b1) = (p.num_idcs(), p.num_portals(), &p.b1_mw);
        match self {
            Family::Conservation => rhs.extend((0..c).map(|i| {
                let prev: f64 = (0..n).map(|j| p.prev_input[j * c + i]).sum();
                p.workload_forecast[t][i] - prev
            })),
            Family::Capacity => rhs.extend((0..n).map(|j| {
                let load: f64 = p.prev_input[j * c..(j + 1) * c].iter().sum();
                p.capacities[j] - load
            })),
            Family::Nonnegativity => rhs.extend_from_slice(&p.prev_input),
            storage => {
                let st = p.storage.as_ref().expect("storage rows need storage data");
                let (cap, soc, dt) = (&st.capacity_mwh, &st.soc_mwh, st.dt_hours);
                rhs.extend((0..n).map(|j| match storage {
                    Family::ChargeMax => (st.max_charge_mw[j] - st.prev_charge_mw[j]) / b1[j],
                    Family::ChargeMin => st.prev_charge_mw[j] / b1[j],
                    Family::DischargeMax => {
                        (st.max_discharge_mw[j] - st.prev_discharge_mw[j]) / b1[j]
                    }
                    Family::DischargeMin => st.prev_discharge_mw[j] / b1[j],
                    Family::SocMax => (cap[j] - soc[j] - soc_drift(st, j, t)) / (dt * b1[j]),
                    _ => (soc[j] + soc_drift(st, j, t)) / (dt * b1[j]),
                }));
            }
        }
    }
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

/// One entry of the row table: `per_stage` rows for each of the `β₂`
/// stages, stage-major from row `start`. Rows count equalities first, as
/// [`BandedQp::rows`] does.
#[derive(Debug, Clone, Copy)]
struct RowFamily {
    family: Family,
    start: usize,
    per_stage: usize,
}

impl RowFamily {
    /// The family's rows of stage `t`.
    fn stage(&self, t: usize) -> Range<usize> {
        self.start + t * self.per_stage..self.start + (t + 1) * self.per_stage
    }
}

/// The larger violation, where NaN is the worst of all: a point with a
/// NaN entry violates its rows, it does not satisfy them.
fn worse(a: f64, b: f64) -> f64 {
    if a.is_nan() || b <= a {
        a
    } else {
        b
    }
}

/// Entries of a structure key that give the layout.
const LAYOUT: usize = 3;

/// `problem`'s structure key (see [`RiccatiSkeleton::structure_key`]).
fn key_of(problem: &MpcProblem) -> impl Iterator<Item = f64> + '_ {
    let layout = [
        problem.num_idcs() as f64,
        problem.num_portals() as f64,
        f64::from(u8::from(problem.storage.is_some())),
    ];
    let efficiencies = problem
        .storage
        .iter()
        .flat_map(|st| st.charge_efficiency.iter().chain(&st.discharge_efficiency));
    layout
        .into_iter()
        .chain(problem.b1_mw.iter().copied())
        .chain(problem.tracking_multiplier.iter().copied())
        .chain(efficiencies.copied())
}

/// The banded QP skeleton for one problem structure.
///
/// Built once per structure — the dimensions, `b₁`, the tracking
/// multipliers and the storage efficiencies — then each sampling period
/// only the gradient and the constraint right-hand sides are rewritten.
#[derive(Debug, Clone)]
pub struct RiccatiSkeleton {
    qp: BandedQp,
    beta1: usize,
    beta2: usize,
    n: usize,
    c: usize,
    /// Per-IDC stage block size: `C`, plus the charge and discharge rate
    /// entries with storage.
    nbj: usize,
    /// `perm[q]` is the stage-major index of QP variable `q`.
    perm: Vec<usize>,
    /// Per-IDC gradient coefficient `−2·b₁_j·Q·multiplier_j`.
    grad_coeff: Vec<f64>,
    /// The row families, in row order.
    families: Vec<RowFamily>,
    /// The structure key (see [`structure_key`](Self::structure_key)).
    key: Vec<f64>,
    /// The step's gradient, in QP order.
    grad: Vec<f64>,
    /// The step's right-hand sides in row order, equalities first.
    rhs: Vec<f64>,
    /// The last start point handed to the solver, in QP order.
    start: Vec<f64>,
}

impl RiccatiSkeleton {
    /// Assembles the y-space Hessian, constraint rows, and placeholder
    /// right-hand sides for the given structure. Call
    /// [`BandedQp::prepare`] (via [`qp_mut`](Self::qp_mut)) afterwards to
    /// factor the Hessian.
    pub fn build(config: &MpcConfig, problem: &MpcProblem) -> Result<Self> {
        let n = problem.num_idcs();
        let c = problem.num_portals();
        let nc = n * c;
        let nb = problem.block_size();
        let storage = problem.storage.as_ref();
        let nbj = if storage.is_some() { c + 2 } else { c };
        let beta1 = config.prediction_horizon;
        let beta2 = config.control_horizon;
        let tw = config.tracking_weight;
        let sw = config.smoothing_weight;
        let ridge = config.input_ridge;
        // QP index of IDC j's local entry `a` at stage t: portals `a < C`,
        // then charge (`a = C`) and discharge (`a = C + 1`).
        let col = |j: usize, t: usize, a: usize| (j * beta2 + t) * nbj + a;

        // ---- Hessian: H_y = 2·(Ŝ + B̂) with Ŝ the stagewise tracking
        // normal matrix and B̂ the difference operator's normal matrix.
        //
        // Tracking row (s, j) reads b₁_j·Σ_i y_{τ(s)}[j·C+i] with
        // τ(s) = min(s, β₂−1), so stage τ < β₂−1 receives one row per IDC
        // and the final stage receives the β₁−β₂+1 tail rows. Each row
        // contributes a rank-one `b₁²·𝟙𝟙ᵀ` coupling within block (j, τ).
        // With storage the row also reads `+b₁·y[γc_j] − b₁·y[γd_j]` (rate
        // changes in req/s equivalents), extending the rank-one pattern to
        // the rate entries with a sign flip on the discharge column.
        //
        // Smoothing row (t, j) reads the same pattern of (y_t − y_{t−1})
        // and the ridge penalizes (y_t − y_{t−1}) entrywise; a stage
        // appears in the difference at `t` and (except the last) at `t+1`,
        // hence the 2-vs-1 diagonal count, with `−B` on the subdiagonal
        // block between (j, t) and (j, t+1). Nothing couples (j, β₂−1) to
        // (j+1, 0): that subdiagonal block stays zero.
        let signs: Vec<f64> = (0..nbj)
            .map(|a| if a == c + 1 { -1.0 } else { 1.0 })
            .collect();
        let rank_one = |block: &mut [f64], couple: f64| {
            for (ia, &sa) in signs.iter().enumerate() {
                for (ib, &sb) in signs.iter().enumerate() {
                    block[ia * nbj + ib] = couple * sa * sb;
                }
            }
        };
        let mut h = BlockTridiag::new(nbj, n * beta2);
        for j in 0..n {
            let b1 = problem.b1_mw[j];
            for tau in 0..beta2 {
                let last = tau + 1 == beta2;
                let track_count = if last {
                    (beta1 - beta2 + 1) as f64
                } else {
                    1.0
                };
                let smooth_count = if last { 1.0 } else { 2.0 };
                let block = h.diag_mut(j * beta2 + tau);
                rank_one(
                    block,
                    2.0 * b1
                        * b1
                        * (tw * problem.tracking_multiplier[j] * track_count + sw * smooth_count),
                );
                for d in 0..nbj {
                    block[d * nbj + d] += 2.0 * ridge * smooth_count;
                }
                if !last {
                    let block = h.sub_mut(j * beta2 + tau);
                    rank_one(block, -2.0 * sw * b1 * b1);
                    for d in 0..nbj {
                        block[d * nbj + d] -= 2.0 * ridge;
                    }
                }
            }
        }

        // ---- The row table, and the rows it describes; right-hand sides
        // are per-step and rewritten in place.
        use Family::*;
        let mut layout = vec![(Conservation, c), (Capacity, n), (Nonnegativity, nc)];
        if storage.is_some() {
            let rates = [ChargeMax, ChargeMin, DischargeMax, DischargeMin];
            layout.extend(rates.into_iter().chain([SocMax, SocMin]).map(|f| (f, n)));
        }
        let (mut families, mut start) = (Vec::with_capacity(layout.len()), 0);
        for (family, per_stage) in layout {
            families.push(RowFamily {
                family,
                start,
                per_stage,
            });
            start += beta2 * per_stage;
        }
        // In y-space the rate boxes are stage-local single entries (the
        // cumulative rate change at stage t IS y_t's rate entry); the SoC
        // rows sum the rate entries over stages ≤ t — multi-stage rows are
        // fine here, only the Hessian must stay banded.
        let row = |family: Family, t: usize, k: usize| -> Vec<(usize, f64)> {
            let soc = |sign: f64| {
                let st = storage.expect("SoC rows need storage data");
                (0..=t)
                    .flat_map(|r| {
                        [
                            (col(k, r, c), sign * st.charge_efficiency[k]),
                            (col(k, r, c + 1), -sign / st.discharge_efficiency[k]),
                        ]
                    })
                    .collect()
            };
            match family {
                Conservation => (0..n).map(|j| (col(j, t, k), 1.0)).collect(),
                Capacity => (0..c).map(|i| (col(k, t, i), 1.0)).collect(),
                Nonnegativity => vec![(col(k / c, t, k % c), -1.0)],
                ChargeMax => vec![(col(k, t, c), 1.0)],
                ChargeMin => vec![(col(k, t, c), -1.0)],
                DischargeMax => vec![(col(k, t, c + 1), 1.0)],
                DischargeMin => vec![(col(k, t, c + 1), -1.0)],
                SocMax => soc(1.0),
                SocMin => soc(-1.0),
            }
        };
        let mut qp = BandedQp::new(h, vec![0.0; beta2 * nb])?;
        for fam in &families {
            for t in 0..beta2 {
                for k in 0..fam.per_stage {
                    let r = SparseRow::from_entries(row(fam.family, t, k));
                    qp = if fam.family == Conservation {
                        qp.equality(r, 0.0)
                    } else {
                        qp.inequality(r, 0.0)
                    };
                }
            }
        }

        // Stage-major stage block: the N·C portal entries IDC-major, then
        // the N charge and the N discharge entries.
        let mut perm = vec![0; beta2 * nb];
        for j in 0..n {
            for t in 0..beta2 {
                for a in 0..nbj {
                    perm[col(j, t, a)] = t * nb
                        + match a.checked_sub(c) {
                            None => j * c + a,
                            Some(rate) => nc + rate * n + j,
                        };
                }
            }
        }
        let grad_coeff = (0..n)
            .map(|j| -2.0 * problem.b1_mw[j] * tw * problem.tracking_multiplier[j])
            .collect();
        Ok(RiccatiSkeleton {
            qp,
            beta1,
            beta2,
            n,
            c,
            nbj,
            perm,
            grad_coeff,
            families,
            key: key_of(problem).collect(),
            grad: Vec::new(),
            rhs: Vec::new(),
            start: Vec::new(),
        })
    }

    /// The underlying banded QP (for `prepare`).
    pub fn qp_mut(&mut self) -> &mut BandedQp {
        &mut self.qp
    }

    /// The underlying banded QP.
    pub(crate) fn qp(&self) -> &BandedQp {
        &self.qp
    }

    /// Whether `problem` has this skeleton's variable layout: the same IDC
    /// and portal counts, and storage attached or not alike. Only then do
    /// a warm point and an active set carry over to a rebuilt skeleton.
    pub(crate) fn same_layout(&self, problem: &MpcProblem) -> bool {
        key_of(problem)
            .take(LAYOUT)
            .eq(self.key[..LAYOUT].iter().copied())
    }

    /// Whether this skeleton is `problem`'s: the same structure key.
    pub(crate) fn fits(&self, problem: &MpcProblem) -> bool {
        key_of(problem).eq(self.key.iter().copied())
    }

    /// The structure key this skeleton was built for: the layout — the
    /// IDC and portal counts and `1` with storage attached, else `0` —
    /// then `b₁`, the tracking multipliers and, with storage, the charge
    /// and discharge efficiencies (the only storage parameters in
    /// constraint *coefficients*, so a battery outage, which zeroes rate
    /// caps, reuses the skeleton). Everything else — server counts,
    /// capacities, forecasts, references, battery state and rate caps —
    /// enters the per-step right-hand sides only.
    pub fn structure_key(&self) -> &[f64] {
        &self.key
    }

    /// The row family `family`; every skeleton has the workload families.
    fn family(&self, family: Family) -> &RowFamily {
        self.families
            .iter()
            .find(|f| f.family == family)
            .expect("every skeleton has the workload families")
    }

    /// Number of equality (conservation) rows.
    fn num_eq(&self) -> usize {
        self.beta2 * self.c
    }

    /// Writes `problem`'s gradient and constraint right-hand sides into
    /// the QP.
    ///
    /// The gradient is `g_y[τ, j, i] = −2·b₁_j·Q·mult_j · Σ_{s: min(s,β₂−1)=τ}
    /// (reference_s[j] − current power_j)`: the smoothing rows have zero
    /// targets and contribute nothing. Current power is grid power, IT
    /// draw plus the previous net battery rate.
    pub(crate) fn retarget(&mut self, problem: &MpcProblem) -> Result<()> {
        let (c, nbj, beta1, beta2) = (self.c, self.nbj, self.beta1, self.beta2);
        self.grad.clear();
        self.grad.resize(self.n * beta2 * nbj, 0.0);
        for (j, blocks) in self.grad.chunks_exact_mut(beta2 * nbj).enumerate() {
            let load: f64 = problem.prev_input[j * c..(j + 1) * c].iter().sum();
            let mut current =
                problem.b1_mw[j] * load + problem.b0_mw[j] * problem.servers_on[j] as f64;
            if let Some(st) = &problem.storage {
                current += st.prev_charge_mw[j] - st.prev_discharge_mw[j];
            }
            let gap = |s: usize| problem.power_reference_mw[s][j] - current;
            for (tau, block) in blocks.chunks_exact_mut(nbj).enumerate() {
                let sum: f64 = if tau + 1 < beta2 {
                    gap(tau)
                } else {
                    (beta2 - 1..beta1).map(gap).sum()
                };
                let g = self.grad_coeff[j] * sum;
                block.fill(g);
                if nbj > c {
                    // The charge entry shares the workload coefficient
                    // (same b₁ scale); the discharge entry is sign-flipped.
                    block[c + 1] = -g;
                }
            }
        }
        self.rhs.clear();
        for fam in &self.families {
            for t in 0..beta2 {
                fam.family.push_stage(problem, t, &mut self.rhs);
            }
        }
        let neq = self.num_eq();
        self.qp.set_gradient(&self.grad)?;
        self.qp.set_equality_rhs(&self.rhs[..neq])?;
        self.qp.set_inequality_rhs(&self.rhs[neq..])
    }

    /// Shifts the previous step's active set (inequality indices) for the
    /// receding horizon into `seed`, and flags in `faces` (`t·N + j`) each
    /// IDC whose stage-`t` capacity row the seed holds.
    ///
    /// Every family bounds *cumulative* sums through stage `t`, so after
    /// dropping the applied first stage the activity of row `(t, k)` is the
    /// old activity of row `(t + 1, k)`; the appended zero-change stage
    /// repeats the old final stage's cumulative sums, hence a final-stage
    /// row also stays (for the SoC rows, which keep integrating, the
    /// repeat is a heuristic seed the solver filters if inactive).
    pub(crate) fn shift_seed(
        &self,
        active: &[usize],
        seed: &mut Vec<usize>,
        faces: &mut Vec<bool>,
    ) {
        let neq = self.num_eq();
        seed.clear();
        for &ci in active {
            let row = neq + ci;
            let Some(fam) = self
                .families
                .iter()
                .find(|f| (f.start..f.start + self.beta2 * f.per_stage).contains(&row))
            else {
                continue;
            };
            let t = (row - fam.start) / fam.per_stage;
            if t >= 1 {
                seed.push(ci - fam.per_stage);
            }
            if t + 1 == self.beta2 {
                seed.push(ci);
            }
        }
        let capacity = self.family(Family::Capacity).start;
        faces.clear();
        faces.resize(self.beta2 * self.n, false);
        for &ci in seed.iter() {
            if let Some(face) = (neq + ci)
                .checked_sub(capacity)
                .and_then(|i| faces.get_mut(i))
            {
                *face = true;
            }
        }
    }

    /// Whether some stage's forecast demand exceeds the fleet's total
    /// capacity, read off the step's right-hand sides. With every portal
    /// routable to every IDC, a stage is feasible exactly when its total
    /// demand fits the total capacity; the previous allocation cancels
    /// between the conservation and capacity rows. The largest forecast
    /// magnitude sets the comparison's tolerance.
    pub(crate) fn exceeds_fleet_capacity(&self, problem: &MpcProblem) -> bool {
        let scale = problem
            .workload_forecast
            .iter()
            .flatten()
            .fold(0.0f64, |a, &v| a.max(v.abs()));
        let conservation = self.family(Family::Conservation);
        let capacity = self.family(Family::Capacity);
        (0..self.beta2).any(|t| {
            let demand: f64 = self.rhs[conservation.stage(t)].iter().sum();
            let capacity: f64 = self.rhs[capacity.stage(t)].iter().sum();
            demand > capacity + 1e-7 * scale.max(1.0)
        })
    }

    /// Warm-starts the QP from the stacked input changes `delta_u`
    /// (stage-major, [`MpcProblem::block_size`] entries per stage) with
    /// the working set seeded from `seed`.
    pub(crate) fn warm_start(
        &mut self,
        delta_u: &[f64],
        seed: &[usize],
        ws: &mut BandedWorkspace,
    ) -> Result<QpSolution> {
        self.set_start(delta_u);
        self.qp.warm_start(&self.start, seed, ws)
    }

    /// Converts stacked input changes into the last start point: the
    /// running sums `y_t = y_{t−1} + x_t`, gathered into the QP order.
    fn set_start(&mut self, delta_u: &[f64]) {
        let nbj = self.nbj;
        self.start.clear();
        self.start.extend(self.perm.iter().map(|&k| delta_u[k]));
        // Each IDC's chain holds its stages in order, one block apart.
        for chain in self.start.chunks_exact_mut(self.beta2 * nbj) {
            for q in nbj..chain.len() {
                chain[q] += chain[q - nbj];
            }
        }
    }

    /// Converts a QP-order point back into stacked input changes
    /// `x_t = y_t − y_{t−1}`, stage-major.
    pub(crate) fn to_delta_u(&self, x: &[f64], delta_u: &mut Vec<f64>) {
        let (nbj, chain) = (self.nbj, self.beta2 * self.nbj);
        delta_u.clear();
        delta_u.resize(x.len(), 0.0);
        for (y, perm) in x.chunks_exact(chain).zip(self.perm.chunks_exact(chain)) {
            for (q, &k) in perm.iter().enumerate() {
                delta_u[k] = if q < nbj { y[q] } else { y[q] - y[q - nbj] };
            }
        }
    }

    /// The worst violation per family of the last start point, evaluating
    /// every row on it: conservation as `|rowᵀy − rhs|`, the rest as
    /// `rowᵀy − rhs` against zero. A row that evaluates to NaN makes its
    /// family NaN.
    pub(crate) fn rejection(&self) -> WarmRejection {
        let mut rej = WarmRejection::default();
        let mut rows = self.qp.rows().zip(&self.rhs);
        for fam in &self.families {
            let worst = match fam.family {
                Family::Conservation => &mut rej.conservation,
                Family::Capacity => &mut rej.capacity,
                Family::Nonnegativity => &mut rej.nonnegativity,
                _ => &mut rej.storage,
            };
            let two_sided = fam.family == Family::Conservation;
            for (row, &b) in rows.by_ref().take(self.beta2 * fam.per_stage) {
                let v = row.dot(&self.start) - b;
                *worst = worse(*worst, if two_sided { v.abs() } else { v });
            }
        }
        rej
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idc_linalg::Matrix;

    /// Three IDCs with distinct `b₁` and multipliers, two portals, β₂ = 3
    /// of β₁ = 5, optionally with batteries of distinct efficiencies.
    fn problem(storage: bool) -> MpcProblem {
        let n = 3;
        MpcProblem {
            b1_mw: vec![67.5e-6, 108.0e-6, 81.0e-6],
            b0_mw: vec![150.0e-6; n],
            servers_on: vec![8_000, 10_000, 9_000],
            capacities: vec![15_000.0, 11_500.0, 12_000.0],
            prev_input: vec![3_000.0, 2_000.0, 1_500.0, 2_500.0, 500.0, 500.0],
            workload_forecast: vec![vec![5_000.0, 5_000.0]; 3],
            power_reference_mw: vec![vec![1.5, 2.0, 1.0]; 5],
            tracking_multiplier: vec![1.0, 30.0, 2.5],
            storage: storage.then(|| StorageProblem {
                capacity_mwh: vec![4.0; n],
                max_charge_mw: vec![2.0; n],
                max_discharge_mw: vec![2.0; n],
                charge_efficiency: vec![0.95, 0.9, 0.85],
                discharge_efficiency: vec![0.92, 0.97, 0.8],
                soc_mwh: vec![2.0; n],
                prev_charge_mw: vec![0.0; n],
                prev_discharge_mw: vec![0.0; n],
                dt_hours: 1.0 / 12.0,
            }),
        }
    }

    fn densify(h: &BlockTridiag) -> Matrix {
        h.dense(0, h.nblocks())
    }

    /// The stage-major Hessian (stage blocks of size `N·C`, then the `N`
    /// charge and `N` discharge entries), assembled densely from eq. 42
    /// with the same arithmetic per entry.
    fn stage_major_hessian(config: &MpcConfig, p: &MpcProblem) -> Vec<Vec<f64>> {
        let (n, c, nb) = (p.num_idcs(), p.num_portals(), p.block_size());
        let (beta1, beta2) = (config.prediction_horizon, config.control_horizon);
        let (tw, sw, ridge) = (
            config.tracking_weight,
            config.smoothing_weight,
            config.input_ridge,
        );
        let entries = |j: usize| {
            let mut e: Vec<(usize, f64)> = (0..c).map(|a| (j * c + a, 1.0)).collect();
            if p.storage.is_some() {
                e.extend([(n * c + j, 1.0), (n * c + n + j, -1.0)]);
            }
            e
        };
        let mut h = vec![vec![0.0; beta2 * nb]; beta2 * nb];
        for tau in 0..beta2 {
            let last = tau + 1 == beta2;
            let track_count = if last {
                (beta1 - beta2 + 1) as f64
            } else {
                1.0
            };
            let smooth_count = if last { 1.0 } else { 2.0 };
            for j in 0..n {
                let b1 = p.b1_mw[j];
                let couple = 2.0
                    * b1
                    * b1
                    * (tw * p.tracking_multiplier[j] * track_count + sw * smooth_count);
                let sub = -2.0 * sw * b1 * b1;
                for &(ia, sa) in &entries(j) {
                    for &(ib, sb) in &entries(j) {
                        h[tau * nb + ia][tau * nb + ib] = couple * sa * sb;
                        if !last {
                            h[(tau + 1) * nb + ia][tau * nb + ib] = sub * sa * sb;
                            h[tau * nb + ib][(tau + 1) * nb + ia] = sub * sa * sb;
                        }
                    }
                }
            }
            for d in 0..nb {
                h[tau * nb + d][tau * nb + d] += 2.0 * ridge * smooth_count;
                if !last {
                    h[(tau + 1) * nb + d][tau * nb + d] -= 2.0 * ridge;
                    h[tau * nb + d][(tau + 1) * nb + d] -= 2.0 * ridge;
                }
            }
        }
        h
    }

    /// The constraint rows in stage-major columns, in the controller's rhs
    /// order.
    fn stage_major_rows(config: &MpcConfig, p: &MpcProblem) -> Vec<Vec<(usize, f64)>> {
        let (n, c, nb) = (p.num_idcs(), p.num_portals(), p.block_size());
        let (nc, beta2) = (n * c, config.control_horizon);
        let mut rows = Vec::new();
        for t in 0..beta2 {
            for i in 0..c {
                rows.push((0..n).map(|j| (t * nb + j * c + i, 1.0)).collect());
            }
        }
        for t in 0..beta2 {
            for j in 0..n {
                rows.push((0..c).map(|i| (t * nb + j * c + i, 1.0)).collect());
            }
        }
        for t in 0..beta2 {
            for idx in 0..nc {
                rows.push(vec![(t * nb + idx, -1.0)]);
            }
        }
        if let Some(st) = &p.storage {
            for rate in [nc, nc + n] {
                for sign in [1.0, -1.0] {
                    for t in 0..beta2 {
                        for j in 0..n {
                            rows.push(vec![(t * nb + rate + j, sign)]);
                        }
                    }
                }
            }
            for sign in [1.0, -1.0] {
                for t in 0..beta2 {
                    for j in 0..n {
                        rows.push(
                            (0..=t)
                                .flat_map(|r| {
                                    [
                                        (r * nb + nc + j, sign * st.charge_efficiency[j]),
                                        (r * nb + nc + n + j, -sign / st.discharge_efficiency[j]),
                                    ]
                                })
                                .collect(),
                        );
                    }
                }
            }
        }
        rows
    }

    #[test]
    fn idc_major_layout_is_an_exact_permutation_of_the_stage_major_one() {
        let config = MpcConfig::default();
        for storage in [false, true] {
            let p = problem(storage);
            let mut skel = RiccatiSkeleton::build(&config, &p).unwrap();
            let dim = config.control_horizon * p.block_size();
            let perm = skel.perm.clone();
            let mut seen = perm.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..dim).collect::<Vec<_>>(), "not a permutation");

            // P·H_old·Pᵀ == H_new, entry by entry and exactly.
            let qp = skel.qp_mut();
            let h_new = densify(qp.hessian());
            let h_old = stage_major_hessian(&config, &p);
            for a in 0..dim {
                for (b, &v) in h_new.row(a).iter().enumerate() {
                    assert!(
                        v == h_old[perm[a]][perm[b]],
                        "storage={storage} H[{a},{b}] = {v} vs {}",
                        h_old[perm[a]][perm[b]]
                    );
                }
            }
            // Separable: the subdiagonal block between IDC j's last stage
            // and IDC j+1's first stage is exactly zero.
            let h = qp.hessian();
            for j in 0..p.num_idcs() - 1 {
                let k = j * config.control_horizon + config.control_horizon - 1;
                assert!(h.sub(k).iter().all(|&v| v == 0.0), "block {k}");
            }

            // Every constraint row is the stage-major row with its columns
            // mapped through the same P, in the same order.
            let mut inv = vec![0; dim];
            for (q, &k) in perm.iter().enumerate() {
                inv[k] = q;
            }
            let old_rows = stage_major_rows(&config, &p);
            let new_rows: Vec<&SparseRow> = qp.rows().collect();
            assert_eq!(new_rows.len(), old_rows.len());
            for (r, (new, old)) in new_rows.iter().zip(&old_rows).enumerate() {
                let mapped: Vec<(usize, f64)> = old.iter().map(|&(k, v)| (inv[k], v)).collect();
                assert_eq!(new.entries(), &mapped[..], "storage={storage} row {r}");
            }
        }
    }

    /// A stage-major `ΔU` of small dyadic values, so running sums are exact.
    fn dyadic_delta_u(dim: usize) -> Vec<f64> {
        (0..dim).map(|k| 0.5 * (k * 7 % 11) as f64 - 3.0).collect()
    }

    /// QP slot `q` holds the running sum, through its stage, of stage-major
    /// entry `perm[q]`'s position in each stage; the way back recovers `ΔU`.
    #[test]
    fn cumulative_and_delta_round_trip() {
        let config = MpcConfig::default();
        for storage in [false, true] {
            let p = problem(storage);
            let mut skel = RiccatiSkeleton::build(&config, &p).unwrap();
            let nb = p.block_size();
            let x = dyadic_delta_u(config.control_horizon * nb);
            skel.set_start(&x);
            for (q, &k) in skel.perm.iter().enumerate() {
                let (t, a) = (k / nb, k % nb);
                let running: f64 = (0..=t).map(|s| x[s * nb + a]).sum();
                assert_eq!(skel.start[q], running, "storage={storage} slot {q}");
            }
            let mut back = Vec::new();
            skel.to_delta_u(&skel.start, &mut back);
            assert_eq!(back, x, "storage={storage}");
        }
    }

    #[test]
    fn qp_order_round_trips() {
        let config = MpcConfig::default();
        for storage in [false, true] {
            let p = problem(storage);
            let mut skel = RiccatiSkeleton::build(&config, &p).unwrap();
            let dim = config.control_horizon * p.block_size();
            let x: Vec<f64> = (0..dim).map(|k| 0.37 * k as f64 - 3.1).collect();
            let mut back = Vec::new();
            skel.set_start(&x);
            skel.to_delta_u(&skel.start, &mut back);
            for (a, b) in back.iter().zip(&x) {
                assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "{a} vs {b}");
            }
            // The other direction, from a QP-order point.
            let q = x;
            skel.to_delta_u(&q, &mut back);
            skel.set_start(&back);
            for (a, b) in skel.start.iter().zip(&q) {
                assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "{a} vs {b}");
            }
        }
    }

    /// With one stage the running sums are the entries themselves: the
    /// conversion is the permutation alone, exactly, both ways.
    #[test]
    fn single_stage_transform_is_identity() {
        let config = MpcConfig {
            control_horizon: 1,
            ..MpcConfig::default()
        };
        let mut p = problem(true);
        p.workload_forecast.truncate(1);
        let mut skel = RiccatiSkeleton::build(&config, &p).unwrap();
        let x: Vec<f64> = (0..p.block_size()).map(|k| 0.37 * k as f64 - 3.1).collect();
        skel.set_start(&x);
        let gathered: Vec<f64> = skel.perm.iter().map(|&k| x[k]).collect();
        assert_eq!(skel.start, gathered);
        assert_ne!(skel.start, x, "the IDC-major order must differ here");
        let mut back = Vec::new();
        skel.to_delta_u(&skel.start, &mut back);
        assert_eq!(back, x);
    }

    /// The QP-order gradient is the stage-major one permuted.
    #[test]
    fn gradient_follows_the_permutation() {
        let config = MpcConfig::default();
        let p = problem(true);
        let mut skel = RiccatiSkeleton::build(&config, &p).unwrap();
        let (n, c, nb) = (p.num_idcs(), p.num_portals(), p.block_size());
        skel.retarget(&p).unwrap();
        let mut stage_major = vec![0.0; skel.grad.len()];
        for (&k, &g) in skel.perm.iter().zip(&skel.grad) {
            stage_major[k] = g;
        }
        for t in 0..config.control_horizon {
            for j in 0..n {
                let g = stage_major[t * nb + j * c];
                assert_ne!(g, 0.0);
                for i in 0..c {
                    assert_eq!(stage_major[t * nb + j * c + i], g);
                }
                assert_eq!(stage_major[t * nb + n * c + j], g);
                assert_eq!(stage_major[t * nb + n * c + n + j], -g);
            }
        }
    }

    /// Two IDCs and one portal, optionally with batteries: every
    /// inequality family has two rows per stage.
    fn two_by_one(storage: bool) -> MpcProblem {
        MpcProblem {
            b1_mw: vec![67.5e-6, 108.0e-6],
            b0_mw: vec![150.0e-6; 2],
            servers_on: vec![8_000, 10_000],
            capacities: vec![15_000.0, 11_500.0],
            prev_input: vec![6_000.0, 4_000.0],
            workload_forecast: vec![vec![10_000.0]; 3],
            power_reference_mw: vec![vec![1.5, 2.0]; 5],
            tracking_multiplier: vec![1.0; 2],
            storage: storage.then(|| StorageProblem {
                capacity_mwh: vec![4.0; 2],
                max_charge_mw: vec![2.0; 2],
                max_discharge_mw: vec![2.0; 2],
                charge_efficiency: vec![0.95; 2],
                discharge_efficiency: vec![0.95; 2],
                soc_mwh: vec![2.0; 2],
                prev_charge_mw: vec![0.0; 2],
                prev_discharge_mw: vec![0.0; 2],
                dt_hours: 1.0 / 12.0,
            }),
        }
    }

    /// Row `(t, k)` of every inequality family moves to `(t − 1, k)`, and a
    /// final-stage row also stays. Inequality rows on N = 2, C = 1, β₂ = 3:
    /// capacity 0–5, non-negativity 6–11, charge max 12–17, charge min
    /// 18–23, discharge max 24–29, discharge min 30–35, SoC max 36–41, SoC
    /// min 42–47; each family offers rows (0, 1), (1, 0) and (2, 1).
    #[test]
    fn seed_shift_moves_every_family_one_stage_back() {
        let skel = RiccatiSkeleton::build(&MpcConfig::default(), &two_by_one(true)).unwrap();
        let active = [
            1, 2, 5, 7, 8, 11, 13, 14, 17, 19, 20, 23, 25, 26, 29, 31, 32, 35, 37, 38, 41, 43, 44,
            47,
        ];
        let (mut seed, mut faces) = (Vec::new(), Vec::new());
        skel.shift_seed(&active, &mut seed, &mut faces);
        assert_eq!(
            seed,
            [
                0, 3, 5, 6, 9, 11, 12, 15, 17, 18, 21, 23, 24, 27, 29, 30, 33, 35, 36, 39, 41, 42,
                45, 47
            ]
        );
        // Capacity rows 0, 3 and 5: IDC 0 at stage 0, IDC 1 at stages 1, 2.
        assert_eq!(faces, [true, false, false, true, false, true]);
        // An empty active set seeds nothing and flags no face.
        skel.shift_seed(&[], &mut seed, &mut faces);
        assert!(seed.is_empty() && faces.iter().all(|&f| !f));
    }

    /// The warm-rejection report on N = 2, C = 1, β₂ = 2: IDC 0 takes 5 then
    /// 5 more (cumulative 10), IDC 1 stays put. Conservation wants 8 per
    /// stage, so stage 0 misses by 3 and stage 1 by 2; IDC 0's capacity rhs
    /// is 7, exceeded by 3 at stage 1; no entry goes negative.
    #[test]
    fn rejection_reports_the_violated_families() {
        let config = MpcConfig {
            control_horizon: 2,
            ..MpcConfig::default()
        };
        let mut p = two_by_one(false);
        p.prev_input = vec![1.0, 1.0];
        p.workload_forecast = vec![vec![10.0]; 2];
        p.capacities = vec![8.0, 101.0];
        let mut skel = RiccatiSkeleton::build(&config, &p).unwrap();
        skel.retarget(&p).unwrap();
        assert_eq!(
            skel.rhs,
            [8.0, 8.0, 7.0, 100.0, 7.0, 100.0, 1.0, 1.0, 1.0, 1.0]
        );
        skel.set_start(&[5.0, 0.0, 5.0, 0.0]);
        let rej = skel.rejection();
        assert_eq!(
            rej,
            WarmRejection {
                conservation: 3.0,
                capacity: 3.0,
                nonnegativity: 0.0,
                storage: 0.0,
            }
        );
        assert_eq!(rej.worst(), 3.0);
        // A NaN entry makes every family whose rows read it NaN.
        skel.set_start(&[f64::NAN, 0.0, 5.0, 0.0]);
        let rej = skel.rejection();
        assert!(rej.conservation.is_nan() && rej.capacity.is_nan() && rej.nonnegativity.is_nan());
        assert_eq!(rej.storage, 0.0);
    }

    /// Every inequality row of the skeleton stays inside one IDC, so the
    /// banded QP derives one chain per IDC (the storage SoC rows span
    /// stages, not IDCs). Solving through the per-chain working-set factor
    /// then matches the same QP posed as one dense block, and passes an
    /// independent KKT certificate.
    #[test]
    fn skeleton_has_one_chain_per_idc_and_solves_like_one_dense_block() {
        use idc_linalg::lu::Lu;
        use idc_opt::banded_qp::BandedWorkspace;

        let config = MpcConfig::default();
        let beta2 = config.control_horizon;
        for storage in [false, true] {
            let p = problem(storage);
            let mut skel = RiccatiSkeleton::build(&config, &p).unwrap();
            let qp = skel.qp_mut();
            qp.prepare().unwrap();
            let per_idc = beta2 * qp.hessian().nb();
            let me = beta2 * p.num_portals();
            let rows: Vec<SparseRow> = qp.rows().cloned().collect();
            let chains = qp.inequality_chains().unwrap().to_vec();
            assert_eq!(chains.len(), rows.len() - me);
            for (row, &c) in rows[me..].iter().zip(&chains) {
                let idc = row.entries()[0].0 / per_idc;
                assert!(row.entries().iter().all(|&(k, _)| k / per_idc == idc));
                assert_eq!(c, idc, "storage={storage} row {row:?}");
            }

            // Data around a strictly feasible x0 (distinct slacks, so the
            // optimum's active set has no ties), with a gradient that
            // drives the optimum onto some of the inequalities.
            let n = qp.num_vars();
            let x0: Vec<f64> = (0..n).map(|k| ((k * 7 % 11) as f64 - 5.0) * 0.1).collect();
            let g: Vec<f64> = (0..n).map(|k| 4.0 * ((k * 5 % 13) as f64 - 6.0)).collect();
            let b_eq: Vec<f64> = rows[..me].iter().map(|r| r.dot(&x0)).collect();
            let b_in: Vec<f64> = rows[me..]
                .iter()
                .enumerate()
                .map(|(i, r)| r.dot(&x0) + 0.05 + 0.01 * (i % 7) as f64)
                .collect();
            qp.set_gradient(&g).unwrap();
            qp.set_equality_rhs(&b_eq).unwrap();
            qp.set_inequality_rhs(&b_in).unwrap();
            let sol = qp
                .warm_start(&x0, &[], &mut BandedWorkspace::new())
                .unwrap();

            let h = densify(qp.hessian());
            let mut one = BlockTridiag::new(n, 1);
            one.diag_mut(0).copy_from_slice(h.as_slice());
            let mut dense = BandedQp::new(one, g.clone()).unwrap();
            for (row, &b) in rows[..me].iter().zip(&b_eq) {
                dense = dense.equality(row.clone(), b);
            }
            for (row, &b) in rows[me..].iter().zip(&b_in) {
                dense = dense.inequality(row.clone(), b);
            }
            let dense_sol = dense
                .warm_start(&x0, &[], &mut BandedWorkspace::new())
                .unwrap();
            assert!(!sol.active_set().is_empty());
            assert_eq!(
                sol.active_set(),
                dense_sol.active_set(),
                "storage={storage}"
            );
            let dense_obj = dense.objective_at(dense_sol.x());
            let scale = 1.0 + dense_obj.abs();
            assert!((qp.objective_at(sol.x()) - dense_obj).abs() <= 1e-8 * scale);

            // KKT certificate at the returned active set W:
            // [H Cᵀ; C 0]·[x; μ] = [−g; b] over the equalities and W, solved
            // by LU, reproduces x with μ_W ≥ 0.
            let working: Vec<(&SparseRow, f64)> = rows[..me]
                .iter()
                .zip(b_eq.iter().copied())
                .chain(sol.active_set().iter().map(|&i| (&rows[me + i], b_in[i])))
                .collect();
            let dim = n + working.len();
            let mut kkt = Matrix::zeros(dim, dim);
            let mut rhs = vec![0.0; dim];
            for i in 0..n {
                for j in 0..n {
                    kkt[(i, j)] = h[(i, j)];
                }
                rhs[i] = -g[i];
            }
            for (r, (row, b)) in working.iter().enumerate() {
                for &(i, c) in row.entries() {
                    kkt[(n + r, i)] += c;
                    kkt[(i, n + r)] += c;
                }
                rhs[n + r] = *b;
            }
            let z = Lu::factor(&kkt).unwrap().solve(&rhs).unwrap();
            let zscale = 1.0 + z.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (zi, xi) in z[..n].iter().zip(sol.x()) {
                assert!((zi - xi).abs() <= 1e-7 * zscale, "{zi} vs {xi}");
            }
            assert!(z[n + me..].iter().all(|&mu| mu >= -1e-7 * zscale));
        }
    }
}
