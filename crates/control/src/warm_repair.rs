//! Receding-horizon warm-start repair for the MPC step.
//!
//! Each step the controller shifts the previous plan's `ΔU` one stage
//! (drop the applied first block, hold zero change in the newly revealed
//! last block) and warm-starts the active-set solver from it. The shifted
//! point was optimal for the *previous* step's data; the new step brings a
//! new allocation `U(k−1)`, new forecasts, new capacities (the slow loop
//! moves server counts) and new battery state. [`repair`] rewrites the
//! shifted point, stage by stage, into one that satisfies every constraint
//! of the new step, so the solver never has to find a feasible point
//! itself. A cold solve starts from the repair of the zero point.
//!
//! # The repair
//!
//! The workload constraints are stage-local in the cumulative allocation
//! `u_t = U(k−1) + Σ_{s≤t} ΔU_s` (IDC-major `u_t[j·C + i]`): conservation
//! `Σ_j u_t[j,i] = L̂_i(k+t)`, capacity `Σ_i u_t[j,i] ≤ φ_j` and
//! non-negativity `u_t ≥ 0`. For each stage `t`, starting from the
//! repaired stage `t − 1` plus the shifted change `ΔU_t`:
//!
//! 1. clip every entry at the non-negativity floor;
//! 2. project each IDC onto its capacity (scale its entries down
//!    proportionally);
//! 3. shed the surplus of *every* over-served portal (scale its entries
//!    down proportionally);
//! 4. only then top up each under-served portal, in proportion to the
//!    capacity headroom of the IDCs already serving it, falling back to
//!    the headroom of all IDCs when theirs does not cover the deficit;
//! 5. refill each IDC whose stage-`t` capacity face the shifted seed holds
//!    (a *seeded* IDC) and whose load is below `φ_j`: load moves onto it
//!    from the IDCs the seed does not hold at capacity (the *donors*),
//!    only along portals it already serves, in proportion to the donors'
//!    entries there, and never more than its deficit.
//!
//! Steps 1–3 only shrink entries, so each keeps the constraints fixed by
//! the steps before it. Shedding every surplus before any top-up is what
//! makes step 4 always fit: after step 3 every portal is served at most
//! its forecast, so the fleet's total headroom `Σφ − Σu` is at least the
//! total deficit, and each top-up lowers both by the same amount. Step 5
//! moves load within a portal's column, so it keeps conservation; it
//! scales donor entries by a factor in `[0, 1]`, so it keeps every floor
//! and only lowers donor loads; and a seeded IDC gains at most its
//! deficit, so it keeps every capacity. It needs no headroom, so it keeps
//! the guarantee below.
//!
//! Step 5 is what keeps the shifted active-set seed valid. The slow loop
//! re-sizes every IDC's servers each period, so the capacity rows follow
//! the load and the optimum keeps the same IDCs full from step to step.
//! Steps 2–4 move a full IDC off its face (step 3 sheds from it like from
//! any other IDC); a seeded row the repaired point misses by more than
//! the acceptance tolerance is dropped from the seed, and the solver
//! spends an iteration re-admitting it. Step 5 puts it back on the face
//! whenever the donors serve enough of its portals. Entries at or below
//! [`SERVING_FLOOR`] stay there through steps 4 and 5 while any IDC that
//! serves the portal has headroom, so the seeded non-negativity rows
//! survive too. With no seed, step 5 does nothing and the repair is the
//! four-step repair a cold start uses.
//!
//! With storage, each IDC's shifted charge/discharge rates are
//! forward-simulated and clamped to the rate boxes and the SoC box.
//!
//! # Guarantee
//!
//! If every capacity and forecast is ≥ 0 and every stage's forecast total
//! is at most the fleet capacity `Σ_j φ_j`, the repaired point satisfies
//! every constraint of the step — conservation, capacity, non-negativity
//! and (with storage) the rate and SoC boxes — within
//! [`idc_opt::WARM_TOL`]`·(1 + ‖x‖∞)`, the tolerance at which the solver
//! accepts a warm start. Only floating-point rounding separates it from
//! exact feasibility.
//!
//! A step that breaks the capacity premise is infeasible; the controller
//! certifies that from the stage totals of the QP's right-hand sides.
//! For data outside the premise — a negative capacity `φ_j = −1/D_j` on an
//! IDC with no server on, say — the repaired point stays infeasible, the
//! solver rejects it as a start, and the controller reports the step
//! infeasible.

use crate::mpc::MpcProblem;

/// An entry at or below this allocation (req/s) counts as off: a top-up
/// never lands on it while an IDC that already serves the portal has
/// headroom, and a refill of a seeded IDC never moves load along it. The
/// MPC optimum is sparse, and lifting an entry off its floor would cost
/// the solver an iteration to re-discover the bound the seeded active set
/// relies on.
pub const SERVING_FLOOR: f64 = 1e-6;

/// Reusable buffers for [`repair`], kept by the controller so a step
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct RepairScratch {
    /// Repaired allocation of the previous stage (`U(k−1)` before stage 0).
    prev: Vec<f64>,
    /// Allocation of the stage being repaired.
    alloc: Vec<f64>,
    /// Per-IDC load of `alloc`.
    load: Vec<f64>,
    /// Top-up weights per IDC.
    weights: Vec<f64>,
}

/// Rewrites the shifted warm point `x` (stacked `ΔU`, `β₂` blocks of
/// [`MpcProblem::block_size`] entries) in place into a point feasible for
/// `problem`, as described in the [module docs](self). The control
/// horizon is the forecast length.
///
/// `faces` flags, per stage and IDC (`t·N + j`), whether the shifted
/// active set the solver will be warm-started with holds that IDC's
/// capacity face; the controller's QP skeleton derives the flags from the
/// seed. The repair puts each flagged IDC back on its face where it can.
/// A cold start passes no flags (an empty slice).
///
/// # Panics
///
/// Panics if `x` is not `β₂` blocks long, or `faces` neither empty nor
/// `β₂·N` long. The problem's dimensions are assumed already validated.
pub fn repair(problem: &MpcProblem, x: &mut [f64], faces: &[bool], scratch: &mut RepairScratch) {
    let beta2 = problem.workload_forecast.len();
    let nb = problem.block_size();
    assert_eq!(x.len(), beta2 * nb, "warm point must hold β₂ blocks");
    assert!(
        faces.is_empty() || faces.len() == beta2 * problem.num_idcs(),
        "faces must be empty or hold one flag per stage and IDC"
    );
    repair_storage(problem, x);
    repair_workload(problem, x, faces, scratch);
}

/// The five-phase workload repair of the module docs.
fn repair_workload(problem: &MpcProblem, x: &mut [f64], faces: &[bool], s: &mut RepairScratch) {
    let n = problem.num_idcs();
    let c = problem.num_portals();
    let nc = n * c;
    let nb = problem.block_size();
    let cap = &problem.capacities;
    s.prev.clear();
    s.prev.extend_from_slice(&problem.prev_input);
    s.alloc.clear();
    s.alloc.resize(nc, 0.0);
    s.load.clear();
    s.load.resize(n, 0.0);
    s.weights.clear();
    s.weights.resize(n, 0.0);
    for (t, forecast) in problem.workload_forecast.iter().enumerate() {
        let block = &mut x[t * nb..t * nb + nc];
        // 1. Non-negativity floor.
        for k in 0..nc {
            s.alloc[k] = (s.prev[k] + block[k]).max(0.0);
        }
        // 2. Capacity projection: the slow loop may have turned servers
        // off since the previous solve.
        for j in 0..n {
            let row = &mut s.alloc[j * c..(j + 1) * c];
            let load: f64 = row.iter().sum();
            if load > cap[j] && load > 0.0 {
                let keep = cap[j].max(0.0) / load;
                row.iter_mut().for_each(|v| *v *= keep);
            }
        }
        // 3. Shed every over-served portal's surplus.
        for i in 0..c {
            let served: f64 = (0..n).map(|j| s.alloc[j * c + i]).sum();
            if served > forecast[i] && served > 0.0 {
                let keep = forecast[i].max(0.0) / served;
                for j in 0..n {
                    s.alloc[j * c + i] *= keep;
                }
            }
        }
        // 4. Top up under-served portals from the remaining headroom.
        for j in 0..n {
            s.load[j] = s.alloc[j * c..(j + 1) * c].iter().sum();
        }
        for i in 0..c {
            let served: f64 = (0..n).map(|j| s.alloc[j * c + i]).sum();
            let deficit = forecast[i] - served;
            if deficit <= 0.0 {
                continue;
            }
            let mut total = 0.0;
            for j in 0..n {
                s.weights[j] = if s.alloc[j * c + i] > SERVING_FLOOR {
                    (cap[j] - s.load[j]).max(0.0)
                } else {
                    0.0
                };
                total += s.weights[j];
            }
            if total < deficit {
                total = 0.0;
                for j in 0..n {
                    s.weights[j] = (cap[j] - s.load[j]).max(0.0);
                    total += s.weights[j];
                }
            }
            if total <= 0.0 {
                // No headroom anywhere: the stage is infeasible and the
                // solver's acceptance check rejects the point.
                continue;
            }
            for j in 0..n {
                let add = deficit * s.weights[j] / total;
                s.alloc[j * c + i] += add;
                s.load[j] += add;
            }
        }
        // 5. Refill the seeded IDCs from the donors, along the portals
        // each already serves.
        let full = faces.get(t * n..(t + 1) * n).unwrap_or_default();
        for j in (0..full.len()).filter(|&j| full[j]) {
            let deficit = cap[j] - s.load[j];
            if deficit <= 0.0 {
                continue;
            }
            let mut avail = 0.0;
            for i in 0..c {
                if s.alloc[j * c + i] > SERVING_FLOOR {
                    avail += (0..n)
                        .filter(|&k| !full[k])
                        .map(|k| s.alloc[k * c + i])
                        .sum::<f64>();
                }
            }
            if avail <= 0.0 {
                continue;
            }
            // At most 1, so no donor entry goes below zero; exactly 1
            // empties them.
            let frac = deficit.min(avail) / avail;
            for i in 0..c {
                if s.alloc[j * c + i] <= SERVING_FLOOR {
                    continue;
                }
                for k in (0..n).filter(|&k| !full[k]) {
                    let take = s.alloc[k * c + i] * frac;
                    s.alloc[k * c + i] -= take;
                    s.load[k] -= take;
                    s.alloc[j * c + i] += take;
                    s.load[j] += take;
                }
            }
        }
        for k in 0..nc {
            block[k] = s.alloc[k] - s.prev[k];
        }
        std::mem::swap(&mut s.prev, &mut s.alloc);
    }
}

/// Forward-simulates each IDC's battery under the shifted rate changes and
/// clamps to the rate and SoC boxes. The policy nets and the simulator
/// clamps the applied rates, so the shifted plan's implied rates can sit
/// outside the new step's boxes (and an outage zeroes the caps outright);
/// the clamps rewrite the Δ entries to the nearest feasible schedule.
fn repair_storage(problem: &MpcProblem, x: &mut [f64]) {
    let Some(st) = &problem.storage else {
        return;
    };
    let n = problem.num_idcs();
    let nc = n * problem.num_portals();
    let nb = problem.block_size();
    let beta2 = problem.workload_forecast.len();
    for j in 0..n {
        let b1 = problem.b1_mw[j];
        let (ec, ed, dt) = (
            st.charge_efficiency[j],
            st.discharge_efficiency[j],
            st.dt_hours,
        );
        let cap = st.capacity_mwh[j];
        let mut soc = st.soc_mwh[j].min(cap);
        // Cumulative rate changes in req/s-equivalent units.
        let (mut cum_gc, mut cum_gd) = (0.0, 0.0);
        for t in 0..beta2 {
            let mut c_mw = (st.prev_charge_mw[j] + b1 * (cum_gc + x[t * nb + nc + j]))
                .clamp(0.0, st.max_charge_mw[j]);
            let mut d_mw = (st.prev_discharge_mw[j] + b1 * (cum_gd + x[t * nb + nc + n + j]))
                .clamp(0.0, st.max_discharge_mw[j]);
            // SoC upper: charge only up to full...
            if soc + dt * (ec * c_mw - d_mw / ed) > cap {
                c_mw = (((cap - soc) / dt + d_mw / ed) / ec).clamp(0.0, st.max_charge_mw[j]);
            }
            // ...SoC lower: discharge only down to empty.
            if soc + dt * (ec * c_mw - d_mw / ed) < 0.0 {
                d_mw = (ed * (soc / dt + ec * c_mw)).clamp(0.0, st.max_discharge_mw[j]);
            }
            soc = (soc + dt * (ec * c_mw - d_mw / ed)).clamp(0.0, cap);
            let new_cum_gc = (c_mw - st.prev_charge_mw[j]) / b1;
            let new_cum_gd = (d_mw - st.prev_discharge_mw[j]) / b1;
            x[t * nb + nc + j] = new_cum_gc - cum_gc;
            x[t * nb + nc + n + j] = new_cum_gd - cum_gd;
            cum_gc = new_cum_gc;
            cum_gd = new_cum_gd;
        }
    }
}
