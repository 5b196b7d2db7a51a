//! The control-reference optimizer (paper Sec. IV-D, eq. 46) and the
//! peak-shaving clamp.
//!
//! The MPC tracks a reference computed by minimizing the instantaneous
//! electricity cost — the LP of Rao et al. (INFOCOM'10) that the paper
//! adopts as eq. 46:
//!
//! ```text
//! min_{m_j, λij}  Σ_j Pr_j · P_j(λ_j, m_j)
//! s.t.            Σ_j λij = L_i                 (workload conservation)
//!                 λ_j ≤ µ_j·m_j − 1/D_j        (latency bound, eq. 30)
//!                 0 ≤ m_j ≤ M_j,  λij ≥ 0
//! ```
//!
//! # Solving it by merit order
//!
//! Portals are interchangeable: only the conservation rows mention them.
//! So IDC `j`'s cost depends only on its total `Λ_j`, and once `m_j` is
//! chosen optimally for that total it is convex and piecewise linear in
//! it, with at most three pieces. The optimum therefore fills the offered
//! load into the pieces of every IDC in ascending order of marginal cost
//! ($/h per req/s), each up to its width. This greedy fill is exact, not
//! a heuristic, and needs no LP. With `a_j = b1_j + b0_j/µ_j` the power
//! per request when `m_j` sits at its latency floor `(Λ_j + 1/D_j)/µ_j`:
//!
//! * `Pr_j ≥ 0`: `m_j` sits at its floor and every request costs
//!   `Pr_j·a_j`;
//! * `Pr_j < 0`: the operator is paid to consume, so `m_j = M_j` and a
//!   request costs `Pr_j·b1_j`.
//!
//! The billed-peak demand charge ([`optimal_with_demand_charge`]) adds one
//! or two breakpoints per IDC; its pieces are listed where they are built.
//!
//! Ties in marginal cost go to the lower IDC index, then to the cheaper
//! piece of the same IDC.
//!
//! # The portal split
//!
//! The per-IDC totals are unique when every price is positive and no two
//! marginal costs tie; the per-portal split `λij` is not unique in
//! general. Every reference here uses one rule, the northwest corner: the
//! IDCs take their totals in merit order, each draining the portals in
//! index order.
//!
//! Peak shaving (Sec. IV-D) replaces the reference power with
//! `P_r = min(P_ro, P_rb)` where `P_rb` is the grid power budget — the MPC
//! then tracks the clamped value, keeping demand under the budget.

use idc_datacenter::idc::IdcConfig;
use idc_datacenter::queueing;
use idc_market::tariff::DemandCharge;
use idc_opt::{Error, Result};

/// The optimizer's output: the cost-minimal operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceSolution {
    allocation: Vec<f64>,
    servers: Vec<f64>,
    power_mw: Vec<f64>,
    cost_rate_per_hour: f64,
}

impl ReferenceSolution {
    /// The optimal workload split, IDC-major flat `λij` (length `N·C`).
    pub fn allocation(&self) -> &[f64] {
        &self.allocation
    }

    /// Optimal (continuous-relaxed) server counts per IDC.
    pub fn servers(&self) -> &[f64] {
        &self.servers
    }

    /// Integer server deployment: `⌈m_j⌉` clamped to the installed count.
    pub fn servers_ceil(&self, idcs: &[IdcConfig]) -> Vec<u64> {
        self.servers
            .iter()
            .zip(idcs)
            .map(|(&m, idc)| (m.ceil().max(0.0) as u64).min(idc.total_servers()))
            .collect()
    }

    /// Per-IDC power at the optimum, in MW — the `P_ro` of Sec. IV-D.
    pub fn power_mw(&self) -> &[f64] {
        &self.power_mw
    }

    /// Instantaneous cost rate at the optimum, in $/hour.
    pub fn cost_rate_per_hour(&self) -> f64 {
        self.cost_rate_per_hour
    }

    /// Per-IDC workload totals `λ_j` at the optimum.
    pub fn idc_workloads(&self, num_portals: usize) -> Vec<f64> {
        self.allocation
            .chunks(num_portals)
            .map(|block| block.iter().sum())
            .collect()
    }

    /// The peak-shaving clamp of Sec. IV-D: `P_r = min(P_ro, P_rb)`
    /// element-wise against the power budgets (MW).
    ///
    /// # Panics
    ///
    /// Panics if `budgets_mw.len()` differs from the number of IDCs.
    pub fn clamped_power_mw(&self, budgets_mw: &[f64]) -> Vec<f64> {
        assert_eq!(budgets_mw.len(), self.power_mw.len(), "one budget per IDC");
        self.power_mw
            .iter()
            .zip(budgets_mw)
            .map(|(&p, &b)| p.min(b))
            .collect()
    }
}

/// Solves the reference problem (paper eq. 46) for the given IDCs, offered
/// portal workloads and regional prices ($/MWh), by the merit-order fill
/// of the [module docs](self).
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] when `prices.len() != idcs.len()`, any
///   input is empty, a price is not finite or a workload is negative or
///   not finite.
/// * [`Error::Infeasible`] when the offered workload exceeds the fleet's
///   latency-bounded capacity (the controllability condition fails).
///
/// # Example
///
/// ```
/// use idc_control::reference::optimal_reference;
/// use idc_datacenter::idc::paper_idcs;
///
/// # fn main() -> Result<(), idc_opt::Error> {
/// let idcs = paper_idcs();
/// // Table III, 6H prices: Wisconsin is cheapest and gets saturated.
/// let sol = optimal_reference(&idcs, &[100_000.0], &[43.26, 30.26, 19.06])?;
/// let lambdas = sol.idc_workloads(1);
/// assert!(lambdas[2] > 33_000.0); // Wisconsin near its 34 000 cap
/// # Ok(())
/// # }
/// ```
pub fn optimal_reference(
    idcs: &[IdcConfig],
    offered: &[f64],
    prices: &[f64],
) -> Result<ReferenceSolution> {
    validate_inputs(idcs, offered, prices)?;
    Ok(solve_epigraph(idcs, offered, prices, 0.0, &vec![0.0; idcs.len()])?.reference)
}

/// The demand-charge-aware optimum: the eq. 46 operating point plus the
/// billed-peak epigraph values that priced it.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandChargeSolution {
    reference: ReferenceSolution,
    billed_peak_mw: Vec<f64>,
    demand_rate_per_hour: f64,
}

impl DemandChargeSolution {
    /// The underlying operating point (allocation, servers, power, energy
    /// cost rate).
    pub fn reference(&self) -> &ReferenceSolution {
        &self.reference
    }

    /// Per-IDC billed peaks `M_j` at the optimum, in MW: the larger of the
    /// period's running peak and the power this operating point draws.
    pub fn billed_peak_mw(&self) -> &[f64] {
        &self.billed_peak_mw
    }

    /// Amortized demand-charge rate at the optimum, in $/hour
    /// (`Σ_j w_j·M_j`).
    pub fn demand_rate_per_hour(&self) -> f64 {
        self.demand_rate_per_hour
    }

    /// Combined energy + amortized demand rate, in $/hour — the objective
    /// of the epigraph problem.
    pub fn total_rate_per_hour(&self) -> f64 {
        self.reference.cost_rate_per_hour + self.demand_rate_per_hour
    }
}

/// Solves the demand-charge-aware reference problem.
///
/// Extends eq. 46 with one epigraph variable `M_j` per IDC (the billed
/// peak, per Wang et al. arXiv:1308.0585):
///
/// ```text
/// min  Σ_j Pr_j·P_j(λ_j, m_j) + Σ_j w·M_j
/// s.t. eq. 46 rows, plus
///      P_j(λ_j, m_j) − M_j ≤ 0          (epigraph)
///      M_j ≥ peak_so_far_j              (the period peak ratchets)
/// ```
///
/// where `w` is the tariff's [`DemandCharge::hourly_weight`]. While the
/// running peak exceeds the power an IDC would draw anyway, the `M_j`
/// floor binds and routing load there costs no demand charge — the fill
/// uses the ratchet before demand charges start steering load elsewhere.
///
/// Each IDC's cost is still convex and piecewise linear in its total, so
/// the merit-order fill of the [module docs](self) stays exact. With the
/// power `P_j` held at the running peak `P̂_j` at the breakpoints, its
/// pieces are:
///
/// * `Pr_j ≥ 0`: `m_j` at its floor; `Pr_j·a_j` up to `P̂_j`, then
///   `(Pr_j + w)·a_j`;
/// * `Pr_j < 0 < Pr_j + w`: `Pr_j·b1_j` with `m_j = M_j` until the power
///   reaches `P̂_j`, then 0 while `m_j` drops to hold the power at `P̂_j`,
///   then `(Pr_j + w)·a_j` once `m_j` is at its floor;
/// * `Pr_j + w ≤ 0`: `m_j = M_j`; `Pr_j·b1_j` up to `P̂_j`, then
///   `(Pr_j + w)·b1_j`.
///
/// # Errors
///
/// Same failure modes as [`optimal_reference`], plus
/// [`Error::DimensionMismatch`] when `peak_so_far_mw` has the wrong length
/// or holds negative/non-finite entries.
pub fn optimal_with_demand_charge(
    idcs: &[IdcConfig],
    offered: &[f64],
    prices: &[f64],
    tariff: &DemandCharge,
    peak_so_far_mw: &[f64],
) -> Result<DemandChargeSolution> {
    validate_inputs(idcs, offered, prices)?;
    if peak_so_far_mw.len() != idcs.len() {
        return Err(Error::DimensionMismatch {
            what: format!("{} peaks for {} IDCs", peak_so_far_mw.len(), idcs.len()),
        });
    }
    if peak_so_far_mw.iter().any(|p| !p.is_finite() || *p < 0.0) {
        return Err(Error::DimensionMismatch {
            what: "running peaks must be finite and non-negative".into(),
        });
    }
    solve_epigraph(
        idcs,
        offered,
        prices,
        tariff.hourly_weight(),
        peak_so_far_mw,
    )
}

/// The epigraph problem of [`optimal_with_demand_charge`] at demand weight
/// `weight` ($/MW/h); plain eq. 46 is `weight = 0`. Inputs are validated.
fn solve_epigraph(
    idcs: &[IdcConfig],
    offered: &[f64],
    prices: &[f64],
    weight: f64,
    peaks: &[f64],
) -> Result<DemandChargeSolution> {
    let mut pieces = Vec::with_capacity(3 * idcs.len());
    for (j, idc) in idcs.iter().enumerate() {
        let (pr, peak) = (prices[j], peaks[j]);
        let curve = PowerCurve::of(idc);
        let cap = idc.max_workload();
        // Load at which each power line reaches the running peak.
        let at_floor = |lo| crossing(peak, curve.p0, curve.a, lo, cap);
        let at_max = crossing(peak, curve.b0 * curve.m_max, curve.b1, 0.0, cap);
        if pr >= 0.0 {
            let x = at_floor(0.0);
            push_piece(&mut pieces, j, 0.0, x, pr * curve.a);
            push_piece(&mut pieces, j, x, cap, (pr + weight) * curve.a);
        } else if pr + weight > 0.0 {
            let x = at_floor(at_max);
            push_piece(&mut pieces, j, 0.0, at_max, pr * curve.b1);
            push_piece(&mut pieces, j, at_max, x, 0.0);
            push_piece(&mut pieces, j, x, cap, (pr + weight) * curve.a);
        } else {
            push_piece(&mut pieces, j, 0.0, at_max, pr * curve.b1);
            push_piece(&mut pieces, j, at_max, cap, (pr + weight) * curve.b1);
        }
    }
    let (totals, allocation) = merit_order(idcs, offered, pieces)?;
    let servers: Vec<f64> = idcs
        .iter()
        .enumerate()
        .map(|(j, idc)| {
            let (pr, load) = (prices[j], totals[j]);
            let curve = PowerCurve::of(idc);
            let floor = floor_servers(idc, load);
            if pr >= 0.0 {
                floor
            } else if pr + weight <= 0.0 {
                curve.m_max
            } else if curve.b0 > 0.0 {
                // Hold the power at the running peak where the servers
                // allow it.
                ((peaks[j] - curve.b1 * load) / curve.b0)
                    .min(curve.m_max)
                    .max(floor)
            } else {
                floor
            }
        })
        .collect();
    let reference = solution(idcs, prices, &totals, allocation, servers);
    let billed_peak_mw: Vec<f64> = reference
        .power_mw
        .iter()
        .zip(peaks)
        .map(|(&p, &peak)| p.max(peak))
        .collect();
    let demand_rate_per_hour = billed_peak_mw.iter().map(|&m| weight * m).sum();
    Ok(DemandChargeSolution {
        reference,
        billed_peak_mw,
        demand_rate_per_hour,
    })
}

/// The *price-greedy* reference: fills IDCs in ascending order of raw
/// regional price, each to its latency-bounded capacity.
///
/// This is **not** the optimum of eq. 46 — that weighs price by the power
/// drawn per request (`Pr_j · peak/µ_j`) — but it is the policy the
/// paper's plotted "optimal method" trajectories actually follow (its
/// Figs. 4–7 allocations track raw price rank, e.g. Minnesota saturated at
/// 6H despite having the highest energy-per-request). The reproduction
/// harness runs both and reports the gap. It is the merit-order fill with
/// one piece per IDC, priced at the raw price, and the same portal split.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] on inconsistent inputs.
/// * [`Error::Infeasible`] when the offered workload exceeds the fleet's
///   capacity.
pub fn price_greedy_reference(
    idcs: &[IdcConfig],
    offered: &[f64],
    prices: &[f64],
) -> Result<ReferenceSolution> {
    validate_inputs(idcs, offered, prices)?;
    let mut pieces = Vec::with_capacity(idcs.len());
    for (j, idc) in idcs.iter().enumerate() {
        push_piece(&mut pieces, j, 0.0, idc.max_workload(), prices[j]);
    }
    let (totals, allocation) = merit_order(idcs, offered, pieces)?;
    // Eq. 35 with the latency head-room — kept even at zero load, exactly
    // as eq. 30 requires, so greedy and optimal deployments are
    // comparable.
    let servers = idcs
        .iter()
        .zip(&totals)
        .map(|(idc, &load)| floor_servers(idc, load))
        .collect();
    Ok(solution(idcs, prices, &totals, allocation, servers))
}

/// One linear piece of an IDC's cost in its total load: `width` req/s at
/// `slope` $/h per req/s.
#[derive(Debug, Clone, Copy)]
struct Piece {
    idc: usize,
    width: f64,
    slope: f64,
}

/// Appends IDC `idc`'s piece over the load range `from..to` at `slope`,
/// unless the range is empty.
fn push_piece(pieces: &mut Vec<Piece>, idc: usize, from: f64, to: f64, slope: f64) {
    if to > from {
        pieces.push(Piece {
            idc,
            width: to - from,
            slope,
        });
    }
}

/// The merit-order fill: sorts `pieces` stably by slope (ties to the lower
/// IDC, then the lower piece, which is the order they were pushed in),
/// fills the offered load into them cheapest first and splits each IDC's
/// total over the portals by the northwest-corner rule of the
/// [module docs](self). Returns the per-IDC totals and the IDC-major
/// allocation `λij`.
///
/// # Errors
///
/// [`Error::Infeasible`] when the offered load exceeds the fleet's
/// latency-bounded capacity.
fn merit_order(
    idcs: &[IdcConfig],
    offered: &[f64],
    mut pieces: Vec<Piece>,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let n = idcs.len();
    let c = offered.len();
    let total: f64 = offered.iter().sum();
    let capacity: f64 = idcs.iter().map(|i| i.max_workload()).sum();
    if total > capacity {
        return Err(Error::Infeasible);
    }
    pieces.sort_by(|a, b| a.slope.partial_cmp(&b.slope).expect("finite slopes"));

    let mut totals = vec![0.0; n];
    let mut remaining = total;
    for p in &pieces {
        let take = remaining.min(p.width);
        totals[p.idc] += take;
        remaining -= take;
    }

    // Northwest corner: IDCs in merit order (of their cheapest piece),
    // each draining the portals in index order.
    let mut allocation = vec![0.0; n * c];
    let mut portal_left = offered.to_vec();
    let mut placed = vec![false; n];
    for p in &pieces {
        let j = p.idc;
        if std::mem::replace(&mut placed[j], true) {
            continue;
        }
        let mut need = totals[j];
        for i in 0..c {
            if need <= 0.0 {
                break;
            }
            let take = portal_left[i].min(need);
            allocation[j * c + i] = take;
            portal_left[i] -= take;
            need -= take;
        }
    }
    Ok((totals, allocation))
}

/// An IDC's power coefficients in MW (facility overhead included).
#[derive(Debug, Clone, Copy)]
struct PowerCurve {
    /// MW per req/s served.
    b1: f64,
    /// MW per server ON.
    b0: f64,
    /// MW per req/s with the servers at their latency floor.
    a: f64,
    /// MW at zero load with the servers at their latency floor.
    p0: f64,
    /// Installed servers `M_j`.
    m_max: f64,
}

impl PowerCurve {
    fn of(idc: &IdcConfig) -> Self {
        let b1 = idc.pue() * idc.server().b1() / 1e6;
        let b0 = idc.pue() * idc.server().b0() / 1e6;
        PowerCurve {
            b1,
            b0,
            a: b1 + b0 / idc.service_rate(),
            p0: idc_power_mw(idc, 0.0, floor_servers(idc, 0.0)),
            m_max: idc.total_servers() as f64,
        }
    }
}

/// The load in `[lo, hi]` at which the power line `intercept + slope·Λ`
/// reaches `level`: `hi` when it stays below, `lo` when it starts at or
/// above it.
fn crossing(level: f64, intercept: f64, slope: f64, lo: f64, hi: f64) -> f64 {
    if slope > 0.0 {
        ((level - intercept) / slope).max(lo).min(hi)
    } else if intercept < level {
        hi
    } else {
        lo
    }
}

/// Eq. 35's latency floor `(Λ + 1/D)/µ`, capped at the installed count.
fn floor_servers(idc: &IdcConfig, load: f64) -> f64 {
    queueing::fractional_servers_for_latency(load, idc.service_rate(), idc.latency_bound())
        .min(idc.total_servers() as f64)
}

/// IDC power in MW at `load` req/s with `servers` ON.
fn idc_power_mw(idc: &IdcConfig, load: f64, servers: f64) -> f64 {
    idc.pue() * (idc.server().b1() * load + idc.server().b0() * servers) / 1e6
}

/// Assembles a solution from a fill and its server counts.
fn solution(
    idcs: &[IdcConfig],
    prices: &[f64],
    totals: &[f64],
    allocation: Vec<f64>,
    servers: Vec<f64>,
) -> ReferenceSolution {
    let power_mw: Vec<f64> = (0..idcs.len())
        .map(|j| idc_power_mw(&idcs[j], totals[j], servers[j]))
        .collect();
    let cost_rate_per_hour = power_mw.iter().zip(prices).map(|(&p, &pr)| p * pr).sum();
    ReferenceSolution {
        allocation,
        servers,
        power_mw,
        cost_rate_per_hour,
    }
}

/// Rejects inconsistent dimensions, non-finite prices and
/// negative/non-finite workloads before they reach the fill.
fn validate_inputs(idcs: &[IdcConfig], offered: &[f64], prices: &[f64]) -> Result<()> {
    let n = idcs.len();
    let c = offered.len();
    if n == 0 || c == 0 || prices.len() != n {
        return Err(Error::DimensionMismatch {
            what: format!(
                "{n} IDCs, {c} portals, {} prices — all must be positive and consistent",
                prices.len()
            ),
        });
    }
    if prices.iter().any(|p| !p.is_finite()) {
        return Err(Error::DimensionMismatch {
            what: "prices must be finite".into(),
        });
    }
    if offered.iter().any(|l| !l.is_finite() || *l < 0.0) {
        return Err(Error::DimensionMismatch {
            what: "offered workloads must be finite and non-negative".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idc_datacenter::idc::paper_idcs;

    const PAPER_LOADS: [f64; 5] = [30_000.0, 15_000.0, 15_000.0, 20_000.0, 20_000.0];
    const PRICES_6H: [f64; 3] = [43.26, 30.26, 19.06];
    const PRICES_7H: [f64; 3] = [49.90, 29.47, 77.97];

    #[test]
    fn six_hour_optimum_ranks_by_cost_per_request() {
        let idcs = paper_idcs();
        let sol = optimal_reference(&idcs, &PAPER_LOADS, &PRICES_6H).unwrap();
        let lam = sol.idc_workloads(5);
        // Eq. 46 ranks by Pr_j · (peak power / µ_j) — cost per unit of
        // workload — not by raw price: WI (3104) < MI (6165) < MN (6899).
        // Wisconsin and Michigan saturate their latency-bounded capacities
        // (34 000 and 59 000); Minnesota takes the remaining 7 000.
        assert!((lam[2] - 34_000.0).abs() < 1.0, "WI {}", lam[2]);
        assert!((lam[0] - 59_000.0).abs() < 1.0, "MI {}", lam[0]);
        assert!((lam[1] - 7_000.0).abs() < 1.0, "MN {}", lam[1]);
        // Conservation.
        assert!((lam.iter().sum::<f64>() - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn seven_hour_optimum_flees_wisconsin() {
        let idcs = paper_idcs();
        let sol = optimal_reference(&idcs, &PAPER_LOADS, &PRICES_7H).unwrap();
        let lam = sol.idc_workloads(5);
        // Per-request ranking at 7H: MN (5526) < MI (7111) < WI (11947).
        // Wisconsin is abandoned entirely.
        assert!(lam[2] < 1.0, "WI {}", lam[2]);
        assert!((lam[1] - 49_000.0).abs() < 1.0, "MN {}", lam[1]);
        assert!((lam[0] - 51_000.0).abs() < 1.0, "MI {}", lam[0]);
    }

    #[test]
    fn six_to_seven_hour_transition_reshuffles_everything() {
        // The 6H→7H price flip makes the optimum move most of the load — the
        // violent step the MPC is built to smooth.
        let idcs = paper_idcs();
        let at6 = optimal_reference(&idcs, &PAPER_LOADS, &PRICES_6H).unwrap();
        let at7 = optimal_reference(&idcs, &PAPER_LOADS, &PRICES_7H).unwrap();
        let l6 = at6.idc_workloads(5);
        let l7 = at7.idc_workloads(5);
        let moved: f64 = l6.iter().zip(&l7).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0;
        assert!(moved > 30_000.0, "only {moved} req/s moved");
    }

    #[test]
    fn server_counts_track_allocated_workload() {
        let idcs = paper_idcs();
        let sol = optimal_reference(&idcs, &PAPER_LOADS, &PRICES_6H).unwrap();
        // At the optimum m_j = λ_j/µ_j + 1/(µ_j·D_j) exactly (for positive
        // prices m sits at its latency floor).
        let lam = sol.idc_workloads(5);
        for j in 0..3 {
            let expected = lam[j] / idcs[j].service_rate()
                + 1.0 / (idcs[j].service_rate() * idcs[j].latency_bound());
            assert!(
                (sol.servers()[j] - expected).abs() < 1e-3,
                "IDC {j}: {} vs {expected}",
                sol.servers()[j]
            );
        }
        // Integer deployment respects installed bounds.
        let m = sol.servers_ceil(&idcs);
        for (j, idc) in idcs.iter().enumerate() {
            assert!(m[j] <= idc.total_servers());
        }
    }

    #[test]
    fn cost_rate_is_price_weighted_power() {
        let idcs = paper_idcs();
        let sol = optimal_reference(&idcs, &PAPER_LOADS, &PRICES_6H).unwrap();
        let manual: f64 = sol
            .power_mw()
            .iter()
            .zip(&PRICES_6H)
            .map(|(&p, &pr)| p * pr)
            .sum();
        assert!((sol.cost_rate_per_hour() - manual).abs() < 1e-9);
        assert!(sol.cost_rate_per_hour() > 0.0);
    }

    #[test]
    fn optimum_beats_proportional_allocation() {
        let idcs = paper_idcs();
        let sol = optimal_reference(&idcs, &PAPER_LOADS, &PRICES_6H).unwrap();
        // Proportional-to-capacity allocation cost.
        let caps: Vec<f64> = idcs.iter().map(|i| i.max_workload()).collect();
        let total_cap: f64 = caps.iter().sum();
        let total_load: f64 = PAPER_LOADS.iter().sum();
        let prop_cost: f64 = (0..3)
            .map(|j| {
                let lam = total_load * caps[j] / total_cap;
                let m = lam / idcs[j].service_rate()
                    + 1.0 / (idcs[j].service_rate() * idcs[j].latency_bound());
                let p = (idcs[j].server().b1() * lam + idcs[j].server().b0() * m) / 1e6;
                p * PRICES_6H[j]
            })
            .sum();
        assert!(
            sol.cost_rate_per_hour() < prop_cost,
            "{} vs {prop_cost}",
            sol.cost_rate_per_hour()
        );
    }

    #[test]
    fn clamp_applies_budgets() {
        let idcs = paper_idcs();
        let sol = optimal_reference(&idcs, &PAPER_LOADS, &PRICES_7H).unwrap();
        let budgets = [5.13, 10.26, 4.275];
        let clamped = sol.clamped_power_mw(&budgets);
        for j in 0..3 {
            assert!(clamped[j] <= budgets[j] + 1e-12);
            assert!(clamped[j] <= sol.power_mw()[j] + 1e-12);
        }
    }

    #[test]
    fn overload_is_infeasible() {
        let idcs = paper_idcs();
        // Total latency-bounded capacity is 142 000.
        let r = optimal_reference(&idcs, &[150_000.0], &PRICES_6H);
        assert!(matches!(r, Err(Error::Infeasible)));
    }

    #[test]
    fn dimensions_are_validated() {
        let idcs = paper_idcs();
        assert!(matches!(
            optimal_reference(&idcs, &[1.0], &[1.0, 2.0]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(optimal_reference(&[], &[1.0], &[]).is_err());
        assert!(optimal_reference(&idcs, &[], &PRICES_6H).is_err());
    }

    #[test]
    fn price_greedy_follows_raw_price_rank() {
        let idcs = paper_idcs();
        // 6H: raw price rank WI < MN < MI → WI and MN saturated, MI rest.
        let sol = price_greedy_reference(&idcs, &PAPER_LOADS, &PRICES_6H).unwrap();
        let lam = sol.idc_workloads(5);
        assert!((lam[2] - 34_000.0).abs() < 1.0, "WI {}", lam[2]);
        assert!((lam[1] - 49_000.0).abs() < 1.0, "MN {}", lam[1]);
        assert!((lam[0] - 17_000.0).abs() < 1.0, "MI {}", lam[0]);
        assert!((lam.iter().sum::<f64>() - 100_000.0).abs() < 1e-9);
        // Allocation invariants hold.
        let per_portal: Vec<f64> = (0..5)
            .map(|i| (0..3).map(|j| sol.allocation()[j * 5 + i]).sum())
            .collect();
        for (i, &l) in PAPER_LOADS.iter().enumerate() {
            assert!((per_portal[i] - l).abs() < 1e-9);
        }
        assert!(sol.allocation().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn price_greedy_costs_at_least_the_lp_optimum() {
        let idcs = paper_idcs();
        for prices in [PRICES_6H, PRICES_7H] {
            let lp = optimal_reference(&idcs, &PAPER_LOADS, &prices).unwrap();
            let greedy = price_greedy_reference(&idcs, &PAPER_LOADS, &prices).unwrap();
            assert!(
                greedy.cost_rate_per_hour() >= lp.cost_rate_per_hour() - 1e-6,
                "greedy {} < lp {}",
                greedy.cost_rate_per_hour(),
                lp.cost_rate_per_hour()
            );
        }
    }

    #[test]
    fn price_greedy_validates_and_reports_infeasible() {
        let idcs = paper_idcs();
        assert!(matches!(
            price_greedy_reference(&idcs, &[1.0], &[1.0]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            price_greedy_reference(&idcs, &[150_000.0], &PRICES_6H),
            Err(Error::Infeasible)
        ));
    }

    #[test]
    fn non_finite_inputs_are_rejected() {
        let idcs = paper_idcs();
        assert!(optimal_reference(&idcs, &[1.0], &[f64::NAN, 1.0, 1.0]).is_err());
        assert!(optimal_reference(&idcs, &[f64::INFINITY], &[1.0, 1.0, 1.0]).is_err());
        assert!(optimal_reference(&idcs, &[-5.0], &[1.0, 1.0, 1.0]).is_err());
        assert!(price_greedy_reference(&idcs, &[1.0], &[f64::NAN, 1.0, 1.0]).is_err());
    }

    #[test]
    fn zero_rate_demand_charge_matches_plain_reference() {
        let idcs = paper_idcs();
        let tariff = DemandCharge::new(0.0, 720.0).unwrap();
        let dc = optimal_with_demand_charge(&idcs, &PAPER_LOADS, &PRICES_6H, &tariff, &[0.0; 3])
            .unwrap();
        let plain = optimal_reference(&idcs, &PAPER_LOADS, &PRICES_6H).unwrap();
        for (a, b) in dc.reference().power_mw().iter().zip(plain.power_mw()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert_eq!(dc.demand_rate_per_hour(), 0.0);
        assert!((dc.total_rate_per_hour() - plain.cost_rate_per_hour()).abs() < 1e-9);
    }

    #[test]
    fn billed_peak_is_max_of_power_and_ratchet() {
        let idcs = paper_idcs();
        let tariff = DemandCharge::typical_commercial();
        let peaks = [9.0, 0.0, 0.0]; // Michigan already peaked this period
        let dc =
            optimal_with_demand_charge(&idcs, &PAPER_LOADS, &PRICES_6H, &tariff, &peaks).unwrap();
        for j in 0..3 {
            let m = dc.billed_peak_mw()[j];
            let p = dc.reference().power_mw()[j];
            assert!(m >= p - 1e-9, "IDC {j}: M {m} < P {p}");
            assert!(m >= peaks[j] - 1e-9, "IDC {j}: M {m} < ratchet");
            assert!(m <= p.max(peaks[j]) + 1e-6, "IDC {j}: M {m} padded");
        }
        assert!(
            (dc.demand_rate_per_hour()
                - tariff.hourly_weight() * dc.billed_peak_mw().iter().sum::<f64>())
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn demand_charge_steers_load_off_a_fresh_peak() {
        // Fresh billing period (no ratchet): every MW of peak is billable,
        // so a dominant demand charge re-ranks the fleet by *power* per
        // request instead of energy cost per request. At 7H prices those
        // rankings disagree (energy: MN < MI ≪ WI; power: MI < WI < MN),
        // so the allocation moves and total fleet power drops.
        let idcs = paper_idcs();
        let plain = optimal_reference(&idcs, &PAPER_LOADS, &PRICES_7H).unwrap();
        let tariff = DemandCharge::new(500_000.0, 720.0).unwrap();
        let dc = optimal_with_demand_charge(&idcs, &PAPER_LOADS, &PRICES_7H, &tariff, &[0.0; 3])
            .unwrap();
        let plain_total: f64 = plain.power_mw().iter().sum();
        let dc_total: f64 = dc.reference().power_mw().iter().sum();
        assert!(
            dc_total < plain_total - 1.0,
            "demand charge did not reshape the fleet: {dc_total} vs {plain_total}"
        );
        assert!(dc.demand_rate_per_hour() > 0.0);
        // A ratchet at the plain peaks makes shaving pointless — the bill
        // is sunk, so the allocation returns to pure energy pricing.
        let ratchet: Vec<f64> = plain.power_mw().to_vec();
        let sunk =
            optimal_with_demand_charge(&idcs, &PAPER_LOADS, &PRICES_7H, &tariff, &ratchet).unwrap();
        for (a, b) in sunk.reference().power_mw().iter().zip(plain.power_mw()) {
            assert!(*a <= b + 1e-6, "{a} vs {b}");
        }
        assert!((sunk.reference().cost_rate_per_hour() - plain.cost_rate_per_hour()).abs() < 1e-6);
    }

    #[test]
    fn demand_charge_validates_peaks() {
        let idcs = paper_idcs();
        let tariff = DemandCharge::typical_commercial();
        assert!(matches!(
            optimal_with_demand_charge(&idcs, &PAPER_LOADS, &PRICES_6H, &tariff, &[0.0; 2]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(optimal_with_demand_charge(
            &idcs,
            &PAPER_LOADS,
            &PRICES_6H,
            &tariff,
            &[-1.0, 0.0, 0.0]
        )
        .is_err());
        assert!(optimal_with_demand_charge(
            &idcs,
            &PAPER_LOADS,
            &PRICES_6H,
            &tariff,
            &[f64::NAN, 0.0, 0.0]
        )
        .is_err());
    }

    #[test]
    fn equal_marginal_costs_fill_the_lower_idc_first() {
        // Three copies of one IDC at one price: every piece ties, so the
        // fill saturates IDC 0, then IDC 1, and leaves IDC 2 idle.
        let idc = paper_idcs()[0].clone();
        let idcs = vec![idc.clone(), idc.clone(), idc];
        let cap = idcs[0].max_workload();
        let offered = [0.75 * cap, 0.75 * cap];
        for sol in [
            optimal_reference(&idcs, &offered, &[40.0; 3]).unwrap(),
            price_greedy_reference(&idcs, &offered, &[40.0; 3]).unwrap(),
        ] {
            let lam = sol.idc_workloads(2);
            assert_eq!(lam, vec![cap, 0.5 * cap, 0.0]);
        }
    }

    #[test]
    fn portal_split_is_the_northwest_corner_in_merit_order() {
        // 6H, greedy order WI, MN, MI: Wisconsin drains portals 0 and 1
        // (30 000 + 4 000 of 15 000), Minnesota the rest of portal 1 and
        // portals 2–3 up to its 49 000, Michigan the remainder.
        let idcs = paper_idcs();
        let sol = price_greedy_reference(&idcs, &PAPER_LOADS, &PRICES_6H).unwrap();
        let a = sol.allocation();
        assert_eq!(&a[10..15], &[30_000.0, 4_000.0, 0.0, 0.0, 0.0]);
        assert_eq!(&a[5..10], &[0.0, 11_000.0, 15_000.0, 20_000.0, 3_000.0]);
        assert_eq!(&a[0..5], &[0.0, 0.0, 0.0, 0.0, 17_000.0]);
        // Eq. 46 ranks WI, MI, MN at 6H, and splits in that order.
        let sol = optimal_reference(&idcs, &PAPER_LOADS, &PRICES_6H).unwrap();
        let a = sol.allocation();
        assert_eq!(&a[10..15], &[30_000.0, 4_000.0, 0.0, 0.0, 0.0]);
        assert_eq!(&a[0..5], &[0.0, 11_000.0, 15_000.0, 20_000.0, 13_000.0]);
        assert_eq!(&a[5..10], &[0.0, 0.0, 0.0, 0.0, 7_000.0]);
    }

    #[test]
    fn negative_price_under_a_tariff_holds_power_at_the_ratchet() {
        // Paid to consume, but a fresh MW of peak costs more than the
        // credit: Wisconsin runs every server until its power reaches the
        // running peak (at 12 963 req/s), then sheds servers to hold the
        // power there (until 24 014 req/s, where they reach their floor).
        let idcs = paper_idcs();
        let tariff = DemandCharge::new(50_000.0, 720.0).unwrap();
        let prices = [43.26, 30.26, -21.3];
        assert!(prices[2] + tariff.hourly_weight() > 0.0);
        let peaks = [0.0, 0.0, 4.0];
        let dc = optimal_with_demand_charge(&idcs, &[20_000.0], &prices, &tariff, &peaks).unwrap();
        let wi = &idcs[2];
        assert_eq!(dc.reference().idc_workloads(1), vec![0.0, 0.0, 20_000.0]);
        let m = dc.reference().servers()[2];
        assert!(
            m < wi.total_servers() as f64 - 1.0,
            "m {m} at the installed count"
        );
        assert!(m > floor_servers(wi, 20_000.0) + 1.0, "m {m} at its floor");
        assert!((dc.reference().power_mw()[2] - 4.0).abs() < 1e-9);
        assert!((dc.billed_peak_mw()[2] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn negative_price_turns_everything_on() {
        // Wisconsin's Fig. 2 negative-price dip: the optimum runs all
        // servers there (being paid to consume).
        let idcs = paper_idcs();
        let sol = optimal_reference(&idcs, &PAPER_LOADS, &[43.26, 30.26, -21.3]).unwrap();
        assert!((sol.servers()[2] - 20_000.0).abs() < 1e-6);
        // And saturates its workload capacity.
        let lam = sol.idc_workloads(5);
        assert!((lam[2] - 34_000.0).abs() < 1.0);
    }
}
