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
//! Peak shaving (Sec. IV-D) replaces the reference power with
//! `P_r = min(P_ro, P_rb)` where `P_rb` is the grid power budget — the MPC
//! then tracks the clamped value, keeping demand under the budget.

use idc_datacenter::idc::IdcConfig;
use idc_datacenter::queueing;
use idc_market::tariff::DemandCharge;
use idc_opt::linprog::{LinearProgram, LpWorkspace};
use idc_opt::{Error, Result};

/// The optimizer's output: the cost-minimal operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceSolution {
    allocation: Vec<f64>,
    servers: Vec<f64>,
    power_mw: Vec<f64>,
    cost_rate_per_hour: f64,
    /// Dual of each IDC's `m_j ≤ M_j` row ($/h per extra installed
    /// server; ≤ 0, and 0 where the bound is slack). Empty for solutions
    /// not produced by the LP (the greedy reference).
    server_shadow: Vec<f64>,
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

    /// Marginal value of installed capacity: `server_shadow()[j]` is the
    /// change in optimal cost rate per additional installed server at IDC
    /// `j` (≤ 0; 0 where `M_j` is not binding). Answers "where should the
    /// operator build out?". Empty for the greedy reference, which carries
    /// no dual information.
    pub fn server_shadow(&self) -> &[f64] {
        &self.server_shadow
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

/// Solves the reference LP (paper eq. 46) for the given IDCs, offered
/// portal workloads and regional prices ($/MWh).
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] when `prices.len() != idcs.len()` or any
///   input is empty.
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
    ReferenceSolver::new().optimal(idcs, offered, prices)
}

/// A stateful eq. 46 solver that reuses its LP structure and simplex
/// workspace across calls.
///
/// For a fixed fleet the reference LP's constraint matrix never changes —
/// only the objective (prices) and the equality right-hand sides (offered
/// workloads) do. A policy solving the reference every sampling period
/// (β₁ + 1 times per step with anticipatory references) should hold one of
/// these instead of calling [`optimal_reference`], which rebuilds the LP
/// and reallocates the simplex tableau from scratch on every call. Results
/// are bit-identical either way — the cache changes where the numbers are
/// stored, not what is computed.
#[derive(Debug, Clone, Default)]
pub struct ReferenceSolver {
    ws: LpWorkspace,
    cache: Option<LpCache>,
    /// Separate cache for the demand-charge variant — its variable layout
    /// (`[λ, m, M]`) and row set differ from the plain eq. 46 LP, so the
    /// two must not evict each other when a policy interleaves them.
    dc_cache: Option<LpCache>,
}

/// A built reference LP plus the fleet fingerprint it corresponds to.
#[derive(Debug, Clone)]
struct LpCache {
    lp: LinearProgram,
    /// Everything the constraint structure depends on: dimensions and the
    /// per-IDC parameters baked into rows/bounds. Cost coefficients and
    /// equality RHS are excluded — they are rewritten in place per call.
    key: FleetKey,
}

#[derive(Debug, Clone, PartialEq)]
struct FleetKey {
    n: usize,
    c: usize,
    per_idc: Vec<[f64; 6]>,
}

impl FleetKey {
    fn of(idcs: &[IdcConfig], c: usize) -> Self {
        FleetKey {
            n: idcs.len(),
            c,
            per_idc: idcs
                .iter()
                .map(|idc| {
                    [
                        idc.service_rate(),
                        idc.latency_bound(),
                        idc.total_servers() as f64,
                        idc.pue(),
                        idc.server().b1(),
                        idc.server().b0(),
                    ]
                })
                .collect(),
        }
    }
}

impl ReferenceSolver {
    /// Creates a solver with empty caches; they fill on first use.
    pub fn new() -> Self {
        ReferenceSolver::default()
    }

    /// Solves the reference LP (paper eq. 46), reusing cached structure.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`optimal_reference`].
    pub fn optimal(
        &mut self,
        idcs: &[IdcConfig],
        offered: &[f64],
        prices: &[f64],
    ) -> Result<ReferenceSolution> {
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
        validate_finite(prices, offered)?;

        let key = FleetKey::of(idcs, c);
        let rebuild = !matches!(&self.cache, Some(cached) if cached.key == key);
        if rebuild {
            self.cache = Some(LpCache {
                lp: build_reference_lp(idcs, c),
                key,
            });
        }
        let lp = &mut self.cache.as_mut().expect("cache filled above").lp;

        // Re-price and update demands in place; constraint rows are fixed.
        let cost = lp.cost_mut();
        for j in 0..n {
            let b1_mw = idcs[j].pue() * idcs[j].server().b1() / 1e6;
            let b0_mw = idcs[j].pue() * idcs[j].server().b0() / 1e6;
            for i in 0..c {
                cost[j * c + i] = prices[j] * b1_mw;
            }
            cost[n * c + j] = prices[j] * b0_mw;
        }
        lp.eq_rhs_mut().copy_from_slice(offered);

        let solution = lp.solve_with(&mut self.ws)?;
        // Inequality rows were added as: n capacity rows, then n installed
        // bounds — the latter's duals are the build-out shadow prices.
        let server_shadow = solution.duals_ub()[n..2 * n].to_vec();
        let x = solution.x();
        let allocation = x[..n * c].to_vec();
        let servers = x[n * c..].to_vec();
        let power_mw: Vec<f64> = (0..n)
            .map(|j| {
                let lam: f64 = allocation[j * c..(j + 1) * c].iter().sum();
                idcs[j].pue() * (idcs[j].server().b1() * lam + idcs[j].server().b0() * servers[j])
                    / 1e6
            })
            .collect();
        let cost_rate_per_hour = power_mw.iter().zip(prices).map(|(&p, &pr)| p * pr).sum();
        Ok(ReferenceSolution {
            allocation,
            servers,
            power_mw,
            cost_rate_per_hour,
            server_shadow,
        })
    }
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
    /// the epigraph LP actually minimized.
    pub fn total_rate_per_hour(&self) -> f64 {
        self.reference.cost_rate_per_hour + self.demand_rate_per_hour
    }
}

/// Solves the demand-charge-aware reference LP once, building the
/// structure from scratch. Stateful callers should use
/// [`ReferenceSolver::optimal_with_demand_charge`].
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
    ReferenceSolver::new().optimal_with_demand_charge(idcs, offered, prices, tariff, peak_so_far_mw)
}

impl ReferenceSolver {
    /// Solves the demand-charge-aware reference LP, reusing cached
    /// structure.
    ///
    /// Extends eq. 46 with one epigraph variable `M_j` per IDC (the billed
    /// peak, per Wang et al. arXiv:1308.0585):
    ///
    /// ```text
    /// min  Σ_j Pr_j·P_j(λ_j, m_j) + Σ_j w_j·M_j
    /// s.t. eq. 46 rows, plus
    ///      P_j(λ_j, m_j) − M_j ≤ 0          (epigraph)
    ///      M_j ≥ peak_so_far_j              (the period peak ratchets)
    /// ```
    ///
    /// where `w_j` is the tariff's [`DemandCharge::hourly_weight`]. While
    /// the running peak exceeds the power an IDC would draw anyway, the
    /// `M_j` floor is binding and the marginal demand-charge price of
    /// routing load there is zero — the LP happily fills up to the ratchet
    /// before demand charges start steering load elsewhere.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`optimal_with_demand_charge`].
    pub fn optimal_with_demand_charge(
        &mut self,
        idcs: &[IdcConfig],
        offered: &[f64],
        prices: &[f64],
        tariff: &DemandCharge,
        peak_so_far_mw: &[f64],
    ) -> Result<DemandChargeSolution> {
        let n = idcs.len();
        let c = offered.len();
        if n == 0 || c == 0 || prices.len() != n || peak_so_far_mw.len() != n {
            return Err(Error::DimensionMismatch {
                what: format!(
                    "{n} IDCs, {c} portals, {} prices, {} peaks — all must be positive and consistent",
                    prices.len(),
                    peak_so_far_mw.len()
                ),
            });
        }
        validate_finite(prices, offered)?;
        if peak_so_far_mw.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err(Error::DimensionMismatch {
                what: "running peaks must be finite and non-negative".into(),
            });
        }

        let key = FleetKey::of(idcs, c);
        let rebuild = !matches!(&self.dc_cache, Some(cached) if cached.key == key);
        if rebuild {
            self.dc_cache = Some(LpCache {
                lp: build_demand_charge_lp(idcs, c),
                key,
            });
        }
        let lp = &mut self.dc_cache.as_mut().expect("cache filled above").lp;

        // Re-price in place. Variables: [λ (n·c), m (n), M (n)].
        let weight = tariff.hourly_weight();
        let cost = lp.cost_mut();
        for j in 0..n {
            let b1_mw = idcs[j].pue() * idcs[j].server().b1() / 1e6;
            let b0_mw = idcs[j].pue() * idcs[j].server().b0() / 1e6;
            for i in 0..c {
                cost[j * c + i] = prices[j] * b1_mw;
            }
            cost[n * c + j] = prices[j] * b0_mw;
            cost[n * c + n + j] = weight;
        }
        lp.eq_rhs_mut().copy_from_slice(offered);
        // Inequality rows: [latency (n) | installed (n) | epigraph (n) |
        // peak floor (n)] — only the floor moves between calls.
        let ineq = lp.ineq_rhs_mut();
        for j in 0..n {
            ineq[3 * n + j] = -peak_so_far_mw[j];
        }

        let solution = lp.solve_with(&mut self.ws)?;
        let server_shadow = solution.duals_ub()[n..2 * n].to_vec();
        let x = solution.x();
        let allocation = x[..n * c].to_vec();
        let servers = x[n * c..n * c + n].to_vec();
        let billed_peak_mw = x[n * c + n..].to_vec();
        let power_mw: Vec<f64> = (0..n)
            .map(|j| {
                let lam: f64 = allocation[j * c..(j + 1) * c].iter().sum();
                idcs[j].pue() * (idcs[j].server().b1() * lam + idcs[j].server().b0() * servers[j])
                    / 1e6
            })
            .collect();
        let cost_rate_per_hour = power_mw.iter().zip(prices).map(|(&p, &pr)| p * pr).sum();
        let demand_rate_per_hour = billed_peak_mw.iter().map(|&m| weight * m).sum();
        Ok(DemandChargeSolution {
            reference: ReferenceSolution {
                allocation,
                servers,
                power_mw,
                cost_rate_per_hour,
                server_shadow,
            },
            billed_peak_mw,
            demand_rate_per_hour,
        })
    }
}

/// Builds the demand-charge epigraph LP structure. Cost coefficients, the
/// equality RHS and the peak-floor RHS are rewritten per call.
fn build_demand_charge_lp(idcs: &[IdcConfig], c: usize) -> LinearProgram {
    let n = idcs.len();
    // Variables: [λ (IDC-major, n·c), m (n), M (n)].
    let nv = n * c + 2 * n;
    let mut lp = LinearProgram::minimize(vec![0.0; nv]);

    // Conservation per portal: Σ_j λij = L_i.
    for i in 0..c {
        let mut row = vec![0.0; nv];
        for j in 0..n {
            row[j * c + i] = 1.0;
        }
        lp = lp.equality(row, 0.0);
    }
    // Latency/capacity per IDC: Σ_i λij − µ_j m_j ≤ −1/D_j.
    for (j, idc) in idcs.iter().enumerate() {
        let mut row = vec![0.0; nv];
        for i in 0..c {
            row[j * c + i] = 1.0;
        }
        row[n * c + j] = -idc.service_rate();
        lp = lp.inequality(row, -1.0 / idc.latency_bound());
    }
    // Installed bound: m_j ≤ M_j (installed servers).
    for (j, idc) in idcs.iter().enumerate() {
        let mut row = vec![0.0; nv];
        row[n * c + j] = 1.0;
        lp = lp.inequality(row, idc.total_servers() as f64);
    }
    // Epigraph: P_j(λ, m) − M_j ≤ 0, with P in MW.
    for (j, idc) in idcs.iter().enumerate() {
        let b1_mw = idc.pue() * idc.server().b1() / 1e6;
        let b0_mw = idc.pue() * idc.server().b0() / 1e6;
        let mut row = vec![0.0; nv];
        for i in 0..c {
            row[j * c + i] = b1_mw;
        }
        row[n * c + j] = b0_mw;
        row[n * c + n + j] = -1.0;
        lp = lp.inequality(row, 0.0);
    }
    // Ratchet floor: −M_j ≤ −peak_so_far_j (rewritten per call).
    for j in 0..n {
        let mut row = vec![0.0; nv];
        row[n * c + n + j] = -1.0;
        lp = lp.inequality(row, 0.0);
    }
    lp
}

/// Builds the eq. 46 constraint structure for a fleet. Cost coefficients
/// and equality RHS are left zero — [`ReferenceSolver::optimal`] fills
/// them in per call.
fn build_reference_lp(idcs: &[IdcConfig], c: usize) -> LinearProgram {
    let n = idcs.len();
    // Variables: [λ_11…λ_C1, …, λ_1N…λ_CN, m_1…m_N] (IDC-major λ).
    let nv = n * c + n;
    let mut lp = LinearProgram::minimize(vec![0.0; nv]);

    // Conservation per portal: Σ_j λij = L_i.
    for i in 0..c {
        let mut row = vec![0.0; nv];
        for j in 0..n {
            row[j * c + i] = 1.0;
        }
        lp = lp.equality(row, 0.0);
    }
    // Latency/capacity per IDC: Σ_i λij − µ_j m_j ≤ −1/D_j.
    for (j, idc) in idcs.iter().enumerate() {
        let mut row = vec![0.0; nv];
        for i in 0..c {
            row[j * c + i] = 1.0;
        }
        row[n * c + j] = -idc.service_rate();
        lp = lp.inequality(row, -1.0 / idc.latency_bound());
    }
    // Installed bound: m_j ≤ M_j.
    for (j, idc) in idcs.iter().enumerate() {
        let mut row = vec![0.0; nv];
        row[n * c + j] = 1.0;
        lp = lp.inequality(row, idc.total_servers() as f64);
    }
    lp
}

/// Rejects non-finite prices or negative/non-finite workloads before they
/// can poison a solver.
fn validate_finite(prices: &[f64], offered: &[f64]) -> Result<()> {
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

/// The *price-greedy* reference: fills IDCs in ascending order of raw
/// regional price, each to its latency-bounded capacity.
///
/// This is **not** the optimum of eq. 46 — the LP weighs price by the
/// power drawn per request (`Pr_j · peak/µ_j`) — but it is the policy the
/// paper's plotted "optimal method" trajectories actually follow (its
/// Figs. 4–7 allocations track raw price rank, e.g. Minnesota saturated at
/// 6H despite having the highest energy-per-request). The reproduction
/// harness runs both and reports the gap.
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
    validate_finite(prices, offered)?;
    let total: f64 = offered.iter().sum();
    let capacity: f64 = idcs.iter().map(|i| i.max_workload()).sum();
    if total > capacity {
        return Err(Error::Infeasible);
    }

    // IDC indices in ascending price order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| prices[a].partial_cmp(&prices[b]).expect("finite prices"));

    // Per-IDC targets: cheapest first, each filled to capacity.
    let mut targets = vec![0.0; n];
    let mut remaining = total;
    for &j in &order {
        let take = remaining.min(idcs[j].max_workload());
        targets[j] = take;
        remaining -= take;
    }

    // Split the targets back over portals in portal order.
    let mut allocation = vec![0.0; n * c];
    let mut portal_left: Vec<f64> = offered.to_vec();
    for &j in &order {
        let mut need = targets[j];
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

    // Eq. 35 with the latency head-room — kept even at zero load, exactly
    // as the LP's eq. 30 requires, so greedy and LP deployments are
    // comparable.
    let servers: Vec<f64> = (0..n)
        .map(|j| {
            queueing::fractional_servers_for_latency(
                targets[j],
                idcs[j].service_rate(),
                idcs[j].latency_bound(),
            )
            .min(idcs[j].total_servers() as f64)
        })
        .collect();
    let power_mw: Vec<f64> = (0..n)
        .map(|j| {
            idcs[j].pue()
                * (idcs[j].server().b1() * targets[j] + idcs[j].server().b0() * servers[j])
                / 1e6
        })
        .collect();
    let cost_rate_per_hour = power_mw.iter().zip(prices).map(|(&p, &pr)| p * pr).sum();
    Ok(ReferenceSolution {
        allocation,
        servers,
        power_mw,
        cost_rate_per_hour,
        server_shadow: Vec::new(),
    })
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
        // The true LP ranks by Pr_j · (peak power / µ_j) — cost per unit of
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
        // The 6H→7H price flip makes the LP move most of the load — the
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
        // prices the LP pushes m down to the constraint).
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
    fn server_shadow_prices_identify_the_buildout_target() {
        let idcs = paper_idcs();
        let sol = optimal_reference(&idcs, &PAPER_LOADS, &PRICES_6H).unwrap();
        let shadow = sol.server_shadow();
        // At 6H, Wisconsin and Michigan saturate their installed capacity
        // (binding M) — extra servers there save money; Minnesota has
        // slack capacity — zero marginal value.
        assert!(shadow[2] < -1e-6, "WI shadow {shadow:?}");
        assert!(shadow[0] < -1e-6, "MI shadow {shadow:?}");
        assert!(shadow[1].abs() < 1e-9, "MN shadow {shadow:?}");
        // Wisconsin (cheapest per request) is the best build-out target.
        assert!(shadow[2] < shadow[0], "{shadow:?}");
        // Greedy solutions carry no duals.
        let greedy = price_greedy_reference(&idcs, &PAPER_LOADS, &PRICES_6H).unwrap();
        assert!(greedy.server_shadow().is_empty());
    }

    #[test]
    fn stateful_solver_matches_fresh_solves_across_price_flips() {
        let idcs = paper_idcs();
        let mut solver = ReferenceSolver::new();
        // Interleave the 6H/7H regimes: the cached LP must be re-priced
        // correctly every call, not just on the first.
        for prices in [PRICES_6H, PRICES_7H, PRICES_6H, PRICES_7H] {
            let cached = solver.optimal(&idcs, &PAPER_LOADS, &prices).unwrap();
            let fresh = optimal_reference(&idcs, &PAPER_LOADS, &prices).unwrap();
            assert_eq!(cached, fresh);
        }
        // Changing the offered workload only touches the equality RHS.
        let half: Vec<f64> = PAPER_LOADS.iter().map(|l| l / 2.0).collect();
        let cached = solver.optimal(&idcs, &half, &PRICES_6H).unwrap();
        assert_eq!(cached, optimal_reference(&idcs, &half, &PRICES_6H).unwrap());
    }

    #[test]
    fn stateful_solver_rebuilds_on_fleet_or_shape_change() {
        let idcs = paper_idcs();
        let mut solver = ReferenceSolver::new();
        solver.optimal(&idcs, &PAPER_LOADS, &PRICES_6H).unwrap();
        // Different portal count → different variable layout.
        let one_portal = solver.optimal(&idcs, &[100_000.0], &PRICES_6H).unwrap();
        assert_eq!(
            one_portal,
            optimal_reference(&idcs, &[100_000.0], &PRICES_6H).unwrap()
        );
        // Different fleet (subset) → different constraint rows.
        let two = &idcs[..2];
        let smaller = solver.optimal(two, &[50_000.0], &PRICES_6H[..2]).unwrap();
        assert_eq!(
            smaller,
            optimal_reference(two, &[50_000.0], &PRICES_6H[..2]).unwrap()
        );
        // And back to the full fleet without stale structure.
        let back = solver.optimal(&idcs, &PAPER_LOADS, &PRICES_7H).unwrap();
        assert_eq!(
            back,
            optimal_reference(&idcs, &PAPER_LOADS, &PRICES_7H).unwrap()
        );
    }

    #[test]
    fn stateful_solver_validates_like_the_free_function() {
        let mut solver = ReferenceSolver::new();
        let idcs = paper_idcs();
        assert!(matches!(
            solver.optimal(&idcs, &[1.0], &[1.0, 2.0]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(solver.optimal(&[], &[1.0], &[]).is_err());
        assert!(solver
            .optimal(&idcs, &[1.0], &[f64::NAN, 1.0, 1.0])
            .is_err());
        assert!(matches!(
            solver.optimal(&idcs, &[150_000.0], &PRICES_6H),
            Err(Error::Infeasible)
        ));
        // Errors leave the solver usable.
        assert!(solver.optimal(&idcs, &PAPER_LOADS, &PRICES_6H).is_ok());
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
    fn stateful_demand_charge_matches_fresh_and_coexists_with_plain() {
        let idcs = paper_idcs();
        let tariff = DemandCharge::typical_commercial();
        let mut solver = ReferenceSolver::new();
        let mut peaks = vec![0.0; 3];
        for prices in [PRICES_6H, PRICES_7H, PRICES_6H] {
            // Interleave plain and DC solves: separate caches, no eviction.
            let plain = solver.optimal(&idcs, &PAPER_LOADS, &prices).unwrap();
            assert_eq!(
                plain,
                optimal_reference(&idcs, &PAPER_LOADS, &prices).unwrap()
            );
            let cached = solver
                .optimal_with_demand_charge(&idcs, &PAPER_LOADS, &prices, &tariff, &peaks)
                .unwrap();
            let fresh =
                optimal_with_demand_charge(&idcs, &PAPER_LOADS, &prices, &tariff, &peaks).unwrap();
            assert_eq!(cached, fresh);
            // Ratchet the running peaks like a billing period would.
            for (p, &m) in peaks.iter_mut().zip(cached.reference().power_mw()) {
                *p = p.max(m);
            }
        }
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
    fn negative_price_turns_everything_on() {
        // Wisconsin's Fig. 2 negative-price dip: the LP runs all servers
        // there (being paid to consume).
        let idcs = paper_idcs();
        let sol = optimal_reference(&idcs, &PAPER_LOADS, &[43.26, 30.26, -21.3]).unwrap();
        assert!((sol.servers()[2] - 20_000.0).abs() < 1e-6);
        // And saturates its workload capacity.
        let lam = sol.idc_workloads(5);
        assert!((lam[2] - 34_000.0).abs() < 1.0);
    }
}
