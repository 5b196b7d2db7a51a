//! Green-aware reference optimization (paper Sec. II, citing Liu et
//! al. \[6\].).
//!
//! Extends the eq. 46 LP with per-region renewable generation: power drawn
//! up to the renewable profile is free ("green"), the excess ("brown")
//! pays the LMP. The optimum then chases *momentarily green* regions in
//! addition to cheap ones — answering \[6\]'s question of whether
//! geographic load balancing can reduce brown-energy use.
//!
//! Formulation (variables `λij`, `m_j`, `brown_j`):
//!
//! ```text
//! min  Σ_j Pr_j·brown_j + ε·Σ_j |Pr_j|·P_j(λ_j, m_j)
//! s.t. P_j(λ_j, m_j) − brown_j ≤ G_j          (brown covers the excess)
//!      Σ_j λij = L_i,  λ_j ≤ µ_j m_j − 1/D_j,  m_j ≤ M_j,  all ≥ 0
//! ```
//!
//! The `ε` term (ε = 1e-3) breaks the degeneracy of fully-green regions
//! (otherwise any `m` between the required count and `M_j` would be
//! optimal) while leaving the brown-cost ordering untouched.
//!
//! Every term grows with `P_j`, so `m_j` sits at its latency floor and
//! IDC `j`'s cost is convex and piecewise linear in its total `Λ_j`: with
//! `a_j` the power per request at the floor, a request costs
//! `ε|Pr_j|·a_j` while the power stays under the renewable level `G_j` and
//! `(max(Pr_j, 0) + ε|Pr_j|)·a_j` above it. The
//! [merit-order fill](crate::reference) over those pieces is exact.

use idc_datacenter::idc::IdcConfig;
use idc_market::renewable::RenewableProfile;
use idc_opt::{Error, Result};

use crate::reference::{
    crossing, floor_servers, idc_power_mw, merit_order, push_piece, validate_inputs, PowerCurve,
};

/// Tie-break weight on total power (see module docs).
const EPSILON: f64 = 1e-3;

/// The green-aware optimum.
#[derive(Debug, Clone, PartialEq)]
pub struct GreenReferenceSolution {
    allocation: Vec<f64>,
    servers: Vec<f64>,
    power_mw: Vec<f64>,
    green_mw: Vec<f64>,
    brown_mw: Vec<f64>,
    brown_cost_rate: f64,
}

impl GreenReferenceSolution {
    /// Workload split, IDC-major flat `λij`.
    pub fn allocation(&self) -> &[f64] {
        &self.allocation
    }

    /// Continuous-relaxed server counts.
    pub fn servers(&self) -> &[f64] {
        &self.servers
    }

    /// Per-IDC total power (MW).
    pub fn power_mw(&self) -> &[f64] {
        &self.power_mw
    }

    /// Per-IDC renewable-covered power (MW).
    pub fn green_mw(&self) -> &[f64] {
        &self.green_mw
    }

    /// Per-IDC grid (brown) power (MW).
    pub fn brown_mw(&self) -> &[f64] {
        &self.brown_mw
    }

    /// Brown-energy cost rate ($/h).
    pub fn brown_cost_rate(&self) -> f64 {
        self.brown_cost_rate
    }

    /// Fleet-wide fraction of power covered by renewables (0–1).
    pub fn green_fraction(&self) -> f64 {
        let total: f64 = self.power_mw.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.green_mw.iter().sum::<f64>() / total
    }

    /// Per-IDC workload totals.
    pub fn idc_workloads(&self, num_portals: usize) -> Vec<f64> {
        self.allocation
            .chunks(num_portals)
            .map(|b| b.iter().sum())
            .collect()
    }
}

/// Solves the green-aware reference problem at `hour` (profiles are
/// hourly).
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] on inconsistent input lengths, a
///   non-finite price, a negative or non-finite workload, or a negative or
///   non-finite renewable availability.
/// * [`Error::Infeasible`] when the workload exceeds fleet capacity.
pub fn green_aware_reference(
    idcs: &[IdcConfig],
    offered: &[f64],
    prices: &[f64],
    renewables: &[RenewableProfile],
    hour: f64,
) -> Result<GreenReferenceSolution> {
    validate_inputs(idcs, offered, prices)?;
    if renewables.len() != idcs.len() {
        return Err(Error::DimensionMismatch {
            what: format!(
                "{} renewable profiles for {} IDCs",
                renewables.len(),
                idcs.len()
            ),
        });
    }
    let available: Vec<f64> = renewables
        .iter()
        .map(|r| r.available_at_hour(hour))
        .collect();
    if available.iter().any(|g| !g.is_finite() || *g < 0.0) {
        return Err(Error::DimensionMismatch {
            what: "renewable availability must be finite and non-negative".into(),
        });
    }

    let mut pieces = Vec::with_capacity(2 * idcs.len());
    for (j, idc) in idcs.iter().enumerate() {
        let curve = PowerCurve::of(idc);
        let cap = idc.max_workload();
        let x = crossing(available[j], curve.p0, curve.a, 0.0, cap);
        let tie_break = EPSILON * prices[j].abs();
        push_piece(&mut pieces, j, 0.0, x, tie_break * curve.a);
        push_piece(
            &mut pieces,
            j,
            x,
            cap,
            (prices[j].max(0.0) + tie_break) * curve.a,
        );
    }
    let (totals, allocation) = merit_order(idcs, offered, pieces)?;
    let servers: Vec<f64> = idcs
        .iter()
        .zip(&totals)
        .map(|(idc, &load)| floor_servers(idc, load))
        .collect();
    let power_mw: Vec<f64> = (0..idcs.len())
        .map(|j| idc_power_mw(&idcs[j], totals[j], servers[j]))
        .collect();
    let brown_mw: Vec<f64> = power_mw
        .iter()
        .zip(&available)
        .map(|(&p, &g)| (p - g).max(0.0))
        .collect();
    let green_mw: Vec<f64> = power_mw
        .iter()
        .zip(&brown_mw)
        .map(|(&p, &b)| (p - b).max(0.0))
        .collect();
    let brown_cost_rate = brown_mw
        .iter()
        .zip(prices)
        .map(|(&b, &pr)| b * pr.max(0.0))
        .sum();
    Ok(GreenReferenceSolution {
        allocation,
        servers,
        power_mw,
        green_mw,
        brown_mw,
        brown_cost_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use idc_datacenter::idc::paper_idcs;

    const LOADS: [f64; 5] = [30_000.0, 15_000.0, 15_000.0, 20_000.0, 20_000.0];
    const PRICES_6H: [f64; 3] = [43.26, 30.26, 19.06];

    fn no_renewables() -> Vec<RenewableProfile> {
        vec![RenewableProfile::none(); 3]
    }

    #[test]
    fn without_renewables_it_matches_the_plain_lp() {
        let idcs = paper_idcs();
        let plain = crate::reference::optimal_reference(&idcs, &LOADS, &PRICES_6H).unwrap();
        let green =
            green_aware_reference(&idcs, &LOADS, &PRICES_6H, &no_renewables(), 6.0).unwrap();
        // Same allocation (brown = total power, same objective up to scale).
        for (a, b) in plain.allocation().iter().zip(green.allocation()) {
            assert!((a - b).abs() < 1.0, "{a} vs {b}");
        }
        assert!(green.green_fraction() < 1e-9);
        assert!((green.brown_cost_rate() - plain.cost_rate_per_hour()).abs() < 1.0);
    }

    #[test]
    fn abundant_solar_attracts_load_at_noon() {
        let idcs = paper_idcs();
        // Minnesota is expensive per request, but give it a huge solar farm.
        let renewables = vec![
            RenewableProfile::none(),
            RenewableProfile::solar(15.0).unwrap(),
            RenewableProfile::none(),
        ];
        let sol = green_aware_reference(&idcs, &LOADS, &PRICES_6H, &renewables, 13.0).unwrap();
        // Minnesota absorbs far more than its price rank would give it.
        let lam = sol.idc_workloads(5);
        assert!(lam[1] > 40_000.0, "MN got {}", lam[1]);
        assert!(sol.green_fraction() > 0.5, "{}", sol.green_fraction());
        // And the constraint holds: green ≤ available.
        assert!(sol.green_mw()[1] <= 15.0 + 1e-9);
        // Brown + green = total.
        for j in 0..3 {
            assert!((sol.green_mw()[j] + sol.brown_mw()[j] - sol.power_mw()[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn solar_at_midnight_changes_nothing() {
        let idcs = paper_idcs();
        let renewables = vec![
            RenewableProfile::none(),
            RenewableProfile::solar(15.0).unwrap(),
            RenewableProfile::none(),
        ];
        let at_noon = green_aware_reference(&idcs, &LOADS, &PRICES_6H, &renewables, 13.0).unwrap();
        let at_night = green_aware_reference(&idcs, &LOADS, &PRICES_6H, &renewables, 2.0).unwrap();
        assert!(at_night.green_fraction() < 1e-9);
        assert!(at_noon.green_fraction() > at_night.green_fraction());
    }

    #[test]
    fn brown_cost_never_exceeds_plain_cost() {
        // Adding free green energy can only reduce the paid (brown) cost.
        let idcs = paper_idcs();
        let plain = crate::reference::optimal_reference(&idcs, &LOADS, &PRICES_6H).unwrap();
        let renewables = vec![
            RenewableProfile::wind(2.0).unwrap(),
            RenewableProfile::wind(1.0).unwrap(),
            RenewableProfile::solar(6.0).unwrap(),
        ];
        for hour in [0.0, 6.0, 13.0, 20.0] {
            let green =
                green_aware_reference(&idcs, &LOADS, &PRICES_6H, &renewables, hour).unwrap();
            assert!(
                green.brown_cost_rate() <= plain.cost_rate_per_hour() + 1e-6,
                "hour {hour}: {} > {}",
                green.brown_cost_rate(),
                plain.cost_rate_per_hour()
            );
        }
    }

    #[test]
    fn dimensions_are_validated() {
        let idcs = paper_idcs();
        assert!(matches!(
            green_aware_reference(&idcs, &LOADS, &PRICES_6H, &[RenewableProfile::none()], 6.0),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_prices_and_negative_loads_are_rejected() {
        let idcs = paper_idcs();
        assert!(matches!(
            green_aware_reference(
                &idcs,
                &LOADS,
                &[f64::NAN, 30.26, 19.06],
                &no_renewables(),
                6.0
            ),
            Err(Error::DimensionMismatch { .. })
        ));
        let mut negative = LOADS;
        negative[2] = -1.0;
        assert!(matches!(
            green_aware_reference(&idcs, &negative, &PRICES_6H, &no_renewables(), 6.0),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn overload_is_infeasible() {
        let idcs = paper_idcs();
        assert!(matches!(
            green_aware_reference(&idcs, &[150_000.0], &PRICES_6H, &no_renewables(), 6.0),
            Err(Error::Infeasible)
        ));
    }
}
