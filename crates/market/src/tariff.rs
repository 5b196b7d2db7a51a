//! Power budgets and peak-demand penalties.
//!
//! The paper's motivation for peak shaving (Sec. I): electricity suppliers
//! impose a peak power limit and "penalize those IDCs heavily if this limit
//! is exceeded" \[10\], and sustained high peaks force subscription to a
//! larger delivery capacity. [`PowerBudget`] carries the per-IDC budgets
//! used as the MPC reference clamp (paper Sec. IV-D); [`DemandCharge`]
//! bills the period's peak demand.

use serde::{Deserialize, Serialize};

/// Per-IDC power budgets in MW (the `P_rb` of paper Sec. IV-D).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerBudget {
    budgets_mw: Vec<f64>,
}

impl PowerBudget {
    /// Creates budgets; returns `None` if any budget is negative or
    /// non-finite.
    pub fn new(budgets_mw: Vec<f64>) -> Option<Self> {
        if budgets_mw.iter().any(|b| !(*b >= 0.0) || !b.is_finite()) {
            return None;
        }
        Some(PowerBudget { budgets_mw })
    }

    /// Unlimited budgets for `n` IDCs (no peak shaving).
    pub fn unlimited(n: usize) -> Self {
        PowerBudget {
            budgets_mw: vec![f64::MAX; n],
        }
    }

    /// The paper's Sec. V-C budgets: 5.13, 10.26 and 4.275 MW for Michigan,
    /// Minnesota and Wisconsin.
    pub fn paper_section_v_c() -> Self {
        PowerBudget {
            budgets_mw: vec![5.13, 10.26, 4.275],
        }
    }

    /// Number of IDCs covered.
    pub fn len(&self) -> usize {
        self.budgets_mw.len()
    }

    /// `true` when no IDC is covered.
    pub fn is_empty(&self) -> bool {
        self.budgets_mw.is_empty()
    }

    /// Budget of IDC `j` in MW.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn budget_mw(&self, j: usize) -> f64 {
        self.budgets_mw[j]
    }

    /// Borrow of all budgets.
    pub fn as_slice(&self) -> &[f64] {
        &self.budgets_mw
    }

    /// Clamps a per-IDC power vector to the budgets (the paper's reference
    /// clamp: `P_r = min(P_ro, P_rb)`).
    ///
    /// # Panics
    ///
    /// Panics if `power_mw.len() != self.len()`.
    pub fn clamp(&self, power_mw: &[f64]) -> Vec<f64> {
        assert_eq!(power_mw.len(), self.len(), "one power value per IDC");
        power_mw
            .iter()
            .zip(&self.budgets_mw)
            .map(|(&p, &b)| p.min(b))
            .collect()
    }

    /// Per-IDC violation magnitudes `max(0, P − budget)`.
    ///
    /// # Panics
    ///
    /// Panics if `power_mw.len() != self.len()`.
    pub fn violations(&self, power_mw: &[f64]) -> Vec<f64> {
        assert_eq!(power_mw.len(), self.len(), "one power value per IDC");
        power_mw
            .iter()
            .zip(&self.budgets_mw)
            .map(|(&p, &b)| (p - b).max(0.0))
            .collect()
    }
}

/// A demand charge: the utility bills the *maximum* power drawn over a
/// billing period at a flat $/MW rate, on top of the energy charge.
///
/// This is the tariff structure that makes batteries pay for themselves
/// (Wang et al., "Energy Storage in Datacenters", arXiv:1308.0585): a
/// single 15-minute spike sets the bill for the whole month, so shaving
/// the peak with stored energy saves `rate × shaved MW` regardless of how
/// little energy the shave itself took.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandCharge {
    /// $ per MW of billed (period-maximum) demand, per billing period.
    rate_per_mw: f64,
    /// Length of the billing period in hours (e.g. 720 for a 30-day month).
    billing_period_hours: f64,
}

impl DemandCharge {
    /// Creates a demand charge; returns `None` if the rate is negative or
    /// the billing period is not strictly positive, or either is
    /// non-finite.
    pub fn new(rate_per_mw: f64, billing_period_hours: f64) -> Option<Self> {
        if !(rate_per_mw >= 0.0)
            || !rate_per_mw.is_finite()
            || !(billing_period_hours > 0.0)
            || !billing_period_hours.is_finite()
        {
            return None;
        }
        Some(DemandCharge {
            rate_per_mw,
            billing_period_hours,
        })
    }

    /// A representative US commercial tariff: $12/kW-month over a 30-day
    /// (720 h) billing period.
    pub fn typical_commercial() -> Self {
        DemandCharge {
            rate_per_mw: 12_000.0,
            billing_period_hours: 720.0,
        }
    }

    /// $ per MW of billed demand per billing period.
    pub fn rate_per_mw(&self) -> f64 {
        self.rate_per_mw
    }

    /// Billing period length in hours.
    pub fn billing_period_hours(&self) -> f64 {
        self.billing_period_hours
    }

    /// The period rate amortized to $/MW/hour — the weight a per-hour
    /// optimization should put on the billed-peak epigraph variable so the
    /// instantaneous objective and the monthly bill agree in expectation.
    pub fn hourly_weight(&self) -> f64 {
        self.rate_per_mw / self.billing_period_hours
    }

    /// The bill in $ for the given per-IDC period-maximum demands (MW).
    pub fn bill(&self, billed_peaks_mw: &[f64]) -> f64 {
        billed_peaks_mw
            .iter()
            .map(|&p| self.rate_per_mw * p.max(0.0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_constructor_validates() {
        assert!(PowerBudget::new(vec![1.0, -2.0]).is_none());
        assert!(PowerBudget::new(vec![f64::NAN]).is_none());
        assert!(PowerBudget::new(vec![1.0, 2.0]).is_some());
    }

    #[test]
    fn paper_budgets_match_section_v_c() {
        let b = PowerBudget::paper_section_v_c();
        assert_eq!(b.as_slice(), &[5.13, 10.26, 4.275]);
        assert_eq!(b.budget_mw(2), 4.275);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    fn clamp_and_violations() {
        let b = PowerBudget::paper_section_v_c();
        // The paper's 7H optimal powers: 5.7, 11.4, 1.628775 MW.
        let p = [5.7, 11.4, 1.628775];
        assert_eq!(b.clamp(&p), vec![5.13, 10.26, 1.628775]);
        let v = b.violations(&p);
        assert!((v[0] - 0.57).abs() < 1e-12);
        assert!((v[1] - 1.14).abs() < 1e-12);
        assert_eq!(v[2], 0.0);
    }

    #[test]
    fn unlimited_budget_never_clamps() {
        let b = PowerBudget::unlimited(2);
        assert_eq!(b.clamp(&[1e9, 2e9]), vec![1e9, 2e9]);
        assert_eq!(b.violations(&[1e9, 2e9]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "one power value per IDC")]
    fn clamp_validates_length() {
        PowerBudget::paper_section_v_c().clamp(&[1.0]);
    }

    #[test]
    fn demand_charge_validates() {
        assert!(DemandCharge::new(-1.0, 720.0).is_none());
        assert!(DemandCharge::new(1.0, 0.0).is_none());
        assert!(DemandCharge::new(f64::NAN, 720.0).is_none());
        assert!(DemandCharge::new(1.0, f64::INFINITY).is_none());
        assert!(DemandCharge::new(0.0, 1.0).is_some());
    }

    #[test]
    fn demand_charge_bill_and_weight() {
        let dc = DemandCharge::typical_commercial();
        assert_eq!(dc.rate_per_mw(), 12_000.0);
        assert_eq!(dc.billing_period_hours(), 720.0);
        // $12k/MW-month over 720 h amortizes to $16.67/MW/h.
        assert!((dc.hourly_weight() - 12_000.0 / 720.0).abs() < 1e-12);
        // 5 MW + 10 MW billed peaks → $180k; negative peaks bill nothing.
        assert_eq!(dc.bill(&[5.0, 10.0]), 180_000.0);
        assert_eq!(dc.bill(&[-1.0]), 0.0);
    }
}
