//! Property-based tests for the market substrate.

use idc_market::region::Region;
use idc_market::rtp::{DemandResponsivePricing, PricingModel, TracePricing};
use idc_market::tariff::PowerBudget;
use idc_market::trace::PriceTrace;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hour lookup always lands on the step value of the containing hour
    /// and wraps cleanly.
    #[test]
    fn price_trace_lookup_is_a_step_function(
        hourly in prop::collection::vec(-50.0f64..150.0, 24),
        hour in -48.0f64..72.0,
    ) {
        let trace = PriceTrace::new(Region::new(0, "t"), hourly.clone()).unwrap();
        let h = hour.rem_euclid(24.0) as usize;
        prop_assert_eq!(trace.price_at_hour(hour), hourly[h.min(23)]);
        prop_assert_eq!(trace.price_at_hour(hour), trace.price_at_hour(hour + 24.0));
    }

    /// Budget clamp is idempotent, dominated by both arguments, and
    /// violations vanish exactly after clamping.
    #[test]
    fn budget_clamp_properties(
        budgets in prop::collection::vec(0.0f64..20.0, 1..5),
        power_scale in prop::collection::vec(0.0f64..3.0, 1..5),
    ) {
        let n = budgets.len().min(power_scale.len());
        let budgets = PowerBudget::new(budgets[..n].to_vec()).unwrap();
        let power: Vec<f64> = (0..n).map(|j| budgets.budget_mw(j) * power_scale[j]).collect();
        let clamped = budgets.clamp(&power);
        for j in 0..n {
            prop_assert!(clamped[j] <= budgets.budget_mw(j));
            prop_assert!(clamped[j] <= power[j]);
        }
        prop_assert_eq!(budgets.clamp(&clamped.clone()), clamped.clone());
        prop_assert!(budgets.violations(&clamped).iter().all(|&v| v == 0.0));
    }

    /// Demand-responsive prices are affine in the consumer's own load with
    /// slope γ.
    #[test]
    fn demand_response_is_affine(gamma in 0.0f64..10.0, load in 0.0f64..50.0) {
        let base = TracePricing::new(idc_market::trace::miso_oct3_2011());
        let dr = DemandResponsivePricing::new(base.clone(), gamma).unwrap();
        for region in 0..3 {
            let p0 = dr.price(region, 12.0, 0.0);
            let p = dr.price(region, 12.0, load);
            prop_assert!((p - p0 - gamma * load).abs() < 1e-9);
            prop_assert_eq!(p0, base.price(region, 12.0, 0.0));
        }
    }
}
