//! Property-based tests for the datacenter substrate.

use idc_datacenter::allocation::Allocation;
use idc_datacenter::idc::IdcConfig;
use idc_datacenter::queueing;
use idc_datacenter::server::ServerSpec;
use idc_datacenter::sleep::ramp_toward;
use proptest::prelude::*;

fn idc_strategy() -> impl Strategy<Value = IdcConfig> {
    (1_000u64..100_000, 0.5f64..4.0, 1e-4f64..1.0).prop_map(|(m, mu, d)| {
        IdcConfig::new(
            "gen",
            m,
            ServerSpec::new(150.0, 285.0, mu).expect("valid range"),
            d,
        )
        .expect("valid range")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Power is monotone in both workload and server count, and bounded by
    /// the all-at-peak envelope.
    #[test]
    fn power_is_monotone_and_bounded(
        idc in idc_strategy(),
        m in 0u64..100_000,
        lambda in 0.0f64..1e6,
    ) {
        let m = m.min(idc.total_servers());
        let p = idc.power_w(m, lambda);
        prop_assert!(p >= 0.0);
        prop_assert!(p <= idc.power_w(m, lambda + 100.0) + 1e-9);
        prop_assert!(p <= idc.power_w(m.saturating_add(10).min(idc.total_servers()), lambda) + 1e-9);
        prop_assert!(p <= idc.total_servers() as f64 * 285.0 + 1e-9);
    }

    /// Eq. 35 round-trip: the required server count always meets the
    /// bound, and one fewer server never does (when the workload needs at
    /// least one server beyond the head-room).
    #[test]
    fn required_servers_is_tight(
        idc in idc_strategy(),
        frac in 0.01f64..0.95,
    ) {
        let lambda = idc.max_workload() * frac;
        if let Some(m) = idc.required_servers(lambda) {
            prop_assert!(idc.meets_latency_bound(m, lambda));
            if m > 0 && lambda > 0.0 {
                // m − 1 violates unless the ceil was exact-integer.
                let slack = idc.capacity_with(m - 1) - lambda;
                prop_assert!(slack < idc.service_rate() + 1e-6);
            }
        }
    }

    /// Busy-system latency (eq. 14) always upper-bounds the exact M/M/n
    /// waiting time.
    #[test]
    fn busy_latency_bounds_erlang_c(
        servers in 1u64..500,
        mu in 0.5f64..4.0,
        rho in 0.05f64..0.98,
    ) {
        let lambda = servers as f64 * mu * rho;
        let approx = queueing::busy_latency(servers, mu, lambda);
        let exact = queueing::mmn_mean_wait(servers, mu, lambda);
        prop_assert!(approx >= exact - 1e-12, "{approx} < {exact}");
    }

    /// Proportional allocation always conserves workload and keeps shares
    /// non-negative.
    #[test]
    fn proportional_allocation_invariants(
        offered in prop::collection::vec(0.0f64..50_000.0, 1..6),
        weights in prop::collection::vec(0.1f64..10.0, 1..5),
    ) {
        let a = Allocation::proportional(&offered, &weights).unwrap();
        prop_assert!(a.is_nonnegative(0.0));
        prop_assert!(a.conserves_workload(&offered, 1e-9));
        // Control-vector round trip preserves everything.
        let u = a.to_control_vector();
        let back = Allocation::from_control_vector(offered.len(), weights.len(), &u).unwrap();
        prop_assert_eq!(back, a);
    }

    /// The slow-loop ramp never moves more than the limit, never overshoots
    /// the target, and lands on it once it is within the limit.
    #[test]
    fn sleep_ramp_respects_limit(
        current in 0u64..100_000,
        target in 0u64..100_000,
        limit in 1u64..10_000,
    ) {
        let next = ramp_toward(current, target, limit);
        prop_assert!(next.abs_diff(current) <= limit);
        if target.abs_diff(current) <= limit {
            prop_assert_eq!(next, target);
        }
        if target >= current {
            prop_assert!(next <= target);
            prop_assert!(next >= current);
        } else {
            prop_assert!(next >= target);
            prop_assert!(next <= current);
        }
    }
}
