//! M/M/n service-latency models (paper Sec. III-E).
//!
//! The paper uses the M/M/n queue and then assumes a busy system
//! (`P_Q = 1`), giving the average latency `Dᵃ = 1/(mµ − λ)` (eq. 14).
//! We provide both that approximation (used by the controller, exactly as
//! in the paper) and the exact Erlang-C formula (used in tests to check
//! that the approximation is conservative).

/// The paper's busy-system average latency `D = 1/(n·µ − λ)` (eq. 14).
///
/// Returns `f64::INFINITY` when the system is not stable (`n·µ ≤ λ`).
pub fn busy_latency(servers: u64, mu: f64, lambda: f64) -> f64 {
    let capacity = servers as f64 * mu;
    if capacity <= lambda {
        f64::INFINITY
    } else {
        1.0 / (capacity - lambda)
    }
}

/// Fractional server requirement `λ/µ + 1/(µ·bound)` (eq. 35 before integer
/// rounding).
///
/// This is the single definition of the paper's M/M/n latency inversion that
/// both [`servers_for_latency`] and the LP reference governor derive from;
/// keep any tweak to the formula here so every layer stays consistent.
///
/// # Panics
///
/// Panics if `mu ≤ 0` or `bound ≤ 0`.
pub fn fractional_servers_for_latency(lambda: f64, mu: f64, bound: f64) -> f64 {
    assert!(mu > 0.0, "service rate must be positive");
    assert!(bound > 0.0, "latency bound must be positive");
    lambda.max(0.0) / mu + 1.0 / (mu * bound)
}

/// Minimum number of servers needed so the busy-system latency stays at or
/// below `bound` (inverts eq. 30): `m ≥ λ/µ + 1/(µ·bound)`.
///
/// # Panics
///
/// Panics if `mu ≤ 0` or `bound ≤ 0`.
pub fn servers_for_latency(lambda: f64, mu: f64, bound: f64) -> u64 {
    fractional_servers_for_latency(lambda, mu, bound).ceil() as u64
}

/// Erlang-C probability that an arriving request must wait, for an M/M/n
/// queue with offered load `a = λ/µ` and `n` servers.
///
/// Returns 1.0 when the queue is unstable (`a ≥ n`).
pub fn erlang_c(servers: u64, offered_load: f64) -> f64 {
    let n = servers as f64;
    let a = offered_load;
    if a <= 0.0 {
        return 0.0;
    }
    if a >= n {
        return 1.0;
    }
    // Compute iteratively in log-free form using the recurrence for the
    // Erlang-B blocking probability, then convert to Erlang-C.
    let mut b = 1.0; // Erlang-B with 0 servers
    for k in 1..=servers {
        b = a * b / (k as f64 + a * b);
    }
    // C = n·B / (n − a(1 − B))
    n * b / (n - a * (1.0 - b))
}

/// Exact M/M/n mean waiting time (queueing delay only):
/// `W_q = C(n, a) / (nµ − λ)`.
///
/// Returns `f64::INFINITY` when unstable.
pub fn mmn_mean_wait(servers: u64, mu: f64, lambda: f64) -> f64 {
    let capacity = servers as f64 * mu;
    if capacity <= lambda {
        return f64::INFINITY;
    }
    erlang_c(servers, lambda / mu) / (capacity - lambda)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_latency_matches_eq_14() {
        // 10 servers at µ=2 with λ=15 → D = 1/(20−15) = 0.2.
        assert_eq!(busy_latency(10, 2.0, 15.0), 0.2);
    }

    #[test]
    fn busy_latency_infinite_when_overloaded() {
        assert_eq!(busy_latency(10, 2.0, 20.0), f64::INFINITY);
        assert_eq!(busy_latency(10, 2.0, 25.0), f64::INFINITY);
    }

    #[test]
    fn servers_for_latency_inverts_the_bound() {
        // Paper numbers: λ=15000, µ=2, D=1ms → 15000/2 + 500 = 8000.
        assert_eq!(servers_for_latency(15_000.0, 2.0, 0.001), 8000);
        // The resulting deployment actually meets the bound...
        assert!(busy_latency(8000, 2.0, 15_000.0) <= 0.001);
        // ...and one server fewer does not.
        assert!(busy_latency(7999, 2.0, 15_000.0) > 0.001);
    }

    #[test]
    fn servers_for_latency_handles_zero_workload() {
        // Even idle IDCs keep the latency head-room servers on.
        assert_eq!(servers_for_latency(0.0, 2.0, 0.001), 500);
        assert_eq!(servers_for_latency(-5.0, 2.0, 0.001), 500);
    }

    #[test]
    fn erlang_c_known_values() {
        // Single server: C(1, a) = a (for a < 1).
        assert!((erlang_c(1, 0.5) - 0.5).abs() < 1e-12);
        // Boundary behaviour.
        assert_eq!(erlang_c(4, 0.0), 0.0);
        assert_eq!(erlang_c(4, 4.0), 1.0);
        assert_eq!(erlang_c(4, 9.0), 1.0);
        // M/M/2 with a=1: B = 1/5·... compute: B1 = 1/(1+1)=0.5, B2 = 1·0.5/(2+0.5)=0.2;
        // C = 2·0.2/(2 − 1·0.8) = 0.4/1.2 = 1/3.
        assert!((erlang_c(2, 1.0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn erlang_c_decreases_with_more_servers() {
        let a = 8.0;
        let mut prev = 1.0;
        for n in 9..20 {
            let c = erlang_c(n, a);
            assert!(c < prev, "C({n}) = {c} not < {prev}");
            prev = c;
        }
    }

    #[test]
    fn busy_approximation_upper_bounds_exact_wait() {
        // P_Q = 1 is the worst case, so eq. 14 ≥ exact mean wait.
        for (n, mu, lambda) in [(10u64, 2.0, 15.0), (100, 1.25, 110.0), (50, 1.75, 80.0)] {
            let approx = busy_latency(n, mu, lambda);
            let exact = mmn_mean_wait(n, mu, lambda);
            assert!(approx >= exact, "approx {approx} < exact {exact} for n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "latency bound must be positive")]
    fn servers_for_latency_rejects_zero_bound() {
        servers_for_latency(1.0, 1.0, 0.0);
    }
}
