//! The slow-loop server sleep (ON/OFF) controller (paper Sec. IV-B).
//!
//! The paper's two-time-scale architecture adjusts the number of powered
//! servers `mj` on a slower cadence than the workload split, using eq. 35:
//!
//! ```text
//! mj = ⌈ λj/µj + 1/(µj·Dj) ⌉
//! ```
//!
//! To smooth power demand (Fig. 5), the dynamic controller additionally
//! limits how many servers may be switched per decision — this *ramp
//! limit* ([`ramp_toward`]) is what turns the paper's "turns ON or OFF
//! servers gradually" into an explicit mechanism.

use crate::idc::IdcConfig;

/// One slow-loop move of a server count toward `target`, switching at most
/// `limit` servers (ON or OFF). Lands exactly on `target` when it is within
/// `limit` of `current`.
pub fn ramp_toward(current: u64, target: u64, limit: u64) -> u64 {
    if target > current {
        (current + limit).min(target)
    } else {
        current - limit.min(current - target)
    }
}

/// The sleep (ON/OFF) controllability condition of paper Sec. IV-B: the
/// fleet can absorb the offered workload within latency bounds iff
/// `Σᵢ Lᵢ ≤ Σⱼ λ̄ⱼ`.
pub fn is_sleep_controllable(idcs: &[IdcConfig], total_offered: f64) -> bool {
    total_offered <= idcs.iter().map(|i| i.max_workload()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idc::paper_idcs;

    #[test]
    fn ramp_limit_moves_gradually() {
        // Up: 5000 → 6000 (target 8000).
        assert_eq!(ramp_toward(5000, 8000, 1000), 6000);
        // Down: 9500 → 8500 (target 8000).
        assert_eq!(ramp_toward(9500, 8000, 1000), 8500);
        // Within one step of target: lands exactly.
        assert_eq!(ramp_toward(7500, 8000, 1000), 8000);
        assert_eq!(ramp_toward(8400, 8000, 1000), 8000);
        assert_eq!(ramp_toward(8000, 8000, 1000), 8000);
    }

    #[test]
    fn controllability_condition_matches_paper_fleet() {
        let idcs = paper_idcs();
        // Σ λ̄ = (60000−1000) + (50000−800) + (35000−571.43) ≈ 142 628.
        assert!(is_sleep_controllable(&idcs, 100_000.0));
        assert!(is_sleep_controllable(&idcs, 142_000.0));
        assert!(!is_sleep_controllable(&idcs, 143_000.0));
    }
}
