//! Front-end Web portals (paper Sec. III-A, Fig. 1).

use serde::{Deserialize, Serialize};

/// A front-end Web portal offering workload `Li` (req/s) that must be
/// split across the IDCs (paper eq. 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontEndPortal {
    name: String,
    offered_workload: f64,
}

impl FrontEndPortal {
    /// Creates a portal. Returns `None` for negative or non-finite
    /// workload.
    pub fn new(name: impl Into<String>, offered_workload: f64) -> Option<Self> {
        if !(offered_workload >= 0.0) || !offered_workload.is_finite() {
            return None;
        }
        Some(FrontEndPortal {
            name: name.into(),
            offered_workload,
        })
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Offered workload `Li` in req/s.
    pub fn offered_workload(&self) -> f64 {
        self.offered_workload
    }
}

/// The paper's five portals (Table I): 30 000, 15 000, 15 000, 20 000 and
/// 20 000 req/s.
pub fn paper_portals() -> Vec<FrontEndPortal> {
    [30_000.0, 15_000.0, 15_000.0, 20_000.0, 20_000.0]
        .iter()
        .enumerate()
        .map(|(i, &l)| FrontEndPortal::new(format!("portal-{}", i + 1), l).expect("valid"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates() {
        assert!(FrontEndPortal::new("p", -1.0).is_none());
        assert!(FrontEndPortal::new("p", f64::INFINITY).is_none());
        assert!(FrontEndPortal::new("p", 0.0).is_some());
    }

    #[test]
    fn paper_portals_match_table_i() {
        let ps = paper_portals();
        assert_eq!(ps.len(), 5);
        let loads: Vec<f64> = ps.iter().map(|p| p.offered_workload()).collect();
        assert_eq!(
            loads,
            vec![30_000.0, 15_000.0, 15_000.0, 20_000.0, 20_000.0]
        );
        assert_eq!(loads.iter().sum::<f64>(), 100_000.0);
        assert_eq!(ps[0].name(), "portal-1");
    }
}
