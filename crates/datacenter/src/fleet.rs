//! The full portals + IDCs system of paper Fig. 1.

use serde::{Deserialize, Serialize};

use crate::allocation::Allocation;
use crate::idc::{paper_idcs, IdcConfig};
use crate::portal::{paper_portals, FrontEndPortal};
use crate::sleep;

/// A distributed IDC fleet: `C` front-end portals feeding `N` IDCs.
///
/// # Example
///
/// ```
/// use idc_datacenter::fleet::IdcFleet;
///
/// let fleet = IdcFleet::paper_fleet();
/// assert_eq!(fleet.num_portals(), 5);
/// assert_eq!(fleet.num_idcs(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdcFleet {
    portals: Vec<FrontEndPortal>,
    idcs: Vec<IdcConfig>,
}

impl IdcFleet {
    /// Creates a fleet. Returns `None` when either list is empty.
    pub fn new(portals: Vec<FrontEndPortal>, idcs: Vec<IdcConfig>) -> Option<Self> {
        if portals.is_empty() || idcs.is_empty() {
            return None;
        }
        Some(IdcFleet { portals, idcs })
    }

    /// The paper's evaluation system (Tables I and II): five portals,
    /// three IDCs in Michigan / Minnesota / Wisconsin.
    pub fn paper_fleet() -> Self {
        IdcFleet {
            portals: paper_portals(),
            idcs: paper_idcs(),
        }
    }

    /// Number of front-end portals `C`.
    pub fn num_portals(&self) -> usize {
        self.portals.len()
    }

    /// Number of IDCs `N`.
    pub fn num_idcs(&self) -> usize {
        self.idcs.len()
    }

    /// Borrow of the portals.
    pub fn portals(&self) -> &[FrontEndPortal] {
        &self.portals
    }

    /// Borrow of the IDCs.
    pub fn idcs(&self) -> &[IdcConfig] {
        &self.idcs
    }

    /// Offered workload vector `[L1, …, LC]`.
    pub fn offered_workloads(&self) -> Vec<f64> {
        self.portals.iter().map(|p| p.offered_workload()).collect()
    }

    /// Total offered workload `Σᵢ Lᵢ`.
    pub fn total_offered_workload(&self) -> f64 {
        self.portals.iter().map(|p| p.offered_workload()).sum()
    }

    /// Total workload capacity with every server ON, `Σⱼ λ̄ⱼ`.
    pub fn total_capacity(&self) -> f64 {
        self.idcs.iter().map(|i| i.max_workload()).sum()
    }

    /// The sleep (ON/OFF) controllability condition of Sec. IV-B.
    pub fn is_sleep_controllable(&self) -> bool {
        sleep::is_sleep_controllable(&self.idcs, self.total_offered_workload())
    }

    /// Total fleet power in MW for the given server counts and allocation.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree with the fleet.
    pub fn total_power_mw(&self, servers_on: &[u64], allocation: &Allocation) -> f64 {
        self.per_idc_power_mw(servers_on, allocation).iter().sum()
    }

    /// Per-IDC power in MW for the given server counts and allocation.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree with the fleet.
    pub fn per_idc_power_mw(&self, servers_on: &[u64], allocation: &Allocation) -> Vec<f64> {
        assert_eq!(servers_on.len(), self.num_idcs(), "one count per IDC");
        assert_eq!(
            allocation.idcs(),
            self.num_idcs(),
            "allocation IDC mismatch"
        );
        assert_eq!(
            allocation.portals(),
            self.num_portals(),
            "allocation portal mismatch"
        );
        self.idcs
            .iter()
            .enumerate()
            .map(|(j, idc)| idc.power_mw(servers_on[j], allocation.idc_total(j)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates() {
        assert!(IdcFleet::new(vec![], paper_idcs()).is_none());
        assert!(IdcFleet::new(paper_portals(), vec![]).is_none());
        assert!(IdcFleet::new(paper_portals(), paper_idcs()).is_some());
    }

    #[test]
    fn paper_fleet_dimensions_and_capacity() {
        let f = IdcFleet::paper_fleet();
        assert_eq!(f.num_portals(), 5);
        assert_eq!(f.num_idcs(), 3);
        assert_eq!(f.total_offered_workload(), 100_000.0);
        // Σ (Mµ − 1/D): 59 000 + 49 000 + 34 000.
        let expected = 59_000.0 + 49_000.0 + 34_000.0;
        assert!((f.total_capacity() - expected).abs() < 1e-9);
        assert!(f.is_sleep_controllable());
    }

    #[test]
    fn power_accounting_sums_per_idc_values() {
        let f = IdcFleet::paper_fleet();
        // Fully-loaded paper snapshot: 7 500 / 40 000 / 20 000 servers ON.
        let servers = [7_500u64, 40_000, 20_000];
        let mut alloc = Allocation::zeros(5, 3);
        // One portal per IDC is enough for the power model.
        alloc.set(0, 0, 15_000.0);
        alloc.set(1, 1, 50_000.0);
        alloc.set(2, 2, 35_000.0);
        let per = f.per_idc_power_mw(&servers, &alloc);
        assert!((per[0] - 2.1375).abs() < 1e-9);
        assert!((per[1] - 11.4).abs() < 1e-9);
        assert!((per[2] - 5.7).abs() < 1e-9);
        assert!((f.total_power_mw(&servers, &alloc) - 19.2375).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one count per IDC")]
    fn power_accounting_validates_lengths() {
        let f = IdcFleet::paper_fleet();
        let alloc = Allocation::zeros(5, 3);
        f.per_idc_power_mw(&[1, 2], &alloc);
    }
}
