//! Feedback-control substrate for the `idc-mpc` workspace.
//!
//! Implements Sec. IV of the ICDCS 2012 paper:
//!
//! * [`statespace`] — the continuous-time electricity-cost model
//!   `Ẋ = AX + BU + FV`, `Y = WX` with state
//!   `X = [C̄, E₁, …, E_N]` (paper eq. 19–20) and the controllability test
//!   of Sec. IV-C,
//! * [`discretize`] — zero-order-hold discretization `Φ = e^{A·Ts}`,
//!   `Ḡ = ∫e^{As}B ds`, `Γ = ∫e^{As}F ds` (paper eq. 23–25) via an
//!   augmented matrix exponential,
//! * [`mpc`] — the constrained MPC of eq. 37–45: tracking the
//!   (possibly budget-clamped) per-IDC power reference under workload
//!   conservation, latency/capacity and non-negativity constraints, with
//!   the input-rate penalty that smooths power demand,
//! * [`warm_repair`] — the receding-horizon warm-start repair that builds
//!   the feasible start of every MPC solve, warm or cold,
//! * [`green`] — the green-aware reference (renewables-first load
//!   placement, the Liu et al. \[6\] extension),
//! * [`mod@reference`] — the control-reference optimizer (paper eq. 46, the
//!   Rao et al. INFOCOM'10 LP, solved exactly by a merit-order fill) and
//!   the peak-shaving clamp `P_r = min(P_ro, P_rb)` of Sec. IV-D,
//! * [`stability`] — empirical closed-loop contraction checks in the
//!   spirit of the constrained-MPC stability argument (Mayne et al. \[21\].).
//!
//! # Example: one MPC step on the paper's fleet
//!
//! ```
//! use idc_control::mpc::{MpcConfig, MpcController, MpcProblem};
//!
//! # fn main() -> Result<(), idc_opt::Error> {
//! let mut controller = MpcController::new(MpcConfig::default());
//! // One portal (10 000 req/s), two IDCs; start fully on IDC 0, reference
//! // wants everything on IDC 1.
//! let problem = MpcProblem {
//!     b1_mw: vec![67.5e-6, 108.0e-6],
//!     b0_mw: vec![150.0e-6, 150.0e-6],
//!     servers_on: vec![8_000, 10_000],
//!     capacities: vec![15_000.0, 11_500.0],
//!     prev_input: vec![10_000.0, 0.0],
//!     workload_forecast: vec![vec![10_000.0]; 3],
//!     power_reference_mw: vec![vec![1.2, 2.28]; 5],
//!     tracking_multiplier: MpcProblem::uniform_tracking(2),
//!     storage: None,
//! };
//! let plan = controller.plan(&problem)?;
//! // Workload stays conserved after the step.
//! let total: f64 = plan.next_input().iter().sum();
//! assert!((total - 10_000.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod discretize;
pub mod green;
pub mod mpc;
pub mod reference;
pub mod riccati;
pub mod stability;
pub mod statespace;
pub mod warm_repair;
