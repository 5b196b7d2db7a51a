//! # idc-core — dynamic control of electricity cost for distributed IDCs
//!
//! Reproduction of *"Dynamic Control of Electricity Cost with Power Demand
//! Smoothing and Peak Shaving for Distributed Internet Data Centers"*
//! (Yao, Liu, He, Rahman — ICDCS 2012).
//!
//! Geo-distributed Internet data centers can chase cheap electricity by
//! shifting workload between regions, but naive price-chasing produces
//! violently jumping power demand and grid-hostile peaks. The paper wraps
//! the cost minimization in a constrained **model-predictive controller**
//! that (a) penalizes input changes, smoothing power demand, and (b)
//! tracks a budget-clamped power reference, shaving peaks.
//!
//! This crate ties the substrates together into the paper's full system:
//!
//! * [`config`] — the evaluation setups of Tables I–III, both as printed
//!   and in the calibrated variant that matches the plotted figures,
//! * [`policy`] — the [`policy::MpcPolicy`] (the paper's contribution) and
//!   the [`policy::OptimalPolicy`] baselines (the exact eq. 46 optimum and the
//!   price-greedy variant the paper's plots follow),
//! * [`plant`] — the per-step plant kernel (admission, decision
//!   validation, battery, metering, cost and demand-charge accounting)
//!   shared by the batch simulator and the online runtime,
//! * [`simulation`] — a deterministic discrete-time simulator producing
//!   per-IDC power / server / cost trajectories,
//! * [`metrics`] — cost, demand-volatility, peak and budget-violation
//!   summaries plus policy comparisons,
//! * [`scenario`] — the canned experiments behind every figure of the
//!   paper (plus the vicious-cycle and weight-ablation extensions),
//! * [`delay_tolerant`] — the batch-deferral extension (cost↔delay
//!   trade-off of the paper's related work \[9\]),
//! * [`report`] — plain-text rendering used by the reproduction harness.
//!
//! # Quickstart
//!
//! ```
//! use idc_core::policy::{MpcPolicy, OptimalPolicy, ReferenceKind};
//! use idc_core::scenario::smoothing_scenario;
//! use idc_core::simulation::Simulator;
//!
//! # fn main() -> Result<(), idc_core::Error> {
//! let scenario = smoothing_scenario();
//! let sim = Simulator::new();
//! let mpc = sim.run(&scenario, &mut MpcPolicy::paper_tuned(&scenario)?)?;
//! let opt = sim.run(&scenario, &mut OptimalPolicy::new(ReferenceKind::PriceGreedy))?;
//! // The MPC's worst power jump is far smaller than the baseline's.
//! let mpc_jump = mpc.power_stats(0).expect("nonempty run").max_abs_step_mw;
//! let opt_jump = opt.power_stats(0).expect("nonempty run").max_abs_step_mw;
//! assert!(mpc_jump < opt_jump);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod config;
pub mod delay_tolerant;
mod error;
pub mod feed;
pub mod metrics;
pub mod plant;
pub mod policy;
pub mod report;
pub mod scenario;
pub mod simulation;
pub mod snapshot;

pub use error::Error;
pub use idc_control::mpc::SolverBackend;
pub use idc_datacenter::idc::LatencyStatus;
pub use idc_datacenter::queueing::fractional_servers_for_latency;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;
