//! Verification harness for the `idc-mpc` workspace.
//!
//! The paper's value proposition is *guarantees under constraints* —
//! workload conservation (eq. 9), M/M/n latency bounds (eq. 11) and the
//! peak-shaving power budget `P_rb` — so this crate checks exactly those,
//! on every closed-loop trajectory, independently of the production code
//! paths that produced it. Three layers:
//!
//! * [`invariants`] — pure functions over a recorded trajectory (run the
//!   simulator with [`idc_core::simulation::Simulator::with_validation`])
//!   asserting conservation, non-negativity of every `λij`, latency
//!   feasibility, budget compliance with a reported worst-step margin, and
//!   accumulated-cost consistency.
//! * [`oracle`] — small, deliberately naive dense solvers (textbook
//!   two-phase simplex, textbook primal active-set QP, plain Gaussian
//!   elimination; no caching, no warm starts, no shared code with
//!   `idc-opt`) that re-solve per-step problems captured from real runs
//!   and must agree with the production banded backend to 1e-8.
//! * [`faults`] — seeded, byte-reproducible [`faults::FaultPlan`]s that
//!   perturb scenarios (price spikes, hold-last-value dropouts, prediction
//!   error scaling, forced solver failures) and check the policy degrades
//!   gracefully: falls back, never panics, and either keeps the invariants
//!   or surfaces the violations in a [`invariants::Report`].
//! * [`equivalence`] — plain-slice trajectory comparators (bitwise and
//!   tolerance-based) reporting the first divergence, used by the online
//!   runtime's soak test to prove batch/online and restore equivalence.

#![warn(missing_docs)]

pub mod equivalence;
pub mod faults;
pub mod invariants;
pub mod oracle;
