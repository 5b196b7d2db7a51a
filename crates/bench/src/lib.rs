//! Shared utilities for the reproduction harness binaries and Criterion
//! benches. The actual figure/table regeneration lives in `src/bin/`.

#![warn(missing_docs)]

pub mod repro;
pub mod series;

use idc_runtime::feed::FeedFaults;
use idc_runtime::stepper::StepperConfig;

/// The faulted single-tenant run `runtime_soak` kills and restarts:
/// `scenario` on `seed` with 10 % of each feed's samples dropped and the
/// rest up to 2 ticks late, held at most 1 tick.
pub fn soak_faulted_config(scenario: &str, seed: u64, steps: Option<usize>) -> StepperConfig {
    StepperConfig {
        workload_faults: FeedFaults::new(41, 0.10, 2),
        price_faults: FeedFaults::new(43, 0.10, 2),
        max_staleness_ticks: 1,
        num_steps: steps,
        ..StepperConfig::fault_free(scenario, seed)
    }
}
