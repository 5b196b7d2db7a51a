//! Shared utilities for the reproduction harness binaries. The actual
//! figure/table regeneration lives in `src/bin/`.

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

/// The flags `verify_invariants` and `fault_matrix` share.
#[derive(Debug, Default)]
pub struct GateArgs {
    /// `--seed N`: one seed instead of the bin's default.
    pub seed: Option<u64>,
    /// `--steps N`: the scenario length override.
    pub steps: Option<usize>,
    /// `--trace-out PATH`: where to write the Chrome trace of the cells.
    pub trace_out: Option<String>,
}

fn gate_usage(bin: &str) -> String {
    format!("usage: {bin} [--seed N] [--steps N] [--trace-out PATH]")
}

/// Prints `msg` and `bin`'s usage, and exits 2.
fn gate_usage_error(bin: &str, msg: &str) -> ! {
    eprintln!("{bin}: {msg}\n{}", gate_usage(bin));
    std::process::exit(2);
}

/// Reads `bin`'s flags from the command line. `--trace-out` installs the
/// global flight recorder; `--help` prints the usage and exits 0. An
/// unknown flag, or a missing or unparsable value, prints what is wrong
/// and the usage, and exits 2.
pub fn parse_gate_args(bin: &str) -> GateArgs {
    fn value<T: std::str::FromStr>(
        bin: &str,
        it: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> T {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| gate_usage_error(bin, &format!("{flag} needs a value")))
    }
    let mut args = GateArgs::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => args.seed = Some(value(bin, &mut it, "--seed")),
            "--steps" => args.steps = Some(value(bin, &mut it, "--steps")),
            "--trace-out" => args.trace_out = Some(value(bin, &mut it, "--trace-out")),
            "--help" | "-h" => {
                println!("{}", gate_usage(bin));
                std::process::exit(0);
            }
            other => gate_usage_error(bin, &format!("unknown flag '{other}'")),
        }
    }
    if args.trace_out.is_some() {
        idc_obs::install_global_recorder(1 << 20);
    }
    args
}
