//! Soak test for the online runtime.
//!
//! # Single-tenant mode (default)
//!
//! Replays a scenario (by default a full simulated day: 288 five-minute
//! periods of the noisy diurnal scenario) through the online stepper and
//! asserts, via `idc-testkit`'s equivalence oracles, that
//!
//! 1. the fault-free online run matches the batch simulator's final
//!    accumulated cost and per-IDC power trajectory to 1e-9 (they are in
//!    fact bit-identical, which is also asserted, along with the server
//!    trajectories and — on storage or tariffed scenarios — the final
//!    battery state of charge and the accrued demand charge);
//! 2. killing the run at an arbitrary step and restarting from its
//!    checkpoint reproduces the uninterrupted trajectory bit for bit,
//!    through a real serialize→disk→parse round trip;
//! 3. a run with injected feed faults (drops and delays on both feeds)
//!    completes, degrades at least once, and keeps the accounting finite.
//!
//! `--scenario`, `--seed`, `--steps` and `--kill-step` parameterize the
//! checks; the defaults reproduce the classic invocation exactly. CI runs
//! every registry key with `--kill-step 12`, so the kill lands inside the
//! 25-step scenarios too.
//!
//! Run with: `cargo run --release -p idc-bench --bin runtime_soak`
//!
//! # Multi-tenant mode (`--tenants N`)
//!
//! Hosts `N` heterogeneous tenants (mixed fleet sizes, backend labels,
//! fault and overload plans from [`derive_tenants`]) on the shared worker
//! pool at maximum clock speed, covering weeks of simulated control time
//! in aggregate. Unless `--resume` is given, the soak first runs with a
//! deterministic mid-soak kill (`--kill-after`, default half the total
//! step budget — the in-process `kill -9`), then resumes every tenant
//! from its checkpoint lineage and completes. It then asserts:
//!
//! * every tenant's final snapshot is byte-identical to an uninterrupted
//!   solo run of the same spec (kill, resume and 99 neighbours included);
//! * tenants without transport faults never degraded;
//! * every overloaded tenant shed observations (backpressure engaged).
//!
//! With `--resume` the fresh/kill phase is skipped and the soak resumes
//! whatever a previous (externally killed) invocation left under
//! `--checkpoint-root` — the CI SIGKILL job uses this. Either way the
//! soak prints one summary line (steps, simulated days, steps/sec, p50
//! and p99 step latency) and writes no file outside the checkpoint root.
//! The daemon's speed benchmark is perfbench `daemon_64`.
//!
//! Exits non-zero with a description on the first failed assertion.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use idc_core::clock::SimClock;
use idc_core::policy::MpcPolicy;
use idc_core::simulation::Simulator;
use idc_runtime::feed::FeedFaults;
use idc_runtime::metrics::MetricsRegistry;
use idc_runtime::registry::scenario_by_key;
use idc_runtime::snapshot::RuntimeSnapshot;
use idc_runtime::stepper::{Stepper, StepperConfig};
use idc_runtime::tenant::{derive_tenants, ManagerConfig, TenantManager, TenantSpec};
use idc_testkit::equivalence::{bitwise_f64, exact_u64, within_tolerance_f64, Mismatch};

#[derive(Debug)]
struct Args {
    scenario: String,
    seed: u64,
    steps: Option<usize>,
    kill_step: u64,
    tenants: usize,
    workers: usize,
    checkpoint_root: Option<PathBuf>,
    resume: bool,
    kill_after: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scenario: "noisy_day".to_string(),
            seed: 2012,
            steps: None,
            kill_step: 97,
            tenants: 0,
            workers: 0,
            checkpoint_root: None,
            resume: false,
            kill_after: None,
        }
    }
}

const USAGE: &str = "\
runtime_soak: soak test for the online runtime

USAGE: runtime_soak [OPTIONS]

OPTIONS:
  --scenario KEY         single-tenant scenario (default: noisy_day)
  --seed N               base seed (default: 2012)
  --steps N              per-run step override (default: scenario length,
                         or 288 in multi-tenant mode)
  --kill-step N          single-tenant checkpoint/kill step (default: 97)
  --tenants N            multi-tenant soak with N derived tenants
  --workers N            worker threads (default: one per CPU, capped at 8)
  --checkpoint-root DIR  tenant checkpoint lineages (default: a temp dir)
  --resume               resume an externally killed soak from
                         --checkpoint-root instead of the fresh+kill phase
  --kill-after M         in-process kill after M total steps
                         (default: half the budget; 0 disables the kill)
  --help                 print this help
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn parsed<T: std::str::FromStr>(
        it: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        value(it, flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scenario" => args.scenario = value(&mut it, "--scenario")?,
            "--seed" => args.seed = parsed(&mut it, "--seed")?,
            "--steps" => args.steps = Some(parsed(&mut it, "--steps")?),
            "--kill-step" => args.kill_step = parsed(&mut it, "--kill-step")?,
            "--tenants" => args.tenants = parsed(&mut it, "--tenants")?,
            "--workers" => args.workers = parsed(&mut it, "--workers")?,
            "--checkpoint-root" => {
                args.checkpoint_root = Some(PathBuf::from(value(&mut it, "--checkpoint-root")?));
            }
            "--resume" => args.resume = true,
            "--kill-after" => args.kill_after = Some(parsed(&mut it, "--kill-after")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if scenario_by_key(&args.scenario, 0, None).is_none() {
        return Err(format!("unknown scenario '{}'", args.scenario));
    }
    if args.resume && args.tenants == 0 {
        return Err("--resume needs --tenants N".to_string());
    }
    if args.resume && args.checkpoint_root.is_none() {
        return Err("--resume needs --checkpoint-root DIR".to_string());
    }
    Ok(args)
}

fn check(label: &str, mismatch: Option<Mismatch>) -> Result<(), String> {
    match mismatch {
        None => {
            println!("runtime_soak: {label}: ok");
            Ok(())
        }
        Some(m) => Err(format!("{label}: {m}")),
    }
}

fn batch_vs_online(args: &Args) -> Result<(), String> {
    let config = StepperConfig {
        num_steps: args.steps,
        ..StepperConfig::fault_free(&args.scenario, args.seed)
    };
    let mut online = Stepper::new(config).map_err(|e| e.to_string())?;
    online.run(&mut SimClock).map_err(|e| e.to_string())?;
    if online.degraded_steps() != 0 {
        return Err(format!(
            "fault-free run degraded {} times",
            online.degraded_steps()
        ));
    }

    let scenario = scenario_by_key(&args.scenario, args.seed, args.steps).expect("known key");
    let mut policy = MpcPolicy::paper_tuned(&scenario).map_err(|e| e.to_string())?;
    let batch = Simulator::new()
        .run(&scenario, &mut policy)
        .map_err(|e| e.to_string())?;

    check(
        "batch vs online: accumulated cost (1e-9)",
        within_tolerance_f64(
            "cost_cumulative",
            online.cost_cumulative(),
            batch.cost_cumulative(),
            1e-9,
        ),
    )?;
    for j in 0..batch.num_idcs() {
        check(
            &format!("batch vs online: power[{j}] (1e-9)"),
            within_tolerance_f64(
                &format!("power_mw[{j}]"),
                online.power_mw(j),
                batch.power_mw(j),
                1e-9,
            ),
        )?;
        // The equivalence is in fact exact, and the checkpoint guarantees
        // depend on that — hold the stronger line too.
        check(
            &format!("batch vs online: power[{j}] (bitwise)"),
            bitwise_f64(
                &format!("power_mw[{j}]"),
                online.power_mw(j),
                batch.power_mw(j),
            ),
        )?;
        check(
            &format!("batch vs online: servers[{j}]"),
            exact_u64(
                &format!("servers[{j}]"),
                online.servers(j),
                batch.servers(j),
            ),
        )?;
    }
    check(
        "batch vs online: cost (bitwise)",
        bitwise_f64(
            "cost_cumulative",
            online.cost_cumulative(),
            batch.cost_cumulative(),
        ),
    )?;
    let plant = online.plant();
    if let Some(accrued) = plant.demand_charge() {
        check(
            "batch vs online: demand charge (bitwise)",
            bitwise_f64("demand_charge", &[accrued], &[batch.total_demand_charge()]),
        )?;
    }
    if let Some(battery) = plant.battery() {
        let batch_soc: Vec<f64> = (0..batch.num_idcs())
            .map(|j| batch.soc_mwh(j).and_then(|s| s.last()).copied())
            .collect::<Option<_>>()
            .ok_or("batch run recorded no battery trajectory")?;
        check(
            "batch vs online: battery state of charge (bitwise)",
            bitwise_f64("soc_mwh", battery.soc_mwh(), &batch_soc),
        )?;
    }
    Ok(())
}

fn faulted_config(args: &Args) -> StepperConfig {
    idc_bench::soak_faulted_config(&args.scenario, args.seed, args.steps)
}

fn kill_and_restart(args: &Args) -> Result<(), String> {
    // The uninterrupted faulted run is the truth...
    let mut uninterrupted = Stepper::new(faulted_config(args)).map_err(|e| e.to_string())?;
    uninterrupted
        .run(&mut SimClock)
        .map_err(|e| e.to_string())?;

    // ...then "kill" a second instance at the kill step, checkpoint
    // through an actual file, restore and finish.
    let mut killed = Stepper::new(faulted_config(args)).map_err(|e| e.to_string())?;
    for _ in 0..args.kill_step.min(uninterrupted.num_steps()) {
        killed.step_once().map_err(|e| e.to_string())?;
    }
    let path = std::env::temp_dir().join(format!("runtime_soak_{}.json", std::process::id()));
    killed
        .snapshot()
        .write_atomic(&path)
        .map_err(|e| e.to_string())?;
    drop(killed);
    let snapshot = RuntimeSnapshot::read(&path).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&path);
    let mut restarted = Stepper::restore(&snapshot).map_err(|e| e.to_string())?;
    restarted.run(&mut SimClock).map_err(|e| e.to_string())?;

    check(
        "kill/restart: cost (bitwise)",
        bitwise_f64(
            "cost_cumulative",
            restarted.cost_cumulative(),
            uninterrupted.cost_cumulative(),
        ),
    )?;
    for j in 0..restarted.scenario().fleet().num_idcs() {
        check(
            &format!("kill/restart: power[{j}] (bitwise)"),
            bitwise_f64(
                &format!("power_mw[{j}]"),
                restarted.power_mw(j),
                uninterrupted.power_mw(j),
            ),
        )?;
        check(
            &format!("kill/restart: servers[{j}]"),
            exact_u64(
                &format!("servers[{j}]"),
                restarted.servers(j),
                uninterrupted.servers(j),
            ),
        )?;
    }
    if restarted.degraded_steps() != uninterrupted.degraded_steps() {
        return Err(format!(
            "kill/restart: degraded steps {} vs {}",
            restarted.degraded_steps(),
            uninterrupted.degraded_steps()
        ));
    }
    if restarted.snapshot() != uninterrupted.snapshot() {
        return Err("kill/restart: final snapshots differ".into());
    }
    println!(
        "runtime_soak: kill/restart at step {}: byte-identical \
         ({} degraded steps replayed)",
        args.kill_step,
        uninterrupted.degraded_steps()
    );
    Ok(())
}

fn faulted_run_stays_sane(args: &Args) -> Result<(), String> {
    let mut stepper = Stepper::new(faulted_config(args)).map_err(|e| e.to_string())?;
    stepper.run(&mut SimClock).map_err(|e| e.to_string())?;
    if stepper.degraded_steps() == 0 {
        return Err("faulted run never degraded — fault injection inert?".into());
    }
    if !stepper.accumulated_cost().is_finite() || stepper.accumulated_cost() <= 0.0 {
        return Err(format!(
            "faulted run cost not finite-positive: {}",
            stepper.accumulated_cost()
        ));
    }
    println!(
        "runtime_soak: faulted run: {} / {} steps degraded, cost {:.2} $, latency ok {:.4}",
        stepper.degraded_steps(),
        stepper.num_steps(),
        stepper.accumulated_cost(),
        stepper.latency_ok_fraction()
    );
    Ok(())
}

/// Builds a tenant manager over `specs` sharing `registry`.
fn build_manager(
    specs: &[TenantSpec],
    args: &Args,
    root: &Path,
    registry: &Arc<MetricsRegistry>,
    resume: bool,
    kill_after: Option<u64>,
) -> Result<TenantManager, String> {
    let mut manager = TenantManager::with_registry(
        ManagerConfig {
            workers: args.workers,
            checkpoint_root: Some(root.to_path_buf()),
            resume,
            stop_after_total_steps: kill_after,
            ..ManagerConfig::default()
        },
        Arc::clone(registry),
    );
    for spec in specs {
        manager
            .add_tenant(spec.clone())
            .map_err(|e| format!("admitting '{}': {e}", spec.id))?;
    }
    Ok(manager)
}

/// The multi-tenant soak (see the module docs).
fn multi_soak(args: &Args) -> Result<(), String> {
    let steps = args.steps.unwrap_or(288);
    let specs = derive_tenants(args.tenants, args.seed, Some(steps));
    let expected_total = (args.tenants * steps) as u64;
    let temp_root;
    let root = match &args.checkpoint_root {
        Some(root) => root,
        None => {
            temp_root =
                std::env::temp_dir().join(format!("runtime_soak_tenants_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&temp_root);
            &temp_root
        }
    };
    let registry = Arc::new(MetricsRegistry::new());
    let mut total_steps = 0u64;
    let mut elapsed = 0.0f64;

    if !args.resume {
        let kill_after = match args.kill_after {
            Some(0) => None,
            Some(m) => Some(m),
            None => Some(expected_total / 2),
        };
        let mut fresh = build_manager(&specs, args, root, &registry, false, kill_after)?;
        let t0 = Instant::now();
        let report = fresh.run().map_err(|e| e.to_string())?;
        elapsed += t0.elapsed().as_secs_f64();
        total_steps += report.total_steps;
        if let Some(m) = kill_after {
            if m < expected_total && !report.killed {
                return Err(format!(
                    "kill switch at {m}/{expected_total} steps never fired"
                ));
            }
            println!(
                "runtime_soak: killed mid-soak after {} of {expected_total} steps",
                report.total_steps
            );
        }
        drop(fresh); // the "killed" process: only the lineages survive
    }

    // Resume every tenant from its newest restorable checkpoint and run
    // to completion.
    let mut manager = build_manager(&specs, args, root, &registry, true, None)?;
    let t0 = Instant::now();
    let report = manager.run().map_err(|e| e.to_string())?;
    elapsed += t0.elapsed().as_secs_f64();
    total_steps += report.total_steps;
    if report.killed {
        return Err("resumed soak hit the kill switch".to_string());
    }
    if let Some(unfinished) = report.tenants.iter().find(|t| !t.finished) {
        return Err(format!(
            "tenant '{}' unfinished at {}/{}",
            unfinished.id, unfinished.steps, unfinished.num_steps
        ));
    }

    // Byte-identity: every tenant must match an uninterrupted solo run of
    // its own spec — kill, resume and neighbours included.
    let mut simulated_hours = 0.0f64;
    for spec in &specs {
        let mut solo = Stepper::new(spec.config.clone()).map_err(|e| e.to_string())?;
        solo.run(&mut SimClock).map_err(|e| e.to_string())?;
        simulated_hours += solo.num_steps() as f64 * solo.scenario().ts_hours();
        if manager.snapshot(&spec.id) != Some(solo.snapshot()) {
            return Err(format!(
                "tenant '{}' final snapshot differs from its solo run",
                spec.id
            ));
        }
    }
    println!(
        "runtime_soak: {} tenants byte-identical to solo runs across kill/resume",
        specs.len()
    );

    // Fault-free tenants must never degrade; overloaded tenants must shed.
    for (spec, tenant) in specs.iter().zip(&report.tenants) {
        let fault_free = spec.config.workload_faults == FeedFaults::none()
            && spec.config.price_faults == FeedFaults::none();
        if fault_free && tenant.degraded_steps != 0 {
            return Err(format!(
                "fault-free tenant '{}' degraded {} times",
                tenant.id, tenant.degraded_steps
            ));
        }
        if spec.config.overload.is_active() && tenant.shed_workload + tenant.shed_price == 0 {
            return Err(format!(
                "overloaded tenant '{}' never shed — backpressure inert?",
                tenant.id
            ));
        }
    }
    println!("runtime_soak: degradations explained, overload backpressure engaged");
    println!(
        "runtime_soak: {total_steps} steps / {:.1} simulated days in {elapsed:.1}s \
         ({:.0} steps/sec, p50 {:.3} ms, p99 {:.3} ms)",
        simulated_hours / 24.0,
        total_steps as f64 / elapsed.max(1e-9),
        report.p50_step_ms,
        report.p99_step_ms
    );

    if args.checkpoint_root.is_none() {
        let _ = std::fs::remove_dir_all(root);
    }
    Ok(())
}

type Check = fn(&Args) -> Result<(), String>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("runtime_soak: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.tenants > 0 {
        return match multi_soak(&args) {
            Ok(()) => {
                println!("runtime_soak: all checks passed");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("runtime_soak: FAIL [multi_tenant]: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let checks: [(&str, Check); 3] = [
        ("batch_vs_online", batch_vs_online),
        ("kill_and_restart", kill_and_restart),
        ("faulted_run", faulted_run_stays_sane),
    ];
    for (name, run) in checks {
        if let Err(msg) = run(&args) {
            eprintln!("runtime_soak: FAIL [{name}]: {msg}");
            return ExitCode::FAILURE;
        }
    }
    println!("runtime_soak: all checks passed");
    ExitCode::SUCCESS
}
