//! `idc-daemon`: the online two-time-scale control daemon.
//!
//! Replays a registered scenario as a long-running process: streaming
//! workload/price feeds (optionally faulty), the MPC fast loop and the
//! eq. 35 slow loop paced by a wall clock at a configurable real-time
//! speedup, periodic atomic checkpoints, and a Prometheus/JSON metrics
//! endpoint. SIGTERM/SIGINT trigger a final checkpoint and a clean exit;
//! `--resume` restarts from the checkpoint bit-for-bit.
//!
//! ```text
//! idc-daemon --scenario noisy_day --speedup 0 --listen 127.0.0.1:9184 \
//!            --snapshot /tmp/idc.snap --snapshot-interval 50
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use idc_core::clock::{Clock, WallClock};
use idc_runtime::feed::{FeedFaults, OverloadFaults};
use idc_runtime::http::MetricsServer;
use idc_runtime::metrics::MetricsRegistry;
use idc_runtime::registry::{scenario_by_key, SCENARIO_KEYS};
use idc_runtime::snapshot::RuntimeSnapshot;
use idc_runtime::stepper::{Stepper, StepperConfig};
use idc_runtime::tenant::{derive_tenants, ManagerConfig, TenantManager};

/// Set by the signal handler; checked between steps.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGINT (2) and SIGTERM (15) via the libc
/// `signal(2)` symbol — declared by hand because the workspace vendors no
/// `libc` crate. Storing to an atomic is async-signal-safe.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(2, on_signal as *const () as usize);
        signal(15, on_signal as *const () as usize);
    }
}

#[derive(Debug)]
struct Args {
    scenario: String,
    seed: u64,
    steps: Option<usize>,
    speedup: f64,
    listen: Option<String>,
    snapshot: Option<PathBuf>,
    snapshot_interval: u64,
    resume: bool,
    max_staleness: u64,
    fault_seed: u64,
    workload_drop: f64,
    workload_delay: u64,
    price_drop: f64,
    price_delay: u64,
    backend: Option<String>,
    ingest_bound: usize,
    trace_capacity: Option<usize>,
    anomaly_log: Option<PathBuf>,
    tenants: usize,
    workers: usize,
    checkpoint_root: Option<PathBuf>,
    keep_last: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scenario: "noisy_day".to_string(),
            seed: 2012,
            steps: None,
            speedup: 0.0,
            listen: None,
            snapshot: None,
            snapshot_interval: 50,
            resume: false,
            max_staleness: 3,
            fault_seed: 7,
            workload_drop: 0.0,
            workload_delay: 0,
            price_drop: 0.0,
            price_delay: 0,
            backend: None,
            ingest_bound: 0,
            trace_capacity: None,
            anomaly_log: None,
            tenants: 0,
            workers: 0,
            checkpoint_root: None,
            keep_last: 4,
        }
    }
}

const USAGE: &str = "\
idc-daemon: online two-time-scale IDC control daemon

USAGE: idc-daemon [OPTIONS]

OPTIONS:
  --scenario KEY         scenario to run (default: noisy_day)
  --seed N               workload-noise seed (default: 2012)
  --steps N              run length override in sampling periods
  --speedup X            real-time speedup; 0 = as fast as possible (default: 0)
  --listen ADDR          serve /metrics, /metrics.json, /healthz on ADDR
  --snapshot PATH        checkpoint file (written atomically)
  --snapshot-interval N  checkpoint every N steps (default: 50)
  --resume               restore from --snapshot instead of starting fresh
  --max-staleness N      feed staleness budget in ticks (default: 3)
  --fault-seed N         seed for the fault schedules (default: 7)
  --workload-drop P      workload-feed drop probability in [0,1] (default: 0)
  --workload-delay N     workload-feed max delivery delay in ticks (default: 0)
  --price-drop P         price-feed drop probability in [0,1] (default: 0)
  --price-delay N        price-feed max delivery delay in ticks (default: 0)
  --backend LABEL        solver backend: banded (default: banded)
  --ingest-bound N       per-tick, per-feed admission bound; overflow is
                         shed and counted (default: 0 = unbounded)
  --tenants N            multi-tenant mode: host N heterogeneous control
                         loops on a shared worker pool (default: 0 = the
                         classic single-fleet loop)
  --workers N            worker threads in multi-tenant mode
                         (default: 0 = one per available CPU, capped at 8)
  --checkpoint-root DIR  per-tenant checkpoint lineages under DIR/<tenant>/
                         (multi-tenant mode; implies periodic checkpoints)
  --keep-last K          checkpoints retained per tenant lineage (default: 4)
  --trace-capacity N     enable the span flight recorder, keeping the last
                         N spans (served at /debug/trace as a Chrome trace)
  --anomaly-log PATH     append JSONL anomaly records (solver failures,
                         fallback degradations, iteration spikes) to PATH
  --help                 print this help
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scenario" => args.scenario = value(&mut it, "--scenario")?,
            "--seed" => {
                args.seed = value(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--steps" => {
                args.steps = Some(
                    value(&mut it, "--steps")?
                        .parse()
                        .map_err(|e| format!("--steps: {e}"))?,
                );
            }
            "--speedup" => {
                args.speedup = value(&mut it, "--speedup")?
                    .parse()
                    .map_err(|e| format!("--speedup: {e}"))?;
            }
            "--listen" => args.listen = Some(value(&mut it, "--listen")?),
            "--snapshot" => args.snapshot = Some(PathBuf::from(value(&mut it, "--snapshot")?)),
            "--snapshot-interval" => {
                args.snapshot_interval = value(&mut it, "--snapshot-interval")?
                    .parse()
                    .map_err(|e| format!("--snapshot-interval: {e}"))?;
            }
            "--resume" => args.resume = true,
            "--max-staleness" => {
                args.max_staleness = value(&mut it, "--max-staleness")?
                    .parse()
                    .map_err(|e| format!("--max-staleness: {e}"))?;
            }
            "--fault-seed" => {
                args.fault_seed = value(&mut it, "--fault-seed")?
                    .parse()
                    .map_err(|e| format!("--fault-seed: {e}"))?;
            }
            "--workload-drop" => {
                args.workload_drop = value(&mut it, "--workload-drop")?
                    .parse()
                    .map_err(|e| format!("--workload-drop: {e}"))?;
            }
            "--workload-delay" => {
                args.workload_delay = value(&mut it, "--workload-delay")?
                    .parse()
                    .map_err(|e| format!("--workload-delay: {e}"))?;
            }
            "--price-drop" => {
                args.price_drop = value(&mut it, "--price-drop")?
                    .parse()
                    .map_err(|e| format!("--price-drop: {e}"))?;
            }
            "--price-delay" => {
                args.price_delay = value(&mut it, "--price-delay")?
                    .parse()
                    .map_err(|e| format!("--price-delay: {e}"))?;
            }
            "--backend" => args.backend = Some(value(&mut it, "--backend")?),
            "--ingest-bound" => {
                args.ingest_bound = value(&mut it, "--ingest-bound")?
                    .parse()
                    .map_err(|e| format!("--ingest-bound: {e}"))?;
            }
            "--tenants" => {
                args.tenants = value(&mut it, "--tenants")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?;
            }
            "--workers" => {
                args.workers = value(&mut it, "--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--checkpoint-root" => {
                args.checkpoint_root = Some(PathBuf::from(value(&mut it, "--checkpoint-root")?));
            }
            "--keep-last" => {
                args.keep_last = value(&mut it, "--keep-last")?
                    .parse()
                    .map_err(|e| format!("--keep-last: {e}"))?;
            }
            "--trace-capacity" => {
                args.trace_capacity = Some(
                    value(&mut it, "--trace-capacity")?
                        .parse()
                        .map_err(|e| format!("--trace-capacity: {e}"))?,
                );
            }
            "--anomaly-log" => {
                args.anomaly_log = Some(PathBuf::from(value(&mut it, "--anomaly-log")?));
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (see --help)")),
        }
    }
    if scenario_by_key(&args.scenario, 0, None).is_none() {
        return Err(format!(
            "unknown scenario '{}'; known: {} or scaled_<n>x<c>",
            args.scenario,
            SCENARIO_KEYS.join(", ")
        ));
    }
    if args.resume && args.snapshot.is_none() && args.checkpoint_root.is_none() {
        return Err(
            "--resume needs --snapshot PATH (or --checkpoint-root in multi-tenant mode)"
                .to_string(),
        );
    }
    if args.tenants > 0 && args.resume && args.checkpoint_root.is_none() {
        return Err("--resume with --tenants needs --checkpoint-root DIR".to_string());
    }
    Ok(args)
}

fn build_stepper(args: &Args) -> Result<Stepper, String> {
    if args.resume {
        let path = args.snapshot.as_deref().expect("validated in parse_args");
        let snapshot = RuntimeSnapshot::read(path)
            .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
        eprintln!(
            "idc-daemon: resuming '{}' at step {}/{} from {}",
            snapshot.scenario_key,
            snapshot.step,
            snapshot.num_steps,
            path.display()
        );
        Stepper::restore(&snapshot).map_err(|e| e.to_string())
    } else {
        Stepper::new(StepperConfig {
            scenario_key: args.scenario.clone(),
            seed: args.seed,
            num_steps: args.steps,
            max_staleness_ticks: args.max_staleness,
            workload_faults: FeedFaults::new(
                args.fault_seed,
                args.workload_drop,
                args.workload_delay,
            ),
            price_faults: FeedFaults::new(
                args.fault_seed.wrapping_add(1),
                args.price_drop,
                args.price_delay,
            ),
            backend: args.backend.clone(),
            ingest_bound: args.ingest_bound,
            overload: OverloadFaults::none(),
        })
        .map_err(|e| e.to_string())
    }
}

fn write_snapshot(
    stepper: &Stepper,
    path: &std::path::Path,
    m: &MetricsRegistry,
) -> Result<(), String> {
    stepper
        .snapshot()
        .write_atomic(path)
        .map_err(|e| format!("checkpoint to {}: {e}", path.display()))?;
    m.inc_counter("idc_snapshots_written_total", 1);
    Ok(())
}

fn summary_json(stepper: &Stepper, interrupted: bool) -> String {
    use serde::Value;
    let per_idc_power = Value::Array(
        stepper
            .scenario()
            .fleet()
            .idcs()
            .iter()
            .enumerate()
            .map(|(j, idc)| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(idc.name().to_string())),
                    (
                        "final_power_mw".to_string(),
                        Value::Number(stepper.power_mw(j).last().copied().unwrap_or(0.0)),
                    ),
                ])
            })
            .collect(),
    );
    let root = Value::Object(vec![
        (
            "scenario".to_string(),
            Value::String(stepper.scenario().name().to_string()),
        ),
        (
            "steps_done".to_string(),
            Value::Number(stepper.step() as f64),
        ),
        (
            "steps_total".to_string(),
            Value::Number(stepper.num_steps() as f64),
        ),
        ("interrupted".to_string(), Value::Bool(interrupted)),
        (
            "accumulated_cost_dollars".to_string(),
            Value::Number(stepper.accumulated_cost()),
        ),
        (
            "degraded_steps".to_string(),
            Value::Number(stepper.degraded_steps() as f64),
        ),
        (
            "latency_ok_fraction".to_string(),
            Value::Number(stepper.latency_ok_fraction()),
        ),
        ("per_idc".to_string(), per_idc_power),
    ]);
    serde_json::to_string(&root).expect("summary is finite")
}

/// The multi-tenant daemon path: host `--tenants N` derived control loops
/// on the shared worker pool, serve per-tenant metrics plus `/tenants`
/// status, checkpoint into per-tenant lineages and resume from them.
fn run_multi(args: &Args) -> Result<(), String> {
    let mut manager = TenantManager::new(ManagerConfig {
        workers: args.workers,
        checkpoint_root: args.checkpoint_root.clone(),
        keep_last: args.keep_last,
        resume: args.resume,
        ..ManagerConfig::default()
    });
    let metrics = Arc::new(MetricsRegistry::new());
    manager.attach_metrics(Arc::clone(&metrics));
    let mut resumed = 0usize;
    for mut spec in derive_tenants(args.tenants, args.seed, args.steps) {
        spec.speedup = args.speedup;
        if manager.add_tenant(spec).map_err(|e| e.to_string())? {
            resumed += 1;
        }
    }
    eprintln!(
        "idc-daemon: hosting {} tenants ({resumed} resumed from checkpoints)",
        manager.num_tenants()
    );

    let server = match &args.listen {
        Some(addr) => {
            let board = manager.status_board();
            let s = MetricsServer::start_with_status(
                addr,
                Arc::clone(&metrics),
                Arc::new(move |id: &str| {
                    if id.is_empty() {
                        Some(board.render_json())
                    } else {
                        board.render_tenant_json(id)
                    }
                }),
            )
            .map_err(|e| e.to_string())?;
            eprintln!(
                "idc-daemon: metrics on http://{}/metrics (/tenants for status)",
                s.addr()
            );
            Some(s)
        }
        None => None,
    };

    let report = manager.run_until(&SHUTDOWN).map_err(|e| e.to_string())?;
    if let Some(server) = server {
        server.shutdown();
    }
    println!(
        "{}",
        serde_json::to_string(&report).expect("report serializes")
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    install_signal_handlers();
    if let Some(capacity) = args.trace_capacity {
        idc_obs::install_global_recorder(capacity);
        eprintln!("idc-daemon: flight recorder enabled ({capacity} spans, /debug/trace)");
    }
    if let Some(path) = &args.anomaly_log {
        idc_obs::set_anomaly_log(path)
            .map_err(|e| format!("cannot open anomaly log {}: {e}", path.display()))?;
    }
    if args.tenants > 0 {
        return run_multi(&args);
    }

    let mut stepper = build_stepper(&args)?;
    let metrics = Arc::new(MetricsRegistry::new());
    stepper.attach_metrics(Arc::clone(&metrics));

    let server = match &args.listen {
        Some(addr) => {
            let s = MetricsServer::start(addr, Arc::clone(&metrics)).map_err(|e| e.to_string())?;
            eprintln!("idc-daemon: metrics on http://{}/metrics", s.addr());
            Some(s)
        }
        None => None,
    };

    let mut clock = WallClock::new(stepper.scenario().ts_hours(), args.speedup);
    let mut interrupted = false;
    while !stepper.is_finished() {
        if SHUTDOWN.load(Ordering::SeqCst) {
            interrupted = true;
            break;
        }
        clock.wait_for_step(stepper.step());
        stepper.step_once().map_err(|e| e.to_string())?;
        if let Some(path) = &args.snapshot {
            let k = stepper.step();
            if args.snapshot_interval > 0 && k.is_multiple_of(args.snapshot_interval) {
                write_snapshot(&stepper, path, &metrics)?;
            }
        }
    }

    // Final checkpoint: on clean completion *and* on SIGTERM/SIGINT, so a
    // restart with --resume continues (or confirms completion) either way.
    if let Some(path) = &args.snapshot {
        write_snapshot(&stepper, path, &metrics)?;
        eprintln!("idc-daemon: checkpoint written to {}", path.display());
    }
    if let Some(server) = server {
        server.shutdown();
    }
    println!("{}", summary_json(&stepper, interrupted));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("idc-daemon: error: {msg}");
            ExitCode::FAILURE
        }
    }
}
