//! `idc-daemon`: the online two-time-scale control daemon.
//!
//! Replays registered scenarios as a long-running process: streaming
//! workload/price feeds (optionally faulty), the MPC fast loop and the
//! eq. 35 slow loop paced by a wall clock at a configurable real-time
//! speedup, periodic checkpoints into per-tenant lineages, and a
//! Prometheus/JSON metrics endpoint. One fleet or many, every control loop
//! is a tenant of the same [`TenantManager`]: without `--tenants` the
//! daemon hosts one tenant built from its flags, whose id is the scenario
//! key. SIGTERM/SIGINT trigger a final checkpoint and a clean exit;
//! `--resume` restarts from the lineages bit-for-bit, and a run without it
//! empties its tenants' lineages first.
//!
//! ```text
//! idc-daemon --scenario noisy_day --speedup 0 --listen 127.0.0.1:9184 \
//!            --checkpoint-root /tmp/idc-ckpt --checkpoint-every 50
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use idc_runtime::feed::{FeedFaults, OverloadFaults};
use idc_runtime::http::MetricsServer;
use idc_runtime::registry::{scenario_by_key, SCENARIO_KEYS};
use idc_runtime::stepper::StepperConfig;
use idc_runtime::tenant::{derive_tenants, ManagerConfig, TenantManager, TenantSpec};

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
    checkpoint_every: u64,
    resume: bool,
    max_staleness: u64,
    fault_seed: u64,
    workload_drop: f64,
    workload_delay: u64,
    price_drop: f64,
    price_delay: u64,
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
            checkpoint_every: 50,
            resume: false,
            max_staleness: 3,
            fault_seed: 7,
            workload_drop: 0.0,
            workload_delay: 0,
            price_drop: 0.0,
            price_delay: 0,
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

Without --tenants the daemon hosts one tenant, whose id is the scenario
key, built from the scenario, seed, feed and checkpoint options.

OPTIONS:
  --scenario KEY         scenario to run (default: noisy_day)
  --seed N               workload-noise seed (default: 2012)
  --steps N              run length override in sampling periods
  --speedup X            real-time speedup; 0 = as fast as possible (default: 0)
  --listen ADDR          serve /metrics, /metrics.json, /healthz, /tenants
                         and /debug/trace on ADDR
  --checkpoint-root DIR  checkpoint lineages under DIR/<tenant>/ (written
                         atomically; default: no checkpoints)
  --checkpoint-every N   one-tenant checkpoint interval in steps; 0 = only
                         the final checkpoint (default: 50)
  --keep-last K          checkpoints retained per tenant lineage (default: 4)
  --resume               resume every tenant from its newest restorable
                         checkpoint under --checkpoint-root (the one-tenant
                         run fails without one); without it each tenant's
                         lineage is emptied and its run starts fresh
  --max-staleness N      feed staleness budget in ticks (default: 3)
  --fault-seed N         seed for the fault schedules (default: 7)
  --workload-drop P      workload-feed drop probability in [0,1] (default: 0)
  --workload-delay N     workload-feed max delivery delay in ticks (default: 0)
  --price-drop P         price-feed drop probability in [0,1] (default: 0)
  --price-delay N        price-feed max delivery delay in ticks (default: 0)
  --ingest-bound N       per-tick, per-feed admission bound; overflow is
                         shed and counted (default: 0 = unbounded)
  --tenants N            host N derived heterogeneous tenants instead of
                         the one-tenant run (default: 0); they bring their
                         own feed faults and checkpoint intervals
  --workers N            worker threads (default: 0 = one per available
                         CPU, capped at 8)
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
            "--speedup" => args.speedup = parsed(&mut it, "--speedup")?,
            "--listen" => args.listen = Some(value(&mut it, "--listen")?),
            "--checkpoint-every" => args.checkpoint_every = parsed(&mut it, "--checkpoint-every")?,
            "--resume" => args.resume = true,
            "--max-staleness" => args.max_staleness = parsed(&mut it, "--max-staleness")?,
            "--fault-seed" => args.fault_seed = parsed(&mut it, "--fault-seed")?,
            "--workload-drop" => args.workload_drop = parsed(&mut it, "--workload-drop")?,
            "--workload-delay" => args.workload_delay = parsed(&mut it, "--workload-delay")?,
            "--price-drop" => args.price_drop = parsed(&mut it, "--price-drop")?,
            "--price-delay" => args.price_delay = parsed(&mut it, "--price-delay")?,
            "--ingest-bound" => args.ingest_bound = parsed(&mut it, "--ingest-bound")?,
            "--tenants" => args.tenants = parsed(&mut it, "--tenants")?,
            "--workers" => args.workers = parsed(&mut it, "--workers")?,
            "--checkpoint-root" => {
                args.checkpoint_root = Some(PathBuf::from(value(&mut it, "--checkpoint-root")?));
            }
            "--keep-last" => args.keep_last = parsed(&mut it, "--keep-last")?,
            "--trace-capacity" => args.trace_capacity = Some(parsed(&mut it, "--trace-capacity")?),
            "--anomaly-log" => {
                args.anomaly_log = Some(PathBuf::from(value(&mut it, "--anomaly-log")?));
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if scenario_by_key(&args.scenario, 0, None).is_none() {
        return Err(format!(
            "unknown scenario '{}'; known: {} or scaled_<n>x<c>",
            args.scenario,
            SCENARIO_KEYS.join(", ")
        ));
    }
    if args.resume && args.checkpoint_root.is_none() {
        return Err("--resume needs --checkpoint-root DIR".to_string());
    }
    Ok(args)
}

/// The one tenant the daemon hosts without `--tenants`, built from its
/// flags.
fn one_tenant(args: &Args) -> TenantSpec {
    TenantSpec {
        id: args.scenario.clone(),
        config: StepperConfig {
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
            backend: None,
            ingest_bound: args.ingest_bound,
            overload: OverloadFaults::none(),
        },
        speedup: args.speedup,
        checkpoint_every: args.checkpoint_every,
    }
}

/// Hosts the tenants, serves their metrics and `/tenants` status, and
/// prints the run's report as JSON.
fn run(args: &Args) -> Result<(), String> {
    install_signal_handlers();
    if let Some(capacity) = args.trace_capacity {
        idc_obs::install_global_recorder(capacity);
        eprintln!("idc-daemon: flight recorder enabled ({capacity} spans, /debug/trace)");
    }
    if let Some(path) = &args.anomaly_log {
        idc_obs::set_anomaly_log(path)
            .map_err(|e| format!("cannot open anomaly log {}: {e}", path.display()))?;
    }
    let mut manager = TenantManager::new(ManagerConfig {
        workers: args.workers,
        checkpoint_root: args.checkpoint_root.clone(),
        keep_last: args.keep_last,
        resume: args.resume,
        ..ManagerConfig::default()
    });
    let specs = if args.tenants > 0 {
        let mut specs = derive_tenants(args.tenants, args.seed, args.steps);
        for spec in &mut specs {
            spec.speedup = args.speedup;
        }
        specs
    } else {
        vec![one_tenant(args)]
    };
    let mut resumed = 0usize;
    for spec in specs {
        if manager.add_tenant(spec).map_err(|e| e.to_string())? {
            resumed += 1;
        }
    }
    // A one-tenant resume with nothing to resume from names a wrong root
    // or scenario; starting fresh would hide that.
    if args.resume && args.tenants == 0 && resumed == 0 {
        let root = args.checkpoint_root.clone().unwrap_or_default();
        return Err(format!(
            "cannot resume: {} holds no restorable checkpoint",
            root.join(&args.scenario).display()
        ));
    }
    eprintln!(
        "idc-daemon: hosting {} tenant(s) ({resumed} resumed from checkpoints)",
        manager.num_tenants()
    );

    let server = match &args.listen {
        Some(addr) => {
            let board = manager.status_board();
            let s = MetricsServer::start_with_status(
                addr,
                manager.registry(),
                Arc::new(move |id: &str| board.render(id)),
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("idc-daemon: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("idc-daemon: error: {msg}");
            ExitCode::FAILURE
        }
    }
}
