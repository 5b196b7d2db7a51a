//! The multi-tenant control plane: N independent control loops multiplexed
//! over a thread-per-shard worker pool by a time-ordered ready queue.
//!
//! # Model
//!
//! A *tenant* is one fleet under control: its own [`Stepper`] (scenario,
//! policy, feeds, fault layer), its own pacing clock, and — when a
//! checkpoint root is configured — its own [`CheckpointLineage`]. Tenants
//! share nothing but threads and the metrics registry, so a tenant's
//! trajectory is a pure function of its [`StepperConfig`]: the same spec
//! produces byte-identical snapshots whether it runs solo, with 99
//! neighbours, or under any worker count.
//!
//! # Scheduling
//!
//! The manager keeps a time-ordered ready queue (a min-heap on each
//! tenant's next due instant, from [`Clock::due_in`]) guarded by a mutex
//! and condvar. Workers pop the earliest due tenant, take exclusive
//! ownership of its cell, run a bounded *slice* of steps (up to
//! `slice_steps`, stopping early when the tenant's clock says the next
//! step is not yet due), then park it back on the queue. A worker that
//! finds the earliest tenant not yet due sleeps on the condvar with a
//! timeout of exactly the remaining lead time — no polling, no
//! thread-per-tenant.
//!
//! # Admission, backpressure, kill
//!
//! [`add_tenant`](TenantManager::add_tenant) enforces the tenant cap and
//! id uniqueness; per-feed backpressure is the stepper's own
//! [`idc_core::feed::BoundedIngest`] (bounded per-tick queues with shed
//! counters). `stop_after_total_steps` is a deterministic in-process kill
//! switch: once the global step budget is spent, workers stop mid-soak
//! without final checkpoints — exactly what `kill -9` leaves behind —
//! and a resumed manager picks every tenant up from its newest
//! restorable checkpoint.
//!
//! # Checkpoint writers
//!
//! A checkpoint spends most of its time in `fsync`, so workers do not
//! write it. At a checkpoint the worker takes the tenant's snapshot and
//! hands it to one of a fixed pool of writer threads, picked by tenant
//! index, so each tenant's checkpoints are recorded in step order through
//! the one [`CheckpointLineage::record`] path (tmp, fsync, rename, then
//! compaction). Each writer's queue is bounded: a slow disk makes the
//! workers wait instead of growing memory.
//!
//! - *Durable-only reporting.* `idc_tenant_checkpoints_total` and a
//!   tenant's `last_checkpoint_step` advance only after `record` returns.
//! - *Failures.* A write error becomes the run's failure, named after the
//!   tenant; workers stop at their next slice boundary and
//!   [`run`](TenantManager::run) returns the error even when every worker
//!   had already finished.
//! - *Drain on return.* The writers are joined before `run` returns, on
//!   every exit — finish, kill switch, stop or failure — so the lineage
//!   directories on return hold every checkpoint taken, exactly as if the
//!   workers had written them themselves.

use std::collections::BinaryHeap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use idc_core::clock::{Clock, WallClock};
use serde::Serialize;

use crate::error::Error;
use crate::feed::{FeedFaults, OverloadFaults};
use crate::lineage::CheckpointLineage;
use crate::metrics::MetricsRegistry;
use crate::snapshot::RuntimeSnapshot;
use crate::stepper::{Stepper, StepperConfig};
use crate::Result;

/// Bucket bounds (seconds) for the per-tenant step-latency histograms.
const TENANT_STEP_BOUNDS: [f64; 8] = [0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1, 1.0];

/// Checkpoint writer threads of a run. Their records overlap in `fsync`:
/// one writer serialises the waits and gains nothing on `daemon_64`, and
/// eight measured slower than four on a 2-vCPU host.
const WRITERS: usize = 4;

/// Checkpoints queued per writer before a worker handing it one more
/// waits.
const WRITER_QUEUE: usize = 16;

/// One tenant's specification: identity, control-loop config, pacing and
/// checkpoint cadence.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Unique tenant id (also the checkpoint subdirectory name).
    pub id: String,
    /// The tenant's control-loop configuration.
    pub config: StepperConfig,
    /// Wall-clock speedup for this tenant's pacing; `<= 0` means "as fast
    /// as possible" (every step immediately due).
    pub speedup: f64,
    /// Steps between checkpoints (0 = only the final checkpoint, and only
    /// when a checkpoint root is configured).
    pub checkpoint_every: u64,
}

impl TenantSpec {
    /// A maximum-speed tenant with no periodic checkpoints.
    pub fn max_speed(id: impl Into<String>, config: StepperConfig) -> Self {
        TenantSpec {
            id: id.into(),
            config,
            speedup: 0.0,
            checkpoint_every: 0,
        }
    }
}

/// Scenario keys cycled by [`derive_tenants`]: nine of the canned
/// scenarios — the battery (`storage_peak_shaving`) and the billed-peak
/// tariff (`demand_charge`) among them — interleaved with parametric
/// scaled fleets, so a derived population mixes sizes (2×2 up to 5×4),
/// market models, plant features and fault layers.
const DERIVE_MIX: [&str; 12] = [
    "smoothing",
    "noisy_day",
    "scaled_4x3",
    "diurnal_day",
    "scaled_2x2",
    "mmpp_hour",
    "peak_shaving",
    "scaled_5x4",
    "smoothing_table_ii",
    "smoothing_faulty_price",
    "storage_peak_shaving",
    "demand_charge",
];

/// Derives `n` heterogeneous tenant specs from `base_seed`: scenario keys
/// cycle through a fixed mix of twelve (nine canned scenarios, the battery
/// and the billed-peak tariff among them, and three scaled fleets),
/// solver-backend labels alternate between the default and an explicit
/// `banded`, every third tenant runs under
/// transport feed faults, and every fifth under an
/// [`OverloadFaults::derived`] burst schedule with its matching ingest
/// bound. `num_steps` overrides every tenant's run length (useful
/// for multi-week soaks and fast tests alike). Deterministic: the same
/// `(n, base_seed, num_steps)` always derives the same population.
pub fn derive_tenants(n: usize, base_seed: u64, num_steps: Option<usize>) -> Vec<TenantSpec> {
    let backends: [Option<&str>; 2] = [None, Some("banded")];
    (0..n)
        .map(|i| {
            let seed = base_seed.wrapping_add((i as u64).wrapping_mul(7919));
            let mut config = StepperConfig::fault_free(DERIVE_MIX[i % DERIVE_MIX.len()], seed);
            config.num_steps = num_steps;
            config.max_staleness_ticks = 2 + (i as u64 % 4);
            config.backend = backends[i % backends.len()].map(str::to_string);
            if i % 3 == 2 {
                config.workload_faults = FeedFaults::new(seed ^ 0xF00D, 0.10, 2);
                config.price_faults = FeedFaults::new(seed ^ 0xBEEF, 0.10, 2);
            }
            if i % 5 == 4 {
                (config.overload, config.ingest_bound) = OverloadFaults::derived(seed);
            }
            TenantSpec {
                id: format!("t-{i:03}"),
                config,
                speedup: 0.0,
                checkpoint_every: 16 + (i as u64 % 5) * 8,
            }
        })
        .collect()
}

/// Manager-level configuration.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Worker threads (0 = available parallelism, capped at 8).
    pub workers: usize,
    /// Maximum steps one worker runs a tenant for before re-queueing it
    /// (0 = the default of 8). Bounds scheduling latency under skewed
    /// tenant sizes.
    pub slice_steps: u64,
    /// Root directory for per-tenant checkpoint lineages (`<root>/<id>/`);
    /// `None` disables checkpointing.
    pub checkpoint_root: Option<PathBuf>,
    /// Checkpoints retained per tenant (see [`CheckpointLineage`]).
    pub keep_last: usize,
    /// Admission cap: [`TenantManager::add_tenant`] refuses tenants beyond
    /// this count (0 = unlimited).
    pub max_tenants: usize,
    /// Resume tenants from their newest restorable checkpoint when one
    /// exists under the checkpoint root.
    pub resume: bool,
    /// Deterministic kill switch: stop the whole manager after this many
    /// steps summed across tenants, leaving checkpoints exactly as a
    /// `kill -9` would.
    pub stop_after_total_steps: Option<u64>,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            workers: 0,
            slice_steps: 8,
            checkpoint_root: None,
            keep_last: 4,
            max_tenants: 0,
            resume: false,
            stop_after_total_steps: None,
        }
    }
}

/// A tenant's live status, published to the status board after every
/// slice (served on the daemon's `/tenants` route).
#[derive(Debug, Clone, Serialize)]
pub struct TenantStatus {
    /// Tenant id.
    pub id: String,
    /// Scenario registry key.
    pub scenario_key: String,
    /// Steps completed.
    pub step: u64,
    /// Total steps of the run.
    pub num_steps: u64,
    /// Whether the run has consumed every step.
    pub finished: bool,
    /// Accumulated electricity cost ($).
    pub cost_dollars: f64,
    /// Steps served by the staleness fallback.
    pub degraded_steps: u64,
    /// Workload observations shed by feed admission control.
    pub shed_workload: u64,
    /// Price observations shed by feed admission control.
    pub shed_price: u64,
    /// Step at which the newest checkpoint was recorded; `null` until the
    /// tenant has checkpointed (or resumed from one).
    pub last_checkpoint_step: Option<u64>,
}

/// A cloneable, thread-safe view of every tenant's latest status.
#[derive(Debug, Clone, Default)]
pub struct StatusBoard {
    inner: Arc<Mutex<Vec<TenantStatus>>>,
}

impl StatusBoard {
    /// Every tenant's latest status, in admission order.
    pub fn statuses(&self) -> Vec<TenantStatus> {
        self.inner.lock().expect("status board mutex").clone()
    }

    /// The board as a JSON array (the `/tenants` response body).
    pub fn render_json(&self) -> String {
        serde_json::to_string(&self.statuses()).expect("statuses serialize")
    }

    /// The latest status of one tenant, by id.
    pub fn status_of(&self, id: &str) -> Option<TenantStatus> {
        self.inner
            .lock()
            .expect("status board mutex")
            .iter()
            .find(|s| s.id == id)
            .cloned()
    }

    /// One tenant's status as a JSON object (the `/tenants/<id>` response
    /// body); `None` for an unknown id.
    pub fn render_tenant_json(&self, id: &str) -> Option<String> {
        self.status_of(id)
            .map(|s| serde_json::to_string(&s).expect("status serializes"))
    }

    fn push(&self, status: TenantStatus) {
        self.inner.lock().expect("status board mutex").push(status);
    }

    fn update(&self, idx: usize, f: impl FnOnce(&mut TenantStatus)) {
        f(&mut self.inner.lock().expect("status board mutex")[idx]);
    }
}

/// Per-tenant outcome of a soak, for reports and `BENCH_runtime.json`.
#[derive(Debug, Clone, Serialize)]
pub struct TenantReport {
    /// Tenant id.
    pub id: String,
    /// Scenario registry key.
    pub scenario_key: String,
    /// Solver-backend label (`null` = paper default).
    pub backend: Option<String>,
    /// Steps completed.
    pub steps: u64,
    /// Total steps of the run.
    pub num_steps: u64,
    /// Whether the run completed.
    pub finished: bool,
    /// Accumulated electricity cost ($).
    pub cost_dollars: f64,
    /// Steps served by the staleness fallback.
    pub degraded_steps: u64,
    /// Workload observations shed by admission control.
    pub shed_workload: u64,
    /// Price observations shed by admission control.
    pub shed_price: u64,
    /// Median step latency (ms).
    pub p50_step_ms: f64,
    /// 99th-percentile step latency (ms).
    pub p99_step_ms: f64,
}

/// Whole-soak outcome.
#[derive(Debug, Clone, Serialize)]
pub struct SoakReport {
    /// Per-tenant outcomes, in admission order.
    pub tenants: Vec<TenantReport>,
    /// Steps executed across all tenants (this run only — resumed steps
    /// count from the resume point).
    pub total_steps: u64,
    /// Whether the deterministic kill switch fired.
    pub killed: bool,
    /// Aggregate median step latency across tenants (ms).
    pub p50_step_ms: f64,
    /// Aggregate 99th-percentile step latency across tenants (ms).
    pub p99_step_ms: f64,
}

/// One hosted tenant: spec, control loop, pacing clock, lineage.
#[derive(Debug)]
struct TenantCell {
    spec: TenantSpec,
    stepper: Stepper,
    clock: WallClock,
    /// Shared with the writer a checkpoint is queued on.
    lineage: Option<Arc<CheckpointLineage>>,
    keys: TenantKeys,
}

/// A tenant's labelled metric keys, formatted once at admission.
#[derive(Debug)]
struct TenantKeys {
    step_duration: String,
    steps: String,
    degraded: String,
    shed: String,
    cost: String,
}

impl TenantKeys {
    fn new(id: &str) -> Self {
        TenantKeys {
            step_duration: tenant_key("idc_tenant_step_duration_seconds", id),
            steps: tenant_key("idc_tenant_steps_total", id),
            degraded: tenant_key("idc_tenant_degraded_steps_total", id),
            shed: tenant_key("idc_tenant_shed_total", id),
            cost: tenant_key("idc_tenant_cost_dollars", id),
        }
    }
}

/// One checkpoint on its way from a worker to a writer.
struct Checkpoint {
    idx: usize,
    lineage: Arc<CheckpointLineage>,
    snapshot: RuntimeSnapshot,
}

/// How a slice ended.
enum SliceOutcome {
    /// Not finished; due again at the instant carried.
    Parked(Instant),
    /// Ran its final step (final checkpoint written).
    Finished,
    /// The global step budget ran out mid-slice (no checkpoint — this is
    /// the `kill -9` simulation).
    Killed,
    /// The external stop flag was raised (graceful; the manager writes
    /// final checkpoints after the workers drain).
    Stopped,
}

/// Scheduler state under the mutex.
struct SchedState {
    ready: BinaryHeap<Slot>,
    cells: Vec<Option<TenantCell>>,
    live: usize,
    failure: Option<Error>,
}

/// A ready-queue entry: min-heap on due instant, tenant index as a
/// deterministic tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    due: Instant,
    idx: usize,
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-due first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Everything the workers share.
struct Shared<'a> {
    state: Mutex<SchedState>,
    cv: Condvar,
    budget: AtomicU64,
    killed: AtomicBool,
    stop: &'a AtomicBool,
    total: AtomicU64,
}

impl Shared<'_> {
    /// Consumes one unit of the global step budget; on exhaustion flips
    /// the kill flag and reports `false`.
    fn take_budget(&self) -> bool {
        if self
            .budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
            .is_ok()
        {
            true
        } else {
            self.killed.store(true, Ordering::SeqCst);
            false
        }
    }
}

/// The multi-tenant manager. See the module docs for the model.
#[derive(Debug)]
pub struct TenantManager {
    config: ManagerConfig,
    cells: Vec<TenantCell>,
    registry: Arc<MetricsRegistry>,
    board: StatusBoard,
}

/// Formats a per-tenant metric key with its `tenant` label.
fn tenant_key(base: &str, id: &str) -> String {
    format!("{base}{{tenant=\"{id}\"}}")
}

impl TenantManager {
    /// An empty manager.
    pub fn new(config: ManagerConfig) -> Self {
        TenantManager {
            config,
            cells: Vec::new(),
            registry: Arc::new(MetricsRegistry::new()),
            board: StatusBoard::default(),
        }
    }

    /// Replaces the metrics registry (call before [`run`](Self::run), e.g.
    /// with the registry the HTTP endpoint serves).
    pub fn attach_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.registry = registry;
    }

    /// The registry the manager publishes into.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// A cloneable handle to the per-tenant status board (wire it to the
    /// `/tenants` route before running).
    pub fn status_board(&self) -> StatusBoard {
        self.board.clone()
    }

    /// Hosted tenant count.
    pub fn num_tenants(&self) -> usize {
        self.cells.len()
    }

    /// Admits a tenant. With a checkpoint root configured, opens (and
    /// garbage-collects) the tenant's lineage; with `resume` set and a
    /// restorable checkpoint present, the tenant resumes from it instead
    /// of starting fresh. Returns whether it resumed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the admission cap is reached or the
    /// id is already hosted, and propagates stepper/lineage failures.
    pub fn add_tenant(&mut self, spec: TenantSpec) -> Result<bool> {
        if self.config.max_tenants > 0 && self.cells.len() >= self.config.max_tenants {
            return Err(Error::Config(format!(
                "admission refused: tenant cap {} reached",
                self.config.max_tenants
            )));
        }
        if self.cells.iter().any(|c| c.spec.id == spec.id) {
            return Err(Error::Config(format!(
                "admission refused: tenant id '{}' already hosted",
                spec.id
            )));
        }
        let lineage = match &self.config.checkpoint_root {
            Some(root) => Some(Arc::new(CheckpointLineage::open(
                root.join(&spec.id),
                self.config.keep_last,
            )?)),
            None => None,
        };
        let mut resumed = false;
        let stepper = match lineage
            .as_ref()
            .filter(|_| self.config.resume)
            .map(|l| l.latest_restorable())
            .transpose()?
            .flatten()
        {
            Some((_, snapshot)) => {
                resumed = true;
                Stepper::restore(&snapshot)?
            }
            None => Stepper::new(spec.config.clone())?,
        };
        let clock = WallClock::new(stepper.scenario().ts_hours(), spec.speedup);
        self.board.push(TenantStatus {
            id: spec.id.clone(),
            scenario_key: spec.config.scenario_key.clone(),
            step: stepper.step(),
            num_steps: stepper.num_steps(),
            finished: stepper.is_finished(),
            cost_dollars: stepper.accumulated_cost(),
            degraded_steps: stepper.degraded_steps(),
            shed_workload: stepper.shed_observations().0,
            shed_price: stepper.shed_observations().1,
            last_checkpoint_step: resumed.then(|| stepper.step()),
        });
        let keys = TenantKeys::new(&spec.id);
        self.cells.push(TenantCell {
            spec,
            stepper,
            clock,
            lineage,
            keys,
        });
        Ok(resumed)
    }

    /// The current snapshot of tenant `id` (its complete resume state).
    pub fn snapshot(&self, id: &str) -> Option<RuntimeSnapshot> {
        self.cells
            .iter()
            .find(|c| c.spec.id == id)
            .map(|c| c.stepper.snapshot())
    }

    /// Runs every tenant to completion (or until the kill switch fires),
    /// multiplexed over the worker pool. Reentrant: a second `run` after a
    /// kill continues from the in-memory state.
    ///
    /// # Errors
    ///
    /// Returns the first tenant failure; the other tenants stop at their
    /// next slice boundary with their state intact.
    pub fn run(&mut self) -> Result<SoakReport> {
        self.run_until(&AtomicBool::new(false))
    }

    /// Like [`run`](Self::run), additionally draining the workers as soon
    /// as `stop` is raised (a SIGTERM/SIGINT handler's flag). Unlike the
    /// `stop_after_total_steps` kill switch, a graceful stop writes a
    /// final checkpoint for every unfinished tenant before returning.
    /// Either way every checkpoint the workers queued is durable on
    /// return.
    ///
    /// # Errors
    ///
    /// Returns the first tenant or checkpoint failure.
    pub fn run_until(&mut self, stop: &AtomicBool) -> Result<SoakReport> {
        for (base, help) in [
            (
                "idc_tenant_step_duration_seconds",
                "Wall-clock duration of one tenant control step (aggregate and per tenant).",
            ),
            ("idc_tenant_steps_total", "Steps completed per tenant."),
            (
                "idc_tenant_degraded_steps_total",
                "Steps served by the staleness fallback, per tenant.",
            ),
            (
                "idc_tenant_shed_total",
                "Observations shed by feed admission control, per tenant.",
            ),
            (
                "idc_tenant_cost_dollars",
                "Accumulated electricity cost per tenant.",
            ),
            (
                "idc_tenant_checkpoints_total",
                "Checkpoints recorded durably across all tenants.",
            ),
            ("idc_tenants_live", "Tenants still running."),
            ("idc_tenants_hosted", "Tenants admitted."),
        ] {
            self.registry.describe(base, help);
        }
        self.registry
            .set_gauge("idc_tenants_hosted", self.cells.len() as f64);
        let workers = match self.config.workers {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
                .min(8),
            w => w,
        }
        .min(self.cells.len())
        .max(1);

        let ids: Vec<String> = self.cells.iter().map(|c| c.spec.id.clone()).collect();
        let mut state = SchedState {
            ready: BinaryHeap::new(),
            cells: std::mem::take(&mut self.cells)
                .into_iter()
                .map(Some)
                .collect(),
            live: 0,
            failure: None,
        };
        let now = Instant::now();
        for (idx, cell) in state.cells.iter().enumerate() {
            if !cell.as_ref().expect("freshly seeded").stepper.is_finished() {
                state.ready.push(Slot { due: now, idx });
                state.live += 1;
            }
        }
        self.registry
            .set_gauge("idc_tenants_live", state.live as f64);

        let shared = Shared {
            state: Mutex::new(state),
            cv: Condvar::new(),
            budget: AtomicU64::new(self.config.stop_after_total_steps.unwrap_or(u64::MAX)),
            killed: AtomicBool::new(false),
            stop,
            total: AtomicU64::new(0),
        };
        let slice_steps = match self.config.slice_steps {
            0 => 8,
            s => s,
        };
        let writers = if self.config.checkpoint_root.is_some() {
            WRITERS.min(ids.len())
        } else {
            0
        };
        let (shared, registry, board) = (&shared, &*self.registry, &self.board);
        std::thread::scope(|scope| {
            let queues: Vec<SyncSender<Checkpoint>> = (0..writers)
                .map(|_| {
                    let (queue, jobs) = sync_channel(WRITER_QUEUE);
                    let ids = &ids;
                    scope.spawn(move || writer_loop(jobs, shared, ids, registry, board));
                    queue
                })
                .collect();
            for _ in 0..workers {
                let queues = queues.clone();
                scope.spawn(move || worker_loop(shared, &queues, registry, board, slice_steps));
            }
            // The writers drain their queues and exit once the last
            // worker drops its senders; the scope joins them.
        });

        let mut state = shared.state.lock().expect("scheduler mutex");
        self.cells = state
            .cells
            .drain(..)
            .map(|c| c.expect("workers return every cell"))
            .collect();
        if let Some(err) = state.failure.take() {
            return Err(err);
        }
        drop(state);
        let killed = shared.killed.load(Ordering::SeqCst);
        if stop.load(Ordering::SeqCst) && !killed {
            // Graceful drain: leave every unfinished tenant resumable.
            for (idx, cell) in self.cells.iter().enumerate() {
                match &cell.lineage {
                    Some(lineage) if !cell.stepper.is_finished() => {
                        record(lineage, &cell.stepper.snapshot(), idx, registry, board)?;
                    }
                    _ => {}
                }
            }
        }
        Ok(self.report(shared.total.load(Ordering::SeqCst), killed))
    }

    /// Builds the soak report from the settled cells and the histograms.
    fn report(&self, total_steps: u64, killed: bool) -> SoakReport {
        let quantile_ms = |key: &str, q: f64| {
            self.registry
                .histogram_quantile(key, q)
                .map_or(0.0, |s| s * 1000.0)
        };
        let tenants = self
            .cells
            .iter()
            .map(|cell| {
                let s = &cell.stepper;
                let (shed_workload, shed_price) = s.shed_observations();
                let key = &cell.keys.step_duration;
                TenantReport {
                    id: cell.spec.id.clone(),
                    scenario_key: cell.spec.config.scenario_key.clone(),
                    backend: cell.spec.config.backend.clone(),
                    steps: s.step(),
                    num_steps: s.num_steps(),
                    finished: s.is_finished(),
                    cost_dollars: s.accumulated_cost(),
                    degraded_steps: s.degraded_steps(),
                    shed_workload,
                    shed_price,
                    p50_step_ms: quantile_ms(key, 0.50),
                    p99_step_ms: quantile_ms(key, 0.99),
                }
            })
            .collect();
        SoakReport {
            tenants,
            total_steps,
            killed,
            p50_step_ms: quantile_ms("idc_tenant_step_duration_seconds", 0.50),
            p99_step_ms: quantile_ms("idc_tenant_step_duration_seconds", 0.99),
        }
    }
}

/// One worker thread: pop the earliest due tenant, run a slice, park it.
fn worker_loop(
    shared: &Shared<'_>,
    writers: &[SyncSender<Checkpoint>],
    registry: &MetricsRegistry,
    board: &StatusBoard,
    slice_steps: u64,
) {
    let mut guard = shared.state.lock().expect("scheduler mutex");
    loop {
        if guard.failure.is_some()
            || guard.live == 0
            || shared.killed.load(Ordering::SeqCst)
            || shared.stop.load(Ordering::SeqCst)
        {
            shared.cv.notify_all();
            return;
        }
        let Some(slot) = guard.ready.peek().copied() else {
            // Every live tenant is owned by another worker; wait for one
            // to be parked (or for shutdown).
            guard = shared.cv.wait(guard).expect("scheduler mutex");
            continue;
        };
        let now = Instant::now();
        if slot.due > now {
            let (g, _) = shared
                .cv
                .wait_timeout(guard, slot.due - now)
                .expect("scheduler mutex");
            guard = g;
            continue;
        }
        guard.ready.pop();
        let mut cell = guard.cells[slot.idx]
            .take()
            .expect("queued cell is present");
        drop(guard);

        let outcome = run_slice(&mut cell, slot.idx, shared, writers, registry, slice_steps);
        publish(&cell, slot.idx, registry, board);

        guard = shared.state.lock().expect("scheduler mutex");
        guard.cells[slot.idx] = Some(cell);
        match outcome {
            Ok(SliceOutcome::Parked(due)) => guard.ready.push(Slot { due, idx: slot.idx }),
            Ok(SliceOutcome::Finished) => {
                guard.live -= 1;
                registry.set_gauge("idc_tenants_live", guard.live as f64);
            }
            Ok(SliceOutcome::Killed | SliceOutcome::Stopped) => {}
            Err(err) => {
                guard.live -= 1;
                registry.set_gauge("idc_tenants_live", guard.live as f64);
                let id = &guard.cells[slot.idx].as_ref().expect("just parked").spec.id;
                let failure = Error::Config(format!("tenant '{id}': {err}"));
                guard.failure.get_or_insert(failure);
            }
        }
        shared.cv.notify_all();
    }
}

/// Runs tenant `idx` for up to `slice_steps` due steps.
fn run_slice(
    cell: &mut TenantCell,
    idx: usize,
    shared: &Shared<'_>,
    writers: &[SyncSender<Checkpoint>],
    registry: &MetricsRegistry,
    slice_steps: u64,
) -> Result<SliceOutcome> {
    let _tenant = idc_obs::tenant_scope(&cell.spec.id);
    let _span = idc_obs::Span::enter_cat(format!("tenant.{}", cell.spec.id), "tenant");
    let mut executed = 0u64;
    while executed < slice_steps && !cell.stepper.is_finished() {
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(SliceOutcome::Stopped);
        }
        if cell.clock.due_in(cell.stepper.step()) > Duration::ZERO {
            break;
        }
        if !shared.take_budget() {
            return Ok(SliceOutcome::Killed);
        }
        let t0 = Instant::now();
        cell.stepper.step_once()?;
        let dt = t0.elapsed().as_secs_f64();
        registry.observe("idc_tenant_step_duration_seconds", &TENANT_STEP_BOUNDS, dt);
        registry.observe(&cell.keys.step_duration, &TENANT_STEP_BOUNDS, dt);
        shared.total.fetch_add(1, Ordering::Relaxed);
        executed += 1;
        let step = cell.stepper.step();
        if cell.spec.checkpoint_every > 0 && step.is_multiple_of(cell.spec.checkpoint_every) {
            checkpoint(cell, idx, writers);
        }
    }
    if cell.stepper.is_finished() {
        checkpoint(cell, idx, writers);
        return Ok(SliceOutcome::Finished);
    }
    Ok(SliceOutcome::Parked(
        Instant::now() + cell.clock.due_in(cell.stepper.step()),
    ))
}

/// Queues tenant `idx`'s current snapshot on its writer, when a lineage is
/// configured. Waits while that writer's queue is full.
fn checkpoint(cell: &TenantCell, idx: usize, writers: &[SyncSender<Checkpoint>]) {
    if let Some(lineage) = &cell.lineage {
        let job = Checkpoint {
            idx,
            lineage: Arc::clone(lineage),
            snapshot: cell.stepper.snapshot(),
        };
        writers[idx % writers.len()]
            .send(job)
            .expect("checkpoint writers outlive the workers");
    }
}

/// One writer thread: records its queue's checkpoints in order until every
/// worker has dropped its sender. A failed record becomes the run's
/// failure; the writer goes on with the rest of its queue.
fn writer_loop(
    jobs: Receiver<Checkpoint>,
    shared: &Shared<'_>,
    ids: &[String],
    registry: &MetricsRegistry,
    board: &StatusBoard,
) {
    for job in jobs {
        if let Err(err) = record(&job.lineage, &job.snapshot, job.idx, registry, board) {
            let failure = Error::Config(format!("tenant '{}': {err}", ids[job.idx]));
            let mut guard = shared.state.lock().expect("scheduler mutex");
            guard.failure.get_or_insert(failure);
            shared.cv.notify_all();
        }
    }
}

/// Records tenant `idx`'s checkpoint in its lineage. The checkpoint
/// counter and the tenant's `last_checkpoint_step` advance only once the
/// snapshot is durable.
fn record(
    lineage: &CheckpointLineage,
    snapshot: &RuntimeSnapshot,
    idx: usize,
    registry: &MetricsRegistry,
    board: &StatusBoard,
) -> Result<()> {
    lineage.record(snapshot)?;
    registry.inc_counter("idc_tenant_checkpoints_total", 1);
    board.update(idx, |status| {
        status.last_checkpoint_step = Some(snapshot.step);
    });
    Ok(())
}

/// Publishes a tenant's per-slice metrics and status-board entry.
fn publish(cell: &TenantCell, idx: usize, registry: &MetricsRegistry, board: &StatusBoard) {
    let s = &cell.stepper;
    let (w, p) = s.shed_observations();
    registry.set_counter(&cell.keys.steps, s.step());
    registry.set_counter(&cell.keys.degraded, s.degraded_steps());
    registry.set_counter(&cell.keys.shed, w + p);
    registry.set_gauge(&cell.keys.cost, s.accumulated_cost());
    board.update(idx, |status| {
        status.step = s.step();
        status.finished = s.is_finished();
        status.cost_dollars = s.accumulated_cost();
        status.degraded_steps = s.degraded_steps();
        status.shed_workload = w;
        status.shed_price = p;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use idc_core::clock::SimClock;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("idc-tenant-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn short(key: &str, seed: u64, steps: usize) -> StepperConfig {
        StepperConfig {
            num_steps: Some(steps),
            ..StepperConfig::fault_free(key, seed)
        }
    }

    #[test]
    fn hosted_tenants_match_solo_runs_byte_for_byte() {
        let mut manager = TenantManager::new(ManagerConfig {
            workers: 3,
            ..ManagerConfig::default()
        });
        let specs = [
            ("a", short("smoothing", 2012, 20)),
            ("b", short("noisy_day", 7, 16)),
            ("c", short("scaled_2x2", 3, 12)),
        ];
        for (id, config) in &specs {
            manager
                .add_tenant(TenantSpec::max_speed(*id, config.clone()))
                .unwrap();
        }
        let report = manager.run().unwrap();
        assert!(!report.killed);
        assert_eq!(report.total_steps, 20 + 16 + 12);
        assert!(report.tenants.iter().all(|t| t.finished));

        for (id, config) in &specs {
            let mut solo = Stepper::new(config.clone()).unwrap();
            solo.run(&mut SimClock).unwrap();
            assert_eq!(
                manager.snapshot(id).unwrap(),
                solo.snapshot(),
                "tenant '{id}' diverged from its solo run"
            );
        }
    }

    #[test]
    fn admission_enforces_cap_and_unique_ids() {
        let mut manager = TenantManager::new(ManagerConfig {
            max_tenants: 2,
            ..ManagerConfig::default()
        });
        manager
            .add_tenant(TenantSpec::max_speed("a", short("smoothing", 1, 4)))
            .unwrap();
        let dup = manager
            .add_tenant(TenantSpec::max_speed("a", short("smoothing", 2, 4)))
            .unwrap_err();
        assert!(matches!(dup, Error::Config(_)), "{dup}");
        manager
            .add_tenant(TenantSpec::max_speed("b", short("smoothing", 3, 4)))
            .unwrap();
        let full = manager
            .add_tenant(TenantSpec::max_speed("c", short("smoothing", 4, 4)))
            .unwrap_err();
        assert!(matches!(full, Error::Config(_)), "{full}");
        assert_eq!(manager.num_tenants(), 2);
    }

    #[test]
    fn kill_and_resume_completes_byte_identically() {
        let root = tmpdir("kill-resume");
        let specs = |every| {
            [
                TenantSpec {
                    checkpoint_every: every,
                    ..TenantSpec::max_speed("x", short("smoothing", 2012, 24))
                },
                TenantSpec {
                    checkpoint_every: every,
                    ..TenantSpec::max_speed("y", short("noisy_day", 5, 24))
                },
            ]
        };
        let mut first = TenantManager::new(ManagerConfig {
            workers: 2,
            checkpoint_root: Some(root.clone()),
            stop_after_total_steps: Some(17),
            ..ManagerConfig::default()
        });
        for spec in specs(4) {
            assert!(!first.add_tenant(spec).unwrap());
        }
        let report = first.run().unwrap();
        assert!(report.killed);
        assert!(report.total_steps <= 17);
        drop(first); // the "killed" process

        let mut resumed = TenantManager::new(ManagerConfig {
            workers: 2,
            checkpoint_root: Some(root.clone()),
            resume: true,
            ..ManagerConfig::default()
        });
        let mut any_resumed = false;
        for spec in specs(4) {
            any_resumed |= resumed.add_tenant(spec).unwrap();
        }
        assert!(any_resumed, "nothing resumed from the lineage");
        let report = resumed.run().unwrap();
        assert!(!report.killed);
        assert!(report.tenants.iter().all(|t| t.finished));

        for spec in specs(4) {
            let mut solo = Stepper::new(spec.config.clone()).unwrap();
            solo.run(&mut SimClock).unwrap();
            assert_eq!(
                resumed.snapshot(&spec.id).unwrap(),
                solo.snapshot(),
                "tenant '{}' diverged across kill/resume",
                spec.id
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn killed_manager_returns_with_every_queued_checkpoint_durable() {
        let root = tmpdir("kill-drain");
        let (every, keep_last) = (1, 3);
        let specs = [
            ("p", short("smoothing", 2012, 25)),
            ("q", short("noisy_day", 5, 40)),
            ("r", short("scaled_2x2", 3, 40)),
        ];
        let mut manager = TenantManager::new(ManagerConfig {
            workers: 2,
            checkpoint_root: Some(root.clone()),
            keep_last,
            stop_after_total_steps: Some(50),
            ..ManagerConfig::default()
        });
        for (id, config) in &specs {
            manager
                .add_tenant(TenantSpec {
                    checkpoint_every: every,
                    ..TenantSpec::max_speed(*id, config.clone())
                })
                .unwrap();
        }
        let report = manager.run().unwrap();
        assert!(report.killed);
        assert_eq!(report.total_steps, 50);

        let mut written = 0;
        for (id, config) in &specs {
            let done = manager.snapshot(id).unwrap().step;
            let recorded: Vec<u64> = (1..=done).filter(|s| s % every == 0).collect();
            written += recorded.len() as u64;
            let kept = &recorded[recorded.len().saturating_sub(keep_last)..];
            let lineage = CheckpointLineage::open(root.join(id), keep_last).unwrap();
            assert_eq!(
                lineage.steps().unwrap(),
                kept,
                "tenant '{id}' retention set"
            );
            let mut solo = Stepper::new(config.clone()).unwrap();
            for &step in kept {
                while solo.step() < step {
                    solo.step_once().unwrap();
                }
                assert_eq!(
                    std::fs::read(lineage.path_for(step)).unwrap(),
                    solo.snapshot().to_json().unwrap().into_bytes(),
                    "tenant '{id}' checkpoint at step {step}"
                );
            }
            assert_eq!(
                manager
                    .status_board()
                    .status_of(id)
                    .unwrap()
                    .last_checkpoint_step,
                kept.last().copied()
            );
        }
        assert_eq!(
            manager.registry().counter("idc_tenant_checkpoints_total"),
            Some(written)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn failed_checkpoint_write_fails_the_run_naming_the_tenant() {
        let root = tmpdir("write-failure");
        let mut manager = TenantManager::new(ManagerConfig {
            workers: 2,
            checkpoint_root: Some(root.clone()),
            ..ManagerConfig::default()
        });
        manager
            .add_tenant(TenantSpec {
                checkpoint_every: 4,
                ..TenantSpec::max_speed("good", short("smoothing", 2012, 12))
            })
            .unwrap();
        // Only the final checkpoint, written after the worker has finished
        // the tenant, goes to the broken lineage.
        manager
            .add_tenant(TenantSpec::max_speed("bad", short("smoothing", 7, 12)))
            .unwrap();
        let dir = root.join("bad");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();

        let err = manager.run().unwrap_err().to_string();
        assert!(err.contains("tenant 'bad'"), "{err}");
        let status = manager.status_board().status_of("bad").unwrap();
        assert!(status.finished);
        assert_eq!(status.last_checkpoint_step, None);
        // Only the good tenant's durable checkpoints count: one every 4
        // steps, plus the final one when it finished before the failure
        // stopped the workers.
        let good = manager.status_board().status_of("good").unwrap();
        assert_eq!(
            manager.registry().counter("idc_tenant_checkpoints_total"),
            Some(good.step / 4 + u64::from(good.finished))
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn graceful_stop_checkpoints_every_unfinished_tenant() {
        let root = tmpdir("graceful-stop");
        let mut manager = TenantManager::new(ManagerConfig {
            workers: 2,
            checkpoint_root: Some(root.clone()),
            ..ManagerConfig::default()
        });
        for (id, seed) in [("u", 1), ("v", 2)] {
            manager
                .add_tenant(TenantSpec::max_speed(id, short("smoothing", seed, 8)))
                .unwrap();
        }
        // Raised before the run: no step is taken, and the drain records
        // each tenant's step-0 state.
        let report = manager.run_until(&AtomicBool::new(true)).unwrap();
        assert_eq!(report.total_steps, 0);
        for id in ["u", "v"] {
            let lineage = CheckpointLineage::open(root.join(id), 4).unwrap();
            assert_eq!(lineage.steps().unwrap(), [0]);
            let status = manager.status_board().status_of(id).unwrap();
            assert_eq!(status.last_checkpoint_step, Some(0));
        }
        assert_eq!(
            manager.registry().counter("idc_tenant_checkpoints_total"),
            Some(2)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn derived_populations_are_heterogeneous_and_valid() {
        let specs = derive_tenants(12, 9, Some(6));
        assert_eq!(specs.len(), 12);
        let mut ids: Vec<_> = specs.iter().map(|s| s.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 12, "duplicate derived ids");
        let keys: std::collections::BTreeSet<_> = specs
            .iter()
            .map(|s| s.config.scenario_key.clone())
            .collect();
        assert!(keys.len() >= 5, "population not heterogeneous: {keys:?}");
        assert!(specs.iter().any(|s| s.config.overload.is_active()));
        assert!(specs.iter().any(|s| s.config.ingest_bound > 0));
        assert!(specs
            .iter()
            .any(|s| s.config.workload_faults != FeedFaults::none()));
        assert!(specs.iter().any(|s| s.config.backend.is_some()));
        // Every derived config must actually build.
        for spec in &specs {
            Stepper::new(spec.config.clone())
                .unwrap_or_else(|e| panic!("derived tenant '{}' does not build: {e}", spec.id));
        }
        // And the derivation is a pure function of its inputs.
        let again = derive_tenants(12, 9, Some(6));
        for (a, b) in specs.iter().zip(&again) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.config.scenario_key, b.config.scenario_key);
            assert_eq!(a.config.seed, b.config.seed);
        }
    }

    #[test]
    fn status_board_tracks_progress_and_renders_json() {
        let mut manager = TenantManager::new(ManagerConfig::default());
        manager
            .add_tenant(TenantSpec::max_speed("solo", short("smoothing", 2012, 8)))
            .unwrap();
        let board = manager.status_board();
        assert_eq!(board.statuses().len(), 1);
        assert!(!board.statuses()[0].finished);
        manager.run().unwrap();
        let statuses = board.statuses();
        assert!(statuses[0].finished);
        assert_eq!(statuses[0].step, 8);
        let json = board.render_json();
        assert!(json.contains("\"id\":\"solo\""), "{json}");
        assert!(json.contains("\"finished\":true"), "{json}");
        // Detail rendering: known id yields the same object, unknown is None.
        let detail = board.render_tenant_json("solo").unwrap();
        assert!(detail.contains("\"id\":\"solo\""), "{detail}");
        assert!(detail.contains("\"shed_workload\":"), "{detail}");
        assert!(detail.contains("\"shed_price\":"), "{detail}");
        assert!(board.render_tenant_json("nope").is_none());
        // No checkpoint root configured: never checkpointed.
        assert_eq!(statuses[0].last_checkpoint_step, None);
    }

    #[test]
    fn status_board_reports_checkpoint_progress() {
        let root = tmpdir("status-checkpoint");
        let mut manager = TenantManager::new(ManagerConfig {
            checkpoint_root: Some(root.clone()),
            ..ManagerConfig::default()
        });
        manager
            .add_tenant(TenantSpec {
                checkpoint_every: 4,
                ..TenantSpec::max_speed("ckpt", short("smoothing", 2012, 10))
            })
            .unwrap();
        let board = manager.status_board();
        assert_eq!(board.status_of("ckpt").unwrap().last_checkpoint_step, None);
        manager.run().unwrap();
        // The final checkpoint lands at the last step.
        assert_eq!(
            board.status_of("ckpt").unwrap().last_checkpoint_step,
            Some(10)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
