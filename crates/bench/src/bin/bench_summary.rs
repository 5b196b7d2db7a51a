//! `bench_summary` — machine-readable before/after numbers for the MPC
//! solve pipeline, written to `BENCH_mpc.json`.
//!
//! Measurements cover the banded Riccati solver on the synthetic
//! price-flip fleets of `idc_core::scenario::scaled_fleet`, from the
//! paper's 3×5 fleet up to 12×24:
//!
//! * **single_step** — median and min–max of nine timings of one
//!   `MpcController::plan` call, cold (controller reset before every call,
//!   so the structure cache rebuilds and the QP solves from scratch) vs
//!   warm (state kept, the steady-state cost of a receding-horizon run).
//! * **end_to_end** — full simulated price-flip window through
//!   `MpcPolicy`, `solver_reuse: false` vs `true`, run five times each,
//!   round-robin across the rows (every row's first run, then every row's
//!   second, …) so that host speed drifting over the sweep falls on every
//!   row alike.
//!   A row records the median and min–max ms/step of each mode, the
//!   controller's own warm/cold solve accounting, the relative cost
//!   difference between the two trajectories, and, from the run with the
//!   median warm time, the per-phase wall-clock breakdown (refresh /
//!   factor / condense / solve / reference / simulate) and the warm solve
//!   split into the active-set loop's parts (working-set update, factor
//!   solves, sweeps, ratio test) with its residual against `solve`. The
//!   warm run binds a thread trace recorder so the solver times those
//!   parts. The solver counters and both costs are deterministic, so the
//!   sweep fails if they differ between the repeats.
//! * **storage_end_to_end** — one storage-enabled cell at the paper-scale
//!   8×15 size: a battery per IDC plus the typical commercial
//!   demand-charge tariff, so the QP carries the enlarged
//!   charge/discharge/SoC blocks and the demand-charge epigraph row. Its
//!   prices swing ±20% on every other step, so the policy's rate gating
//!   changes each step and the solver flips zero-width rate boxes onto
//!   their other bound, as on storage days. Same schema as `end_to_end`
//!   (including `solve_stats`), so `bench_diff` gates it alongside the
//!   plain rows.
//!
//! Run with:
//! `cargo run --release -p idc-bench --bin bench_summary [-- <output.json>]`
//!
//! `-- --smoke` runs the 3×5 end-to-end window once, fails if that
//! fault-free window records a cold fallback, and writes nothing — the CI
//! cold-fallback gate.
//!
//! With no flags the sweep measures the five committed sizes (3×5, 4×8,
//! 6×12, 8×15, 12×24), so `bench_summary BENCH_mpc.json` regenerates the
//! committed artifact. `--sizes 3x5,12x24` overrides the measured fleet
//! sizes, and `--max-step-ms M` (default 120000) is a per-step wall-clock
//! budget: a cell whose cold or warm step overruns it is aborted, and a
//! cell whose *projected* cold step (quadratic scaling from the previous
//! size — an underestimate of the observed growth) already busts the
//! budget is skipped without paying the probe. Every cell not measured is
//! recorded explicitly in the JSON `skipped` section instead of silently
//! missing.

use std::time::Instant;

use idc_control::mpc::{MpcConfig, MpcController, MpcProblem};
use idc_core::metrics::{PhaseBreakdown, SolveStats};
use idc_core::policy::{MpcPolicy, MpcPolicyConfig};
use idc_core::scenario::{scaled_fleet, PricingSpec, Scenario};
use idc_core::simulation::Simulator;
use idc_market::fault::{FaultyTracePricing, PriceFault};
use idc_market::rtp::TracePricing;
use idc_market::tariff::DemandCharge;
use idc_storage::{paper_test_battery, StorageFleet};

/// The committed sizes of `BENCH_mpc.json`.
const SIZES: [(usize, usize); 5] = [(3, 5), (4, 8), (6, 12), (8, 15), (12, 24)];
/// Default `--max-step-ms`: a cell whose cold or warm step exceeds this
/// wall-clock budget is aborted and recorded as skipped instead of
/// stretching the sweep by hours — the cold solve grows super-cubically in
/// `N·C`, so sizes past the committed ones can take minutes per step.
const DEFAULT_MAX_STEP_MS: f64 = 120_000.0;
/// The `backend` field of every row: the banded Riccati solver, the only
/// backend. Kept in the schema because `bench_diff` keys rows on it.
const BACKEND_LABEL: &str = "banded_riccati";
/// ΔU horizon used by `MpcConfig::default()` (sizes are capped by
/// `n·c·horizon` before any controller exists).
const CONTROL_HORIZON: usize = 3;
/// Fleet size of the storage-enabled end-to-end cell: the paper-scale
/// 8×15 case with a battery per IDC and a demand-charge tariff.
const STORAGE_E2E_SIZE: (usize, usize) = (8, 15);
/// Price factors of the storage window's alternating signal: every
/// other step each region's price leaves its trace by one of these, far
/// past the ±10% arbitrage thresholds, so the rate gating changes every
/// step and the zero-width rate boxes keep changing side.
const STORAGE_PRICE_SWING: [f64; 2] = [1.2, 0.8];
/// Timed reps of each single-step cell. The median of three moved the
/// 12×24 warm row by about 2× between runs of the same code, and the
/// committed baseline is what the CI timing gate compares against.
const SINGLE_STEP_REPS: usize = 9;
/// Runs of each end-to-end window, cold and warm. One run can read 2–5×
/// its median when the host stalls the process; the median of five does
/// not move with one such stall.
const E2E_REPEATS: usize = 5;

/// An MPC step for the synthetic fleet with an explicit starting
/// allocation and a reference "flip" (the cheap IDC moves from the first
/// to the last position, like the price flip does mid-window).
fn step_problem_at(n: usize, c: usize, prev: Vec<f64>, flip: bool) -> MpcProblem {
    let per_portal = 10_000.0;
    let favoured = if flip { n - 1 } else { 0 };
    MpcProblem {
        b1_mw: (0..n).map(|j| 60e-6 + 10e-6 * j as f64).collect(),
        b0_mw: vec![150e-6; n],
        servers_on: vec![20_000; n],
        capacities: vec![c as f64 * per_portal * 1.2 / n as f64 + 20_000.0; n],
        prev_input: prev,
        workload_forecast: vec![vec![per_portal; c]; 3],
        power_reference_mw: vec![
            (0..n)
                .map(|j| if j == favoured { 4.0 } else { 3.0 })
                .collect();
            5
        ],
        tracking_multiplier: MpcProblem::uniform_tracking(n),
        storage: None,
    }
}

/// One mid-transition MPC step for the synthetic fleet: the whole load
/// sits on the last IDC while the reference favours the first.
fn step_problem(n: usize, c: usize) -> MpcProblem {
    let per_portal = 10_000.0;
    let mut prev = vec![0.0; n * c];
    for i in 0..c {
        prev[(n - 1) * c + i] = per_portal;
    }
    step_problem_at(n, c, prev, false)
}

/// The median and the min–max range of repeated timings.
#[derive(Debug, Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    /// The spread of a non-empty sample (upper median for an even count).
    fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Spread {
            median: sorted[sorted.len() / 2],
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }
}

struct SingleStepRow {
    n: usize,
    c: usize,
    vars: usize,
    cold: Spread,
    warm: Spread,
}

/// One run of an end-to-end window, cold and warm.
struct WindowRun {
    cold_ms_per_step: f64,
    warm_ms_per_step: f64,
    cold_total_cost: f64,
    warm_total_cost: f64,
    warm_solve_fraction: f64,
    /// Per-phase breakdown of the warm (`solver_reuse: true`) run.
    phases: PhaseBreakdown,
    /// Solver introspection counters of the warm run.
    stats: SolveStats,
    steps: usize,
}

struct EndToEndRow {
    n: usize,
    c: usize,
    vars: usize,
    repeats: usize,
    cold_ms_per_step: Spread,
    warm_ms_per_step: Spread,
    warm_solve_fraction: f64,
    cost_rel_diff: f64,
    warm_total_cost: f64,
    /// Per-phase breakdown of the run with the median warm time.
    phases: PhaseBreakdown,
    /// Solver introspection counters of the warm run (equal in every
    /// repeat; the timed parts are the median run's).
    stats: SolveStats,
    steps: usize,
}

/// Measures one size's single-step cell, or aborts it with a skip
/// reason the moment any step overruns the `--max-step-ms` budget — the
/// remaining reps and the end-to-end window behind them would multiply
/// the overrun, and an explicit skip record reads better than an
/// hours-long sweep.
fn measure_single_step(n: usize, c: usize, max_step_ms: f64) -> Result<SingleStepRow, String> {
    let reps = SINGLE_STEP_REPS;
    let p = step_problem(n, c);
    let over = |kind: &str, ms: f64| {
        format!("{kind} step took {ms:.0} ms, over --max-step-ms {max_step_ms:.0}")
    };
    let mut controller = MpcController::new(MpcConfig::default());
    let mut cold = Vec::with_capacity(reps);
    for _ in 0..reps {
        controller.reset();
        let start = Instant::now();
        std::hint::black_box(controller.plan(&p).expect("feasible"));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms > max_step_ms {
            return Err(over("cold", ms));
        }
        cold.push(ms);
    }
    let mut controller = MpcController::new(MpcConfig::default());
    controller.plan(&p).expect("feasible"); // prime cache + warm state
    let mut warm = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(controller.plan(&p).expect("feasible"));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms > max_step_ms {
            return Err(over("warm", ms));
        }
        warm.push(ms);
    }
    Ok(SingleStepRow {
        n,
        c,
        vars: n * c * controller.config().control_horizon,
        cold: Spread::of(&cold),
        warm: Spread::of(&warm),
    })
}

/// The hardware-free counters of `stats`: everything but the timed parts.
fn counters(stats: &SolveStats) -> SolveStats {
    SolveStats {
        update_ns: 0,
        factor_solve_ns: 0,
        sweep_ns: 0,
        ratio_test_ns: 0,
        ..*stats
    }
}

/// Reduces the runs of the `n`×`c` window, cold and warm, to one row.
/// Fails if the solver counters or the costs differ between runs: both are
/// deterministic, so a difference is a bug.
fn end_to_end_row(
    n: usize,
    c: usize,
    storage: bool,
    runs: &[WindowRun],
) -> Result<EndToEndRow, idc_core::Error> {
    let first = &runs[0];
    for run in &runs[1..] {
        if counters(&run.stats) != counters(&first.stats)
            || run.cold_total_cost.to_bits() != first.cold_total_cost.to_bits()
            || run.warm_total_cost.to_bits() != first.warm_total_cost.to_bits()
        {
            return Err(idc_core::Error::Config(format!(
                "the {n}x{c} window (storage: {storage}) is not deterministic: \
                 solver counters {:?} vs {:?}, costs {} / {} vs {} / {}",
                counters(&first.stats),
                counters(&run.stats),
                first.cold_total_cost,
                first.warm_total_cost,
                run.cold_total_cost,
                run.warm_total_cost,
            )));
        }
    }
    let cold: Vec<f64> = runs.iter().map(|r| r.cold_ms_per_step).collect();
    let warm: Vec<f64> = runs.iter().map(|r| r.warm_ms_per_step).collect();
    let warm_ms_per_step = Spread::of(&warm);
    // The phases and the solve split come from one run, so they add up to
    // that run's own solve time.
    let median = runs
        .iter()
        .find(|r| r.warm_ms_per_step == warm_ms_per_step.median)
        .expect("the median is one of the runs");
    Ok(EndToEndRow {
        n,
        c,
        vars: n * c * 3,
        repeats: runs.len(),
        cold_ms_per_step: Spread::of(&cold),
        warm_ms_per_step,
        warm_solve_fraction: median.warm_solve_fraction,
        cost_rel_diff: (median.cold_total_cost - median.warm_total_cost).abs()
            / median.warm_total_cost.abs().max(1e-12),
        warm_total_cost: median.warm_total_cost,
        phases: median.phases,
        stats: median.stats,
        steps: median.steps,
    })
}

/// One run of the `n`×`c` price-flip window, cold then warm.
fn run_window(n: usize, c: usize, storage: bool) -> Result<WindowRun, idc_core::Error> {
    let sim = Simulator::new();
    let ts = 30.0 / 3600.0;
    let mut per_mode = [0.0f64; 2];
    let mut costs = [0.0f64; 2];
    let mut warm_fraction = 0.0;
    let mut phases = PhaseBreakdown::default();
    let mut stats = SolveStats::default();
    let mut steps = 0;
    let (start, steps_in_window) = (7.0 - 5.0 * ts, 25);
    for (mode, solver_reuse) in [false, true].into_iter().enumerate() {
        let (fleet, traces) = scaled_fleet(n, c);
        let base = TracePricing::new(traces);
        let pricing = if storage {
            // Price swings on every other step, up or down by region and
            // step, so arbitrage charges, idles and discharges in turn
            // and the solver flips the gated rate boxes' bounds.
            let swings = (0..n).flat_map(|j| {
                (0..steps_in_window / 2).map(move |k| {
                    let at = start + (2 * k) as f64 * ts - 0.5 * ts;
                    PriceFault::spike(j, at, ts, STORAGE_PRICE_SWING[(j + k) % 2])
                })
            });
            PricingSpec::FaultyTrace(
                FaultyTracePricing::new(base, swings.collect()).expect("valid swings"),
            )
        } else {
            PricingSpec::Trace(base)
        };
        let mut scenario = Scenario::new(
            format!("scale-{n}x{c}"),
            fleet,
            pricing,
            start,
            steps_in_window as f64 * ts,
            ts,
        )
        .expect("consistent")
        .with_init_hour(6.0);
        if storage {
            // Battery + demand charge enlarge every QP block (3 extra
            // decision variables per IDC per horizon step plus the
            // epigraph row), so this cell prices the storage extension.
            scenario = scenario
                .with_storage(StorageFleet::uniform(n, paper_test_battery()).expect("non-empty"))
                .expect("battery rates fit the fleet")
                .with_demand_charge(DemandCharge::typical_commercial());
        }
        let mut policy = MpcPolicy::new(MpcPolicyConfig {
            solver_reuse,
            storage: scenario.storage().cloned(),
            demand_charge: scenario.demand_charge().copied(),
            ..MpcPolicyConfig::default()
        })?;
        // The warm run binds a thread recorder, so the solver times its
        // parts (it reads the clock only while one listens).
        if solver_reuse {
            idc_obs::bind_thread_recorder(Some(std::sync::Arc::new(idc_obs::FlightRecorder::new(
                1 << 12,
            ))));
        }
        let start = Instant::now();
        let run = sim.run(&scenario, &mut policy);
        let elapsed = start.elapsed();
        if solver_reuse {
            idc_obs::bind_thread_recorder(None);
        }
        let run = run?;
        per_mode[mode] = 1e3 * elapsed.as_secs_f64() / run.times_min().len() as f64;
        costs[mode] = run.total_cost();
        if solver_reuse {
            let controller = policy.controller();
            let solves = (controller.warm_solves() + controller.cold_solves()).max(1);
            warm_fraction = controller.warm_solves() as f64 / solves as f64;
            phases = policy
                .phase_breakdown()
                .with_total(elapsed.as_nanos() as u64);
            stats = policy.solve_stats();
            steps = run.times_min().len();
        }
    }
    Ok(WindowRun {
        cold_ms_per_step: per_mode[0],
        warm_ms_per_step: per_mode[1],
        cold_total_cost: costs[0],
        warm_total_cost: costs[1],
        warm_solve_fraction: warm_fraction,
        phases,
        stats,
        steps,
    })
}

/// A measurement cell deliberately not run, recorded in the JSON so a
/// missing row reads as a decision, not an omission.
struct SkipRow {
    n: usize,
    c: usize,
    vars: usize,
    /// JSON section the cell would have landed in.
    section: &'static str,
    reason: String,
}

/// Parses `--sizes 3x5,12x24` into `(idcs, portals)` pairs.
fn parse_sizes(spec: &str) -> Result<Vec<(usize, usize)>, idc_core::Error> {
    spec.split(',')
        .map(|pair| {
            let bad = || {
                idc_core::Error::Config(format!(
                    "--sizes expects comma-separated NxC pairs (e.g. 3x5,12x24), got '{pair}'"
                ))
            };
            let (n, c) = pair.split_once(['x', 'X']).ok_or_else(bad)?;
            match (n.trim().parse(), c.trim().parse()) {
                (Ok(n), Ok(c)) if n > 0 && c > 0 => Ok((n, c)),
                _ => Err(bad()),
            }
        })
        .collect()
}

fn phase_ms(ns: u64, steps: usize) -> f64 {
    ns as f64 / 1e6 / steps.max(1) as f64
}

/// The warm run's solve time split into the active-set loop's timed
/// parts, in ms per step, with the residual `solve − Σ parts` (the
/// loop's own bookkeeping, seeding, the objective and everything between
/// the parts).
struct SolveSplit {
    update: f64,
    factor_solve: f64,
    sweep: f64,
    ratio_test: f64,
    residual: f64,
}

impl SolveSplit {
    fn of(e: &EndToEndRow) -> Self {
        let ms = |ns: u64| phase_ms(ns, e.steps);
        SolveSplit {
            update: ms(e.stats.update_ns),
            factor_solve: ms(e.stats.factor_solve_ns),
            sweep: ms(e.stats.sweep_ns),
            ratio_test: ms(e.stats.ratio_test_ns),
            residual: ms(e.phases.solve_ns) - ms(e.stats.parts_ns()),
        }
    }
}

fn print_e2e_row(e: &EndToEndRow) {
    let (cold, warm) = (e.cold_ms_per_step, e.warm_ms_per_step);
    println!(
        "{:>6} {:>8} {:>8} | {:>17.2} {:>17.2} {:>7.1}x {:>7.1}",
        e.n,
        e.c,
        e.vars,
        cold.median,
        warm.median,
        cold.median / warm.median.max(1e-9),
        100.0 * e.warm_solve_fraction,
    );
    if e.repeats > 1 {
        println!(
            "{:>24} | median of {}: cold {:.3}–{:.3}, warm {:.3}–{:.3} ms/step",
            "spread", e.repeats, cold.min, cold.max, warm.min, warm.max,
        );
    }
    println!(
        "{:>24} | per step: refresh {:.3} factor {:.3} condense {:.3} solve {:.3} \
         reference {:.3} simulate {:.3} ms",
        "phases",
        phase_ms(e.phases.refresh_ns, e.steps),
        phase_ms(e.phases.factor_ns, e.steps),
        phase_ms(e.phases.condense_ns, e.steps),
        phase_ms(e.phases.solve_ns, e.steps),
        phase_ms(e.phases.reference_ns, e.steps),
        phase_ms(e.phases.simulate_ns, e.steps),
    );
    let split = SolveSplit::of(e);
    println!(
        "{:>24} | per step: update {:.3} factor solves {:.3} sweeps {:.3} \
         ratio test {:.3} residual {:.3} ms (of solve {:.3})",
        "solve split",
        split.update,
        split.factor_solve,
        split.sweep,
        split.ratio_test,
        split.residual,
        phase_ms(e.phases.solve_ns, e.steps),
    );
    let per_step = |v: u64| v as f64 / e.steps.max(1) as f64;
    println!(
        "{:>24} | per step: iters {:.2} churn {:.2} refine {:.2} step-updates {:.2} | seed \
         survival {:.3} readmissions {:.2} flips {:.2} bland {} cold-fallbacks {}",
        "solver",
        per_step(e.stats.iterations),
        per_step(e.stats.working_set_churn()),
        per_step(e.stats.refinement_passes),
        per_step(e.stats.step_updates),
        e.stats.seed_survival(),
        per_step(e.stats.readmissions),
        per_step(e.stats.bound_flips),
        e.stats.bland_switches,
        e.stats.cold_fallbacks,
    );
}

fn run_smoke() -> Result<(), idc_core::Error> {
    let (n, c) = SIZES[0];
    println!("## bench_summary --smoke — {n}×{c} end-to-end window");
    let e = end_to_end_row(n, c, false, &[run_window(n, c, false)?])?;
    print_e2e_row(&e);
    // The warm repair is feasible by construction on a feasible step, so a
    // fault-free window never pays a cold fallback. The window's first step
    // has no previous plan to shift, but it warm-starts from the repaired
    // all-zero point and must pass too.
    if e.stats.cold_fallbacks > 0 {
        return Err(idc_core::Error::Config(format!(
            "{} warm-start rejections forced cold fallbacks in the fault-free \
             {}x{} window of {} steps",
            e.stats.cold_fallbacks, e.n, e.c, e.steps,
        )));
    }
    println!("smoke OK");
    Ok(())
}

/// Dumps the global flight recorder as a Chrome trace-event file.
fn write_trace(path: &str) -> Result<(), idc_core::Error> {
    std::fs::write(path, idc_obs::export_global_trace())
        .map_err(|e| idc_core::Error::Config(format!("cannot write {path}: {e}")))?;
    println!("wrote Chrome trace to {path} (open in Perfetto / chrome://tracing)");
    Ok(())
}

fn main() -> Result<(), idc_core::Error> {
    let mut smoke = false;
    let mut trace_out: Option<String> = None;
    let mut out_path = "BENCH_mpc.json".to_string();
    let mut sizes: Vec<(usize, usize)> = SIZES.to_vec();
    let mut max_step_ms = DEFAULT_MAX_STEP_MS;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--trace-out" => {
                trace_out = Some(it.next().ok_or_else(|| {
                    idc_core::Error::Config("--trace-out needs a path".to_string())
                })?);
            }
            "--sizes" => {
                sizes = parse_sizes(&it.next().ok_or_else(|| {
                    idc_core::Error::Config("--sizes needs NxC,... pairs".to_string())
                })?)?;
            }
            "--max-step-ms" => {
                max_step_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|ms: &f64| *ms > 0.0)
                    .ok_or_else(|| {
                        idc_core::Error::Config("--max-step-ms needs a positive number".to_string())
                    })?;
            }
            other => out_path = other.to_string(),
        }
    }
    if trace_out.is_some() {
        idc_obs::install_global_recorder(1 << 20);
    }
    if smoke {
        run_smoke()?;
        if let Some(path) = &trace_out {
            write_trace(path)?;
        }
        return Ok(());
    }

    println!("## bench_summary — cold vs warm MPC solve pipeline");
    println!(
        "{:>6} {:>8} {:>8} | {:>17} {:>17} {:>8} {:>7}",
        "IDCs", "portals", "ΔU vars", "e2e cold ms/step", "e2e warm ms/step", "speedup", "warm %"
    );

    let mut single = Vec::new();
    let mut skipped = Vec::new();
    // Last completed single-step cell, as (ΔU vars, cold ms): sizes run in
    // ascending order, so a quadratic projection from the previous size
    // *under*-estimates the observed super-cubic cold growth — if even
    // that projection busts the budget, the cell is skipped without paying
    // a possibly hours-long probe solve.
    let mut last_cold: Option<(usize, f64)> = None;
    for &(n, c) in &sizes {
        let vars = n * c * CONTROL_HORIZON;
        let projected = last_cold.map(|(pvars, pcold)| {
            let ratio = vars as f64 / pvars.max(1) as f64;
            (pcold * ratio * ratio, pvars)
        });
        let measured = match projected.filter(|&(est, _)| est > max_step_ms) {
            Some((est, pvars)) => Err(format!(
                "projected cold step ~{est:.0} ms (quadratic scaling from the \
                 {pvars}-var cell) over --max-step-ms {max_step_ms:.0}"
            )),
            None => measure_single_step(n, c, max_step_ms),
        };
        match measured {
            Ok(s) => {
                last_cold = Some((s.vars, s.cold.median));
                single.push(s);
            }
            Err(reason) => {
                println!("{n:>6} {c:>8} {vars:>8} | skipped ({reason})");
                // The end-to-end window replays hundreds of such steps, so
                // it inherits the single-step verdict.
                for section in ["single_step", "end_to_end"] {
                    skipped.push(SkipRow {
                        n,
                        c,
                        vars,
                        section,
                        reason: reason.clone(),
                    });
                }
            }
        }
    }
    // The end-to-end windows of every measured size, then one
    // storage-enabled cell at the paper-scale 8×15 size: battery rates and
    // SoC dynamics enlarge every QP block and the demand charge adds the
    // epigraph row, so that row prices the storage extension against the
    // plain 8×15 row. The windows run round-robin — every window's first
    // run, then every window's second — so a drift in host speed over the
    // sweep's minutes falls on every row alike.
    let windows: Vec<(usize, usize, bool)> = single
        .iter()
        .map(|s| (s.n, s.c, false))
        .chain([(STORAGE_E2E_SIZE.0, STORAGE_E2E_SIZE.1, true)])
        .collect();
    let mut runs: Vec<Vec<WindowRun>> = windows.iter().map(|_| Vec::new()).collect();
    for _ in 0..E2E_REPEATS {
        for (&(n, c, storage), window_runs) in windows.iter().zip(&mut runs) {
            window_runs.push(run_window(n, c, storage)?);
        }
    }
    let (plain_runs, storage_runs) = runs.split_at(single.len());
    let mut end_to_end = Vec::new();
    for (s, window_runs) in single.iter().zip(plain_runs) {
        let e = end_to_end_row(s.n, s.c, false, window_runs)?;
        print_e2e_row(&e);
        println!(
            "{:>24} | single step: cold {:.3} ms, warm {:.3} ms ({:.1}x)",
            "1-step",
            s.cold.median,
            s.warm.median,
            s.cold.median / s.warm.median.max(1e-9),
        );
        end_to_end.push(e);
    }
    let (n, c) = STORAGE_E2E_SIZE;
    println!("\nstorage-enabled end-to-end (battery + demand charge):");
    let e = end_to_end_row(n, c, true, &storage_runs[0])?;
    print_e2e_row(&e);
    let storage_rows = vec![e];

    let json = render_json(&single, &end_to_end, &storage_rows, &skipped);
    std::fs::write(&out_path, &json)
        .map_err(|e| idc_core::Error::Config(format!("cannot write {out_path}: {e}")))?;
    println!("\nwrote {out_path}");
    if let Some(path) = &trace_out {
        write_trace(path)?;
    }
    Ok(())
}

/// The checkout's commit, suffixed `-dirty` when tracked files carry
/// uncommitted changes; `unknown` outside a git checkout.
fn git_revision() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(sha)
            if git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|changes| !changes.is_empty()) =>
        {
            format!("{sha}-dirty")
        }
        Some(sha) => sha,
        None => "unknown".to_string(),
    }
}

/// The host the numbers were measured on: CPU model, core count and the
/// SIMD path the kernels took.
fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"git_sha\": \"{}\", \"cpu_model\": \"{}\", \"nproc\": {}, \"simd\": \"{}\"}}",
        git_revision(),
        cpu.replace('"', "'"),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        simd_path(),
    )
}

/// The kernel path `idc_linalg` picks on this CPU: it runs its AVX2 kernels
/// exactly when both AVX2 and FMA are detected.
fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        return "avx2+fma";
    }
    "portable"
}

/// Hand-rendered pretty JSON (the vendored `serde_json` emits compact
/// output only; review diffs want one field per line).
/// Renders one end-to-end row (shared by the plain and storage-enabled
/// sections — same schema, so `bench_diff` reads both).
fn push_e2e_json(s: &mut String, r: &EndToEndRow, last: bool) {
    let (cold, warm) = (r.cold_ms_per_step, r.warm_ms_per_step);
    s.push_str(&format!(
        "    {{\"idcs\": {}, \"portals\": {}, \"delta_u_vars\": {}, \"backend\": \"{}\", \
         \"repeats\": {}, \"cold_ms_per_step\": {:.3}, \"cold_ms_per_step_range\": [{:.3}, {:.3}], \
         \"warm_ms_per_step\": {:.3}, \"warm_ms_per_step_range\": [{:.3}, {:.3}], \
         \"speedup\": {:.2}, \"warm_solve_fraction\": {:.3}, \"cost_rel_diff\": {:.3e}, \
         \"warm_total_cost\": {:.9},\n",
        r.n,
        r.c,
        r.vars,
        BACKEND_LABEL,
        r.repeats,
        cold.median,
        cold.min,
        cold.max,
        warm.median,
        warm.min,
        warm.max,
        cold.median / warm.median.max(1e-9),
        r.warm_solve_fraction,
        r.cost_rel_diff,
        r.warm_total_cost,
    ));
    s.push_str(&format!(
        "     \"warm_phases_ms_per_step\": {{\"refresh\": {:.3}, \"factor\": {:.3}, \
         \"condense\": {:.3}, \"solve\": {:.3}, \"reference\": {:.3}, \
         \"simulate\": {:.3}}},\n",
        phase_ms(r.phases.refresh_ns, r.steps),
        phase_ms(r.phases.factor_ns, r.steps),
        phase_ms(r.phases.condense_ns, r.steps),
        phase_ms(r.phases.solve_ns, r.steps),
        phase_ms(r.phases.reference_ns, r.steps),
        phase_ms(r.phases.simulate_ns, r.steps),
    ));
    let split = SolveSplit::of(r);
    s.push_str(&format!(
        "     \"warm_solve_split_ms_per_step\": {{\"update\": {:.3}, \"factor_solve\": {:.3}, \
         \"sweep\": {:.3}, \"ratio_test\": {:.3}, \"residual\": {:.3}}},\n",
        split.update, split.factor_solve, split.sweep, split.ratio_test, split.residual,
    ));
    let per_step = |v: u64| v as f64 / r.steps.max(1) as f64;
    s.push_str(&format!(
        "     \"solve_stats\": {{\"iterations_per_step\": {:.3}, \
         \"constraints_added_per_step\": {:.3}, \"constraints_dropped_per_step\": {:.3}, \
         \"readmissions_per_step\": {:.3}, \"bound_flips_per_step\": {:.3}, \
         \"degenerate_pops\": {}, \"bland_switches\": {}, \
         \"refinement_passes_per_step\": {:.3}, \"step_updates_per_step\": {:.3}, \
         \"refactorizations_per_step\": {:.3}, \
         \"updates_applied_per_step\": {:.3}, \"downdates_applied_per_step\": {:.3}, \
         \"working_set_delta_per_step\": {:.3}, \"warm_seed_survival\": {:.4}, \
         \"cold_fallbacks\": {}}}}}{}\n",
        per_step(r.stats.iterations),
        per_step(r.stats.constraints_added),
        per_step(r.stats.constraints_dropped),
        per_step(r.stats.readmissions),
        per_step(r.stats.bound_flips),
        r.stats.degenerate_pops,
        r.stats.bland_switches,
        per_step(r.stats.refinement_passes),
        per_step(r.stats.step_updates),
        per_step(r.stats.refactorizations),
        per_step(r.stats.updates_applied),
        per_step(r.stats.downdates_applied),
        per_step(r.stats.working_set_delta),
        r.stats.seed_survival(),
        r.stats.cold_fallbacks,
        if last { "" } else { "," }
    ));
}

fn render_json(
    single: &[SingleStepRow],
    end_to_end: &[EndToEndRow],
    storage_rows: &[EndToEndRow],
    skipped: &[SkipRow],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"generator\": \"cargo run --release -p idc-bench --bin bench_summary\",\n");
    s.push_str(&format!("  \"host\": {},\n", host_json()));
    s.push_str("  \"units\": \"milliseconds of wall-clock per MPC control step\",\n");
    s.push_str(&format!(
        "  \"timing\": \"single_step: median of {SINGLE_STEP_REPS} plans, min and max in *_range; \
         end_to_end: median of {E2E_REPEATS} windows per mode, the windows of all rows run \
         round-robin (every row's first run, then every row's second, ...), min and max in \
         *_range, phases, solve split and solve_stats from the run with the median warm time \
         (solve_stats are equal in every run)\",\n"
    ));
    s.push_str("  \"modes\": {\n");
    s.push_str(
        "    \"cold\": \"controller state reset before every step: structure cache rebuilt, \
         Hessian refactored, active-set QP solved from scratch\",\n",
    );
    s.push_str(
        "    \"warm\": \"state reused across steps: cached structure and factorizations, \
         solve warm-started from the shifted previous solution\"\n",
    );
    s.push_str("  },\n");
    s.push_str("  \"backends\": {\n");
    s.push_str(
        "    \"banded_riccati\": \"block-tridiagonal Hessian in cumulative-input space, \
         one dense Cholesky inverse per IDC chain, never forms the full dense Hessian\"\n",
    );
    s.push_str("  },\n");
    s.push_str("  \"single_step\": [\n");
    for (i, r) in single.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"idcs\": {}, \"portals\": {}, \"delta_u_vars\": {}, \"backend\": \"{}\", \
             \"reps\": {}, \"cold_ms\": {:.3}, \"cold_ms_range\": [{:.3}, {:.3}], \
             \"warm_ms\": {:.3}, \"warm_ms_range\": [{:.3}, {:.3}], \"speedup\": {:.2}}}{}\n",
            r.n,
            r.c,
            r.vars,
            BACKEND_LABEL,
            SINGLE_STEP_REPS,
            r.cold.median,
            r.cold.min,
            r.cold.max,
            r.warm.median,
            r.warm.min,
            r.warm.max,
            r.cold.median / r.warm.median.max(1e-9),
            if i + 1 < single.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"end_to_end\": [\n");
    for (i, r) in end_to_end.iter().enumerate() {
        push_e2e_json(&mut s, r, i + 1 == end_to_end.len());
    }
    s.push_str("  ],\n");
    s.push_str(
        "  \"storage_end_to_end_mode\": \"same schema as end_to_end, with a battery per IDC \
         (paper test battery) and the typical commercial demand-charge tariff enabled: the QP \
         carries charge/discharge/SoC blocks and the demand-charge epigraph row; prices swing \
         20 % up or down every other step, so the rate gating changes each step and the \
         solver flips bounds\",\n",
    );
    s.push_str("  \"storage_end_to_end\": [\n");
    for (i, r) in storage_rows.iter().enumerate() {
        push_e2e_json(&mut s, r, i + 1 == storage_rows.len());
    }
    s.push_str("  ],\n");
    s.push_str("  \"skipped\": [\n");
    for (i, k) in skipped.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"idcs\": {}, \"portals\": {}, \"delta_u_vars\": {}, \"section\": \"{}\", \
             \"reason\": \"{}\"}}{}\n",
            k.n,
            k.c,
            k.vars,
            k.section,
            k.reason,
            if i + 1 < skipped.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
