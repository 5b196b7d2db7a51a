//! Canned experiment scenarios behind the paper's figures.

use idc_datacenter::fleet::IdcFleet;
use idc_datacenter::idc::IdcConfig;
use idc_datacenter::portal::FrontEndPortal;
use idc_datacenter::server::ServerSpec;
use idc_market::fault::FaultyTracePricing;
use idc_market::region::Region;
use idc_market::rtp::{DemandResponsivePricing, PricingModel, TracePricing};
use idc_market::tariff::{DemandCharge, PowerBudget};
use idc_market::trace::PriceTrace;
use idc_storage::{paper_test_battery, StorageFleet};
use idc_timeseries::traces::DiurnalTrace;

use crate::config;

/// The price source of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum PricingSpec {
    /// Demand-independent hourly traces (the paper's Sec. V setting).
    Trace(TracePricing),
    /// Traces plus a linear own-demand response (the vicious-cycle
    /// extension).
    DemandResponsive(DemandResponsivePricing),
    /// Traces perturbed by a deterministic fault schedule (spikes and
    /// hold-last-value dropouts) — the testkit's degraded-feed setting.
    FaultyTrace(FaultyTracePricing),
}

impl PricingSpec {
    /// Price vector at `hour` given the consumer's per-region power draw.
    pub fn prices(&self, hour: f64, own_loads_mw: &[f64]) -> Vec<f64> {
        match self {
            PricingSpec::Trace(p) => p.prices(hour, own_loads_mw),
            PricingSpec::DemandResponsive(p) => p.prices(hour, own_loads_mw),
            PricingSpec::FaultyTrace(p) => p.prices(hour, own_loads_mw),
        }
    }

    /// Number of priced regions.
    pub fn num_regions(&self) -> usize {
        match self {
            PricingSpec::Trace(p) => p.num_regions(),
            PricingSpec::DemandResponsive(p) => p.num_regions(),
            PricingSpec::FaultyTrace(p) => p.num_regions(),
        }
    }

    /// The underlying demand-independent trace source, when there is one
    /// (faulty and vicious-cycle pricing are built on top of traces).
    pub fn base_trace(&self) -> Option<&TracePricing> {
        match self {
            PricingSpec::Trace(p) => Some(p),
            PricingSpec::FaultyTrace(p) => Some(p.base()),
            PricingSpec::DemandResponsive(_) => None,
        }
    }
}

/// How the offered portal workloads evolve over the simulated window.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadProfile {
    /// Table I loads held constant (the paper's Sec. V setting).
    Constant,
    /// Each portal's Table I load is modulated by the normalized diurnal
    /// factor of the given trace: `L_i(h) = L_i · mean_at_hour(h)/base`.
    Diurnal(DiurnalTrace),
    /// Replay a pre-generated multiplicative factor series (e.g. from an
    /// MMPP): step `k` uses `factors[k % len]`.
    Replay(Vec<f64>),
}

impl WorkloadProfile {
    /// Multiplicative factor applied to the base loads at hour-of-day `h`.
    /// Replay profiles have no hour semantics and return 1 here — use
    /// [`WorkloadProfile::factor_at_step`].
    pub fn factor_at_hour(&self, hour: f64) -> f64 {
        match self {
            WorkloadProfile::Constant | WorkloadProfile::Replay(_) => 1.0,
            WorkloadProfile::Diurnal(trace) => {
                // Normalize by the trace's daily mean so the Table I loads
                // remain the daily averages.
                let daily_mean: f64 =
                    (0..24).map(|h| trace.mean_at_hour(h as f64)).sum::<f64>() / 24.0;
                if daily_mean <= 0.0 {
                    1.0
                } else {
                    trace.mean_at_hour(hour) / daily_mean
                }
            }
        }
    }
}

impl WorkloadProfile {
    /// Factor for simulation step `k` (replay profiles are indexed by
    /// step, periodic ones by hour-of-day).
    pub fn factor_at_step(&self, step: usize, hour: f64) -> f64 {
        match self {
            WorkloadProfile::Replay(factors) => {
                if factors.is_empty() {
                    1.0
                } else {
                    factors[step % factors.len()].max(0.0)
                }
            }
            other => other.factor_at_hour(hour.rem_euclid(24.0)),
        }
    }
}

/// A complete simulation scenario: fleet, prices, time window and optional
/// power budgets / workload noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    fleet: IdcFleet,
    pricing: PricingSpec,
    start_hour: f64,
    duration_hours: f64,
    ts_hours: f64,
    init_hour: f64,
    budgets: Option<PowerBudget>,
    workload_noise_std: f64,
    workload_profile: WorkloadProfile,
    seed: u64,
    storage: Option<StorageFleet>,
    demand_charge: Option<DemandCharge>,
}

impl Scenario {
    /// Creates a scenario with no budgets and deterministic workload.
    ///
    /// Returns `None` when the pricing region count differs from the
    /// fleet's IDC count, or the time parameters are not positive.
    pub fn new(
        name: impl Into<String>,
        fleet: IdcFleet,
        pricing: PricingSpec,
        start_hour: f64,
        duration_hours: f64,
        ts_hours: f64,
    ) -> Option<Self> {
        if pricing.num_regions() != fleet.num_idcs() || !(duration_hours > 0.0) || !(ts_hours > 0.0)
        {
            return None;
        }
        Some(Scenario {
            name: name.into(),
            fleet,
            pricing,
            start_hour,
            duration_hours,
            ts_hours,
            init_hour: start_hour,
            budgets: None,
            workload_noise_std: 0.0,
            workload_profile: WorkloadProfile::Constant,
            seed: 2012,
            storage: None,
            demand_charge: None,
        })
    }

    /// Sets the hour whose prices are used to *initialize* policies before
    /// the window starts (e.g. settle at the 6H optimum, then start at 7H).
    pub fn with_init_hour(mut self, hour: f64) -> Self {
        self.init_hour = hour;
        self
    }

    /// Attaches per-IDC power budgets (enables peak shaving).
    pub fn with_budgets(mut self, budgets: PowerBudget) -> Self {
        self.budgets = Some(budgets);
        self
    }

    /// Adds multiplicative Gaussian workload noise with the given relative
    /// standard deviation (e.g. 0.05 = 5 %).
    pub fn with_workload_noise(mut self, relative_std: f64, seed: u64) -> Self {
        self.workload_noise_std = relative_std.max(0.0);
        self.seed = seed;
        self
    }

    /// Replaces the price source (e.g. with a fault-injected one).
    /// Returns `None` when the new source's region count differs from the
    /// fleet's IDC count.
    pub fn with_pricing(mut self, pricing: PricingSpec) -> Option<Self> {
        if pricing.num_regions() != self.fleet.num_idcs() {
            return None;
        }
        self.pricing = pricing;
        Some(self)
    }

    /// Renames the scenario (fault plans tag perturbed variants this way).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fleet under control.
    pub fn fleet(&self) -> &IdcFleet {
        &self.fleet
    }

    /// The price source.
    pub fn pricing(&self) -> &PricingSpec {
        &self.pricing
    }

    /// First simulated hour of day.
    pub fn start_hour(&self) -> f64 {
        self.start_hour
    }

    /// Window length in hours.
    pub fn duration_hours(&self) -> f64 {
        self.duration_hours
    }

    /// Sampling period in hours.
    pub fn ts_hours(&self) -> f64 {
        self.ts_hours
    }

    /// Hour used for policy initialization.
    pub fn init_hour(&self) -> f64 {
        self.init_hour
    }

    /// Power budgets, if peak shaving is enabled.
    pub fn budgets(&self) -> Option<&PowerBudget> {
        self.budgets.as_ref()
    }

    /// Attaches per-IDC battery/UPS storage. Returns `None` when the
    /// fleet sizes differ. An *inert* storage fleet (no unit can move
    /// energy) is normalized to "no storage", so zero-capacity
    /// configurations stay byte-identical to storage-free runs.
    pub fn with_storage(mut self, storage: StorageFleet) -> Option<Self> {
        if storage.num_idcs() != self.fleet.num_idcs() {
            return None;
        }
        self.storage = (!storage.is_inert()).then_some(storage);
        Some(self)
    }

    /// Attaches a billed-peak demand charge to the electricity tariff.
    pub fn with_demand_charge(mut self, tariff: DemandCharge) -> Self {
        self.demand_charge = Some(tariff);
        self
    }

    /// Per-IDC battery/UPS storage, when configured (never an inert
    /// fleet — those normalize to `None`).
    pub fn storage(&self) -> Option<&StorageFleet> {
        self.storage.as_ref()
    }

    /// The billed-peak demand charge, when the tariff has one.
    pub fn demand_charge(&self) -> Option<&DemandCharge> {
        self.demand_charge.as_ref()
    }

    /// Sets a time-varying workload profile (diurnal modulation of the
    /// base loads).
    pub fn with_workload_profile(mut self, profile: WorkloadProfile) -> Self {
        self.workload_profile = profile;
        self
    }

    /// Relative workload noise standard deviation.
    pub fn workload_noise_std(&self) -> f64 {
        self.workload_noise_std
    }

    /// The workload evolution profile.
    pub fn workload_profile(&self) -> &WorkloadProfile {
        &self.workload_profile
    }

    /// RNG seed for the workload noise.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of simulation steps.
    pub fn num_steps(&self) -> usize {
        (self.duration_hours / self.ts_hours).round().max(1.0) as usize
    }

    /// Truncates or extends the scenario to exactly `steps` sampling
    /// periods (sets the duration to `steps · Ts`). Handy for smoke runs
    /// of long scenarios and for the online runtime's bounded soaks.
    pub fn with_num_steps(mut self, steps: usize) -> Self {
        self.duration_hours = steps.max(1) as f64 * self.ts_hours;
        self
    }
}

/// Figs. 4/5 — power-demand smoothing across the 6H→7H price flip:
/// calibrated fleet, policies initialized at the 6H optimum, a 12.5-minute
/// window (2.5 min at 6H prices, then the flip, then 10 min at 7H) sampled
/// every 30 s — so the recorded series contains both the baseline's step
/// jump and the MPC's ramp, as in the paper's plots.
pub fn smoothing_scenario() -> Scenario {
    let ts = config::DEFAULT_TS_HOURS;
    Scenario::new(
        "power-demand-smoothing (Figs. 4-5)",
        config::paper_fleet_calibrated(),
        PricingSpec::Trace(TracePricing::new(config::paper_price_traces())),
        7.0 - 5.0 * ts,
        25.0 * ts,
        ts,
    )
    .expect("paper scenario is consistent")
    .with_init_hour(6.5)
}

/// Figs. 6/7 — peak shaving: the smoothing scenario plus the Sec. V-C
/// power budgets (5.13 / 10.26 / 4.275 MW).
pub fn peak_shaving_scenario() -> Scenario {
    let s = smoothing_scenario().with_budgets(config::paper_power_budgets());
    Scenario {
        name: "peak-shaving (Figs. 6-7)".into(),
        ..s
    }
}

/// The smoothing experiment on the fleet exactly as printed in Table II
/// (`M₁ = 30 000`, 1 ms latency bound) — used to quantify the calibration
/// gap in EXPERIMENTS.md.
pub fn smoothing_scenario_table_ii() -> Scenario {
    Scenario::new(
        "power-demand-smoothing (Table II as printed)",
        config::paper_fleet_table_ii(),
        PricingSpec::Trace(TracePricing::new(config::paper_price_traces())),
        7.0,
        10.0 / 60.0,
        config::DEFAULT_TS_HOURS,
    )
    .expect("paper scenario is consistent")
    .with_init_hour(6.5)
}

/// Extension — the demand↔price "vicious cycle" of Sec. I: prices respond
/// linearly to the fleet's own power draw with impact coefficient `gamma`
/// ($/MWh per MW). One hour around the 6H→7H flip.
pub fn vicious_cycle_scenario(gamma: f64) -> Scenario {
    let pricing = DemandResponsivePricing::new(
        TracePricing::new(config::paper_price_traces()),
        gamma.max(0.0),
    )
    .expect("non-negative gamma");
    Scenario::new(
        format!("vicious-cycle (gamma = {gamma})"),
        config::paper_fleet_calibrated(),
        PricingSpec::DemandResponsive(pricing),
        6.5,
        1.0,
        config::DEFAULT_TS_HOURS,
    )
    .expect("paper scenario is consistent")
    .with_init_hour(6.0)
}

/// Extension — a noisy full-day run exercising the workload predictor in
/// the loop (diurnal noise on the Table I loads).
pub fn noisy_day_scenario(seed: u64) -> Scenario {
    Scenario::new(
        "noisy-day",
        config::paper_fleet_calibrated(),
        PricingSpec::Trace(TracePricing::new(config::paper_price_traces())),
        0.0,
        24.0,
        5.0 / 60.0, // 5-minute sampling keeps the day tractable
    )
    .expect("paper scenario is consistent")
    .with_workload_noise(0.05, seed)
}

/// Extension — a full day with *diurnal* workload: the Table I loads swing
/// ±18 % around their daily means (office-hours peak at 14:00) with 3 %
/// noise, exercising the AR+RLS predictor and both control loops across
/// workload ramps as well as price changes.
pub fn diurnal_day_scenario(seed: u64) -> Scenario {
    // Peak factor ≈ 1.18 keeps the peak-hour fleet inside its 125 000 req/s
    // capacity; rarer noise excursions are handled by the simulator's
    // admission control.
    let shape = DiurnalTrace::new(1000.0)
        .amplitude(150.0)
        .second_harmonic(30.0)
        .peak_hour(14.0);
    Scenario::new(
        "diurnal-day",
        config::paper_fleet_calibrated(),
        PricingSpec::Trace(TracePricing::new(config::paper_price_traces())),
        0.0,
        24.0,
        5.0 / 60.0,
    )
    .expect("paper scenario is consistent")
    .with_workload_profile(WorkloadProfile::Diurnal(shape))
    .with_workload_noise(0.03, seed)
}

/// A synthetic fleet of `n` IDCs × `c` portals sized like the paper's,
/// with one hourly price trace per IDC. Per-IDC efficiency, base price and
/// post-7H price offset are deterministic functions of the IDC index, so
/// the prices flip ranking at 7H like the paper's traces, and
/// `scaled_fleet(4, 8)` differs from `scaled_fleet(6, 8)` in shape, not
/// just in size. `n` and `c` are clamped to at least 1.
pub fn scaled_fleet(n: usize, c: usize) -> (IdcFleet, Vec<PriceTrace>) {
    let n = n.max(1);
    let c = c.max(1);
    let idcs: Vec<IdcConfig> = (0..n)
        .map(|j| {
            IdcConfig::new(
                format!("idc-{j}"),
                30_000,
                ServerSpec::new(150.0, 285.0, 1.25 + 0.25 * (j % 4) as f64).expect("valid spec"),
                1.0,
            )
            .expect("valid IDC")
        })
        .collect();
    // 60 % aggregate utilization at the daily mean leaves headroom for the
    // diurnal-free noise excursions.
    let per_portal = idcs.iter().map(|i| i.max_workload()).sum::<f64>() * 0.6 / c as f64;
    let portals: Vec<FrontEndPortal> = (0..c)
        .map(|i| FrontEndPortal::new(format!("portal-{i}"), per_portal).expect("valid portal"))
        .collect();
    let traces: Vec<PriceTrace> = (0..n)
        .map(|j| {
            let base = 25.0 + (j as f64 * 13.7) % 30.0;
            let hourly: Vec<f64> = (0..24)
                .map(|h| {
                    if h >= 7 {
                        base + ((j as f64 * 31.1) % 45.0) - 20.0
                    } else {
                        base
                    }
                })
                .collect();
            PriceTrace::new(Region::new(j, format!("region-{j}")), hourly).expect("24 values")
        })
        .collect();
    let fleet = IdcFleet::new(portals, idcs).expect("non-empty fleet");
    (fleet, traces)
}

/// Extension — the [`scaled_fleet`] of `n` IDCs × `c` portals over a noisy
/// full day (5-minute sampling, 3 % workload noise), for hosting many
/// *heterogeneous* control loops: `scaled_fleet_scenario(4, 8, seed)` is
/// the same experiment everywhere while differing from
/// `scaled_fleet_scenario(6, 8, seed)` in shape, not just in seed. The
/// `bench_summary` scaling study runs the same fleet over a price-flip
/// window. `n` and `c` are clamped to at least 1.
pub fn scaled_fleet_scenario(n: usize, c: usize, seed: u64) -> Scenario {
    let (n, c) = (n.max(1), c.max(1));
    let (fleet, traces) = scaled_fleet(n, c);
    Scenario::new(
        format!("scaled-fleet-{n}x{c}"),
        fleet,
        PricingSpec::Trace(TracePricing::new(traces)),
        0.0,
        24.0,
        5.0 / 60.0,
    )
    .expect("scaled fleet scenario is consistent")
    .with_workload_noise(0.03, seed)
}

/// Extension — peak shaving with a battery actuator: the Figs. 6/7
/// peak-shaving experiment (Sec. V-C budgets) with a
/// [`paper_test_battery`] at every IDC. Where the paper's controller can
/// only *move* load away from a budget-capped IDC, this one can also
/// serve it locally from storage — the budget-violating transients of the
/// storage-free run shrink or disappear.
pub fn storage_peak_shaving_scenario() -> Scenario {
    let s = peak_shaving_scenario()
        .with_storage(StorageFleet::uniform(3, paper_test_battery()).expect("non-empty fleet"))
        .expect("one unit per IDC");
    s.with_name("storage-peak-shaving")
}

/// Extension — a billed-peak demand charge on the diurnal day: the
/// workload-shifting controller alone against a tariff that bills the
/// period-maximum demand (Wang et al., arXiv:1308.0585) on top of energy.
/// The baseline the storage actuator is judged against.
pub fn demand_charge_scenario(seed: u64) -> Scenario {
    diurnal_day_scenario(seed)
        .with_demand_charge(DemandCharge::typical_commercial())
        .with_name("demand-charge")
}

/// Extension — storage *plus* shifting on the demand-charge day: the same
/// tariff and diurnal trace as [`demand_charge_scenario`], with a
/// [`paper_test_battery`] at every IDC. The acceptance experiment: total
/// cost (energy + demand charges) must come in below shifting alone.
pub fn storage_plus_shifting_scenario(seed: u64) -> Scenario {
    demand_charge_scenario(seed)
        .with_storage(StorageFleet::uniform(3, paper_test_battery()).expect("non-empty fleet"))
        .expect("one unit per IDC")
        .with_name("storage-plus-shifting")
}

/// Extension — an MMPP-driven hour: flash-crowd arrivals from a two-state
/// Markov-modulated Poisson process replayed as the workload factor series.
pub fn mmpp_hour_scenario(seed: u64) -> Scenario {
    use idc_timeseries::mmpp::MarkovModulatedPoisson;
    use rand::{rngs::StdRng, SeedableRng};

    let mmpp = MarkovModulatedPoisson::new(
        vec![0.85, 1.15], // normalized activity levels: quiet / flash crowd
        vec![vec![0.92, 0.08], vec![0.25, 0.75]],
    )
    .expect("valid chain");
    let mut rng = StdRng::seed_from_u64(seed);
    // One factor per 30 s step over an hour; Poisson sampling at high rate
    // approximates the level, so use the state level path directly.
    let mut state = 0;
    let factors: Vec<f64> = (0..120)
        .map(|_| {
            state = mmpp.step_state(&mut rng, state);
            mmpp.rate(state)
        })
        .collect();
    Scenario::new(
        format!("mmpp-hour (seed {seed})"),
        config::paper_fleet_calibrated(),
        PricingSpec::Trace(TracePricing::new(config::paper_price_traces())),
        6.5,
        1.0,
        config::DEFAULT_TS_HOURS,
    )
    .expect("paper scenario is consistent")
    .with_init_hour(6.0)
    .with_workload_profile(WorkloadProfile::Replay(factors))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothing_scenario_shape() {
        let s = smoothing_scenario();
        assert_eq!(s.num_steps(), 25);
        assert!((s.start_hour() - (7.0 - 5.0 / 120.0)).abs() < 1e-12);
        assert_eq!(s.init_hour(), 6.5);
        assert!(s.budgets().is_none());
        assert_eq!(s.fleet().num_idcs(), 3);
        assert_eq!(s.workload_noise_std(), 0.0);
    }

    #[test]
    fn peak_shaving_scenario_has_budgets() {
        let s = peak_shaving_scenario();
        assert_eq!(
            s.budgets().expect("budgets set").as_slice(),
            &[5.13, 10.26, 4.275]
        );
        assert!(s.name().contains("peak"));
    }

    #[test]
    fn pricing_spec_delegates() {
        let s = smoothing_scenario();
        let p = s.pricing().prices(7.0, &[0.0, 0.0, 0.0]);
        assert_eq!(p, vec![49.90, 29.47, 77.97]);
        assert_eq!(s.pricing().num_regions(), 3);
    }

    #[test]
    fn vicious_cycle_prices_respond_to_demand() {
        let s = vicious_cycle_scenario(2.0);
        let calm = s.pricing().prices(6.0, &[0.0, 0.0, 0.0]);
        let loaded = s.pricing().prices(6.0, &[3.0, 0.0, 0.0]);
        assert!((loaded[0] - calm[0] - 6.0).abs() < 1e-12);
        assert_eq!(loaded[1], calm[1]);
    }

    #[test]
    fn scenario_validation() {
        let fleet = config::paper_fleet_calibrated();
        // Wrong region count.
        let one_region = TracePricing::new(vec![config::paper_price_traces().remove(0)]);
        assert!(Scenario::new(
            "x",
            fleet.clone(),
            PricingSpec::Trace(one_region),
            0.0,
            1.0,
            0.1
        )
        .is_none());
        // Bad durations.
        let pricing = PricingSpec::Trace(TracePricing::new(config::paper_price_traces()));
        assert!(Scenario::new("x", fleet.clone(), pricing.clone(), 0.0, 0.0, 0.1).is_none());
        assert!(Scenario::new("x", fleet, pricing, 0.0, 1.0, 0.0).is_none());
    }

    #[test]
    fn replay_profile_indexes_by_step() {
        let p = WorkloadProfile::Replay(vec![1.0, 2.0, 0.5]);
        assert_eq!(p.factor_at_step(0, 99.0), 1.0);
        assert_eq!(p.factor_at_step(1, 0.0), 2.0);
        assert_eq!(p.factor_at_step(4, 0.0), 2.0); // wraps
        assert_eq!(p.factor_at_hour(13.0), 1.0); // no hour semantics
        let empty = WorkloadProfile::Replay(vec![]);
        assert_eq!(empty.factor_at_step(7, 0.0), 1.0);
        // Negative factors are clamped.
        let neg = WorkloadProfile::Replay(vec![-3.0]);
        assert_eq!(neg.factor_at_step(0, 0.0), 0.0);
    }

    #[test]
    fn mmpp_hour_scenario_is_runnable() {
        use crate::policy::{MpcPolicy, OptimalPolicy, ReferenceKind};
        use crate::simulation::Simulator;
        let scenario = mmpp_hour_scenario(5);
        let sim = Simulator::new();
        let mpc = sim
            .run(&scenario, &mut MpcPolicy::paper_tuned(&scenario).unwrap())
            .unwrap();
        let opt = sim
            .run(
                &scenario,
                &mut OptimalPolicy::new(ReferenceKind::PriceGreedy),
            )
            .unwrap();
        // Flash-crowd jumps of ±15 % per step must be absorbed by *both*
        // policies (conservation is hard), so smoothness is comparable
        // here — what the MPC must still deliver is feasibility:
        assert!(mpc.latency_ok_fraction() > 0.999);
        assert!(opt.latency_ok_fraction() > 0.999);
        assert_eq!(mpc.shed_fraction(), 0.0);
        // and a cost within a small premium of the instantaneous optimum.
        let overhead = (mpc.total_cost() - opt.total_cost()) / opt.total_cost();
        assert!(overhead < 0.10, "overhead {overhead}");
    }

    #[test]
    fn noisy_day_has_noise_and_full_span() {
        let s = noisy_day_scenario(7);
        assert_eq!(s.workload_noise_std(), 0.05);
        assert_eq!(s.seed(), 7);
        assert_eq!(s.num_steps(), 288);
    }
}
