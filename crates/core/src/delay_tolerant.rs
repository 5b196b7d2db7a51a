//! Extension — delay-tolerant workload deferral (paper Sec. II, citing
//! Yao et al. \[9\].).
//!
//! The paper's related work exploits a second temporal lever: *batch*
//! workload (MapReduce-style analytics) tolerates hours of delay and can
//! be shifted to cheap-price hours, trading service delay for electricity
//! cost. This module implements a compact hourly model of that trade-off
//! on top of the geographic reference optimizer:
//!
//! * each hour, portals offer `interactive + batch` workload; interactive
//!   must be served immediately, batch may be queued up to a deadline;
//! * a [`DeferralStrategy`] decides how much backlog to release each hour
//!   (deadline-forced work is always released);
//! * the geographic split of whatever is served comes from the eq. 46 LP,
//!   so the deferral layer composes with — rather than replaces — the
//!   paper's spatial optimization.

use std::collections::VecDeque;

use idc_control::reference::optimal_reference;
use idc_datacenter::fleet::IdcFleet;
use idc_market::trace::{prices_at_hour, PriceTrace};

use crate::plant::ADMISSION_HEADROOM;
use crate::{Error, Result};

/// How deferred (batch) workload is scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeferralStrategy {
    /// Serve everything on arrival (the no-deferral baseline).
    ServeImmediately,
    /// Release backlog only in hours whose fleet-weighted price is at or
    /// below the given percentile of the day (0–100); deadline-forced work
    /// is always released.
    ThresholdDefer {
        /// Price percentile (0–100) under which backlog is released.
        percentile: f64,
    },
}

/// One cohort of deferred batch work.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cohort {
    arrival_hour: usize,
    deadline_hour: usize,
    volume: f64,
}

/// Per-hour record of the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct HourRecord {
    /// Hour of day (0–23).
    pub hour: usize,
    /// Interactive workload served (req/s).
    pub interactive: f64,
    /// Batch workload served this hour (req/s).
    pub batch_served: f64,
    /// Backlog remaining after the hour (req/s·h equivalents).
    pub backlog: f64,
    /// Electricity cost for the hour ($).
    pub cost: f64,
}

/// Result of a one-day delay-tolerant run.
#[derive(Debug, Clone, PartialEq)]
pub struct DayResult {
    records: Vec<HourRecord>,
    total_cost: f64,
    mean_delay_hours: f64,
    max_backlog: f64,
    deadline_violations: usize,
}

impl DayResult {
    /// Per-hour records.
    pub fn records(&self) -> &[HourRecord] {
        &self.records
    }

    /// Total electricity cost for the day ($).
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Volume-weighted mean batch delay (hours).
    pub fn mean_delay_hours(&self) -> f64 {
        self.mean_delay_hours
    }

    /// Largest backlog reached (req/s·h).
    pub fn max_backlog(&self) -> f64 {
        self.max_backlog
    }

    /// Number of cohorts that missed their deadline (0 for a correct
    /// strategy).
    pub fn deadline_violations(&self) -> usize {
        self.deadline_violations
    }
}

/// Configuration of the delay-tolerant day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayTolerantConfig {
    /// Fraction of the offered workload that is deferrable batch (0–1).
    pub batch_fraction: f64,
    /// Maximum tolerated delay in hours (≥ 1).
    pub max_delay_hours: usize,
}

impl DelayTolerantConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an out-of-range fraction or zero
    /// delay bound.
    pub fn validated(self) -> Result<Self> {
        if !(0.0..=1.0).contains(&self.batch_fraction) {
            return Err(Error::Config(format!(
                "batch_fraction {} outside [0, 1]",
                self.batch_fraction
            )));
        }
        if self.max_delay_hours == 0 {
            return Err(Error::Config("max_delay_hours must be ≥ 1".into()));
        }
        Ok(self)
    }
}

/// Simulates one 24-hour day of delay-tolerant operation.
///
/// Each hour: interactive load plus the strategy's batch release is split
/// geographically by the eq. 46 LP and charged at that hour's prices.
/// Backlog release is capped by the fleet's remaining capacity.
///
/// # Errors
///
/// * [`Error::Config`] for invalid configuration.
/// * Optimizer errors if even the interactive load is infeasible.
pub fn simulate_day(
    fleet: &IdcFleet,
    traces: &[PriceTrace],
    config: DelayTolerantConfig,
    strategy: DeferralStrategy,
) -> Result<DayResult> {
    let config = config.validated()?;
    let offered = fleet.offered_workloads();
    let total_offered: f64 = offered.iter().sum();
    let interactive_rate = total_offered * (1.0 - config.batch_fraction);
    let batch_rate = total_offered * config.batch_fraction;
    let capacity = fleet.total_capacity();

    // Fleet-weighted hourly price index used by the threshold strategy:
    // the cost rate of serving the interactive load optimally.
    let hourly_index: Vec<f64> = (0..24)
        .map(|h| {
            let prices = prices_at_hour(traces, h as f64);
            optimal_reference(fleet.idcs(), &[interactive_rate.max(1.0)], &prices)
                .map(|r| r.cost_rate_per_hour())
                .unwrap_or(f64::INFINITY)
        })
        .collect();
    let threshold = match strategy {
        DeferralStrategy::ServeImmediately => f64::INFINITY,
        DeferralStrategy::ThresholdDefer { percentile } => {
            let mut sorted = hourly_index.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite index"));
            let idx = ((percentile.clamp(0.0, 100.0) / 100.0) * 23.0).round() as usize;
            sorted[idx]
        }
    };

    let mut queue: VecDeque<Cohort> = VecDeque::new();
    let mut records = Vec::with_capacity(24);
    let mut total_cost = 0.0;
    let mut delay_volume = 0.0;
    let mut served_volume = 0.0;
    let mut max_backlog = 0.0f64;
    let mut deadline_violations = 0;

    for hour in 0..24 {
        // New batch arrives.
        if batch_rate > 0.0 {
            queue.push_back(Cohort {
                arrival_hour: hour,
                deadline_hour: hour + config.max_delay_hours,
                volume: batch_rate,
            });
        }

        // Deadline-forced release (EDF order).
        let mut release = 0.0;
        for c in &queue {
            if c.deadline_hour <= hour + 1 {
                release += c.volume;
            }
        }
        // Opportunistic release when the hour is cheap.
        let headroom = (capacity * ADMISSION_HEADROOM - interactive_rate - release).max(0.0);
        if hourly_index[hour] <= threshold {
            let backlog: f64 = queue.iter().map(|c| c.volume).sum();
            release += (backlog - release).min(headroom).max(0.0);
        }

        // Drain the queue EDF-first and account delays.
        let mut to_serve = release;
        while to_serve > 1e-9 {
            let Some(front) = queue.front_mut() else {
                break;
            };
            let take = front.volume.min(to_serve);
            front.volume -= take;
            to_serve -= take;
            delay_volume += take * (hour - front.arrival_hour) as f64;
            served_volume += take;
            if front.deadline_hour <= hour {
                deadline_violations += 1;
            }
            if front.volume <= 1e-9 {
                queue.pop_front();
            }
        }
        let batch_served = release - to_serve;

        // Geographic split + cost for everything served this hour.
        let prices = prices_at_hour(traces, hour as f64);
        let served = interactive_rate + batch_served;
        let reference = optimal_reference(fleet.idcs(), &[served.max(1.0)], &prices)?;
        let cost = reference.cost_rate_per_hour();
        total_cost += cost;

        let backlog: f64 = queue.iter().map(|c| c.volume).sum();
        max_backlog = max_backlog.max(backlog);
        records.push(HourRecord {
            hour,
            interactive: interactive_rate,
            batch_served,
            backlog,
            cost,
        });
    }
    // Flush whatever remains at day end (charged at hour 23 prices) so
    // strategies are compared on equal served volume.
    let leftover: f64 = queue.iter().map(|c| c.volume).sum();
    if leftover > 1e-9 {
        let prices = prices_at_hour(traces, 23.0);
        let reference = optimal_reference(
            fleet.idcs(),
            &[leftover.min(capacity * ADMISSION_HEADROOM)],
            &prices,
        )?;
        total_cost += reference.cost_rate_per_hour();
        for c in &queue {
            delay_volume += c.volume * (23usize.saturating_sub(c.arrival_hour)) as f64;
            served_volume += c.volume;
            if c.deadline_hour <= 23 {
                deadline_violations += 1;
            }
        }
    }

    Ok(DayResult {
        records,
        total_cost,
        mean_delay_hours: if served_volume > 0.0 {
            delay_volume / served_volume
        } else {
            0.0
        },
        max_backlog,
        deadline_violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;

    fn setup() -> (IdcFleet, Vec<PriceTrace>) {
        (
            config::paper_fleet_calibrated(),
            config::paper_price_traces(),
        )
    }

    #[test]
    fn config_is_validated() {
        assert!(DelayTolerantConfig {
            batch_fraction: 1.5,
            max_delay_hours: 4
        }
        .validated()
        .is_err());
        assert!(DelayTolerantConfig {
            batch_fraction: 0.3,
            max_delay_hours: 0
        }
        .validated()
        .is_err());
        assert!(DelayTolerantConfig {
            batch_fraction: 0.3,
            max_delay_hours: 4
        }
        .validated()
        .is_ok());
    }

    #[test]
    fn serve_immediately_has_zero_delay() {
        let (fleet, traces) = setup();
        let cfg = DelayTolerantConfig {
            batch_fraction: 0.3,
            max_delay_hours: 6,
        };
        let r = simulate_day(&fleet, &traces, cfg, DeferralStrategy::ServeImmediately).unwrap();
        assert_eq!(r.mean_delay_hours(), 0.0);
        assert_eq!(r.max_backlog(), 0.0);
        assert_eq!(r.deadline_violations(), 0);
        assert!(r.total_cost() > 0.0);
        assert_eq!(r.records().len(), 24);
    }

    #[test]
    fn deferral_saves_money_at_the_cost_of_delay() {
        let (fleet, traces) = setup();
        let cfg = DelayTolerantConfig {
            batch_fraction: 0.3,
            max_delay_hours: 8,
        };
        let now = simulate_day(&fleet, &traces, cfg, DeferralStrategy::ServeImmediately).unwrap();
        let defer = simulate_day(
            &fleet,
            &traces,
            cfg,
            DeferralStrategy::ThresholdDefer { percentile: 30.0 },
        )
        .unwrap();
        assert!(
            defer.total_cost() < now.total_cost(),
            "defer {} !< now {}",
            defer.total_cost(),
            now.total_cost()
        );
        assert!(defer.mean_delay_hours() > 0.1);
        assert_eq!(defer.deadline_violations(), 0);
    }

    #[test]
    fn zero_batch_fraction_makes_strategies_identical() {
        let (fleet, traces) = setup();
        let cfg = DelayTolerantConfig {
            batch_fraction: 0.0,
            max_delay_hours: 4,
        };
        let a = simulate_day(&fleet, &traces, cfg, DeferralStrategy::ServeImmediately).unwrap();
        let b = simulate_day(
            &fleet,
            &traces,
            cfg,
            DeferralStrategy::ThresholdDefer { percentile: 20.0 },
        )
        .unwrap();
        assert!((a.total_cost() - b.total_cost()).abs() < 1e-9);
    }

    #[test]
    fn tighter_deadlines_reduce_the_savings() {
        let (fleet, traces) = setup();
        let loose = simulate_day(
            &fleet,
            &traces,
            DelayTolerantConfig {
                batch_fraction: 0.3,
                max_delay_hours: 12,
            },
            DeferralStrategy::ThresholdDefer { percentile: 25.0 },
        )
        .unwrap();
        let tight = simulate_day(
            &fleet,
            &traces,
            DelayTolerantConfig {
                batch_fraction: 0.3,
                max_delay_hours: 2,
            },
            DeferralStrategy::ThresholdDefer { percentile: 25.0 },
        )
        .unwrap();
        assert!(loose.total_cost() <= tight.total_cost() + 1e-6);
        assert_eq!(tight.deadline_violations(), 0);
    }
}
