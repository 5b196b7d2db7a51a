//! Hourly real-time electricity price traces (paper Fig. 2 / Table III).
//!
//! The paper drives its simulations with MISO real-time prices for
//! Michigan, Minnesota and Wisconsin on October 3, 2011, adjusted every
//! hour. The MISO archive is not available offline, so
//! [`miso_oct3_2011`] embeds synthetic 24-hour traces that (a) equal the
//! paper's Table III values *exactly* at hours 6 and 7 — the two hours the
//! smoothing and peak-shaving experiments straddle — and (b) follow the
//! qualitative shape of Fig. 2: a Michigan morning ramp toward an afternoon
//! peak, a flat Minnesota profile, and a volatile Wisconsin profile with a
//! negative-price dip in the early morning and a violent spike at hour 7.

use serde::{Deserialize, Serialize};

use crate::region::Region;

/// A 24-hour real-time price trace for one region, in $/MWh. Prices are a
/// step function of the hour (RTP updates hourly in the paper's market).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceTrace {
    region: Region,
    /// `hourly[h]` is the price during `[h, h+1)`, h = 0..24.
    hourly: Vec<f64>,
}

impl PriceTrace {
    /// Creates a trace from 24 hourly prices.
    ///
    /// Returns `None` unless exactly 24 finite values are supplied.
    pub fn new(region: Region, hourly: Vec<f64>) -> Option<Self> {
        if hourly.len() != 24 || hourly.iter().any(|p| !p.is_finite()) {
            return None;
        }
        Some(PriceTrace { region, hourly })
    }

    /// The region this trace belongs to.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// Price in effect at hour-of-day `hour` (wrapped into `[0, 24)`).
    /// Negative prices are legal — they occur in real LMP markets (and in
    /// Fig. 2) when generation exceeds transmissible demand.
    pub fn price_at_hour(&self, hour: f64) -> f64 {
        let h = hour.rem_euclid(24.0) as usize;
        self.hourly[h.min(23)]
    }

    /// Borrow of the raw hourly values.
    pub fn hourly(&self) -> &[f64] {
        &self.hourly
    }

    /// Daily mean price.
    pub fn daily_mean(&self) -> f64 {
        self.hourly.iter().sum::<f64>() / 24.0
    }

    /// Daily price volatility: standard deviation of the hourly prices.
    pub fn daily_volatility(&self) -> f64 {
        let m = self.daily_mean();
        (self.hourly.iter().map(|p| (p - m).powi(2)).sum::<f64>() / 24.0).sqrt()
    }
}

/// The pinned Oct 3 2011 MISO-like traces for the paper's three regions
/// (Michigan, Minnesota, Wisconsin — in that order, matching
/// [`crate::region::paper_regions`]).
///
/// Hours 6 and 7 are the paper's Table III verbatim:
///
/// | Hour | Michigan | Minnesota | Wisconsin |
/// |------|----------|-----------|-----------|
/// | 6H   | 43.26    | 30.26     | 19.06     |
/// | 7H   | 49.90    | 29.47     | 77.97     |
pub fn miso_oct3_2011() -> Vec<PriceTrace> {
    let michigan = vec![
        28.5, 26.1, 24.8, 23.9, 24.5, 31.2, 43.26, 49.90, 55.3, 58.7, 61.2, 63.8, 66.4, 70.1, 73.5,
        75.2, 72.8, 68.4, 62.1, 55.6, 48.9, 41.7, 35.2, 30.8,
    ];
    let minnesota = vec![
        26.4, 24.9, 23.7, 22.8, 23.1, 27.4, 30.26, 29.47, 32.8, 35.6, 38.2, 40.5, 42.3, 44.1, 45.0,
        44.2, 42.7, 40.3, 37.8, 34.9, 32.1, 29.8, 27.6, 26.9,
    ];
    let wisconsin = vec![
        22.4, 18.7, 5.2, -12.6, -21.3, 2.8, 19.06, 77.97, 64.3, 52.1, 45.8, 41.2, 43.7, 48.9, 53.2,
        57.6, 54.1, 49.3, 42.8, 36.4, 30.2, 26.7, 24.1, 23.0,
    ];
    vec![
        PriceTrace::new(Region::new(0, "Michigan"), michigan).expect("24 finite values"),
        PriceTrace::new(Region::new(1, "Minnesota"), minnesota).expect("24 finite values"),
        PriceTrace::new(Region::new(2, "Wisconsin"), wisconsin).expect("24 finite values"),
    ]
}

/// Prices of every trace at the given hour, in trace order — the `Prj`
/// vector the controller consumes.
pub fn prices_at_hour(traces: &[PriceTrace], hour: f64) -> Vec<f64> {
    traces.iter().map(|t| t.price_at_hour(hour)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_requires_24_finite_values() {
        let r = Region::new(0, "X");
        assert!(PriceTrace::new(r.clone(), vec![1.0; 23]).is_none());
        assert!(PriceTrace::new(r.clone(), vec![1.0; 25]).is_none());
        let mut bad = vec![1.0; 24];
        bad[3] = f64::NAN;
        assert!(PriceTrace::new(r.clone(), bad).is_none());
        assert!(PriceTrace::new(r, vec![1.0; 24]).is_some());
    }

    #[test]
    fn table_iii_values_are_exact() {
        let traces = miso_oct3_2011();
        assert_eq!(traces[0].price_at_hour(6.0), 43.26);
        assert_eq!(traces[0].price_at_hour(7.0), 49.90);
        assert_eq!(traces[1].price_at_hour(6.0), 30.26);
        assert_eq!(traces[1].price_at_hour(7.0), 29.47);
        assert_eq!(traces[2].price_at_hour(6.0), 19.06);
        assert_eq!(traces[2].price_at_hour(7.0), 77.97);
    }

    #[test]
    fn price_is_step_function_within_hour() {
        let traces = miso_oct3_2011();
        assert_eq!(traces[0].price_at_hour(6.0), traces[0].price_at_hour(6.99));
        assert_ne!(traces[0].price_at_hour(6.99), traces[0].price_at_hour(7.0));
    }

    #[test]
    fn hour_wraps_around_midnight() {
        let traces = miso_oct3_2011();
        assert_eq!(traces[0].price_at_hour(24.5), traces[0].price_at_hour(0.5));
        assert_eq!(traces[0].price_at_hour(-1.0), traces[0].price_at_hour(23.0));
    }

    #[test]
    fn wisconsin_has_negative_morning_dip_like_fig2() {
        let traces = miso_oct3_2011();
        let min = traces[2]
            .hourly()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(min < 0.0, "Wisconsin min {min}");
        // And the other regions stay positive.
        assert!(traces[0].hourly().iter().all(|&p| p > 0.0));
        assert!(traces[1].hourly().iter().all(|&p| p > 0.0));
    }

    #[test]
    fn wisconsin_is_most_volatile_like_fig2() {
        let traces = miso_oct3_2011();
        let vol: Vec<f64> = traces.iter().map(|t| t.daily_volatility()).collect();
        assert!(vol[2] > vol[0] && vol[2] > vol[1], "{vol:?}");
        // Minnesota is the flattest.
        assert!(vol[1] < vol[0], "{vol:?}");
    }

    #[test]
    fn price_ranking_flips_between_6h_and_7h() {
        // This flip is what drives the smoothing/peak-shaving experiments:
        // Wisconsin is cheapest at 6H and the most expensive at 7H.
        let traces = miso_oct3_2011();
        let p6 = prices_at_hour(&traces, 6.0);
        let p7 = prices_at_hour(&traces, 7.0);
        assert!(p6[2] < p6[1] && p6[1] < p6[0]);
        assert!(p7[2] > p7[0] && p7[0] > p7[1]);
    }

    #[test]
    fn helpers_work() {
        let traces = miso_oct3_2011();
        assert_eq!(traces[1].region().name(), "Minnesota");
        let flat = PriceTrace::new(Region::new(5, "Flat"), vec![42.0; 24]).unwrap();
        assert_eq!(flat.daily_mean(), 42.0);
        assert_eq!(flat.daily_volatility(), 0.0);
    }
}
