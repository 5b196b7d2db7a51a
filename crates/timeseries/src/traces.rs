//! Synthetic web-workload trace generation.
//!
//! The paper evaluates its predictor on the EPA-HTTP trace (Internet
//! Traffic Archive, Aug 30 1995 — Fig. 3). That trace is not available
//! offline, so [`DiurnalTrace`] generates a statistically similar arrival
//! process: a diurnal base curve (two harmonics), multiplicative noise and
//! occasional request bursts, clamped non-negative. [`epa_like`] is the
//! pinned configuration used by the Fig. 3 reproduction — its envelope
//! (≈ 0–2000 req/s, night trough, office-hours plateau) matches the
//! published figure.

use rand::Rng;

use crate::gaussian::standard_normal;

/// Configurable diurnal workload generator.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use idc_timeseries::traces::DiurnalTrace;
///
/// let trace = DiurnalTrace::new(1000.0)
///     .amplitude(600.0)
///     .noise_std(50.0);
/// let mut rng = StdRng::seed_from_u64(1);
/// let samples = trace.generate(&mut rng, 1440, 60.0);
/// assert_eq!(samples.len(), 1440);
/// assert!(samples.iter().all(|&v| v >= 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalTrace {
    base: f64,
    amplitude: f64,
    second_harmonic: f64,
    peak_hour: f64,
    noise_std: f64,
    burst_probability: f64,
    burst_scale: f64,
}

impl DiurnalTrace {
    /// Creates a generator with mean request rate `base` (req/s) and no
    /// variation; chain setters to add structure.
    pub fn new(base: f64) -> Self {
        DiurnalTrace {
            base,
            amplitude: 0.0,
            second_harmonic: 0.0,
            peak_hour: 15.0,
            noise_std: 0.0,
            burst_probability: 0.0,
            burst_scale: 0.0,
        }
    }

    /// Sets the daily swing: the deterministic component is
    /// `base + amplitude·cos(2π(h − peak)/24) + second·cos(4π(h − peak)/24)`.
    pub fn amplitude(mut self, amplitude: f64) -> Self {
        self.amplitude = amplitude;
        self
    }

    /// Sets the second-harmonic amplitude (sharpens the office-hours
    /// plateau).
    pub fn second_harmonic(mut self, second: f64) -> Self {
        self.second_harmonic = second;
        self
    }

    /// Sets the hour of day (0–24) at which the workload peaks.
    pub fn peak_hour(mut self, hour: f64) -> Self {
        self.peak_hour = hour;
        self
    }

    /// Sets the Gaussian noise standard deviation (req/s).
    pub fn noise_std(mut self, std: f64) -> Self {
        self.noise_std = std;
        self
    }

    /// Enables request bursts: with probability `prob` per sample, the rate
    /// is multiplied by `1 + scale·u` with `u ~ U(0,1)`.
    pub fn bursts(mut self, prob: f64, scale: f64) -> Self {
        self.burst_probability = prob;
        self.burst_scale = scale;
        self
    }

    /// Deterministic diurnal mean at hour-of-day `h ∈ [0, 24)`.
    pub fn mean_at_hour(&self, h: f64) -> f64 {
        let phase = (h - self.peak_hour) * std::f64::consts::TAU / 24.0;
        (self.base + self.amplitude * phase.cos() + self.second_harmonic * (2.0 * phase).cos())
            .max(0.0)
    }

    /// Generates `n` samples spaced `dt_seconds` apart, starting at
    /// midnight. Values are clamped non-negative.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, n: usize, dt_seconds: f64) -> Vec<f64> {
        (0..n)
            .map(|k| {
                let hour = (k as f64 * dt_seconds / 3600.0) % 24.0;
                let mut v = self.mean_at_hour(hour) + self.noise_std * standard_normal(rng);
                if self.burst_probability > 0.0 && rng.random::<f64>() < self.burst_probability {
                    v *= 1.0 + self.burst_scale * rng.random::<f64>();
                }
                v.max(0.0)
            })
            .collect()
    }
}

/// The pinned EPA-HTTP-like configuration used for the Fig. 3 reproduction:
/// night trough near 100 req/s, office-hours levels of 1200–1800 req/s and
/// bursty spikes approaching 2000 req/s.
pub fn epa_like() -> DiurnalTrace {
    DiurnalTrace::new(800.0)
        .amplitude(650.0)
        .second_harmonic(150.0)
        .peak_hour(14.0)
        .noise_std(90.0)
        .bursts(0.02, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn constant_trace_is_constant() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = DiurnalTrace::new(500.0).generate(&mut rng, 100, 60.0);
        assert!(t.iter().all(|&v| (v - 500.0).abs() < 1e-12));
    }

    #[test]
    fn peak_hour_is_respected() {
        let t = DiurnalTrace::new(1000.0).amplitude(500.0).peak_hour(15.0);
        assert!(t.mean_at_hour(15.0) > t.mean_at_hour(3.0));
        assert!((t.mean_at_hour(15.0) - 1500.0).abs() < 1e-9);
        assert!((t.mean_at_hour(3.0) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn samples_are_nonnegative_even_with_heavy_noise() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = DiurnalTrace::new(10.0)
            .noise_std(100.0)
            .generate(&mut rng, 2000, 60.0);
        assert!(t.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn bursts_raise_the_maximum() {
        let base = DiurnalTrace::new(1000.0).noise_std(10.0);
        let bursty = base.clone().bursts(0.2, 1.0);
        let mut rng1 = StdRng::seed_from_u64(3);
        let mut rng2 = StdRng::seed_from_u64(3);
        let a = base.generate(&mut rng1, 1000, 60.0);
        let b = bursty.generate(&mut rng2, 1000, 60.0);
        let max_a = a.iter().fold(0.0f64, |m, &v| m.max(v));
        let max_b = b.iter().fold(0.0f64, |m, &v| m.max(v));
        assert!(max_b > max_a * 1.2, "{max_b} vs {max_a}");
    }

    #[test]
    fn epa_like_envelope_matches_figure_3() {
        let mut rng = StdRng::seed_from_u64(2012);
        let day = epa_like().generate(&mut rng, 1440, 60.0);
        let max = day.iter().fold(0.0f64, |m, &v| m.max(v));
        let min = day.iter().fold(f64::INFINITY, |m, &v| m.min(v));
        assert!(max > 1200.0 && max < 3000.0, "max {max}");
        assert!(min < 300.0, "min {min}");
        // Office hours busier than deep night.
        let night: f64 = day[120..180].iter().sum::<f64>() / 60.0; // ~02:00–03:00
        let noon: f64 = day[780..840].iter().sum::<f64>() / 60.0; // ~13:00–14:00
        assert!(noon > 3.0 * night, "noon {noon}, night {night}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let trace = epa_like();
        let a = trace.generate(&mut StdRng::seed_from_u64(5), 100, 60.0);
        let b = trace.generate(&mut StdRng::seed_from_u64(5), 100, 60.0);
        assert_eq!(a, b);
    }
}
