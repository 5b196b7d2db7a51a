//! Embedded metrics registry: counters, gauges and histograms rendered in
//! Prometheus text format and JSON.
//!
//! Hand-rolled and std-only by design (the build environment vendors no
//! metrics crates). Thread-safe behind a single mutex — the write rates
//! here are one control step per sampling period, not a hot path — and a
//! write to an existing key allocates nothing. Metric
//! keys may carry a Prometheus label suffix directly in the name (e.g.
//! `idc_power_mw{idc="Michigan"}`); the renderer emits one `# TYPE` line
//! per base name, and writes a labelled histogram's labels into each of
//! its `_bucket`, `_sum` and `_count` series.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Cumulative histogram with static bucket bounds.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// within the bucket containing the target rank — the same estimator
    /// Prometheus' `histogram_quantile` uses. Returns `None` when the
    /// histogram is empty or `q` is out of range.
    ///
    /// The lowest bucket interpolates from 0 to its bound; a rank landing
    /// in the overflow bucket is clamped to the highest finite bound (there
    /// is no upper edge to interpolate toward).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) || self.bounds.is_empty() {
            return None;
        }
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cumulative;
            cumulative += c;
            if (cumulative as f64) >= rank {
                if i == self.bounds.len() {
                    // Overflow bucket: no finite upper edge.
                    return Some(self.bounds[self.bounds.len() - 1]);
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                if c == 0 {
                    return Some(upper);
                }
                let frac = (rank - prev as f64) / c as f64;
                return Some(lower + (upper - lower) * frac.clamp(0.0, 1.0));
            }
        }
        Some(self.bounds[self.bounds.len() - 1])
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// `# HELP` text per metric *base* name (labels stripped).
    help: BTreeMap<String, String>,
}

/// The runtime's metrics registry. Cheap to share: wrap in an
/// `Arc<MetricsRegistry>` and hand clones to the stepper and the HTTP
/// responder.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

/// The entry for `key`, inserted with `init()` when absent. Looks up by
/// `&str`, so only the first call for a key allocates it.
fn entry<'m, V>(
    map: &'m mut BTreeMap<String, V>,
    key: &str,
    init: impl FnOnce() -> V,
) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), init());
    }
    map.get_mut(key).expect("present or just inserted")
}

/// The base name of a possibly-labelled metric key.
fn base_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the counter `key`, creating it at zero first.
    pub fn inc_counter(&self, key: &str, v: u64) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        *entry(&mut inner.counters, key, || 0) += v;
    }

    /// Sets the counter `key` to an absolute cumulative value (for
    /// counters whose source is itself cumulative, e.g. solver totals).
    pub fn set_counter(&self, key: &str, v: u64) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        *entry(&mut inner.counters, key, || 0) = v;
    }

    /// Sets the gauge `key`.
    pub fn set_gauge(&self, key: &str, v: f64) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        *entry(&mut inner.gauges, key, || 0.0) = v;
    }

    /// Registers `# HELP` text for the metric base name `base` (pass the
    /// name without labels), rendered ahead of the `# TYPE` line.
    pub fn describe(&self, base: &str, help: &str) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        inner.help.insert(base.to_string(), help.to_string());
    }

    /// Records `v` into the histogram `key`, creating it with `bounds` on
    /// first use (later calls ignore `bounds`).
    pub fn observe(&self, key: &str, bounds: &[f64], v: f64) {
        let mut inner = self.inner.lock().expect("metrics mutex");
        entry(&mut inner.histograms, key, || {
            Histogram::new(bounds.to_vec())
        })
        .observe(v);
    }

    /// Current value of a counter, if present.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.inner
            .lock()
            .expect("metrics mutex")
            .counters
            .get(key)
            .copied()
    }

    /// Estimated `q`-quantile of the histogram `key`, if it exists and is
    /// non-empty (see [`Histogram::quantile`]).
    pub fn histogram_quantile(&self, key: &str, q: f64) -> Option<f64> {
        self.inner
            .lock()
            .expect("metrics mutex")
            .histograms
            .get(key)
            .and_then(|h| h.quantile(q))
    }

    /// `(count, sum)` of the histogram `key`, if present.
    pub fn histogram_stats(&self, key: &str) -> Option<(u64, f64)> {
        self.inner
            .lock()
            .expect("metrics mutex")
            .histograms
            .get(key)
            .map(|h| (h.count(), h.sum()))
    }

    /// Current value of a gauge, if present.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.inner
            .lock()
            .expect("metrics mutex")
            .gauges
            .get(key)
            .copied()
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("metrics mutex");
        let mut out = String::new();
        let mut typed: Option<&str> = None;
        let type_line = |out: &mut String, key: &str, kind: &str, typed: &mut Option<&str>| {
            let base = base_name(key);
            if *typed != Some(base) {
                if let Some(help) = inner.help.get(base) {
                    out.push_str(&format!("# HELP {base} {help}\n"));
                }
                out.push_str(&format!("# TYPE {base} {kind}\n"));
            }
        };
        for (key, v) in &inner.counters {
            type_line(&mut out, key, "counter", &mut typed);
            typed = Some(base_name(key));
            out.push_str(&format!("{key} {v}\n"));
        }
        typed = None;
        for (key, v) in &inner.gauges {
            type_line(&mut out, key, "gauge", &mut typed);
            typed = Some(base_name(key));
            out.push_str(&format!("{key} {v}\n"));
        }
        typed = None;
        for (key, h) in &inner.histograms {
            type_line(&mut out, key, "histogram", &mut typed);
            let base = base_name(key);
            typed = Some(base);
            // A labelled key's labels go inside each series' own braces,
            // ahead of a bucket's `le`.
            let labels = &key[base.len()..];
            let inner_labels = labels.trim_start_matches('{').trim_end_matches('}');
            let sep = if inner_labels.is_empty() { "" } else { "," };
            let mut cumulative = 0u64;
            for (i, &bound) in h.bounds.iter().enumerate() {
                cumulative += h.counts[i];
                out.push_str(&format!(
                    "{base}_bucket{{{inner_labels}{sep}le=\"{bound}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "{base}_bucket{{{inner_labels}{sep}le=\"+Inf\"}} {}\n{base}_sum{labels} {}\n{base}_count{labels} {}\n",
                h.count, h.sum, h.count
            ));
        }
        out
    }

    /// Renders the registry as a JSON object
    /// (`{"counters": .., "gauges": .., "histograms": ..}`).
    pub fn render_json(&self) -> String {
        use serde::Value;
        let inner = self.inner.lock().expect("metrics mutex");
        let counters = Value::Object(
            inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), Value::Number(v as f64)))
                .collect(),
        );
        let gauges = Value::Object(
            inner
                .gauges
                .iter()
                .map(|(k, &v)| (k.clone(), Value::Number(v)))
                .collect(),
        );
        let histograms = Value::Object(
            inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    let buckets = Value::Array(
                        h.bounds
                            .iter()
                            .zip(&h.counts)
                            .map(|(&b, &c)| {
                                Value::Array(vec![Value::Number(b), Value::Number(c as f64)])
                            })
                            .collect(),
                    );
                    let quant = |q: f64| match h.quantile(q) {
                        Some(v) => Value::Number(v),
                        None => Value::Null,
                    };
                    (
                        k.clone(),
                        Value::Object(vec![
                            ("sum".to_string(), Value::Number(h.sum)),
                            ("count".to_string(), Value::Number(h.count as f64)),
                            ("p50".to_string(), quant(0.5)),
                            ("p90".to_string(), quant(0.9)),
                            ("p99".to_string(), quant(0.99)),
                            ("buckets".to_string(), buckets),
                        ]),
                    )
                })
                .collect(),
        );
        let root = Value::Object(vec![
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
            ("histograms".to_string(), histograms),
        ]);
        serde_json::to_string(&root).expect("metric values are finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let m = MetricsRegistry::new();
        m.inc_counter("idc_steps_total", 1);
        m.inc_counter("idc_steps_total", 2);
        m.set_gauge("idc_accumulated_cost_dollars", 12.5);
        m.set_gauge("idc_power_mw{idc=\"Michigan\"}", 2.14);
        assert_eq!(m.counter("idc_steps_total"), Some(3));
        assert_eq!(m.gauge("idc_accumulated_cost_dollars"), Some(12.5));
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE idc_steps_total counter"));
        assert!(text.contains("idc_steps_total 3"));
        assert!(text.contains("# TYPE idc_power_mw gauge"));
        assert!(text.contains("idc_power_mw{idc=\"Michigan\"} 2.14"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = MetricsRegistry::new();
        let bounds = [0.001, 0.01, 0.1];
        for v in [0.0005, 0.005, 0.005, 0.05, 5.0] {
            m.observe("idc_step_duration_seconds", &bounds, v);
        }
        let text = m.render_prometheus();
        assert!(text.contains("idc_step_duration_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("idc_step_duration_seconds_bucket{le=\"0.01\"} 3"));
        assert!(text.contains("idc_step_duration_seconds_bucket{le=\"0.1\"} 4"));
        assert!(text.contains("idc_step_duration_seconds_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("idc_step_duration_seconds_count 5"));
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let m = MetricsRegistry::new();
        let bounds = [1.0, 2.0, 4.0];
        // 10 observations in (1, 2]: ranks spread linearly across the bucket.
        for _ in 0..10 {
            m.observe("h", &bounds, 1.5);
        }
        let inner = m.inner.lock().unwrap();
        let h = inner.histograms.get("h").unwrap();
        // p50 → rank 5 of 10 within (1, 2] → 1 + (5/10)·1 = 1.5.
        assert!((h.quantile(0.5).unwrap() - 1.5).abs() < 1e-12);
        // p90 → rank 9 of 10 → 1.9; p100 clamps to the bucket edge.
        assert!((h.quantile(0.9).unwrap() - 1.9).abs() < 1e-12);
        assert_eq!(h.quantile(1.0), Some(2.0));
        assert_eq!(h.quantile(1.5), None);
        drop(inner);

        // Overflow-bucket ranks clamp to the highest finite bound.
        let m2 = MetricsRegistry::new();
        m2.observe("h", &bounds, 100.0);
        let inner = m2.inner.lock().unwrap();
        assert_eq!(inner.histograms.get("h").unwrap().quantile(0.5), Some(4.0));
    }

    #[test]
    fn labelled_histograms_render_their_labels_inside_each_series() {
        let m = MetricsRegistry::new();
        let key = "idc_tenant_step_duration_seconds{tenant=\"t-00\"}";
        m.observe(key, &[0.001], 0.0005);
        m.observe(key, &[0.001], 0.5);
        m.observe("idc_tenant_step_duration_seconds", &[0.001], 0.5);
        let text = m.render_prometheus();
        assert_eq!(
            text.matches("# TYPE idc_tenant_step_duration_seconds histogram\n")
                .count(),
            1,
            "{text}"
        );
        for line in [
            "idc_tenant_step_duration_seconds_bucket{le=\"0.001\"} 0\n",
            "idc_tenant_step_duration_seconds_count 1\n",
            "idc_tenant_step_duration_seconds_bucket{tenant=\"t-00\",le=\"0.001\"} 1\n",
            "idc_tenant_step_duration_seconds_bucket{tenant=\"t-00\",le=\"+Inf\"} 2\n",
            "idc_tenant_step_duration_seconds_sum{tenant=\"t-00\"} 0.5005\n",
            "idc_tenant_step_duration_seconds_count{tenant=\"t-00\"} 2\n",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new(vec![1.0]);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn help_lines_render_before_type() {
        let m = MetricsRegistry::new();
        m.describe("idc_steps_total", "Control steps completed.");
        m.describe("idc_power_mw", "Per-IDC electric power draw.");
        m.describe("idc_step_duration_seconds", "Wall-clock step duration.");
        m.inc_counter("idc_steps_total", 3);
        m.set_gauge("idc_power_mw{idc=\"Michigan\"}", 2.0);
        m.set_gauge("idc_power_mw{idc=\"Ohio\"}", 1.0);
        m.observe("idc_step_duration_seconds", &[0.1], 0.05);
        let text = m.render_prometheus();
        assert!(text.contains(
            "# HELP idc_steps_total Control steps completed.\n# TYPE idc_steps_total counter"
        ));
        assert!(text.contains(
            "# HELP idc_power_mw Per-IDC electric power draw.\n# TYPE idc_power_mw gauge"
        ));
        // One HELP line per base name even with several labelled series.
        assert_eq!(text.matches("# HELP idc_power_mw").count(), 1);
        assert!(text.contains("# HELP idc_step_duration_seconds Wall-clock step duration."));
    }

    #[test]
    fn json_histograms_carry_quantiles() {
        let m = MetricsRegistry::new();
        for _ in 0..10 {
            m.observe("h", &[1.0, 2.0], 1.5);
        }
        let v: serde::Value = serde_json::from_str(&m.render_json()).unwrap();
        let h = v.get("histograms").unwrap().get("h").unwrap();
        let serde::Value::Number(p50) = h.get("p50").unwrap() else {
            panic!("p50 missing")
        };
        assert!((p50 - 1.5).abs() < 1e-12);
        assert!(h.get("p90").is_some());
        assert!(h.get("p99").is_some());
    }

    #[test]
    fn json_rendering_is_parseable() {
        let m = MetricsRegistry::new();
        m.inc_counter("a_total", 7);
        m.set_gauge("b", 1.25);
        m.observe("h", &[1.0], 0.5);
        let json = m.render_json();
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let serde::Value::Object(fields) = v else {
            panic!("not an object")
        };
        let keys: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["counters", "gauges", "histograms"]);
    }
}
