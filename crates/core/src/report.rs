//! Plain-text rendering for the reproduction harness.

use crate::simulation::SimulationResult;

/// Renders one run's per-IDC trajectories as an aligned table:
/// `minute | power per IDC | servers per IDC`.
pub fn render_trajectories(result: &SimulationResult, idc_names: &[&str]) -> String {
    let n = result.num_idcs();
    let mut out = String::new();
    out.push_str(&format!(
        "# {} — {}\n",
        result.scenario_name(),
        result.policy_name()
    ));
    out.push_str("  min");
    for name in idc_names.iter().take(n) {
        out.push_str(&format!("  {:>12}", format!("{name} MW")));
    }
    for name in idc_names.iter().take(n) {
        out.push_str(&format!("  {:>12}", format!("{name} on")));
    }
    out.push('\n');
    for (k, t) in result.times_min().iter().enumerate() {
        out.push_str(&format!("{t:>5.1}"));
        for j in 0..n {
            out.push_str(&format!("  {:>12.4}", result.power_mw(j)[k]));
        }
        for j in 0..n {
            out.push_str(&format!("  {:>12}", result.servers(j)[k]));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "total cost: ${:.2}   latency-ok: {:.1}%\n",
        result.total_cost(),
        100.0 * result.latency_ok_fraction()
    ));
    out
}

/// Renders one run as CSV (`minute,power_<idc>…,servers_<idc>…,cost_cum`),
/// suitable for external plotting tools.
pub fn render_csv(result: &SimulationResult, idc_names: &[&str]) -> String {
    let n = result.num_idcs();
    let mut out = String::from("minute");
    for name in idc_names.iter().take(n) {
        out.push_str(&format!(",power_mw_{name}"));
    }
    for name in idc_names.iter().take(n) {
        out.push_str(&format!(",servers_{name}"));
    }
    for name in idc_names.iter().take(n) {
        out.push_str(&format!(",workload_{name}"));
    }
    out.push_str(",cost_cumulative\n");
    for (k, t) in result.times_min().iter().enumerate() {
        out.push_str(&format!("{t:.3}"));
        for j in 0..n {
            out.push_str(&format!(",{:.6}", result.power_mw(j)[k]));
        }
        for j in 0..n {
            out.push_str(&format!(",{}", result.servers(j)[k]));
        }
        for j in 0..n {
            out.push_str(&format!(",{:.3}", result.workload(j)[k]));
        }
        out.push_str(&format!(",{:.4}\n", result.cost_cumulative()[k]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{OptimalPolicy, ReferenceKind};
    use crate::scenario::smoothing_scenario;
    use crate::simulation::Simulator;

    #[test]
    fn trajectory_rendering_contains_headers_and_rows() {
        let scenario = smoothing_scenario();
        let result = Simulator::new()
            .run(
                &scenario,
                &mut OptimalPolicy::new(ReferenceKind::PriceGreedy),
            )
            .unwrap();
        let text = render_trajectories(&result, &["MI", "MN", "WI"]);
        assert!(text.contains("MI MW"));
        assert!(text.contains("total cost"));
        assert!(text.lines().count() > 20);
    }

    #[test]
    fn csv_has_header_and_one_row_per_step() {
        let scenario = smoothing_scenario();
        let result = Simulator::new()
            .run(
                &scenario,
                &mut OptimalPolicy::new(ReferenceKind::PriceGreedy),
            )
            .unwrap();
        let csv = render_csv(&result, &["MI", "MN", "WI"]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + result.times_min().len());
        assert!(lines[0].starts_with("minute,power_mw_MI"));
        assert!(lines[0].ends_with("cost_cumulative"));
        // Every data row has the same number of fields as the header.
        let fields = lines[0].split(',').count();
        assert!(lines[1..].iter().all(|l| l.split(',').count() == fields));
    }
}
