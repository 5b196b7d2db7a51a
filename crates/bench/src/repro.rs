//! Shared machinery for the figure-reproduction binaries.

use idc_core::policy::{MpcPolicy, OptimalPolicy, ReferenceKind};
use idc_core::scenario::Scenario;
use idc_core::simulation::{SimulationResult, Simulator};

/// IDC display names in fleet order.
pub const IDC_NAMES: [&str; 3] = ["Michigan", "Minnesota", "Wisconsin"];

/// Both policies run through one scenario.
#[derive(Debug, Clone)]
pub struct FigureRuns {
    /// The paper's dynamic (MPC) controller.
    pub mpc: SimulationResult,
    /// The plotted "optimal method" baseline (price-greedy).
    pub opt: SimulationResult,
}

/// Runs the MPC and the plotted-optimal baseline through `scenario`.
///
/// # Panics
///
/// Panics if either run fails — the canned paper scenarios are known-good,
/// so a failure indicates a library regression.
pub fn run_both(scenario: &Scenario) -> FigureRuns {
    let sim = Simulator::new();
    let mpc = sim
        .run(
            scenario,
            &mut MpcPolicy::paper_tuned(scenario).expect("paper tuning is valid"),
        )
        .expect("MPC run succeeds on paper scenario");
    let opt = sim
        .run(
            scenario,
            &mut OptimalPolicy::new(ReferenceKind::PriceGreedy),
        )
        .expect("baseline run succeeds on paper scenario");
    FigureRuns { mpc, opt }
}

/// Prints one sub-figure (per-IDC power): `min | control | optimal`.
pub fn print_power_subfigure(title: &str, runs: &FigureRuns, idc: usize) {
    println!("## {title}");
    println!("{:>6} {:>14} {:>14}", "min", "control MW", "optimal MW");
    for (k, t) in runs.mpc.times_min().iter().enumerate() {
        println!(
            "{t:>6.1} {:>14.4} {:>14.4}",
            runs.mpc.power_mw(idc)[k],
            runs.opt.power_mw(idc)[k]
        );
    }
    println!();
}

/// Prints one sub-figure (per-IDC servers ON): `min | control | optimal`.
pub fn print_server_subfigure(title: &str, runs: &FigureRuns, idc: usize) {
    println!("## {title}");
    println!("{:>6} {:>14} {:>14}", "min", "control on", "optimal on");
    for (k, t) in runs.mpc.times_min().iter().enumerate() {
        println!(
            "{t:>6.1} {:>14} {:>14}",
            runs.mpc.servers(idc)[k],
            runs.opt.servers(idc)[k]
        );
    }
    println!();
}

/// Prints the paper-vs-measured endpoint summary for one figure family.
pub fn print_endpoint_summary(runs: &FigureRuns, paper_start_mw: [f64; 3], paper_end_mw: [f64; 3]) {
    println!("paper vs measured (optimal-method operating points, MW):");
    for (j, name) in IDC_NAMES.iter().enumerate() {
        let first = runs.opt.power_mw(j).first().copied().unwrap_or(f64::NAN);
        let last = runs.opt.power_mw(j).last().copied().unwrap_or(f64::NAN);
        println!(
            "  {name:>10}: pre-flip paper {:>8.4} measured {:>8.4} | post-flip paper {:>8.4} measured {:>8.4}",
            paper_start_mw[j], first, paper_end_mw[j], last
        );
    }
    let worst_mpc = (0..3)
        .map(|j| runs.mpc.power_stats(j).expect("nonempty").max_abs_step_mw)
        .fold(0.0f64, f64::max);
    let worst_opt = (0..3)
        .map(|j| runs.opt.power_stats(j).expect("nonempty").max_abs_step_mw)
        .fold(0.0f64, f64::max);
    println!(
        "worst single power jump: MPC {worst_mpc:.3} MW vs optimal {worst_opt:.3} MW ({:.0}% reduction)",
        100.0 * (1.0 - worst_mpc / worst_opt)
    );
    println!(
        "electricity cost over the window: MPC ${:.2} vs optimal ${:.2} ({:+.2}%)",
        runs.mpc.total_cost(),
        runs.opt.total_cost(),
        100.0 * (runs.mpc.total_cost() - runs.opt.total_cost()) / runs.opt.total_cost()
    );
    println!();
}

/// Slack (MW) within which an MPC final operating point counts as at its
/// peak-shaving budget: the tolerance of the end-to-end Figs. 6/7 shape
/// test.
pub const BUDGET_SLACK_MW: f64 = 0.01;

/// The closing sentence of Fig. 6, computed from the MPC's final power per
/// IDC and the budgets (both in [`IDC_NAMES`] order): the endpoint is under
/// budget when every final is at most its budget plus
/// [`BUDGET_SLACK_MW`]; otherwise the sentence names each IDC over that
/// and its overshoot past the budget.
pub fn endpoint_budget_claim(mpc_finals_mw: &[f64], budgets_mw: &[f64]) -> String {
    let over: Vec<String> = IDC_NAMES
        .iter()
        .zip(mpc_finals_mw.iter().zip(budgets_mw))
        .filter(|(_, (&last, &budget))| !(last <= budget + BUDGET_SLACK_MW))
        .map(|(name, (last, budget))| format!("{name} by {:.3} MW", last - budget))
        .collect();
    let endpoint = if over.is_empty() {
        "the endpoint is under budget".to_string()
    } else {
        format!("the endpoint is over budget: {}", over.join(", "))
    };
    format!("(MPC transients during the ramp count as violations; {endpoint}.)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_within_the_slack_is_under_budget() {
        let claim = endpoint_budget_claim(&[5.135, 10.26, 3.1], &[5.13, 10.26, 4.275]);
        assert_eq!(
            claim,
            "(MPC transients during the ramp count as violations; \
             the endpoint is under budget.)"
        );
    }

    #[test]
    fn an_over_budget_final_is_named_with_its_overshoot() {
        let claim = endpoint_budget_claim(&[5.13, 10.5, 4.4], &[5.13, 10.26, 4.275]);
        assert_eq!(
            claim,
            "(MPC transients during the ramp count as violations; \
             the endpoint is over budget: Minnesota by 0.240 MW, Wisconsin by 0.125 MW.)"
        );
    }
}
