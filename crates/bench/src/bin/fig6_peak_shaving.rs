//! Fig. 6(a–c) — power under peak shaving with the Sec. V-C budgets
//! (5.13 / 10.26 / 4.275 MW).
//!
//! Paper behaviour: the optimal method violates the Michigan and Minnesota
//! budgets (5.7 > 5.13, 11.4 > 10.26); the control method tracks both down
//! to their budgets, and Wisconsin "converges to the value between its
//! power budget and the power consumption derived from the optimal
//! policy".
//!
//! Run with: `cargo run -p idc-bench --bin fig6_peak_shaving`

use idc_bench::repro::{endpoint_budget_claim, print_power_subfigure, run_both, IDC_NAMES};
use idc_core::scenario::peak_shaving_scenario;

fn main() {
    let scenario = peak_shaving_scenario();
    let budgets = scenario.budgets().expect("scenario has budgets").clone();
    let runs = run_both(&scenario);
    for (j, name) in IDC_NAMES.iter().enumerate() {
        print_power_subfigure(
            &format!(
                "Fig. 6({}) — power, {name} (budget {} MW)",
                char::from(b'a' + j as u8),
                budgets.budget_mw(j)
            ),
            &runs,
            j,
        );
    }
    println!("paper vs measured (final operating points, MW):");
    println!("  paper: Michigan and Minnesota track their budgets; Wisconsin converges");
    println!("  between its budget (4.275) and the optimal value (1.63).");
    let mut mpc_finals = Vec::with_capacity(IDC_NAMES.len());
    for (j, name) in IDC_NAMES.iter().enumerate() {
        let mpc_final = *runs.mpc.power_mw(j).last().expect("nonempty run");
        let opt_final = runs.opt.power_mw(j).last().expect("nonempty run");
        println!(
            "  {name:>10}: budget {:>6.3} | MPC final {:>7.3} | optimal final {:>7.3}",
            budgets.budget_mw(j),
            mpc_final,
            opt_final
        );
        mpc_finals.push(mpc_final);
    }
    let mpc_v = runs.mpc.budget_violation_fractions(budgets.as_slice());
    let opt_v = runs.opt.budget_violation_fractions(budgets.as_slice());
    println!("over-budget sample fractions: MPC {mpc_v:?} vs optimal {opt_v:?}");
    println!("{}", endpoint_budget_claim(&mpc_finals, budgets.as_slice()));
}
