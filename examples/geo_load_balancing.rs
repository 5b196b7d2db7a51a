//! Geographic load balancing over a full day of real-time prices.
//!
//! Walks the 24-hour Oct-3-2011 price traces hour by hour, solving both
//! control-reference problems — the exact eq. 46 optimum and the price-greedy
//! heuristic the paper's plots follow — and reports where each puts the
//! workload, what it costs, and the cumulative gap between the two.
//!
//! Run with: `cargo run -p idc-examples --bin geo_load_balancing`

use idc_control::reference::{optimal_reference, price_greedy_reference};
use idc_core::config;
use idc_datacenter::allocation::Allocation;

fn main() -> Result<(), idc_core::Error> {
    let fleet = config::paper_fleet_calibrated();
    let traces = config::paper_price_traces();
    let offered = fleet.offered_workloads();
    let names = ["Michigan", "Minnesota", "Wisconsin"];

    println!(
        "hour |  prices ($/MWh)        |  LP workload split (kreq/s)  | LP $/h   | greedy $/h"
    );
    let mut lp_total = 0.0;
    let mut greedy_total = 0.0;
    let mut static_total = 0.0;
    // Price-blind baseline: fixed capacity-proportional split.
    let weights: Vec<f64> = fleet.idcs().iter().map(|i| i.max_workload()).collect();
    let static_alloc = Allocation::proportional(&offered, &weights).expect("positive capacity");
    for h in 0..24 {
        let prices: Vec<f64> = traces.iter().map(|t| t.price_at_hour(h as f64)).collect();
        let lp = optimal_reference(fleet.idcs(), &offered, &prices)?;
        let greedy = price_greedy_reference(fleet.idcs(), &offered, &prices)?;
        lp_total += lp.cost_rate_per_hour();
        greedy_total += greedy.cost_rate_per_hour();
        // Static split cost at this hour's prices (eq. 35 servers).
        static_total += (0..fleet.num_idcs())
            .map(|j| {
                let idc = &fleet.idcs()[j];
                let lam = static_alloc.idc_total(j);
                let m = lam / idc.service_rate() + 1.0 / (idc.service_rate() * idc.latency_bound());
                prices[j] * (idc.server().b1() * lam + idc.server().b0() * m) / 1e6
            })
            .sum::<f64>();
        let lam = lp.idc_workloads(offered.len());
        println!(
            "{h:>4} | {:>6.2} {:>6.2} {:>6.2} | {:>8.1} {:>8.1} {:>8.1} | {:>8.2} | {:>8.2}",
            prices[0],
            prices[1],
            prices[2],
            lam[0] / 1e3,
            lam[1] / 1e3,
            lam[2] / 1e3,
            lp.cost_rate_per_hour(),
            greedy.cost_rate_per_hour(),
        );
    }
    println!();
    println!("daily electricity cost, LP optimum:   ${lp_total:.2}");
    println!("daily electricity cost, price-greedy: ${greedy_total:.2}");
    println!("daily electricity cost, static split: ${static_total:.2}");
    println!(
        "geographic load balancing saves {:.2}% over the price-blind static split",
        100.0 * (static_total - lp_total) / static_total
    );
    println!(
        "greedy overhead: {:.2}% — the gap the paper's plotted 'optimal method' leaves on the table",
        100.0 * (greedy_total - lp_total) / lp_total
    );
    println!();
    for (j, name) in names.iter().enumerate() {
        println!(
            "{name}: installed {} servers at {} req/s each",
            fleet.idcs()[j].total_servers(),
            fleet.idcs()[j].service_rate()
        );
    }
    Ok(())
}
