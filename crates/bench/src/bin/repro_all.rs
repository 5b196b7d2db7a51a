//! Runs every table/figure reproduction and the geographic load-balancing
//! baseline (the contents of EXPERIMENTS.md are generated from this output).
//!
//! The reproductions are independent processes, so they run concurrently;
//! each child's output is captured whole and printed in the fixed bin
//! order below, which makes the combined output byte-identical to a
//! sequential run regardless of how the children are scheduled. Exits
//! with status 1, after printing everything, if any child failed to
//! launch or exited unsuccessfully.
//!
//! Run with: `cargo run -p idc-bench --bin repro_all`

use std::process::{Command, ExitCode};
use std::thread;

fn main() -> ExitCode {
    let bins = [
        "tables",
        "fig2_prices",
        "fig3_prediction",
        "fig4_power_smoothing",
        "fig5_servers_smoothing",
        "fig6_peak_shaving",
        "fig7_servers_peak_shaving",
        "ext_vicious_cycle",
        "ext_diurnal_day",
        "ext_weight_ablation",
        "ext_two_time_scale",
        "geo_load_balancing",
        "verify_invariants",
    ];
    let own = std::env::current_exe().expect("own path");
    let all_ok = thread::scope(|scope| {
        // Launch everything up front; `output()` drains each child's pipes
        // on its own thread so no child ever blocks on a full pipe.
        let handles: Vec<_> = bins
            .iter()
            .map(|bin| {
                let path = own.with_file_name(bin);
                scope.spawn(move || Command::new(path).output())
            })
            .collect();
        // Print in launch order — completion order is scheduling noise.
        let mut all_ok = true;
        for (bin, handle) in bins.iter().zip(handles) {
            println!("\n================================================================");
            println!("==== {bin}");
            println!("================================================================");
            match handle.join().expect("runner thread never panics") {
                Ok(out) => {
                    print!("{}", String::from_utf8_lossy(&out.stdout));
                    eprint!("{}", String::from_utf8_lossy(&out.stderr));
                    if !out.status.success() {
                        eprintln!("{bin} exited with {}", out.status);
                        all_ok = false;
                    }
                }
                Err(e) => {
                    eprintln!(
                        "failed to launch {bin}: {e} (build with `cargo build -p idc-bench --bins` first)"
                    );
                    all_ok = false;
                }
            }
        }
        all_ok
    });
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
