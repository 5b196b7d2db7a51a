//! Cross-crate consistency: the substrates must agree with each other at
//! their seams.

use idc_control::mpc::{MpcConfig, MpcController, MpcProblem};
use idc_control::reference::optimal_reference;
use idc_control::statespace::CostStateSpace;
use idc_core::config;
use idc_datacenter::allocation::Allocation;
use idc_datacenter::fleet::IdcFleet;
use idc_market::trace::prices_at_hour;

/// The discretized state-space cost (paper eq. 21) must agree with the
/// simulator-style trapezoid accounting when both integrate the same
/// constant power profile.
#[test]
fn state_space_energy_matches_direct_power_accounting() {
    let fleet = IdcFleet::paper_fleet();
    let prices = prices_at_hour(&config::paper_price_traces(), 6.0);
    let b1: Vec<f64> = fleet.idcs().iter().map(|i| i.server().b1() / 1e6).collect();
    let b0: Vec<f64> = fleet.idcs().iter().map(|i| i.server().b0() / 1e6).collect();
    let ss = CostStateSpace::new(&prices, &b1, &b0, fleet.num_portals()).unwrap();
    assert!(ss.is_controllable());

    let ts = 1.0 / 120.0; // 30 s in hours
    let model = ss.discretize(ts);

    // One portal sends 10 000 req/s to IDC 0; 5 000 servers ON there.
    let mut u = vec![0.0; fleet.num_portals() * fleet.num_idcs()];
    u[0] = 10_000.0;
    let v = [5_000.0, 0.0, 0.0];
    let mut x = vec![0.0; ss.state_dim()];
    let steps = 120; // one hour
    for _ in 0..steps {
        x = model.step(&x, &u, &v);
    }
    // Energy state E_1 after 1 h must equal P·1h.
    let p_mw = b1[0] * 10_000.0 + b0[0] * 5_000.0;
    assert!(
        (x[1] - p_mw).abs() < 1e-9,
        "state energy {} vs direct {}",
        x[1],
        p_mw
    );
    // And the direct power accounting through the fleet agrees.
    let mut alloc = Allocation::zeros(fleet.num_portals(), fleet.num_idcs());
    alloc.set(0, 0, 10_000.0);
    let fleet_p = fleet.per_idc_power_mw(&[5_000, 0, 0], &alloc)[0];
    assert!((fleet_p - p_mw).abs() < 1e-12);
}

/// The reference LP's allocation is feasible for the datacenter layer's
/// invariants: conservation, non-negativity, capacity.
#[test]
fn reference_solution_respects_datacenter_invariants() {
    let fleet = IdcFleet::paper_fleet();
    for hour in 0..24 {
        let prices = prices_at_hour(&config::paper_price_traces(), hour as f64);
        let sol = optimal_reference(fleet.idcs(), &fleet.offered_workloads(), &prices).unwrap();
        let alloc = Allocation::from_control_vector(
            fleet.num_portals(),
            fleet.num_idcs(),
            sol.allocation(),
        )
        .unwrap();
        assert!(alloc.is_nonnegative(1e-7), "hour {hour}");
        assert!(
            alloc.conserves_workload(&fleet.offered_workloads(), 1e-6),
            "hour {hour}"
        );
        let m = sol.servers_ceil(fleet.idcs());
        for (j, idc) in fleet.idcs().iter().enumerate() {
            assert!(
                idc.meets_latency_bound(m[j], alloc.idc_total(j)),
                "hour {hour}, IDC {j}: m={} λ={}",
                m[j],
                alloc.idc_total(j)
            );
        }
    }
}

/// Heterogeneous PUE shifts the reference optimum: with a punitive PUE,
/// the formerly cheapest region loses its workload.
#[test]
fn pue_shifts_the_reference_optimum() {
    let fleet = IdcFleet::paper_fleet();
    let prices = prices_at_hour(&config::paper_price_traces(), 6.0);
    let offered = fleet.offered_workloads();

    let base = optimal_reference(fleet.idcs(), &offered, &prices).unwrap();
    // Wisconsin is saturated at 6H under uniform PUE.
    assert!((base.idc_workloads(5)[2] - 34_000.0).abs() < 1.0);

    // Give Wisconsin a terrible cooling plant (PUE 2.5).
    let idcs: Vec<_> = fleet
        .idcs()
        .iter()
        .enumerate()
        .map(|(j, idc)| {
            if j == 2 {
                idc.clone().with_pue(2.5).expect("valid pue")
            } else {
                idc.clone()
            }
        })
        .collect();
    let cooled = optimal_reference(&idcs, &offered, &prices).unwrap();
    // Its effective cost per request now exceeds both others: abandoned.
    assert!(
        cooled.idc_workloads(5)[2] < 10_000.0,
        "{:?}",
        cooled.idc_workloads(5)
    );
    // And the reported power accounts for the facility overhead.
    assert!(cooled.cost_rate_per_hour() > base.cost_rate_per_hour());
}

/// The market tariff layer and the simulator agree on what a budget
/// violation is.
#[test]
fn tariff_clamp_matches_reference_clamp() {
    let fleet = IdcFleet::paper_fleet();
    let budgets = config::paper_power_budgets();
    let prices = prices_at_hour(&config::paper_price_traces(), 7.0);
    let sol = optimal_reference(fleet.idcs(), &fleet.offered_workloads(), &prices).unwrap();
    let clamped_a = sol.clamped_power_mw(budgets.as_slice());
    let clamped_b = budgets.clamp(sol.power_mw());
    assert_eq!(clamped_a, clamped_b);
}

/// One step of the MPC closed loop on the calibrated paper fleet at the 7H
/// prices, on the (MI, WI) workload pair: `[λ_MI, λ_WI](k) → (k+1)`, with
/// MN held at its saturated 49 999 req/s and one portal per IDC block.
fn closed_loop_step(lam: [f64; 2]) -> [f64; 2] {
    let fleet = config::paper_fleet_calibrated();
    let idcs = fleet.idcs();
    let mn = 49_999.0;
    let total = 100_000.0 - mn;
    // Re-project the probe point onto the conservation manifold.
    let mi = lam[0].clamp(0.0, total);
    let wi = total - mi;
    // 7H reference (greedy): MI full at 39 999, WI the rest.
    let mi_ref = 39_999.0_f64.min(total);
    let wi_ref = total - mi_ref;
    let b1: Vec<f64> = idcs.iter().map(|i| i.server().b1() / 1e6).collect();
    let b0: Vec<f64> = idcs.iter().map(|i| i.server().b0() / 1e6).collect();
    let servers = [20_000u64, 40_000, 20_000]; // ample capacity everywhere
    let reference = vec![
        b1[0] * mi_ref + b0[0] * servers[0] as f64,
        b1[1] * mn + b0[1] * servers[1] as f64,
        b1[2] * wi_ref + b0[2] * servers[2] as f64,
    ];
    let problem = MpcProblem {
        b1_mw: b1,
        b0_mw: b0,
        servers_on: servers.to_vec(),
        capacities: idcs
            .iter()
            .zip(servers)
            .map(|(idc, m)| idc.capacity_with(m))
            .collect(),
        prev_input: vec![mi, mn, wi],
        workload_forecast: vec![vec![100_000.0]; 3],
        power_reference_mw: vec![reference; 5],
        tracking_multiplier: MpcProblem::uniform_tracking(3),
        storage: None,
    };
    let plan = MpcController::new(MpcConfig::default())
        .plan(&problem)
        .expect("feasible by construction");
    [plan.next_input()[0], plan.next_input()[2]]
}

/// Spectral radius of a 2×2 matrix from its trace and determinant: the
/// eigenvalues are `tr/2 ± √(tr²/4 − det)`, a complex pair of modulus
/// `√det` when the discriminant is negative.
fn spectral_radius_2x2(j: [[f64; 2]; 2]) -> f64 {
    let half_trace = (j[0][0] + j[1][1]) / 2.0;
    let det = j[0][0] * j[1][1] - j[0][1] * j[1][0];
    let disc = half_trace * half_trace - det;
    if disc >= 0.0 {
        half_trace.abs() + disc.sqrt()
    } else {
        det.sqrt()
    }
}

/// Sec. IV-E: the constrained MPC's closed loop is stable on the paper's
/// instance. Linearized at the tracking equilibrium it is Schur stable, it
/// contracts distances between trajectories from a grid of allocations,
/// and from the 6H operating point it reaches its fixed point.
#[test]
fn mpc_closed_loop_is_stable_sec_iv_e() {
    // Central-difference Jacobian at the reference allocation.
    let eq = [39_999.0, 10_002.0];
    let eps = 50.0;
    let mut jac = [[0.0; 2]; 2];
    for col in 0..2 {
        let (mut plus, mut minus) = (eq, eq);
        plus[col] += eps;
        minus[col] -= eps;
        let (fp, fm) = (closed_loop_step(plus), closed_loop_step(minus));
        for row in 0..2 {
            jac[row][col] = (fp[row] - fm[row]) / (2.0 * eps);
        }
    }
    let rho = spectral_radius_2x2(jac);
    assert!(rho < 1.0, "ρ = {rho}, Jacobian {jac:?}");

    // Five steps shrink the distance between every pair of starts by 0.9.
    let dist = |a: [f64; 2], b: [f64; 2]| (a[0] - b[0]).hypot(a[1] - b[1]);
    let starts: Vec<[f64; 2]> = (0..6)
        .map(|k| {
            let mi = 5_000.0 + 7_000.0 * k as f64;
            [mi, 50_001.0 - mi]
        })
        .collect();
    for (i, &a0) in starts.iter().enumerate() {
        for &b0 in &starts[i + 1..] {
            let (mut a, mut b) = (a0, b0);
            for _ in 0..5 {
                a = closed_loop_step(a);
                b = closed_loop_step(b);
            }
            assert!(
                dist(a, b) <= 0.9 * dist(a0, b0),
                "{a0:?} and {b0:?} end {} apart",
                dist(a, b)
            );
        }
    }

    // From the 6H operating point (everything the 6H optimum gave WI) the
    // per-step movement falls below 1 req/s within 200 steps, next to the
    // reference allocation.
    let mut x = [15_002.0, 35_000.0];
    let steps = (1..=200).find(|_| {
        let next = closed_loop_step(x);
        let movement = (next[0] - x[0]).abs().max((next[1] - x[1]).abs());
        x = next;
        movement < 1.0
    });
    assert!(steps.is_some(), "no fixed point within 200 steps, at {x:?}");
    assert!(
        dist(x, eq) < 10.0,
        "fixed point {x:?} is not the reference {eq:?}"
    );
}
