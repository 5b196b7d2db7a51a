//! Property-based tests for the control substrate.

use idc_control::mpc::{MpcConfig, MpcController, MpcProblem, StorageProblem};
use idc_control::reference::optimal_reference;
use idc_control::statespace::CostStateSpace;
use idc_control::warm_repair::{self, RepairScratch, SERVING_FLOOR};
use idc_datacenter::idc::paper_idcs;
use idc_opt::WARM_TOL;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cost model is controllable for any strictly positive prices and
    /// marginal powers (the paper's Sec. IV-C claim).
    #[test]
    fn positive_prices_imply_controllability(
        prices in prop::collection::vec(0.1f64..200.0, 1..5),
        b1_scale in 1.0f64..200.0,
        portals in 1usize..4,
    ) {
        let n = prices.len();
        let b1: Vec<f64> = (0..n).map(|j| b1_scale * 1e-6 * (j + 1) as f64).collect();
        let b0 = vec![150e-6; n];
        let ss = CostStateSpace::new(&prices, &b1, &b0, portals).unwrap();
        prop_assert!(ss.is_controllable());
    }

    /// The reference LP's cost never decreases when any single price rises
    /// (economic sanity: dearer electricity cannot make the optimum
    /// cheaper).
    #[test]
    fn reference_cost_is_monotone_in_prices(
        base in prop::collection::vec(10.0f64..80.0, 3),
        bump in 0.5f64..30.0,
        which in 0usize..3,
    ) {
        let idcs = paper_idcs();
        let offered = [60_000.0];
        let before = optimal_reference(&idcs, &offered, &base).unwrap();
        let mut higher = base.clone();
        higher[which] += bump;
        let after = optimal_reference(&idcs, &offered, &higher).unwrap();
        prop_assert!(
            after.cost_rate_per_hour() >= before.cost_rate_per_hour() - 1e-6,
            "{} < {}",
            after.cost_rate_per_hour(),
            before.cost_rate_per_hour()
        );
    }

    /// MPC plans are insensitive to uniform scaling of both tracking and
    /// smoothing weights (only the ratio matters).
    #[test]
    fn mpc_is_scale_invariant_in_weights(scale in 0.1f64..10.0) {
        let mk = |q: f64, r: f64| {
            let problem = MpcProblem {
                b1_mw: vec![67.5e-6, 108.0e-6],
                b0_mw: vec![150e-6, 150e-6],
                servers_on: vec![10_000, 10_000],
                capacities: vec![19_000.0, 11_500.0],
                prev_input: vec![10_000.0, 0.0],
                workload_forecast: vec![vec![10_000.0]; 3],
                power_reference_mw: vec![vec![1.5, 2.4]; 5],
                tracking_multiplier: MpcProblem::uniform_tracking(2),
                storage: None,
            };
            let mut controller = MpcController::new(MpcConfig {
                tracking_weight: q,
                smoothing_weight: r,
                // The ridge must scale with the weights too, or it changes
                // the effective Q/R ratio.
                input_ridge: 1e-9 * q,
                ..MpcConfig::default()
            });
            controller.plan(&problem).unwrap().next_input().to_vec()
        };
        let base = mk(1.0, 4.0);
        let scaled = mk(scale, 4.0 * scale);
        for (a, b) in base.iter().zip(&scaled) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }
}

/// SplitMix64: one seed drawn by proptest expands into a whole random
/// repair instance (the shim's tuple strategies cap the arity).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        self.range(0.0, 1.0) < p
    }
}

/// A random step for the warm repair plus a shifted `ΔU` to repair. Every
/// stage's forecast fits the fleet (sometimes exactly), while the previous
/// allocation may overload IDCs whose servers were cut and the shifted
/// tail may drain entries below zero.
fn random_repair_instance(
    n: usize,
    c: usize,
    beta2: usize,
    storage: bool,
    rng: &mut SplitMix,
) -> (MpcProblem, Vec<f64>) {
    let capacities: Vec<f64> = (0..n)
        .map(|_| {
            if rng.chance(0.15) {
                0.0
            } else {
                rng.range(100.0, 20_000.0)
            }
        })
        .collect();
    let fleet: f64 = capacities.iter().sum();
    let mut prev_input = vec![0.0; n * c];
    for v in prev_input.iter_mut() {
        if rng.chance(0.7) {
            *v = rng.range(0.0, 6_000.0);
        }
    }
    // A server cut: one IDC ends up loaded past its new capacity.
    if rng.chance(0.5) {
        let j = (rng.next() % n as u64) as usize;
        let load: f64 = prev_input[j * c..(j + 1) * c].iter().sum();
        let target = capacities[j] * rng.range(1.05, 2.0) + 1.0;
        for v in &mut prev_input[j * c..(j + 1) * c] {
            *v = if load > 0.0 {
                *v * target / load
            } else {
                target / c as f64
            };
        }
    }
    let workload_forecast: Vec<Vec<f64>> = (0..beta2)
        .map(|_| {
            let fill = if rng.chance(0.2) {
                1.0
            } else {
                rng.range(0.0, 1.0)
            };
            let raw: Vec<f64> = (0..c)
                .map(|_| {
                    if rng.chance(0.1) {
                        0.0
                    } else {
                        rng.range(0.0, 1.0)
                    }
                })
                .collect();
            let sum: f64 = raw.iter().sum();
            raw.iter()
                .map(|r| {
                    if sum > 0.0 {
                        fleet * fill * r / sum
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    let b1_mw: Vec<f64> = (0..n).map(|_| rng.range(50e-6, 120e-6)).collect();
    let storage = storage.then(|| {
        let capacity_mwh: Vec<f64> = (0..n)
            .map(|_| {
                if rng.chance(0.2) {
                    0.0
                } else {
                    rng.range(0.5, 8.0)
                }
            })
            .collect();
        let rate = |rng: &mut SplitMix| {
            if rng.chance(0.2) {
                0.0
            } else {
                rng.range(0.1, 3.0)
            }
        };
        StorageProblem {
            soc_mwh: capacity_mwh
                .iter()
                .map(|&cap| cap * rng.range(0.0, 1.0))
                .collect(),
            capacity_mwh,
            max_charge_mw: (0..n).map(|_| rate(rng)).collect(),
            max_discharge_mw: (0..n).map(|_| rate(rng)).collect(),
            charge_efficiency: (0..n).map(|_| rng.range(0.85, 1.0)).collect(),
            discharge_efficiency: (0..n).map(|_| rng.range(0.85, 1.0)).collect(),
            // Previous rates may exceed this step's caps (an outage).
            prev_charge_mw: (0..n).map(|_| rng.range(0.0, 4.0)).collect(),
            prev_discharge_mw: (0..n).map(|_| rng.range(0.0, 4.0)).collect(),
            dt_hours: 1.0 / 12.0,
        }
    });
    let problem = MpcProblem {
        b0_mw: vec![150e-6; n],
        servers_on: vec![10_000; n],
        capacities,
        prev_input,
        workload_forecast,
        power_reference_mw: vec![vec![1.0; n]; beta2],
        tracking_multiplier: MpcProblem::uniform_tracking(n),
        b1_mw,
        storage,
    };
    let (nc, nb) = (n * c, problem.block_size());
    // The shifted plan: arbitrary-sign changes, the last block zero.
    let mut x = vec![0.0; beta2 * nb];
    for t in 0..beta2.saturating_sub(1) {
        for k in 0..nc {
            x[t * nb + k] = rng.range(-8_000.0, 8_000.0);
        }
        for j in 0..nb - nc {
            x[t * nb + nc + j] = rng.range(-3.0, 3.0) / problem.b1_mw[j % n];
        }
    }
    (problem, x)
}

/// Worst violation of the step's constraints at `x`, each family written
/// as the MPC assembles its rows: cumulative changes against right-hand
/// sides built from the step data.
fn worst_violation(p: &MpcProblem, x: &[f64]) -> f64 {
    let (n, c) = (p.num_idcs(), p.num_portals());
    let (nc, nb) = (n * c, p.block_size());
    let lambda0 = p.current_idc_workloads();
    let mut worst = 0.0f64;
    let mut cum = vec![0.0; nb];
    let mut soc_rows = vec![(0.0, 0.0); n];
    for (t, forecast) in p.workload_forecast.iter().enumerate() {
        for k in 0..nb {
            cum[k] += x[t * nb + k];
        }
        for i in 0..c {
            let served: f64 = (0..n).map(|j| cum[j * c + i]).sum();
            let prev: f64 = (0..n).map(|j| p.prev_input[j * c + i]).sum();
            worst = worst.max((served - (forecast[i] - prev)).abs());
        }
        for j in 0..n {
            let load: f64 = cum[j * c..(j + 1) * c].iter().sum();
            worst = worst.max(load - (p.capacities[j] - lambda0[j]));
        }
        for k in 0..nc {
            worst = worst.max(-cum[k] - p.prev_input[k]);
        }
        if let Some(st) = &p.storage {
            for j in 0..n {
                let b1 = p.b1_mw[j];
                let (gc, gd) = (cum[nc + j], cum[nc + n + j]);
                worst = worst
                    .max(gc - (st.max_charge_mw[j] - st.prev_charge_mw[j]) / b1)
                    .max(-gc - st.prev_charge_mw[j] / b1)
                    .max(gd - (st.max_discharge_mw[j] - st.prev_discharge_mw[j]) / b1)
                    .max(-gd - st.prev_discharge_mw[j] / b1);
                let (ec, ed) = (st.charge_efficiency[j], st.discharge_efficiency[j]);
                soc_rows[j].0 += gc;
                soc_rows[j].1 += gd;
                let stored = ec * soc_rows[j].0 - soc_rows[j].1 / ed;
                let drift = st.dt_hours
                    * (t as f64 + 1.0)
                    * (ec * st.prev_charge_mw[j] - st.prev_discharge_mw[j] / ed);
                let scale = st.dt_hours * b1;
                worst = worst
                    .max(stored - (st.capacity_mwh[j] - st.soc_mwh[j] - drift) / scale)
                    .max(-stored - (st.soc_mwh[j] + drift) / scale);
            }
        }
    }
    worst
}

/// The repair without a seed, transcribed from its four phases on the
/// workload entries of `x` (the storage entries are left as they are):
/// the reference a seedless repair must reproduce bit for bit.
fn four_phase_workload_repair(p: &MpcProblem, x: &mut [f64]) {
    let (n, c) = (p.num_idcs(), p.num_portals());
    let (nc, nb) = (n * c, p.block_size());
    let cap = &p.capacities;
    let mut prev = p.prev_input.clone();
    for (t, forecast) in p.workload_forecast.iter().enumerate() {
        let block = &mut x[t * nb..t * nb + nc];
        let mut alloc: Vec<f64> = (0..nc).map(|k| (prev[k] + block[k]).max(0.0)).collect();
        for j in 0..n {
            let row = &mut alloc[j * c..(j + 1) * c];
            let load: f64 = row.iter().sum();
            if load > cap[j] && load > 0.0 {
                let keep = cap[j].max(0.0) / load;
                row.iter_mut().for_each(|v| *v *= keep);
            }
        }
        for i in 0..c {
            let served: f64 = (0..n).map(|j| alloc[j * c + i]).sum();
            if served > forecast[i] && served > 0.0 {
                let keep = forecast[i].max(0.0) / served;
                (0..n).for_each(|j| alloc[j * c + i] *= keep);
            }
        }
        let mut load: Vec<f64> = (0..n)
            .map(|j| alloc[j * c..(j + 1) * c].iter().sum())
            .collect();
        for i in 0..c {
            let served: f64 = (0..n).map(|j| alloc[j * c + i]).sum();
            let deficit = forecast[i] - served;
            if deficit <= 0.0 {
                continue;
            }
            let headroom = |j: usize| (cap[j] - load[j]).max(0.0);
            let mut weights: Vec<f64> = (0..n)
                .map(|j| {
                    if alloc[j * c + i] > SERVING_FLOOR {
                        headroom(j)
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut total: f64 = weights.iter().sum();
            if total < deficit {
                weights = (0..n).map(headroom).collect();
                total = weights.iter().sum();
            }
            if total <= 0.0 {
                continue;
            }
            for j in 0..n {
                let add = deficit * weights[j] / total;
                alloc[j * c + i] += add;
                load[j] += add;
            }
        }
        for k in 0..nc {
            block[k] = alloc[k] - prev[k];
        }
        prev = alloc;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The warm repair's guarantee: whenever capacities and forecasts are
    /// non-negative and every stage's demand fits the fleet, the repaired
    /// shifted point satisfies every constraint family — conservation,
    /// capacity, non-negativity, rate and SoC boxes — within the tolerance
    /// at which the solver accepts a warm start.
    #[test]
    fn warm_repair_is_feasible_when_the_fleet_covers_the_forecast(
        n in 1usize..7,
        c in 1usize..6,
        beta2 in 1usize..5,
        storage in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = SplitMix(seed);
        let (problem, mut x) = random_repair_instance(n, c, beta2, storage == 1, &mut rng);
        warm_repair::repair(&problem, &mut x, &[], &mut RepairScratch::default());
        let norm = x.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        let worst = worst_violation(&problem, &x);
        prop_assert!(
            worst <= WARM_TOL * (1.0 + norm),
            "violation {worst} (‖x‖∞ = {norm}) on {problem:?}"
        );
    }

    /// The refill of seeded capacity faces: with a random mask of seeded
    /// faces the repaired point is as feasible as without one, and every
    /// seeded IDC left below its capacity face has drained the other IDCs'
    /// entries on each portal it serves — so a seeded IDC whose deficit
    /// those entries cover ends on its face. Without a seed the repair is
    /// the four-phase repair, bit for bit.
    #[test]
    fn warm_repair_refills_the_seeded_capacity_faces(
        n in 1usize..7,
        c in 1usize..6,
        beta2 in 1usize..5,
        storage in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = SplitMix(seed);
        let (problem, shifted) = random_repair_instance(n, c, beta2, storage == 1, &mut rng);
        let full: Vec<bool> = (0..beta2 * n).map(|_| rng.chance(0.4)).collect();
        let mut scratch = RepairScratch::default();

        let mut seedless = shifted.clone();
        warm_repair::repair(&problem, &mut seedless, &[], &mut scratch);
        let mut reference = shifted.clone();
        four_phase_workload_repair(&problem, &mut reference);
        let (nc, nb) = (n * c, problem.block_size());
        for t in 0..beta2 {
            for k in 0..nc {
                prop_assert_eq!(
                    seedless[t * nb + k].to_bits(),
                    reference[t * nb + k].to_bits(),
                    "stage {} entry {}", t, k
                );
            }
        }

        let mut x = shifted;
        warm_repair::repair(&problem, &mut x, &full, &mut scratch);
        let norm = x.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        let tol = WARM_TOL * (1.0 + norm);
        let worst = worst_violation(&problem, &x);
        prop_assert!(worst <= tol, "violation {worst} (‖x‖∞ = {norm}) on {problem:?}");
        for t in 0..beta2 {
            // The storage entries are repaired apart from the workload.
            prop_assert_eq!(&x[t * nb + nc..(t + 1) * nb], &seedless[t * nb + nc..(t + 1) * nb]);
        }
        let mut u = problem.prev_input.clone();
        for t in 0..beta2 {
            for k in 0..nc {
                u[k] += x[t * nb + k];
            }
            for j in (0..n).filter(|&j| full[t * n + j]) {
                let load: f64 = u[j * c..(j + 1) * c].iter().sum();
                if load >= problem.capacities[j] - tol {
                    continue;
                }
                for i in (0..c).filter(|&i| u[j * c + i] > SERVING_FLOOR) {
                    let donors: f64 = (0..n)
                        .filter(|&k| !full[t * n + k])
                        .map(|k| u[k * c + i])
                        .sum();
                    prop_assert!(
                        donors <= tol,
                        "stage {t}: IDC {j} at {load} below {} while donors hold {donors} on portal {i}",
                        problem.capacities[j]
                    );
                }
            }
        }
    }
}
