//! A steady-state warm-started solve allocates only the solution it
//! returns: every scratch buffer of the active-set loop and the KKT steps
//! lives in the caller's `BandedWorkspace`.
//!
//! The whole binary runs under a counting global allocator; the count is
//! per thread, so the test harness's own threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use idc_linalg::banded::BlockTridiag;
use idc_opt::banded_qp::{BandedQp, BandedWorkspace, SparseRow};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Four independent chains of two 3-variable blocks: each stage's
/// variables sum to zero, and every variable lies in `[−0.2, 0.3]`. The
/// origin is feasible.
fn problem() -> BandedQp {
    let (nb, blocks) = (3, 8);
    let mut h = BlockTridiag::new(nb, blocks);
    for t in 0..blocks {
        let d = h.diag_mut(t);
        for i in 0..nb {
            for j in 0..nb {
                d[i * nb + j] = if i == j { 4.0 + t as f64 * 0.1 } else { 0.5 };
            }
        }
        if t % 2 == 0 {
            h.sub_mut(t).fill(0.3);
        }
    }
    let n = nb * blocks;
    let mut qp = BandedQp::new(h, vec![0.0; n]).unwrap();
    for t in 0..blocks {
        let row = (0..nb).map(|i| (t * nb + i, 1.0)).collect();
        qp = qp.equality(SparseRow::from_entries(row), 0.0);
    }
    for i in 0..n {
        qp = qp
            .inequality(SparseRow::from_entries(vec![(i, 1.0)]), 0.3)
            .inequality(SparseRow::from_entries(vec![(i, -1.0)]), 0.2);
    }
    qp
}

/// Two gradients whose optima bind different bounds, so a warm solve from
/// one optimum towards the other adds and drops working constraints.
fn gradients(n: usize) -> [Vec<f64>; 2] {
    let wave = |phase: f64| -> Vec<f64> {
        (0..n)
            .map(|i| 6.0 * ((i as f64) * 1.7 + phase).sin())
            .collect()
    };
    [wave(0.0), wave(2.0)]
}

#[test]
fn repeated_warm_solve_allocates_only_the_returned_solution() {
    let mut qp = problem();
    let n = qp.num_vars();
    let grads = gradients(n);
    let mut ws = BandedWorkspace::new();
    let mut optima = Vec::new();
    for g in &grads {
        qp.set_gradient(g).unwrap();
        optima.push(qp.warm_start(&vec![0.0; n], &[], &mut ws).unwrap());
    }
    // Warm solves from each optimum towards the other gradient's. The
    // first round sizes every buffer; the second must reuse them all.
    for round in 0..2 {
        for (target, start) in [(0, 1), (1, 0)] {
            qp.set_gradient(&grads[target]).unwrap();
            let (x0, seed) = (optima[start].x(), optima[start].active_set());
            let before = allocations();
            let sol = qp.warm_start(x0, seed, &mut ws).unwrap();
            let allocated = allocations() - before;
            let stats = sol.stats();
            assert!(
                stats.constraints_added + stats.constraints_dropped > 0,
                "the warm solve changed no working constraint: {stats:?}"
            );
            // Outside the counted region: the objective allocates `H·x`.
            let objective = qp.objective_at(sol.x());
            assert!((objective - qp.objective_at(optima[target].x())).abs() < 1e-9);
            if round == 1 {
                // The returned point, and the active set when non-empty.
                let expected = 1 + usize::from(!sol.active_set().is_empty());
                assert_eq!(allocated, expected, "round {round}, target {target}");
            }
        }
    }
}
