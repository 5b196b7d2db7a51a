//! Writes to existing metric keys allocate nothing: the registry looks a
//! key up by `&str` and copies it only on first insert, so the per-step
//! `observe` and the per-slice counter and gauge updates of the tenant
//! manager stay off the allocator.
//!
//! The whole binary runs under a counting global allocator; the count is
//! per thread, so the test harness's own threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use idc_runtime::metrics::MetricsRegistry;

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

const BOUNDS: [f64; 3] = [0.001, 0.01, 0.1];
const HISTOGRAM: &str = "idc_tenant_step_duration_seconds{tenant=\"t-00\"}";
const COUNTER: &str = "idc_tenant_checkpoints_total";
const STEPS: &str = "idc_tenant_steps_total{tenant=\"t-00\"}";
const COST: &str = "idc_tenant_cost_dollars{tenant=\"t-00\"}";

#[test]
fn steady_state_writes_to_existing_keys_allocate_nothing() {
    let registry = MetricsRegistry::new();
    // First writes create the entries, and may allocate.
    let before = allocations();
    registry.observe(HISTOGRAM, &BOUNDS, 0.005);
    registry.inc_counter(COUNTER, 1);
    registry.set_counter(STEPS, 1);
    registry.set_gauge(COST, 1.0);
    assert!(
        allocations() > before,
        "creating the entries allocated nothing"
    );

    let before = allocations();
    for k in 1..100u32 {
        registry.observe(HISTOGRAM, &BOUNDS, f64::from(k) * 1e-3);
        registry.inc_counter(COUNTER, 1);
        registry.set_counter(STEPS, u64::from(k));
        registry.set_gauge(COST, f64::from(k));
    }
    assert_eq!(allocations() - before, 0);

    assert_eq!(registry.counter(COUNTER), Some(100));
    assert_eq!(registry.counter(STEPS), Some(99));
    assert_eq!(registry.gauge(COST), Some(99.0));
    assert_eq!(
        registry.histogram_stats(HISTOGRAM).map(|(n, _)| n),
        Some(100)
    );
}
