//! The disabled registry must be free in both senses: it records nothing,
//! and the record paths allocate nothing. A counting global allocator makes
//! the second claim testable — any heap traffic inside the measured window
//! is a regression in the "observability off" cost story. The count is
//! per thread, so each test measures only its own window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gcnt_obs::catalog::{counters, gauges, histograms};
use gcnt_obs::{MetricsRegistry, SpanTimer};

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread. The default test runner runs the
    /// two tests (and its own harness thread) concurrently, so a
    /// process-wide count would charge one test for another's heap
    /// traffic. `const`-initialised and without a destructor, so touching
    /// it from inside the allocator neither allocates nor registers
    /// anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call delegates to the `System` allocator unchanged; the
// only extra work is a counter bump, so `GlobalAlloc`'s layout/pointer
// contracts hold exactly as `System` upholds them.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `layout` is forwarded to `System.alloc` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` came from `alloc` above, which returned
    // them from `System.alloc` — exactly what `System.dealloc` expects.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_registry_records_nothing_and_allocates_nothing() {
    let registry = MetricsRegistry::new();
    assert!(!registry.is_enabled(), "registries start disabled");

    let before = allocations();
    for i in 0..1_000u64 {
        registry.incr(counters::TENSOR_SPMM_CALLS);
        registry.add(counters::TENSOR_SPMM_ROWS, i);
        registry.gauge_set(gauges::CORE_TRAIN_LOSS, i as f64);
        registry.gauge_max(gauges::SERVE_QUEUE_DEPTH_HIGH_WATER, i as f64);
        registry.observe(histograms::DFT_FLOW_ITERATION_NS, i);
        let span = SpanTimer::start(&registry, histograms::SERVE_JOURNAL_FSYNC_NS);
        span.finish();
    }
    let after = allocations();

    assert_eq!(after, before, "disabled record paths must not allocate");
    assert_eq!(registry.counter(counters::TENSOR_SPMM_CALLS), 0);
    assert_eq!(registry.counter(counters::TENSOR_SPMM_ROWS), 0);
    assert_eq!(registry.gauge(gauges::CORE_TRAIN_LOSS), 0.0);
    assert_eq!(registry.gauge(gauges::SERVE_QUEUE_DEPTH_HIGH_WATER), 0.0);
    assert_eq!(
        registry.histogram_count(histograms::DFT_FLOW_ITERATION_NS),
        0
    );
    assert_eq!(registry.histogram_sum(histograms::DFT_FLOW_ITERATION_NS), 0);
    assert_eq!(
        registry.histogram_count(histograms::SERVE_JOURNAL_FSYNC_NS),
        0
    );
}

#[test]
fn enabled_record_paths_do_not_allocate_either() {
    // Not an acceptance requirement, but worth pinning: the hot record
    // paths are pure atomic ops even when enabled; only snapshotting
    // allocates.
    let registry = MetricsRegistry::new();
    registry.enable();

    let before = allocations();
    for i in 0..1_000u64 {
        registry.incr(counters::TENSOR_SPMM_CALLS);
        registry.add(counters::TENSOR_SPMM_ROWS, i);
        registry.gauge_set(gauges::CORE_TRAIN_LOSS, i as f64);
        registry.observe(histograms::DFT_FLOW_ITERATION_NS, i);
    }
    let after = allocations();

    assert_eq!(after, before, "enabled record paths must not allocate");
    assert_eq!(registry.counter(counters::TENSOR_SPMM_CALLS), 1_000);
}
