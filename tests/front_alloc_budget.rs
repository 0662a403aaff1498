//! How often the front end — design text to a netlist to tensors, and a
//! netlist back to text — calls the allocator.
//!
//! A netlist holds one fanin and one fanout list per cell, so reading a
//! design needs about two allocations per node; everything else the
//! reader and the featurizer keep (the statement and edge lists, the name
//! table, levels, SCOAP, the feature matrix and both CSRs) is a handful of
//! flat buffers. A per-gate argument `Vec`, a list grown push by push, or
//! a per-row COO sort shows up here as several calls per node. Writing
//! sizes its one string up front. A counting global allocator pins both;
//! this file holds one test, so the process-wide counter sees only its
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use gcn_testability::gcn::GraphData;
use gcn_testability::netlist::{format, generate, GeneratorConfig};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicUsize = AtomicUsize::new(0);

fn record() {
    // Statistics only: nothing is published through the counter.
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call delegates to the `System` allocator unchanged; the
// only extra work is bumping a counter, so `GlobalAlloc`'s layout/pointer
// contracts hold exactly as `System` upholds them.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `layout` is forwarded to `System.alloc` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    // SAFETY: `layout` is forwarded to `System.alloc_zeroed` untouched.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`,
    // and `new_size` is forwarded untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: `ptr`/`layout` came from `alloc`/`alloc_zeroed`/`realloc`
    // above, which returned them from `System` — what `System.dealloc`
    // expects.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls made while `f` runs, and its result.
fn calls<T>(f: impl FnOnce() -> T) -> (usize, T) {
    CALLS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (CALLS.load(Ordering::Relaxed), out)
}

#[test]
fn the_front_end_allocates_per_list_not_per_token() {
    let net = generate(&GeneratorConfig::sized("front", 41, 20_000));
    let n = net.node_count();

    let (write_calls, text) = calls(|| format::write(&net));
    assert!(
        write_calls <= 8,
        "format::write made {write_calls} allocator calls for {n} nodes"
    );

    let (read_calls, data) = calls(|| {
        let back = format::read(&text).expect("the writer's text reads back");
        GraphData::from_netlist(&back, None).expect("a read netlist featurizes")
    });
    assert_eq!(data.tensors.node_count(), n);
    let per_node = read_calls as f64 / n as f64;
    assert!(
        per_node <= 2.0,
        "read + featurize made {read_calls} allocator calls, {per_node:.2} per node"
    );
}
