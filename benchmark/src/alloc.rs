//! A counting wrapper around the system allocator. It always tracks the
//! live bytes in blocks of at least a page (a handful of counter updates
//! per op, yet 94–99 % of every workload's heap bytes), which gives the
//! deterministic `peak_heap_mb`; traced runs additionally arm per-call
//! totals, which `proc.alloc_mb_per_op` attributes page-fault time to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Blocks at least this large are tracked while live.
const BIG: usize = 4096;

static LIVE_BIG: AtomicU64 = AtomicU64::new(0);
static PEAK_BIG: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

// Every counter here is a statistic that publishes no other data, hence
// `Relaxed` throughout.
impl CountingAlloc {
    #[inline]
    fn grew(size: usize) {
        if size >= BIG {
            let now = LIVE_BIG.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
            PEAK_BIG.fetch_max(now, Ordering::Relaxed);
        }
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }

    #[inline]
    fn shrank(size: usize) {
        if size >= BIG {
            LIVE_BIG.fetch_sub(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds the contract of `GlobalAlloc::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds the contract of `GlobalAlloc::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::shrank(layout.size());
        // SAFETY: `ptr` was returned by `System` for this same `layout`,
        // since every allocation above comes from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller upholds the contract of `GlobalAlloc::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::shrank(layout.size());
        Self::grew(new_size);
        // SAFETY: `ptr` was returned by `System` for this same `layout`,
        // and `new_size` is the caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts counting every requested byte (traced runs only).
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Bytes requested since [`arm`].
pub fn requested_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// The peak of live big-block bytes since the last call, which starts a
/// new interval at the current level.
pub fn take_peak_bytes() -> u64 {
    PEAK_BIG.swap(LIVE_BIG.load(Ordering::Relaxed), Ordering::Relaxed)
}
