//! The metric store: fixed-size atomic arrays behind an enabled flag.
//!
//! A `MetricsRegistry` owns one `AtomicU64` per counter, one per gauge
//! (f64 bits), and a fixed stride of slots per histogram. All record paths
//! are lock-free, allocation-free, and O(1); when the registry is disabled
//! (the default) every record path is a single `Relaxed` load and a
//! predictable branch.
//!
//! There is one process-wide instance (`global()`), plus `MetricsRegistry::new()`
//! for tests that need isolation from concurrently-running code.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::catalog::{
    CounterId, GaugeId, HistogramId, COUNTER_COUNT, GAUGE_COUNT, HISTOGRAMS, HISTOGRAM_COUNT,
    MAX_BUCKETS,
};

/// Slots per histogram in the flat array: `MAX_BUCKETS` explicit bucket
/// counts, one `+Inf` overflow count, the value sum, and the observation
/// count.
pub(crate) const HIST_STRIDE: usize = MAX_BUCKETS + 3;
pub(crate) const HIST_INF_SLOT: usize = MAX_BUCKETS;
pub(crate) const HIST_SUM_SLOT: usize = MAX_BUCKETS + 1;
pub(crate) const HIST_COUNT_SLOT: usize = MAX_BUCKETS + 2;

/// A fixed-catalog metric store. See the module docs.
pub struct MetricsRegistry {
    enabled: AtomicBool,
    counters: [AtomicU64; COUNTER_COUNT],
    gauges: [AtomicU64; GAUGE_COUNT],
    hist: [AtomicU64; HISTOGRAM_COUNT * HIST_STRIDE],
}

static GLOBAL: MetricsRegistry = MetricsRegistry::new();

/// The process-wide registry. Disabled until `global().enable()`.
pub fn global() -> &'static MetricsRegistry {
    &GLOBAL
}

impl MetricsRegistry {
    /// Creates a disabled registry with every metric at zero.
    pub const fn new() -> Self {
        MetricsRegistry {
            enabled: AtomicBool::new(false),
            counters: [const { AtomicU64::new(0) }; COUNTER_COUNT],
            gauges: [const { AtomicU64::new(0) }; GAUGE_COUNT],
            hist: [const { AtomicU64::new(0) }; HISTOGRAM_COUNT * HIST_STRIDE],
        }
    }

    /// Turns recording on.
    pub fn enable(&self) {
        // ORDERING: Release publishes writes made before enabling; the
        // flag flip itself is off the record paths, so the cost is fine.
        self.enabled.store(true, Ordering::Release);
    }

    /// Turns recording off; existing values are kept.
    pub fn disable(&self) {
        // ORDERING: Release, symmetric with `enable`; record paths keep
        // their Relaxed load either way.
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether record calls currently do anything. This is the branch every
    /// hot path takes; `Relaxed` keeps it to a plain load.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    // --- counters ---

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        self.counters[id.0].fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Current value of a counter (reads regardless of the enabled flag).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.0].load(Ordering::Relaxed)
    }

    // --- gauges (f64 stored as bits) ---

    /// Sets a gauge to `value`.
    #[inline]
    pub fn gauge_set(&self, id: GaugeId, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.gauges[id.0].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Raises a gauge to `value` if `value` exceeds the current reading
    /// (high-water mark). NaN is ignored.
    #[inline]
    pub fn gauge_max(&self, id: GaugeId, value: f64) {
        if !self.is_enabled() || value.is_nan() {
            return;
        }
        let slot = &self.gauges[id.0];
        let mut cur = slot.load(Ordering::Relaxed);
        while value > f64::from_bits(cur) {
            match slot.compare_exchange_weak(
                cur,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value of a gauge.
    pub fn gauge(&self, id: GaugeId) -> f64 {
        f64::from_bits(self.gauges[id.0].load(Ordering::Relaxed))
    }

    // --- histograms ---

    /// Records one observation of `value` into a histogram.
    #[inline]
    pub fn observe(&self, id: HistogramId, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let def = &HISTOGRAMS[id.0];
        let base = id.0 * HIST_STRIDE;
        // Bucket counts are non-cumulative in storage; the snapshot layer
        // accumulates them into Prometheus `le` semantics.
        let slot = match def.buckets.iter().position(|&b| value <= b) {
            Some(i) => i,
            None => HIST_INF_SLOT,
        };
        self.hist[base + slot].fetch_add(1, Ordering::Relaxed);
        self.hist[base + HIST_SUM_SLOT].fetch_add(value, Ordering::Relaxed);
        self.hist[base + HIST_COUNT_SLOT].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded into a histogram.
    pub fn histogram_count(&self, id: HistogramId) -> u64 {
        self.hist[id.0 * HIST_STRIDE + HIST_COUNT_SLOT].load(Ordering::Relaxed)
    }

    /// Sum of all values recorded into a histogram.
    pub fn histogram_sum(&self, id: HistogramId) -> u64 {
        self.hist[id.0 * HIST_STRIDE + HIST_SUM_SLOT].load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts, `+Inf` last.
    pub(crate) fn histogram_buckets(&self, id: HistogramId) -> Vec<u64> {
        let def = &HISTOGRAMS[id.0];
        let base = id.0 * HIST_STRIDE;
        let mut out = Vec::with_capacity(def.buckets.len() + 1);
        for i in 0..def.buckets.len() {
            out.push(self.hist[base + i].load(Ordering::Relaxed));
        }
        out.push(self.hist[base + HIST_INF_SLOT].load(Ordering::Relaxed));
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{counters, gauges, histograms, NS_BUCKETS};

    #[test]
    fn disabled_registry_records_nothing() {
        let r = MetricsRegistry::new();
        r.add(counters::TENSOR_SPMM_ROWS, 7);
        r.gauge_set(gauges::CORE_TRAIN_LOSS, 1.25);
        r.gauge_max(gauges::SERVE_QUEUE_DEPTH_HIGH_WATER, 9.0);
        r.observe(histograms::SERVE_JOURNAL_FSYNC_NS, 123);
        assert_eq!(r.counter(counters::TENSOR_SPMM_ROWS), 0);
        assert_eq!(r.gauge(gauges::CORE_TRAIN_LOSS), 0.0);
        assert_eq!(r.histogram_count(histograms::SERVE_JOURNAL_FSYNC_NS), 0);
    }

    #[test]
    fn enabled_registry_accumulates() {
        let r = MetricsRegistry::new();
        r.enable();
        r.add(counters::DFT_FLOW_OPS_INSERTED, 3);
        r.incr(counters::DFT_FLOW_OPS_INSERTED);
        assert_eq!(r.counter(counters::DFT_FLOW_OPS_INSERTED), 4);

        r.gauge_set(gauges::CORE_TRAIN_LOSS, 0.5);
        assert_eq!(r.gauge(gauges::CORE_TRAIN_LOSS), 0.5);
        r.gauge_max(gauges::SERVE_QUEUE_DEPTH_HIGH_WATER, 4.0);
        r.gauge_max(gauges::SERVE_QUEUE_DEPTH_HIGH_WATER, 2.0);
        assert_eq!(r.gauge(gauges::SERVE_QUEUE_DEPTH_HIGH_WATER), 4.0);

        r.observe(histograms::SERVE_JOURNAL_FSYNC_NS, 500);
        r.observe(histograms::SERVE_JOURNAL_FSYNC_NS, 2_000);
        r.observe(histograms::SERVE_JOURNAL_FSYNC_NS, u64::MAX / 2);
        assert_eq!(r.histogram_count(histograms::SERVE_JOURNAL_FSYNC_NS), 3);
        assert_eq!(
            r.histogram_sum(histograms::SERVE_JOURNAL_FSYNC_NS),
            500 + 2_000 + u64::MAX / 2
        );
        let buckets = r.histogram_buckets(histograms::SERVE_JOURNAL_FSYNC_NS);
        assert_eq!(buckets.len(), NS_BUCKETS.len() + 1);
        assert_eq!(buckets[0], 1); // 500 <= 1_000
        assert_eq!(buckets[1], 1); // 2_000 <= 4_000
        assert_eq!(buckets[NS_BUCKETS.len()], 1); // overflow -> +Inf
        assert_eq!(buckets.iter().sum::<u64>(), 3);
    }
}
