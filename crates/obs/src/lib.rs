//! gcnt-obs: the workspace's observability core.
//!
//! A zero-heavy-dep metrics layer: atomic counters, gauges, fixed-bucket
//! histograms and scoped span timers behind a global [`MetricsRegistry`],
//! with deterministic snapshot output in JSON and Prometheus text
//! exposition formats.
//!
//! Design constraints, in order:
//!
//! 1. **Free when off.** The registry starts disabled; every record path
//!    is then a single `Relaxed` atomic load and a branch — no clock
//!    reads, no allocation, no locks. Bench-verified ≤2% overhead on the
//!    `flow` bench.
//! 2. **Fixed catalog.** All metrics are declared at compile time in
//!    [`catalog`], giving O(1) index-based recording and a deterministic
//!    snapshot schema that CI can diff against a golden key list.
//! 3. **Injectable.** `obs::global()` is the process default; tests that
//!    need isolation construct their own `MetricsRegistry::new()`.
//!
//! Typical producer:
//!
//! ```
//! use gcnt_obs::{self as obs, counters};
//! obs::global().add(counters::TENSOR_SPMM_ROWS, 128);
//! ```
//!
//! Typical consumer:
//!
//! ```
//! use gcnt_obs::{self as obs, Snapshot};
//! obs::global().enable();
//! let snap = Snapshot::capture(obs::global());
//! let json = snap.to_json();
//! let prom = snap.to_prometheus();
//! # assert!(json.contains("gcnt_tensor_spmm_rows_total"));
//! # assert!(prom.contains("# TYPE"));
//! ```

#![forbid(unsafe_code)]

pub mod catalog;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use catalog::{
    counter_by_name, counters, gauge_by_name, gauges, histogram_by_name, histograms, CounterDef,
    CounterId, GaugeDef, GaugeId, HistogramDef, HistogramId, COUNTERS, COUNTER_COUNT, GAUGES,
    GAUGE_COUNT, HISTOGRAMS, HISTOGRAM_COUNT,
};
pub use registry::{global, MetricsRegistry};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use span::SpanTimer;

/// Starts a span timer against the global registry.
#[inline]
pub fn span(hist: HistogramId) -> SpanTimer<'static> {
    SpanTimer::start(global(), hist)
}
