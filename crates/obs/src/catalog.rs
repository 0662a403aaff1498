//! The workspace's fixed metric catalog.
//!
//! Every metric the workspace can ever record is declared here, at compile
//! time, with a stable name. A fixed catalog buys three things:
//!
//! * **O(1) hot paths.** A metric id is an index into a pre-sized atomic
//!   array — no name hashing, no lock, no allocation on the record path.
//! * **A deterministic schema.** A snapshot always contains every metric
//!   (zero-valued ones included), in catalog order, so the JSON key set is
//!   a reviewable artifact: renaming or dropping a metric changes the
//!   committed golden list (`tests/golden/metrics_keys.txt`) and fails CI
//!   instead of silently drifting.
//! * **A single place to read the name catalog** — every name and its
//!   `help` string is here; README.md#observability says what each layer
//!   reports.
//!
//! Naming convention: `gcnt_<crate>_<what>[_total|_ns]`, following the
//! Prometheus exposition conventions (`_total` for counters, `_ns` for
//! nanosecond histograms).

/// Identifies a counter in the catalog; obtained from the `counters`
/// constants, never constructed by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) usize);

/// Identifies a gauge in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(pub(crate) usize);

/// Identifies a histogram in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(pub(crate) usize);

/// A counter's catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct CounterDef {
    /// Stable exposition name.
    pub name: &'static str,
    /// One-line description (Prometheus `# HELP`).
    pub help: &'static str,
}

/// A gauge's catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct GaugeDef {
    /// Stable exposition name.
    pub name: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// A histogram's catalog entry. `buckets` are inclusive upper bounds
/// (`le`); an implicit `+Inf` bucket is always appended.
#[derive(Debug, Clone, Copy)]
pub struct HistogramDef {
    /// Stable exposition name.
    pub name: &'static str,
    /// One-line description.
    pub help: &'static str,
    /// Inclusive upper bucket bounds, strictly increasing.
    pub buckets: &'static [u64],
}

/// Maximum explicit bucket bounds a histogram may declare; the registry
/// reserves `MAX_BUCKETS + 1` count slots per histogram (the extra one is
/// the implicit `+Inf` bucket).
pub const MAX_BUCKETS: usize = 13;

/// Nanosecond latency buckets: 1µs … 4s, roughly ×4 per step.
pub const NS_BUCKETS: &[u64] = &[
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    256_000_000,
    1_000_000_000,
    4_000_000_000,
];

/// Embedding-row work buckets: 1 … 16M rows, ×8 per step.
pub const ROW_BUCKETS: &[u64] = &[1, 8, 64, 512, 4_096, 32_768, 262_144, 2_097_152, 16_777_216];

macro_rules! declare_counters {
    ($( $(#[$doc:meta])* $konst:ident => $name:literal, $help:literal; )+) => {
        #[allow(non_camel_case_types, clippy::enum_variant_names)]
        enum __CounterIdx { $($konst),+ }
        /// Counter ids, one per catalog entry.
        pub mod counters {
            use super::{CounterId, __CounterIdx};
            $( $(#[$doc])* pub const $konst: CounterId =
                CounterId(__CounterIdx::$konst as usize); )+
        }
        /// Every counter in the catalog, in id order.
        pub const COUNTERS: &[CounterDef] = &[
            $( CounterDef { name: $name, help: $help } ),+
        ];
    };
}

macro_rules! declare_gauges {
    ($( $(#[$doc:meta])* $konst:ident => $name:literal, $help:literal; )+) => {
        #[allow(non_camel_case_types)]
        enum __GaugeIdx { $($konst),+ }
        /// Gauge ids, one per catalog entry.
        pub mod gauges {
            use super::{GaugeId, __GaugeIdx};
            $( $(#[$doc])* pub const $konst: GaugeId =
                GaugeId(__GaugeIdx::$konst as usize); )+
        }
        /// Every gauge in the catalog, in id order.
        pub const GAUGES: &[GaugeDef] = &[
            $( GaugeDef { name: $name, help: $help } ),+
        ];
    };
}

macro_rules! declare_histograms {
    ($( $(#[$doc:meta])* $konst:ident => $name:literal, $help:literal, $buckets:expr; )+) => {
        #[allow(non_camel_case_types)]
        enum __HistIdx { $($konst),+ }
        /// Histogram ids, one per catalog entry.
        pub mod histograms {
            use super::{HistogramId, __HistIdx};
            $( $(#[$doc])* pub const $konst: HistogramId =
                HistogramId(__HistIdx::$konst as usize); )+
        }
        /// Every histogram in the catalog, in id order.
        pub const HISTOGRAMS: &[HistogramDef] = &[
            $( HistogramDef { name: $name, help: $help, buckets: $buckets } ),+
        ];
    };
}

declare_counters! {
    // --- tensor: sparse kernels and work budgets ---
    /// Forward SpMM kernel invocations (`spmm` + `spmm_rows`).
    TENSOR_SPMM_CALLS => "gcnt_tensor_spmm_calls_total",
        "Sparse-matrix-multiply kernel invocations (full and row-sliced)";
    /// Output rows produced by the forward SpMM kernels.
    TENSOR_SPMM_ROWS => "gcnt_tensor_spmm_rows_total",
        "Output rows produced by the SpMM kernels";
    /// Nonzeros traversed by the forward SpMM kernels.
    TENSOR_SPMM_NNZ => "gcnt_tensor_spmm_nnz_total",
        "Nonzero entries traversed by the SpMM kernels";
    /// Cooperative budget charges rejected with `BudgetExceeded`.
    TENSOR_BUDGET_STOPS => "gcnt_tensor_budget_stops_total",
        "Work-budget charges rejected because the cap was spent";
    /// Halo rows gathered from other partitions by partitioned SpMM.
    TENSOR_HALO_ROWS => "gcnt_tensor_halo_rows_exchanged_total",
        "Halo rows exchanged between partitions by partitioned SpMM";

    // --- core: training, cascade, incremental inference ---
    /// Training epochs completed (`gcnt_core::train`).
    CORE_TRAIN_EPOCHS => "gcnt_core_train_epochs_total",
        "Training epochs completed";
    /// Full cascade inference passes (`MultiStageGcn::predict_proba*`).
    CORE_CASCADE_INFERENCES => "gcnt_core_cascade_inferences_total",
        "Full multi-stage cascade inference passes";
    /// Incremental session refreshes (`CascadeSession::refresh*`).
    CORE_SESSION_REFRESHES => "gcnt_core_session_refreshes_total",
        "Incremental cascade-session refreshes";
    /// Embedding rows actually recomputed by session refreshes.
    CORE_INCR_ROWS_COMPUTED => "gcnt_core_incremental_rows_computed_total",
        "Embedding rows recomputed by incremental refreshes (cache misses)";
    /// Embedding rows a full pass would have recomputed but the cache
    /// served instead.
    CORE_INCR_ROWS_REUSED => "gcnt_core_incremental_rows_reused_total",
        "Embedding rows served from the incremental cache (cache hits)";

    // --- dft: the GCN-guided OP-insertion flow ---
    /// Prediction/insert iterations executed.
    DFT_FLOW_ITERATIONS => "gcnt_dft_flow_iterations_total",
        "OP-insertion flow iterations executed";
    /// Candidates impact-scored (Fig. 6 previews).
    DFT_FLOW_CANDIDATES_SCORED => "gcnt_dft_flow_candidates_scored_total",
        "Flow candidates scored by impact preview";
    /// Observation points committed.
    DFT_FLOW_OPS_INSERTED => "gcnt_dft_flow_ops_inserted_total",
        "Observation points inserted by the flow";
    /// Failed insertions rolled back under the skip budget.
    DFT_FLOW_SKIPS => "gcnt_dft_flow_skips_total",
        "Failed insertions rolled back under the skip budget";
    /// Embedding rows computed across all flow inferences; matches
    /// `FlowOutcome::inference.rows_computed` for a fresh (non-resumed)
    /// run.
    DFT_FLOW_ROWS_COMPUTED => "gcnt_dft_flow_rows_computed_total",
        "Embedding rows computed by flow inferences";
    /// Full-pass-equivalent rows of the same inferences.
    DFT_FLOW_ROWS_FULL => "gcnt_dft_flow_rows_full_total",
        "Full-pass-equivalent embedding rows of flow inferences";
    /// Inference calls the flow made (full passes + session refreshes).
    DFT_FLOW_INFERENCES => "gcnt_dft_flow_inferences_total",
        "Inference calls made by the flow";

    // --- serve: admission, ladder, journal, store ---
    /// Requests admitted by a serving core.
    SERVE_REQUESTS => "gcnt_serve_requests_total",
        "Inference requests admitted";
    /// Submissions bounced by admission control (`Overloaded`).
    SERVE_ADMISSION_REJECTS => "gcnt_serve_admission_rejects_total",
        "Submissions rejected by bounded-queue admission control";
    /// Requests answered on the incremental rung.
    SERVE_RUNG_INCREMENTAL => "gcnt_serve_rung_incremental_total",
        "Requests answered on the incremental ladder rung";
    /// Requests answered on the full-sparse rung.
    SERVE_RUNG_FULL_SPARSE => "gcnt_serve_rung_full_sparse_total",
        "Requests answered on the full-sparse ladder rung";
    /// Requests answered on the first-stage floor rung.
    SERVE_RUNG_FIRST_STAGE => "gcnt_serve_rung_first_stage_total",
        "Requests answered on the first-stage ladder rung";
    /// Rungs abandoned on the way down (deadline pressure, cache faults).
    SERVE_RUNG_DROPS => "gcnt_serve_rung_drops_total",
        "Ladder rungs abandoned under deadline pressure or cache faults";
    /// Batch records appended (and fsynced) to a flow journal.
    SERVE_JOURNAL_APPENDS => "gcnt_serve_journal_appends_total",
        "Batch records appended and fsynced to flow journals";
    /// Journaled batches replayed on flow-job resume.
    SERVE_JOURNAL_REPLAYED => "gcnt_serve_journal_replayed_batches_total",
        "Journaled batches replayed when resuming flow jobs";
    /// Embedding rows persisted to the page store after warm inference.
    SERVE_STORE_ROWS_SAVED => "gcnt_serve_store_rows_saved_total",
        "Embedding rows persisted to the page store";
    /// Embedding rows reloaded from the page store on warm restart,
    /// instead of being recomputed.
    SERVE_STORE_ROWS_LOADED => "gcnt_serve_store_rows_loaded_total",
        "Embedding rows reloaded from the page store (recompute avoided)";

    // --- runtime: checkpoints and divergence guards ---
    /// Training checkpoints written.
    RUNTIME_CHECKPOINTS_WRITTEN => "gcnt_runtime_checkpoints_written_total",
        "Training checkpoints written";
    /// Training checkpoints loaded (validation passed).
    RUNTIME_CHECKPOINTS_LOADED => "gcnt_runtime_checkpoints_loaded_total",
        "Training checkpoints loaded and validated";
    /// Divergence-guard rollbacks performed.
    RUNTIME_ROLLBACKS => "gcnt_runtime_rollbacks_total",
        "Divergence-guard rollbacks to the last good state";

    // --- nn / netlist substrate ---
    /// Optimizer parameter-update steps.
    NN_OPTIMIZER_STEPS => "gcnt_nn_optimizer_steps_total",
        "Optimizer parameter-update steps";
    /// Synthetic designs generated.
    NETLIST_DESIGNS_GENERATED => "gcnt_netlist_designs_generated_total",
        "Synthetic designs generated";
    /// Full SCOAP recomputations.
    NETLIST_SCOAP_COMPUTES => "gcnt_netlist_scoap_computes_total",
        "Full SCOAP testability computations";

    // --- net: the TCP wire protocol and shard router ---
    /// Connections accepted by the net server or opened by its clients.
    NET_CONNECTIONS_OPENED => "gcnt_net_connections_opened_total",
        "Network connections accepted by the serving layer";
    /// Frames written to any connection, by either end.
    NET_FRAMES_SENT => "gcnt_net_frames_sent_total",
        "Wire frames written to connections";
    /// Frames read and verified from any connection.
    NET_FRAMES_RECV => "gcnt_net_frames_recv_total",
        "Wire frames read and checksum-verified from connections";
    /// Frames refused for a broken envelope: bad magic, length over the
    /// cap, or a payload checksum mismatch.
    NET_FRAME_CHECKSUM_FAILURES => "gcnt_net_frame_checksum_failures_total",
        "Wire frames refused for a broken envelope";
    /// Connections evicted because a frame stalled past the read
    /// deadline with bytes still outstanding.
    NET_SLOW_LORIS_EVICTIONS => "gcnt_net_slow_loris_evictions_total",
        "Connections evicted for trickling a frame past the read deadline";
    /// Typed protocol error frames written (Overloaded, Deadline, ...).
    NET_ERROR_FRAMES_SENT => "gcnt_net_error_frames_sent_total",
        "Typed protocol error frames written to clients";
    /// Client-side retries: reconnects and resubmitted requests after
    /// transient failures or retryable error frames.
    NET_CLIENT_RETRIES => "gcnt_net_client_retries_total",
        "Client reconnects and request retries after transient failures";

    // --- store: the crash-safe page store ---
    /// Pages read from the data file (cache misses; hits cost nothing).
    STORE_PAGE_READS => "gcnt_store_page_reads_total",
        "Store pages read from disk (page-cache misses)";
    /// Pages written to the data file.
    STORE_PAGE_WRITES => "gcnt_store_page_writes_total",
        "Store pages written to disk";
    /// Pages evicted from the bounded page cache.
    STORE_PAGE_EVICTIONS => "gcnt_store_page_cache_evictions_total",
        "Pages evicted from the bounded page cache";
    /// Integrity-check failures (page, segment, or metadata checksums).
    STORE_CHECKSUM_FAILURES => "gcnt_store_checksum_failures_total",
        "Store integrity-check failures (page/segment/metadata checksums)";
}

declare_gauges! {
    /// Loss of the most recent training epoch.
    CORE_TRAIN_LOSS => "gcnt_core_train_loss",
        "Loss of the most recent training epoch";
    /// Gradient norm of the most recent guarded training epoch.
    CORE_TRAIN_GRAD_NORM => "gcnt_core_train_grad_norm",
        "Gradient norm of the most recent guarded training epoch";
    /// Active nodes entering cascade stage 0 at the last cascade training.
    CORE_CASCADE_STAGE0_ACTIVE => "gcnt_core_cascade_stage0_active",
        "Active nodes entering cascade stage 0 (last training run)";
    /// Active nodes entering cascade stage 1 at the last cascade training.
    CORE_CASCADE_STAGE1_ACTIVE => "gcnt_core_cascade_stage1_active",
        "Active nodes entering cascade stage 1 (last training run)";
    /// Active nodes entering cascade stage 2 at the last cascade training.
    CORE_CASCADE_STAGE2_ACTIVE => "gcnt_core_cascade_stage2_active",
        "Active nodes entering cascade stage 2 (last training run)";
    /// Active nodes entering cascade stage 3 at the last cascade training.
    CORE_CASCADE_STAGE3_ACTIVE => "gcnt_core_cascade_stage3_active",
        "Active nodes entering cascade stage 3 (last training run)";
    /// Current bounded-queue depth.
    SERVE_QUEUE_DEPTH => "gcnt_serve_queue_depth",
        "Pending requests in the bounded queue";
    /// High-water mark of the bounded-queue depth.
    SERVE_QUEUE_DEPTH_HIGH_WATER => "gcnt_serve_queue_depth_high_water",
        "High-water mark of the bounded-queue depth";
    /// Live (uncompacted) records in the current flow journal.
    SERVE_JOURNAL_RECORDS => "gcnt_serve_journal_records",
        "Live records in the current flow journal";
    /// On-disk bytes of the current flow journal file.
    SERVE_JOURNAL_BYTES => "gcnt_serve_journal_bytes",
        "On-disk bytes of the current flow journal file";
    /// Partitions in the most recently built partitioned adjacency.
    TENSOR_PARTITIONS_ACTIVE => "gcnt_tensor_partitions_active",
        "Partitions in the most recently built partitioned adjacency";
    /// Currently open network connections.
    NET_CONNECTIONS_OPEN => "gcnt_net_connections_open",
        "Currently open network connections";
    /// High-water mark of simultaneously open network connections.
    NET_CONNECTIONS_PEAK => "gcnt_net_connections_peak",
        "High-water mark of simultaneously open network connections";
    /// Shards the router currently fans requests across.
    NET_SHARDS_ACTIVE => "gcnt_net_shards_active",
        "Shards the router fans requests across";
    /// High-water mark of any single shard's admission-queue depth.
    NET_SHARD_QUEUE_DEPTH_PEAK => "gcnt_net_shard_queue_depth_peak",
        "High-water mark of per-shard admission-queue depth";
}

declare_histograms! {
    /// Journal fsync latency per appended record.
    SERVE_JOURNAL_FSYNC_NS => "gcnt_serve_journal_fsync_ns",
        "Write-ahead journal append+fsync latency (ns)", NS_BUCKETS;
    /// Wall-clock latency of requests answered on the incremental rung.
    SERVE_RUNG_INCREMENTAL_NS => "gcnt_serve_rung_incremental_latency_ns",
        "Ladder latency of requests answered incrementally (ns)", NS_BUCKETS;
    /// Wall-clock latency of requests answered on the full-sparse rung.
    SERVE_RUNG_FULL_SPARSE_NS => "gcnt_serve_rung_full_sparse_latency_ns",
        "Ladder latency of requests answered full-sparse (ns)", NS_BUCKETS;
    /// Wall-clock latency of requests answered on the floor rung.
    SERVE_RUNG_FIRST_STAGE_NS => "gcnt_serve_rung_first_stage_latency_ns",
        "Ladder latency of requests answered first-stage (ns)", NS_BUCKETS;
    /// Embedding-row work spent per admitted request.
    SERVE_REQUEST_ROWS_SPENT => "gcnt_serve_request_rows_spent",
        "Embedding-row budget units spent per admitted request", ROW_BUCKETS;
    /// Wall-clock time of one `format::read`: design text to a validated
    /// netlist.
    NETLIST_PARSE_NS => "gcnt_netlist_parse_ns",
        "Design text parse and validation latency (ns)", NS_BUCKETS;
    /// Wall-clock time of one `GraphData::from_netlist`: levels, SCOAP,
    /// the feature matrix and both adjacency CSRs.
    CORE_FEATURIZE_NS => "gcnt_core_featurize_ns",
        "Netlist to features and adjacency tensors latency (ns)", NS_BUCKETS;
    /// Wall-clock latency per flow iteration.
    DFT_FLOW_ITERATION_NS => "gcnt_dft_flow_iteration_ns",
        "OP-insertion flow iteration latency (ns)", NS_BUCKETS;
    /// Journal records folded into pages per compaction run.
    STORE_COMPACTION_RECORDS => "gcnt_store_compaction_records",
        "Journal records folded into store pages per compaction", ROW_BUCKETS;
    /// Wall-clock latency of one partition worker's SpMM block.
    TENSOR_PARTITION_SPMM_NS => "gcnt_tensor_partition_spmm_ns",
        "Per-partition SpMM worker latency (ns)", NS_BUCKETS;
    /// Wall-clock latency of full SpMM passes (serial and partitioned).
    TENSOR_SPMM_NS => "gcnt_tensor_spmm_ns",
        "Full SpMM pass latency (ns)", NS_BUCKETS;
    /// Client-observed wall-clock latency per network request
    /// (loadgen's p50/p99/p999 source).
    NET_REQUEST_NS => "gcnt_net_request_latency_ns",
        "Client-observed network request latency (ns)", NS_BUCKETS;
    /// Encoded size of written wire frames.
    NET_FRAME_BYTES => "gcnt_net_frame_bytes",
        "Encoded bytes per written wire frame", ROW_BUCKETS;
}

/// Number of counters in the catalog.
pub const COUNTER_COUNT: usize = COUNTERS.len();
/// Number of gauges in the catalog.
pub const GAUGE_COUNT: usize = GAUGES.len();
/// Number of histograms in the catalog.
pub const HISTOGRAM_COUNT: usize = HISTOGRAMS.len();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = COUNTERS
            .iter()
            .map(|d| d.name)
            .chain(GAUGES.iter().map(|d| d.name))
            .chain(HISTOGRAMS.iter().map(|d| d.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names");
        for name in names {
            assert!(name.starts_with("gcnt_"), "{name}: missing gcnt_ prefix");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name}: invalid exposition name"
            );
        }
        for d in COUNTERS {
            assert!(
                d.name.ends_with("_total"),
                "{}: counters end in _total",
                d.name
            );
        }
    }

    #[test]
    fn histogram_buckets_fit_and_increase() {
        for d in HISTOGRAMS {
            assert!(
                d.buckets.len() <= MAX_BUCKETS,
                "{}: too many buckets",
                d.name
            );
            assert!(!d.buckets.is_empty(), "{}: no buckets", d.name);
            for w in d.buckets.windows(2) {
                assert!(w[0] < w[1], "{}: buckets not increasing", d.name);
            }
        }
    }
}
