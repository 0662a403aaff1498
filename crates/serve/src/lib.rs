//! `gcnt-serve`: a long-lived inference/flow service over the GCN
//! testability stack, built for graceful degradation rather than graceful
//! failure.
//!
//! A testability service sits in a physical-design loop: other tools
//! submit designs, wait for difficult-to-observe scores or a finished
//! observation-point insertion, and retry on failure. That shape makes
//! four failure modes routine — request storms, blown deadlines, stale
//! incremental caches, and killed processes mid-flow — and this crate
//! turns each into a typed, tested behaviour:
//!
//! * **Bounded admission** ([`queue`], [`ServeHandle`]): a fixed-capacity
//!   request queue; a full (or fault-saturated) queue rejects immediately
//!   with [`ServeError::Overloaded`] instead of growing an unbounded
//!   backlog.
//! * **Deadlines** ([`ServeCore`]): each request gets a deterministic
//!   work budget in embedding-row units ([`gcnt_tensor::Budget`]),
//!   checked cooperatively between GCN layers and flow iterations.
//! * **A degradation ladder** ([`ladder`]): incremental session → full
//!   sparse inference → first-cascade-stage-only scoring, stepped down on
//!   budget stops and stale/poisoned caches; the response names the rung
//!   that answered. The bottom rung runs unbudgeted, so every admitted
//!   request completes.
//! * **Write-ahead journaled flow jobs** ([`journal`]): one checksummed,
//!   fsynced record per committed insertion batch; a killed process
//!   resumes to a bit-identical [`gcnt_dft::flow::FlowOutcome`], with
//!   torn tails healed and real corruption (a record failing its
//!   checksum, a sequence gap) refused as [`ServeError::Journal`].
//! * **Store-backed durability** ([`store`], opt-in via
//!   [`ServeCore::with_store`]): journals compact into a checksummed
//!   [`gcnt_store::PageStore`] (bounding on-disk growth), and
//!   incremental answers persist their per-layer embeddings so a warm
//!   restart reloads pages instead of recomputing — bit-identical either
//!   way, with corrupt pages quarantined and recomputed.
//!
//! The tests drive all of it deterministically through
//! [`gcnt_runtime::FaultPlan`] ([`ServeCore::with_faults`]): injected
//! latency, queue saturation, stale-cache poisoning,
//! kill-after-journal-record, store disk-full, and kill-mid-compaction.
//! A production core carries [`gcnt_runtime::FaultPlan::none`].
//!
//! # Example
//!
//! ```
//! use gcnt_core::{Gcn, GcnConfig, GraphData, MultiStageGcn};
//! use gcnt_netlist::{generate, GeneratorConfig};
//! use gcnt_serve::{Rung, ServeConfig, ServeCore, ServeHandle};
//!
//! let net = generate(&GeneratorConfig::sized("demo", 1, 120));
//! let data = GraphData::from_netlist(&net, None).expect("generated design is well-formed");
//! let cfg = GcnConfig { embed_dims: vec![4], fc_dims: vec![4], ..GcnConfig::default() };
//! let model = MultiStageGcn::from_stages(
//!     vec![Gcn::new(&cfg, &mut gcnt_nn::seeded_rng(1))],
//!     0.5,
//! );
//!
//! let core = ServeCore::new(data.normalizer, model, ServeConfig::default());
//! let handle = ServeHandle::start(core)?;
//! let resp = handle.infer(net, None)?;
//! assert_eq!(resp.rung, Rung::Incremental); // no pressure, no degradation
//! # Ok::<(), gcnt_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod error;
pub mod journal;
pub mod ladder;
pub mod queue;
pub mod server;
pub mod store;

pub use error::ServeError;
pub use journal::{FlowJournal, JournalHeader, Recovered, JOURNAL_SEGMENT_KIND, JOURNAL_VERSION};
pub use ladder::{classify_with_ladder_backed, LadderResult, Rung, RungDrop};
pub use queue::BoundedQueue;
pub use server::{
    FlowJobResult, FlowResponse, InferResponse, ServeConfig, ServeCore, ServeHandle, Ticket,
};
pub use store::{design_fingerprint, model_fingerprint, JobStore, StorePolicy};
