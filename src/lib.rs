//! # gcn-testability
//!
//! A from-scratch Rust reproduction of *"High Performance Graph
//! Convolutional Networks with Applications in Testability Analysis"*
//! (Ma, Ren, Khailany, Sikka, Luo, Natarajan, Yu — DAC 2019).
//!
//! The paper trains a scalable, inductive GCN to spot
//! *difficult-to-observe* nodes in gate-level netlists and drives an
//! iterative observation-point insertion flow with it, beating a
//! commercial testability tool by 11% on inserted points and 6% on
//! pattern count at equal fault coverage.
//!
//! This crate is a facade over the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`netlist`] | gate-level graphs, SCOAP, synthetic design generator, observation-point insertion |
//! | [`tensor`] | dense + COO/CSR sparse kernels |
//! | [`nn`] | linear/MLP layers, weighted losses, optimisers |
//! | [`gcn`] | the GCN model, multi-stage cascade, sparse + recursive inference, one-worker-per-graph training |
//! | [`dft`] | logic simulation, CPT, ATPG, labeling, both OP-insertion flows |
//! | [`lint`] | static analysis of *design data*: netlist and graph-tensor invariants with stable rule ids |
//! | [`runtime`] | resilience: checksummed checkpoint/resume, divergence guards, fault injection |
//! | [`store`] | crash-safe paged design/embedding store: checksummed fixed-size pages, bounded cache, scrub/compact, quarantine |
//! | [`serve`] | long-lived service: bounded admission, deadlines, degradation ladder, write-ahead journaled flow jobs with store-backed compaction and warm restart |
//! | [`net`] | fault-hardened TCP serving: checksummed wire protocol, shard router across serve cores, graceful drain, network fault matrix |
//! | [`obs`] | observability: global metrics registry, counters/gauges/histograms, JSON + Prometheus snapshots |
//! | [`report`] | machine-readable CLI line convention (`METRICS_*`, `NET_*`, `LOADGEN_*`) |
//!
//! ## Quickstart
//!
//! ```
//! use gcn_testability::gcn::{Gcn, GcnConfig, GraphData};
//! use gcn_testability::netlist::{generate, GeneratorConfig};
//!
//! // Generate a synthetic scan design and prepare it for the model.
//! let net = generate(&GeneratorConfig::sized("demo", 1, 1_000));
//! let data = GraphData::from_netlist(&net, None)?;
//!
//! // An untrained model still demonstrates the full inference pipeline.
//! let model = Gcn::new(&GcnConfig::default(), &mut gcn_testability::nn::seeded_rng(0));
//! let probabilities = model.predict_proba(&data.tensors, &data.features)?;
//! assert_eq!(probabilities.len(), net.node_count());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See the `examples/` directory for end-to-end flows: training,
//! multi-stage classification, observation-point insertion and
//! million-node inference.

#![forbid(unsafe_code)]

pub mod report;

pub use gcnt_core as gcn;
pub use gcnt_dft as dft;
pub use gcnt_lint as lint;
pub use gcnt_net as net;
pub use gcnt_netlist as netlist;
pub use gcnt_nn as nn;
pub use gcnt_obs as obs;
pub use gcnt_runtime as runtime;
pub use gcnt_serve as serve;
pub use gcnt_store as store;
pub use gcnt_tensor as tensor;
