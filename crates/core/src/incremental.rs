//! Incremental inference engine: dirty-cone embedding reuse.
//!
//! The paper's matrix-form inference (§3.4.1) recomputes every node
//! embedding on every call, yet the OP-insertion flow (§4) perturbs only a
//! handful of rows per step: a SCOAP preview touches one fan-in cone, a
//! committed insertion appends one node. This module caches the per-layer
//! embeddings `E_1..E_D` of a base graph state and, given the set of dirty
//! nodes, recomputes only the *D-hop halo* around them:
//!
//! * the dirty frontier grows one hop per aggregate round — predecessors
//!   *and* successors, since [`GraphTensors::aggregate`] sums over both
//!   ([`GraphTensors::halo_step`]);
//! * the affected rows are recomputed in place in the cached layer by
//!   the row-tiled layer step every pass runs ([`crate::pass`]), their old
//!   values kept for the undo.
//!
//! The same step runs the halo *backwards* for the filtered cascade: the
//! final embedding of a few surviving rows needs the layer below on their
//! one-hop halo, and so on down to the features — `halo_step` is its own
//! inverse because `succ ≡ predᵀ`.
//!
//! Because every kernel involved is row-independent with an unchanged
//! per-row accumulation order, the patched cache is **bit-for-bit equal** to
//! a full recompute — not merely close. That exactness is load-bearing: the
//! flow compares probabilities against a threshold, and a `1e-7` drift could
//! flip a candidate across it.
//!
//! Staleness is policed with a generation counter:
//! [`GraphTensors::insert_observation_point`] bumps
//! [`GraphTensors::generation`], and a cache built against an older
//! generation refuses to serve
//! ([`gcnt_tensor::TensorError::StaleCache`]). After a committed insertion,
//! call [`CascadeSession::sync_nodes`] to grow the cache (new rows zeroed)
//! and adopt the new generation, then pass the insertion's dirty set to the
//! next [`CascadeSession::refresh`].

use gcnt_tensor::{Budget, Matrix, Result, TensorError};

use crate::backend::MatrixBackend;
use crate::multistage::cascade_rows;
use crate::pass;
use crate::{Gcn, GraphTensors, MultiStageGcn};

/// Per-layer embeddings `E_1..E_D` of one [`Gcn`] on one graph state.
///
/// The input features `E_0 = X` are *not* owned here — callers keep a
/// single authoritative copy and pass it to every call, so a flow state and
/// its session never hold diverging feature matrices.
#[derive(Debug, Clone)]
pub struct EmbeddingCache {
    layers: Vec<Matrix>,
    generation: u64,
}

impl EmbeddingCache {
    /// Rebuilds a cache from externally persisted layers (e.g. pages of a
    /// warm-restart store). The layers must be `E_1..E_D` in order, all
    /// with the same row count; `generation` is the graph generation they
    /// were computed at, re-validated when the cache is next used.
    ///
    /// # Errors
    ///
    /// [`TensorError::LengthMismatch`] if no layers are supplied, and
    /// [`TensorError::ShapeMismatch`] if the layers disagree on row count.
    pub fn from_layers(layers: Vec<Matrix>, generation: u64) -> Result<Self> {
        let Some(first) = layers.first() else {
            return Err(TensorError::LengthMismatch {
                expected: 1,
                actual: 0,
            });
        };
        let rows = first.rows();
        for layer in &layers {
            if layer.rows() != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "EmbeddingCache::from_layers",
                    lhs: (rows, first.cols()),
                    rhs: layer.shape(),
                });
            }
        }
        Ok(EmbeddingCache { layers, generation })
    }

    /// Generation of the graph state this cache was built against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The cached layers `E_1..E_D` (index `d` holds `E_{d+1}`).
    pub fn layers(&self) -> &[Matrix] {
        &self.layers
    }

    /// The final embedding `E_D`, input of the classifier head.
    ///
    /// # Panics
    ///
    /// Panics if the cache holds no layers; [`Gcn::embed_cached`] always
    /// produces at least one.
    #[expect(
        clippy::expect_used,
        reason = "documented-panic accessor; a built cache always holds a layer"
    )]
    pub fn final_embedding(&self) -> &Matrix {
        self.layers.last().expect("cache holds at least one layer")
    }

    /// Grows every layer to `n` rows (new rows zeroed) and adopts the given
    /// generation — the post-insertion resync. The zero rows are
    /// placeholders: the caller must include the new nodes in the next
    /// dirty set so they get computed for real.
    #[expect(
        clippy::expect_used,
        reason = "a zero row of the layer's own width always fits"
    )]
    pub fn extend_to(&mut self, n: usize, generation: u64) {
        for layer in &mut self.layers {
            let zero = vec![0.0; layer.cols()];
            while layer.rows() < n {
                layer.push_row(&zero).expect("zero row matches layer width");
            }
        }
        self.generation = generation;
    }

    /// Restores the rows recorded in `delta`, undoing the matching
    /// [`Gcn::embed_incremental`] call. Deltas must be reverted in reverse
    /// order of application.
    #[expect(
        clippy::expect_used,
        reason = "undo rows were gathered from this layer, so they scatter back"
    )]
    pub fn revert(&mut self, delta: EmbeddingDelta) {
        for (layer, (rows, old)) in self.layers.iter_mut().zip(delta.layer_undo) {
            layer
                .scatter_rows(&rows, &old)
                .expect("undo rows were gathered from this layer");
        }
    }
}

/// Undo record plus work accounting returned by [`Gcn::embed_incremental`].
#[derive(Debug, Clone)]
pub struct EmbeddingDelta {
    /// Per layer: the recomputed row indices and their previous values.
    layer_undo: Vec<(Vec<usize>, Matrix)>,
    rows_computed: usize,
}

impl EmbeddingDelta {
    /// Total embedding rows recomputed across all layers (`Σ_d |S_d|`).
    pub fn rows_computed(&self) -> usize {
        self.rows_computed
    }

    /// Rows whose *final* embedding changed — the halo at depth `D`, i.e.
    /// the only rows whose classification can differ.
    ///
    /// # Panics
    ///
    /// Panics if the delta is empty; `embed_incremental` always records at
    /// least one layer.
    #[expect(
        clippy::expect_used,
        reason = "documented-panic accessor; a recorded delta always holds a layer"
    )]
    pub fn final_rows(&self) -> &[usize] {
        &self
            .layer_undo
            .last()
            .expect("delta records at least one layer")
            .0
    }
}

impl Gcn {
    /// Full forward pass that retains every intermediate layer, seeding an
    /// [`EmbeddingCache`]. `final_embedding()` is bit-identical to
    /// [`Gcn::embed`] on the same inputs.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not match the graph/node shape, or
    /// a length error for a depth-0 model (nothing to cache).
    pub fn embed_cached(&self, t: &GraphTensors, x: &Matrix) -> Result<EmbeddingCache> {
        self.embed_cached_budgeted_with(t, x, &Budget::unlimited(), &mut MatrixBackend::serial())
    }

    /// [`Gcn::embed_cached`] under an explicit work [`Budget`] and
    /// [`MatrixBackend`]: each layer charges one unit per node before
    /// computing, so an exhausted budget stops the pass at a
    /// layer boundary. Each layer's tiles write straight into the matrix
    /// the cache keeps. The seeded cache is bit-identical across backends
    /// (only a backend's staleness check is used), so the dirty-halo
    /// patching that follows composes with any of them.
    ///
    /// # Errors
    ///
    /// As [`Gcn::embed_cached`], plus budget errors
    /// ([`TensorError::BudgetExceeded`])
    /// from the inter-layer checkpoints and [`TensorError::StaleCache`]
    /// from a partitioned backend built against an older graph generation.
    pub fn embed_cached_budgeted_with(
        &self,
        t: &GraphTensors,
        x: &Matrix,
        budget: &Budget,
        backend: &mut MatrixBackend,
    ) -> Result<EmbeddingCache> {
        if self.encoders().is_empty() {
            return Err(TensorError::LengthMismatch {
                expected: 1,
                actual: 0,
            });
        }
        backend.check_fresh(t)?;
        Ok(EmbeddingCache {
            layers: pass::embed_layers(pass::PER_CORE, self, t, x, budget)?,
            generation: t.generation(),
        })
    }

    /// Patches `cache` in place after the feature rows `dirty` changed,
    /// recomputing only the growing halo `S_d = halo_step(S_{d-1})` per
    /// layer. The patched cache is bit-for-bit what [`Gcn::embed_cached`]
    /// would rebuild from scratch (see the module docs for why exactness
    /// holds).
    ///
    /// The returned [`EmbeddingDelta`] can be handed to
    /// [`EmbeddingCache::revert`] to undo the patch — the preview path of
    /// the flow's impact scoring.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::StaleCache`] if the cache generation does not
    /// match the graph, a length error if the cache shape disagrees with the
    /// model or graph, or an index error for out-of-range dirty rows. On
    /// any error the cache is left exactly as it was.
    pub fn embed_incremental(
        &self,
        t: &GraphTensors,
        x: &Matrix,
        cache: &mut EmbeddingCache,
        dirty: &[usize],
    ) -> Result<EmbeddingDelta> {
        self.embed_incremental_budgeted(t, x, cache, dirty, &Budget::unlimited())
    }

    /// [`Gcn::embed_incremental`] under a cooperative work [`Budget`]:
    /// every layer charges one unit per halo row before recomputing it, so
    /// an exhausted budget stops the patch at a layer
    /// boundary. On a budget error — or a layer step refused for its
    /// shapes — the already-patched layers are rolled back, leaving the
    /// cache exactly as before the call.
    ///
    /// # Errors
    ///
    /// As [`Gcn::embed_incremental`], plus budget errors
    /// ([`TensorError::BudgetExceeded`])
    /// from the per-layer checkpoints.
    pub fn embed_incremental_budgeted(
        &self,
        t: &GraphTensors,
        x: &Matrix,
        cache: &mut EmbeddingCache,
        dirty: &[usize],
        budget: &Budget,
    ) -> Result<EmbeddingDelta> {
        let n = t.node_count();
        if cache.generation != t.generation() {
            return Err(TensorError::StaleCache {
                cache: cache.generation,
                graph: t.generation(),
            });
        }
        if cache.layers.len() != self.depth() {
            return Err(TensorError::LengthMismatch {
                expected: self.depth(),
                actual: cache.layers.len(),
            });
        }
        if x.rows() != n {
            return Err(TensorError::LengthMismatch {
                expected: n,
                actual: x.rows(),
            });
        }
        for layer in &cache.layers {
            if layer.rows() != n {
                return Err(TensorError::LengthMismatch {
                    expected: n,
                    actual: layer.rows(),
                });
            }
        }
        if let Some(&bad) = dirty.iter().find(|&&r| r >= n) {
            return Err(TensorError::IndexOutOfBounds {
                index: (bad, 0),
                shape: (n, n),
            });
        }
        let mut rows: Vec<usize> = dirty.to_vec();
        rows.sort_unstable();
        rows.dedup();
        let mut layer_undo = Vec::with_capacity(self.depth());
        let mut rows_computed = 0usize;
        for (d, enc) in self.encoders().iter().enumerate() {
            rows = t.halo_step(&rows);
            let (below, from) = cache.layers.split_at_mut(d);
            let Some(layer) = from.first_mut() else { break };
            let prev = below.last().unwrap_or(x);
            let old = layer.gather_rows(&rows);
            // The layer is patched where it is cached, so its undo is
            // recorded whether or not the step succeeds.
            let step = budget
                .charge(rows.len() as u64)
                .and_then(|()| pass::embed_layer(pass::PER_CORE, self, enc, t, prev, &rows, layer));
            layer_undo.push((rows.clone(), old));
            if let Err(e) = step {
                // Roll this layer and the already-patched ones back so a
                // budget stop or a failed step leaves the cache exactly as
                // before the call.
                cache.revert(EmbeddingDelta {
                    layer_undo,
                    rows_computed,
                });
                return Err(e);
            }
            rows_computed += rows.len();
        }
        Ok(EmbeddingDelta {
            layer_undo,
            rows_computed,
        })
    }
}

/// Undo record plus work accounting returned by [`CascadeSession::refresh`]:
/// per stage the embedding rows it overwrote, and the combined
/// probabilities of the halo rows — everything a later call reads, since a
/// session keeps no per-stage probabilities. The accounting counts
/// embedding rows; the heads a refresh skips on filtered rows are not in it.
#[derive(Debug, Clone)]
pub struct SessionDelta {
    stage_deltas: Vec<EmbeddingDelta>,
    /// Rows whose final embedding — and hence probability — was recomputed.
    rows: Vec<usize>,
    /// Previous combined probabilities of those rows.
    old_probs: Vec<f32>,
    rows_computed: u64,
    rows_full: u64,
}

impl SessionDelta {
    /// Embedding rows actually recomputed, summed over stages and layers.
    pub fn rows_computed(&self) -> u64 {
        self.rows_computed
    }

    /// What a full recompute would have cost in the same unit
    /// (`Σ_stages depth × node_count`).
    pub fn rows_full_equivalent(&self) -> u64 {
        self.rows_full
    }

    /// Rows whose combined probability may have changed.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }
}

/// A live incremental-inference session over a (possibly single-stage)
/// cascade: per-stage [`EmbeddingCache`]s plus the combined probabilities,
/// kept current under dirty-row refreshes.
///
/// The cascade stages carry *distinct* trained weights, so their embeddings
/// cannot be shared — what is shared is the halo: the dirty set is
/// graph-structural, so every stage recomputes the same rows. Embeddings
/// are kept complete for every stage (a later refresh may need any row's
/// neighbours, and the caches are what a warm restart persists); the
/// classifier heads filter as the cascade does — stage `s+1`'s head runs
/// only on the rows stage `s` passed on, over all rows at open and over the
/// halo at refresh. Per-stage probabilities are not kept: a row's combined
/// probability is re-derived from stage 0 whenever its embedding changes.
///
/// Probabilities served by [`CascadeSession::probs`] are bit-identical to
/// [`MultiStageGcn::predict_proba`] (or [`Gcn::predict_proba`] for a
/// single-stage session) on the same graph and features.
#[derive(Debug, Clone)]
pub struct CascadeSession<'m> {
    stages: &'m [Gcn],
    filter_threshold: f32,
    caches: Vec<EmbeddingCache>,
    /// Combined cascade probability per node.
    probs: Vec<f32>,
}

impl<'m> CascadeSession<'m> {
    /// Opens a session over a single GCN (a one-stage cascade; the filter
    /// threshold is never consulted because the only stage is the last)
    /// under an explicit work [`Budget`] and [`MatrixBackend`] for the
    /// opening full pass, which charges one unit per node per layer. The
    /// session it produces is bit-identical to the serial one; later
    /// `refresh`/`revert` calls always use the serial dirty-halo path.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not match the graph, a budget
    /// error from the inter-layer checkpoints, or
    /// [`TensorError::StaleCache`] from a stale partitioned backend.
    pub fn for_gcn_budgeted_with(
        gcn: &'m Gcn,
        t: &GraphTensors,
        x: &Matrix,
        budget: &Budget,
        backend: &mut MatrixBackend,
    ) -> Result<Self> {
        Self::open(std::slice::from_ref(gcn), 0.0, t, x, budget, backend)
    }

    /// [`MultiStageGcn::open_session`] under an explicit work [`Budget`]
    /// and [`MatrixBackend`] for the opening full pass, which charges one
    /// unit per node per layer across every stage (every stage shares the
    /// one backend — the adjacency, and hence the partitioning, is
    /// stage-independent). Bit-identical to the serial open.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not match the graph, a budget
    /// error from the inter-layer checkpoints, or
    /// [`TensorError::StaleCache`] from a stale partitioned backend.
    pub fn for_cascade_budgeted_with(
        model: &'m MultiStageGcn,
        t: &GraphTensors,
        x: &Matrix,
        budget: &Budget,
        backend: &mut MatrixBackend,
    ) -> Result<Self> {
        Self::open(
            model.stages(),
            model.filter_threshold(),
            t,
            x,
            budget,
            backend,
        )
    }

    /// Reopens a session from persisted per-stage caches (e.g. a warm
    /// restart reloading embedding pages), running only the classifier
    /// heads — no SpMM, no per-layer recompute. The resulting session is
    /// indistinguishable from one opened fresh on the same graph state:
    /// probabilities are recomputed from the cached final embeddings, so
    /// they are bit-identical to [`MultiStageGcn::open_session`]'s.
    ///
    /// # Errors
    ///
    /// [`TensorError::LengthMismatch`] if the cache count differs from
    /// the stage count, [`TensorError::StaleCache`] if any cache was
    /// built at a different graph generation, and
    /// [`TensorError::ShapeMismatch`] if a cache's rows, depth, or
    /// widths disagree with the graph and model.
    pub fn from_caches(
        model: &'m MultiStageGcn,
        t: &GraphTensors,
        x: &Matrix,
        caches: Vec<EmbeddingCache>,
    ) -> Result<Self> {
        let stages = model.stages();
        let n = t.node_count();
        if caches.len() != stages.len() {
            return Err(TensorError::LengthMismatch {
                expected: stages.len(),
                actual: caches.len(),
            });
        }
        if x.rows() != n {
            return Err(TensorError::ShapeMismatch {
                op: "CascadeSession::from_caches",
                lhs: (n, x.cols()),
                rhs: x.shape(),
            });
        }
        for (gcn, cache) in stages.iter().zip(&caches) {
            if cache.generation() != t.generation() {
                return Err(TensorError::StaleCache {
                    cache: cache.generation(),
                    graph: t.generation(),
                });
            }
            if cache.layers().len() != gcn.depth() {
                return Err(TensorError::LengthMismatch {
                    expected: gcn.depth(),
                    actual: cache.layers().len(),
                });
            }
            for layer in cache.layers() {
                if layer.rows() != n {
                    return Err(TensorError::ShapeMismatch {
                        op: "CascadeSession::from_caches",
                        lhs: (n, layer.cols()),
                        rhs: layer.shape(),
                    });
                }
            }
        }
        Self::classified(stages, model.filter_threshold(), caches, n)
    }

    /// Consumes the session, handing back its per-stage embedding caches
    /// so a caller can persist them (the warm-restart save path).
    pub fn into_caches(self) -> Vec<EmbeddingCache> {
        self.caches
    }

    fn open(
        stages: &'m [Gcn],
        filter_threshold: f32,
        t: &GraphTensors,
        x: &Matrix,
        budget: &Budget,
        backend: &mut MatrixBackend,
    ) -> Result<Self> {
        let mut caches = Vec::with_capacity(stages.len());
        for gcn in stages {
            caches.push(gcn.embed_cached_budgeted_with(t, x, budget, backend)?);
        }
        Self::classified(stages, filter_threshold, caches, t.node_count())
    }

    /// A session over complete `caches` of an `n`-node graph, every row
    /// classified.
    fn classified(
        stages: &'m [Gcn],
        filter_threshold: f32,
        caches: Vec<EmbeddingCache>,
        n: usize,
    ) -> Result<Self> {
        let mut session = CascadeSession {
            stages,
            filter_threshold,
            caches,
            probs: Vec::new(),
        };
        let all: Vec<usize> = (0..n).collect();
        session.probs = session.classify(&all)?;
        Ok(session)
    }

    /// The cascade rule ([`cascade_rows`]) over `rows`, read in place from
    /// the cached final embeddings: each stage's head sees only the rows
    /// still alive, a tile at a time.
    fn classify(&self, rows: &[usize]) -> Result<Vec<f32>> {
        cascade_rows(self.stages, self.filter_threshold, rows, |s, gcn, alive| {
            let cache = self.caches.get(s).ok_or(TensorError::LengthMismatch {
                expected: self.stages.len(),
                actual: self.caches.len(),
            })?;
            let mut probs = vec![0.0f32; alive.len()];
            let e = cache.final_embedding();
            pass::head_rows(pass::PER_CORE, gcn.head(), e, alive, &mut probs)?;
            Ok(probs)
        })
    }

    /// Re-derives embeddings and probabilities after the feature rows
    /// `dirty` changed, recomputing only each stage's D-hop halo. Returns a
    /// delta that [`CascadeSession::revert`] can undo — the preview path.
    ///
    /// # Errors
    ///
    /// Propagates [`Gcn::embed_incremental`] errors (stale cache, shape or
    /// index mismatch). Validation runs against every stage identically, so
    /// an error from the first stage leaves the session unmutated.
    pub fn refresh(
        &mut self,
        t: &GraphTensors,
        x: &Matrix,
        dirty: &[usize],
    ) -> Result<SessionDelta> {
        self.refresh_budgeted(t, x, dirty, &Budget::unlimited())
    }

    /// [`CascadeSession::refresh`] under a cooperative work [`Budget`]:
    /// every stage's halo recompute charges the budget per layer. A budget
    /// stop mid-refresh rolls back the stages already patched, leaving the
    /// session exactly as before the call.
    ///
    /// # Errors
    ///
    /// As [`CascadeSession::refresh`], plus budget errors
    /// ([`TensorError::BudgetExceeded`]).
    pub fn refresh_budgeted(
        &mut self,
        t: &GraphTensors,
        x: &Matrix,
        dirty: &[usize],
        budget: &Budget,
    ) -> Result<SessionDelta> {
        let mut stage_deltas = Vec::with_capacity(self.stages.len());
        for (gcn, cache) in self.stages.iter().zip(&mut self.caches) {
            match gcn.embed_incremental_budgeted(t, x, cache, dirty, budget) {
                Ok(delta) => stage_deltas.push(delta),
                Err(e) => {
                    // Earlier stages already adopted the new rows; restore
                    // them so an interrupted refresh is side-effect free.
                    for (cache, d) in self.caches.iter_mut().zip(stage_deltas) {
                        cache.revert(d);
                    }
                    return Err(e);
                }
            }
        }
        // The halo is graph-structural, hence identical across stages.
        let rows: Vec<usize> = stage_deltas
            .first()
            .map(|d| d.final_rows().to_vec())
            .unwrap_or_default();
        let new_probs = self.classify(&rows)?;
        let mut old_probs = Vec::with_capacity(rows.len());
        for (&r, p) in rows.iter().zip(new_probs) {
            if let Some(slot) = self.probs.get_mut(r) {
                old_probs.push(std::mem::replace(slot, p));
            }
        }
        let rows_computed = stage_deltas
            .iter()
            .map(|d| d.rows_computed() as u64)
            .sum::<u64>();
        let rows_full = self.full_rows(t.node_count());
        let obs = gcnt_obs::global();
        if obs.is_enabled() {
            obs.incr(gcnt_obs::counters::CORE_SESSION_REFRESHES);
            obs.add(gcnt_obs::counters::CORE_INCR_ROWS_COMPUTED, rows_computed);
            obs.add(
                gcnt_obs::counters::CORE_INCR_ROWS_REUSED,
                rows_full.saturating_sub(rows_computed),
            );
        }
        Ok(SessionDelta {
            stage_deltas,
            rows,
            old_probs,
            rows_computed,
            rows_full,
        })
    }

    /// Undoes a [`CascadeSession::refresh`], restoring embeddings and
    /// probabilities bit-for-bit. Deltas must be reverted in reverse order
    /// of application.
    pub fn revert(&mut self, delta: SessionDelta) {
        gcnt_obs::global().incr(gcnt_obs::counters::CORE_SESSION_REVERTS);
        let SessionDelta {
            stage_deltas,
            rows,
            old_probs,
            ..
        } = delta;
        for (cache, d) in self.caches.iter_mut().zip(stage_deltas) {
            cache.revert(d);
        }
        for (&r, v) in rows.iter().zip(old_probs) {
            if let Some(slot) = self.probs.get_mut(r) {
                *slot = v;
            }
        }
    }

    /// Adopts a grown graph after a committed observation-point insertion:
    /// extends every cache and probability vector to the new node count
    /// (new entries zeroed) and the new generation. The caller must include
    /// the inserted node and every SCOAP-changed node in the next
    /// [`CascadeSession::refresh`] dirty set to make the placeholders real.
    pub fn sync_nodes(&mut self, t: &GraphTensors) {
        let n = t.node_count();
        for cache in &mut self.caches {
            cache.extend_to(n, t.generation());
        }
        self.probs.resize(n, 0.0);
    }

    /// Combined cascade probability per node, kept current by
    /// [`CascadeSession::refresh`] / [`CascadeSession::sync_nodes`].
    pub fn probs(&self) -> &[f32] {
        &self.probs
    }

    /// Number of nodes the session currently tracks.
    pub fn node_count(&self) -> usize {
        self.probs.len()
    }

    /// Embedding rows one *full* inference over this session's stages would
    /// compute for an `n`-node graph.
    pub fn full_rows(&self, n: usize) -> u64 {
        self.stages.iter().map(|g| g.depth() as u64).sum::<u64>() * n as u64
    }
}

impl MultiStageGcn {
    /// Opens an incremental-inference session for this cascade; see
    /// [`CascadeSession`]. The session borrows the model and serves
    /// probabilities bit-identical to [`MultiStageGcn::predict_proba`]
    /// while recomputing only dirty-cone halos on refresh.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not match the graph.
    pub fn open_session<'m>(&'m self, t: &GraphTensors, x: &Matrix) -> Result<CascadeSession<'m>> {
        CascadeSession::open(
            self.stages(),
            self.filter_threshold(),
            t,
            x,
            &Budget::unlimited(),
            &mut MatrixBackend::serial(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GcnConfig, GraphData};
    use gcnt_netlist::{generate, GeneratorConfig};
    use gcnt_nn::seeded_rng;

    fn design(seed: u64, nodes: usize) -> (GraphData, gcnt_netlist::Netlist) {
        let net = generate(&GeneratorConfig::sized("inc", seed, nodes));
        let data = GraphData::from_netlist(&net, None).unwrap();
        (data, net)
    }

    fn small_gcn(depth: usize, seed: u64) -> Gcn {
        let cfg = GcnConfig {
            embed_dims: vec![6, 5, 4][..depth].to_vec(),
            fc_dims: vec![4],
            ..GcnConfig::default()
        };
        Gcn::new(&cfg, &mut seeded_rng(seed))
    }

    #[test]
    fn embed_cached_final_layer_matches_embed() {
        let (data, _) = design(3, 200);
        for depth in 1..=3 {
            let gcn = small_gcn(depth, 11);
            let cache = gcn.embed_cached(&data.tensors, &data.features).unwrap();
            assert_eq!(cache.layers().len(), depth);
            let full = gcn.embed(&data.tensors, &data.features).unwrap();
            assert_eq!(cache.final_embedding(), &full);
        }
    }

    #[test]
    fn embed_incremental_is_bit_identical_and_revertible() {
        let (data, _) = design(5, 300);
        for depth in 1..=3 {
            let gcn = small_gcn(depth, 23);
            let mut x = data.features.clone();
            let mut cache = gcn.embed_cached(&data.tensors, &x).unwrap();
            let pristine = cache.clone();
            // Perturb a few feature rows.
            let dirty = [7usize, 19, 19, 42];
            for &r in &dirty {
                x.set(r, 3, x.get(r, 3) + 1.25);
            }
            let delta = gcn
                .embed_incremental(&data.tensors, &x, &mut cache, &dirty)
                .unwrap();
            assert!(delta.rows_computed() > 0);
            assert!(!delta.final_rows().is_empty());
            // Every layer equals a from-scratch recompute, bit for bit.
            let fresh = gcn.embed_cached(&data.tensors, &x).unwrap();
            assert_eq!(cache.layers(), fresh.layers());
            // Revert restores the original cache, bit for bit.
            cache.revert(delta);
            assert_eq!(cache.layers(), pristine.layers());
        }
    }

    #[test]
    fn a_refused_step_rolls_the_patched_layers_back() {
        let (data, _) = design(5, 300);
        let gcn = small_gcn(3, 23);
        let mut x = data.features.clone();
        let good = gcn.embed_cached(&data.tensors, &x).unwrap();
        // A last layer of a width the model does not make: its step is
        // refused after the two layers below were patched in place.
        let mut layers = good.layers().to_vec();
        layers[2] = Matrix::zeros(x.rows(), 9);
        let mut cache = EmbeddingCache::from_layers(layers, good.generation()).unwrap();
        let pristine = cache.clone();
        x.set(7, 3, x.get(7, 3) + 1.25);
        let err = gcn.embed_incremental(&data.tensors, &x, &mut cache, &[7]);
        assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })));
        assert_eq!(cache.layers(), pristine.layers());
    }

    #[test]
    fn stale_cache_is_refused() {
        let (data, mut net) = design(7, 120);
        let gcn = small_gcn(2, 3);
        let mut t = data.tensors.clone();
        let mut cache = gcn.embed_cached(&t, &data.features).unwrap();
        let target = net
            .nodes()
            .find(|&v| !net.fanout(v).is_empty())
            .expect("generated design has internal nodes");
        let op = net.insert_observation_point(target).unwrap();
        t.insert_observation_point(target, op).unwrap();
        let err = gcn.embed_incremental(&t, &data.features, &mut cache, &[0]);
        assert!(matches!(
            err,
            Err(TensorError::StaleCache { cache: 0, graph: 1 })
        ));
    }

    #[test]
    fn session_probs_match_predict_proba() {
        let (data, _) = design(9, 250);
        let stages = vec![small_gcn(2, 31), small_gcn(2, 32), small_gcn(1, 33)];
        let model = MultiStageGcn::from_stages(stages, 0.25);
        let session = model.open_session(&data.tensors, &data.features).unwrap();
        let reference = model.predict_proba(&data.tensors, &data.features).unwrap();
        assert_eq!(session.probs(), reference.as_slice());
        // Single-stage sessions match the bare GCN too.
        let gcn = small_gcn(2, 41);
        let single = CascadeSession::for_gcn_budgeted_with(
            &gcn,
            &data.tensors,
            &data.features,
            &Budget::unlimited(),
            &mut MatrixBackend::serial(),
        )
        .unwrap();
        let reference = gcn.predict_proba(&data.tensors, &data.features).unwrap();
        assert_eq!(single.probs(), reference.as_slice());
    }

    #[test]
    fn session_round_trips_through_persisted_caches() {
        let (data, _) = design(21, 220);
        let stages = vec![small_gcn(2, 71), small_gcn(1, 72)];
        let model = MultiStageGcn::from_stages(stages, 0.25);
        let reference = model.open_session(&data.tensors, &data.features).unwrap();
        let expected = reference.probs().to_vec();
        // Persist-and-restore: rebuild each cache from its raw layers, as
        // a warm restart loading embedding pages would.
        let caches: Vec<EmbeddingCache> = reference
            .into_caches()
            .into_iter()
            .map(|c| {
                let generation = c.generation();
                EmbeddingCache::from_layers(c.layers().to_vec(), generation).unwrap()
            })
            .collect();
        let warm =
            CascadeSession::from_caches(&model, &data.tensors, &data.features, caches).unwrap();
        assert_eq!(warm.probs(), expected.as_slice());

        // Validation refuses mismatched inputs with typed errors.
        assert!(matches!(
            CascadeSession::from_caches(&model, &data.tensors, &data.features, Vec::new()),
            Err(TensorError::LengthMismatch { .. })
        ));
        let stale: Vec<EmbeddingCache> = model
            .open_session(&data.tensors, &data.features)
            .unwrap()
            .into_caches()
            .into_iter()
            .map(|c| EmbeddingCache::from_layers(c.layers().to_vec(), 7).unwrap())
            .collect();
        assert!(matches!(
            CascadeSession::from_caches(&model, &data.tensors, &data.features, stale),
            Err(TensorError::StaleCache { cache: 7, .. })
        ));
        assert!(matches!(
            EmbeddingCache::from_layers(Vec::new(), 0),
            Err(TensorError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn session_refresh_matches_full_recompute_and_reverts() {
        let (data, _) = design(13, 300);
        let stages = vec![small_gcn(2, 51), small_gcn(2, 52)];
        let model = MultiStageGcn::from_stages(stages, 0.25);
        let mut x = data.features.clone();
        let mut session = model.open_session(&data.tensors, &x).unwrap();
        let before = session.probs().to_vec();
        let dirty = [3usize, 88, 120];
        for &r in &dirty {
            x.set(r, 3, x.get(r, 3) - 0.75);
        }
        let delta = session.refresh(&data.tensors, &x, &dirty).unwrap();
        assert!(delta.rows_computed() > 0);
        assert!(delta.rows_computed() < delta.rows_full_equivalent());
        let reference = model.predict_proba(&data.tensors, &x).unwrap();
        assert_eq!(session.probs(), reference.as_slice());
        session.revert(delta);
        assert_eq!(session.probs(), before.as_slice());
    }

    #[test]
    fn sync_nodes_then_refresh_absorbs_an_insertion() {
        let (data, mut net) = design(17, 200);
        let gcn = small_gcn(2, 61);
        let mut t = data.tensors.clone();
        let mut x = data.features.clone();
        let mut session = CascadeSession::for_gcn_budgeted_with(
            &gcn,
            &t,
            &x,
            &Budget::unlimited(),
            &mut MatrixBackend::serial(),
        )
        .unwrap();
        let target = net
            .nodes()
            .find(|&v| !net.fanout(v).is_empty())
            .expect("generated design has internal nodes");
        let op = net.insert_observation_point(target).unwrap();
        t.insert_observation_point(target, op).unwrap();
        x.push_row(&[0.0, 1.0, 1.0, 0.0]).unwrap();
        session.sync_nodes(&t);
        assert_eq!(session.node_count(), t.node_count());
        session
            .refresh(&t, &x, &[target.index(), op.index()])
            .unwrap();
        let reference = gcn.predict_proba(&t, &x).unwrap();
        assert_eq!(session.probs(), reference.as_slice());
    }
}
