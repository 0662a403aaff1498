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
//!   values kept until the call returns, so a budget stop or a preview
//!   can put them back.
//!
//! The same step runs the halo *backwards* for the filtered cascade: the
//! final embedding of a few surviving rows needs the layer below on their
//! one-hop halo, and so on down to the features — `halo_step` is its own
//! inverse because `succ ≡ predᵀ`. A [`CascadeSession`] caches a later
//! stage only there: each cached layer knows which of its rows are
//! *valid* (exact for the current graph and features), a refresh patches
//! only valid rows, and a stage's valid rows grow, layer by layer from the
//! bottom, over whatever its head is about to read.
//!
//! Because every kernel involved is row-independent with an unchanged
//! per-row accumulation order, a patched or grown row is **bit-for-bit
//! equal** to a full recompute — not merely close. That exactness is
//! load-bearing: the flow compares probabilities against a threshold, and
//! a `1e-7` drift could flip a candidate across it.
//!
//! Staleness is policed with a generation counter:
//! [`GraphTensors::insert_observation_point`] bumps
//! [`GraphTensors::generation`], and a cache built against an older
//! generation refuses to serve
//! ([`gcnt_tensor::TensorError::StaleCache`]). After a committed insertion,
//! call [`CascadeSession::sync_nodes`] to grow the cache and adopt the new
//! generation, then pass the insertion's dirty set to the next
//! [`CascadeSession::refresh`].

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
///
/// Every row of a cache handed out is valid:
/// [`EmbeddingCache::from_layers`] and [`CascadeSession::into_caches`]
/// both make complete ones. Only a later stage inside a session holds some
/// rows unfilled, and a valid row there never reads one: its own row and its
/// neighbours' are valid in the layer below. (Between an insertion's
/// [`CascadeSession::sync_nodes`] and the refresh it calls for, the new
/// node's neighbours are the exception; that refresh recomputes them.)
#[derive(Debug, Clone)]
pub struct EmbeddingCache {
    layers: Vec<Matrix>,
    /// Per layer, whether each row holds its exact value.
    valid: Vec<Vec<bool>>,
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
        Ok(Self::complete(layers, generation))
    }

    /// A cache whose every row is valid.
    fn complete(layers: Vec<Matrix>, generation: u64) -> Self {
        let valid = layers.iter().map(|l| vec![true; l.rows()]).collect();
        EmbeddingCache {
            layers,
            valid,
            generation,
        }
    }

    /// The layers of `gcn` over an `n`-node graph with no row valid yet,
    /// each allocated once, zeroed, with room for `room` more rows.
    ///
    /// # Errors
    ///
    /// A length error for a depth-0 model (nothing to cache).
    fn unfilled(gcn: &Gcn, n: usize, room: usize, generation: u64) -> Result<Self> {
        if gcn.encoders().is_empty() {
            return Err(TensorError::LengthMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let mut layers = Vec::with_capacity(gcn.depth());
        let mut valid = Vec::with_capacity(gcn.depth());
        for enc in gcn.encoders() {
            let cols = enc.fan_out();
            let mut data = vec![0.0f32; (n + room) * cols];
            data.truncate(n * cols);
            layers.push(Matrix::from_vec(n, cols, data)?);
            let mut flags = Vec::with_capacity(n + room);
            flags.resize(n, false);
            valid.push(flags);
        }
        Ok(EmbeddingCache {
            layers,
            valid,
            generation,
        })
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
    /// Panics if the cache holds no layers; every constructor refuses a
    /// cache without one.
    #[expect(
        clippy::expect_used,
        reason = "documented-panic accessor; a built cache always holds a layer"
    )]
    pub fn final_embedding(&self) -> &Matrix {
        self.layers.last().expect("cache holds at least one layer")
    }

    /// Grows every layer to `n` rows (new rows zeroed) and adopts the given
    /// generation — the post-insertion resync. The new rows are not valid:
    /// the caller must include the new nodes in the next dirty set so they
    /// get computed for real.
    #[expect(
        clippy::expect_used,
        reason = "a zero row of the layer's own width always fits"
    )]
    fn extend_to(&mut self, n: usize, generation: u64) {
        for (layer, valid) in self.layers.iter_mut().zip(&mut self.valid) {
            let zero = vec![0.0; layer.cols()];
            while layer.rows() < n {
                layer.push_row(&zero).expect("zero row matches layer width");
            }
            valid.resize(layer.rows(), false);
        }
        self.generation = generation;
    }

    /// Checks that this cache holds the `depth` layers of a model on graph
    /// `t` with features `x`, at the graph's generation.
    fn check(&self, depth: usize, t: &GraphTensors, x: &Matrix) -> Result<()> {
        let n = t.node_count();
        if self.generation != t.generation() {
            return Err(TensorError::StaleCache {
                cache: self.generation,
                graph: t.generation(),
            });
        }
        if self.layers.len() != depth {
            return Err(TensorError::LengthMismatch {
                expected: depth,
                actual: self.layers.len(),
            });
        }
        if let Some(rows) = std::iter::once(x)
            .chain(&self.layers)
            .map(Matrix::rows)
            .find(|&rows| rows != n)
        {
            return Err(TensorError::LengthMismatch {
                expected: n,
                actual: rows,
            });
        }
        Ok(())
    }

    /// Whether row `r` of layer `d` holds its exact value.
    fn is_valid(&self, d: usize, r: usize) -> bool {
        self.valid
            .get(d)
            .and_then(|v| v.get(r))
            .copied()
            .unwrap_or(false)
    }

    /// Marks `rows` of layer `d` valid or not.
    fn mark(&mut self, d: usize, rows: &[usize], valid: bool) {
        if let Some(flags) = self.valid.get_mut(d) {
            for &r in rows {
                if let Some(flag) = flags.get_mut(r) {
                    *flag = valid;
                }
            }
        }
    }

    /// What a refresh changes in this cache, per layer: the rows to
    /// compute and the rows to forget. A session holds in layer `d` of `D`
    /// exactly the `(D−1−d)`-hop halo of the rows that reach the stage,
    /// and after the refresh those are: inside the deepest dirty halo
    /// (`deepest`) the rows of `alive`, outside it the rows the top layer
    /// holds, whose probabilities cannot change. A row can enter or leave
    /// layer `d` only within `D−1−d` hops of a *changed* row — one of
    /// `deepest` whose reach flipped, or a node adopted since the last
    /// refresh (`adopted`) — so only those are looked at: in the top layer
    /// a changed row is held if it reaches the stage, and in the layer
    /// below a row near a change is held if it or a neighbour is held
    /// above. Computed are the rows held that are in `halos[d]` or not yet
    /// valid; forgotten, the valid rows no longer held.
    fn refreshed_rows(
        &self,
        t: &GraphTensors,
        halos: &[Vec<usize>],
        deepest: &[usize],
        alive: &[usize],
        adopted: &[usize],
    ) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let top = self.layers.len().saturating_sub(1);
        let reaches = |r: usize| match deepest.binary_search(&r) {
            Ok(_) => alive.binary_search(&r).is_ok(),
            Err(_) => self.is_valid(top, r),
        };
        let mut near: Vec<usize> = deepest
            .iter()
            .copied()
            .filter(|&r| self.is_valid(top, r) != reaches(r))
            .chain(adopted.iter().copied())
            .collect();
        near.sort_unstable();
        near.dedup();
        let mut compute = vec![Vec::new(); self.layers.len()];
        let mut forget = vec![Vec::new(); self.layers.len()];
        // The rows near a change in the layer above, and whether each is
        // held there.
        let mut above: Option<(Vec<usize>, Vec<bool>)> = None;
        let layers = compute.iter_mut().zip(&mut forget).enumerate().rev();
        for (d, (compute, forget)) in layers {
            let held: Vec<bool> = match &above {
                None => near.iter().map(|&r| reaches(r)).collect(),
                Some((rows, held)) => {
                    near = if rows.is_empty() {
                        Vec::new()
                    } else {
                        t.halo_step(rows)
                    };
                    let held_above = |u: usize| match rows.binary_search(&u) {
                        Ok(i) => held.get(i).copied().unwrap_or(false),
                        Err(_) => self.is_valid(d + 1, u),
                    };
                    let reads = |r: usize| std::iter::once(r).chain(t.neighbours(r));
                    near.iter().map(|&r| reads(r).any(held_above)).collect()
                }
            };
            let holds = |r: usize| match near.binary_search(&r) {
                Ok(i) => held.get(i).copied().unwrap_or(false),
                Err(_) => self.is_valid(d, r),
            };
            let halo = halos.get(d).map_or(&[][..], Vec::as_slice);
            compute.extend(halo.iter().copied().filter(|&r| holds(r)));
            for (&r, &h) in near.iter().zip(&held) {
                match (h, self.is_valid(d, r)) {
                    (true, false) => compute.push(r),
                    (false, true) => forget.push(r),
                    _ => {}
                }
            }
            compute.sort_unstable();
            compute.dedup();
            above = Some((std::mem::take(&mut near), held));
        }
        (compute, forget)
    }

    /// Holds only what a head reading the rows `reach` (ascending) needs:
    /// in layer `d` of `D`, their `(D−1−d)`-hop halo.
    fn hold_only(&mut self, t: &GraphTensors, reach: &[usize]) {
        let top = self.valid.len().saturating_sub(1);
        let mut rows = reach.to_vec();
        for (d, flags) in self.valid.iter_mut().enumerate().rev() {
            if d < top {
                rows = t.halo_step(&rows);
            }
            flags.fill(false);
            for &r in &rows {
                if let Some(flag) = flags.get_mut(r) {
                    *flag = true;
                }
            }
        }
    }

    /// Per layer, every row that is not valid: what completing it takes.
    fn invalid(&self) -> Vec<Vec<usize>> {
        self.valid
            .iter()
            .map(|flags| {
                let rows = flags.iter().enumerate();
                rows.filter_map(|(r, &v)| (!v).then_some(r)).collect()
            })
            .collect()
    }

    /// The rows of each layer to compute so that the final embedding of
    /// `targets` (ascending) is exact once the rows in `stale[d]` changed.
    /// A row is *stale* in layer `d` if it is in `stale[d]` or not valid:
    /// `N_D` is the stale rows of `targets`, and below it `N_d` is the
    /// stale rows of `halo_step(N_{d+1})`. Every other row a target reads
    /// is valid and outside the changed rows, so the cache already holds
    /// its value. With nothing in `stale` this is what growing the valid
    /// rows over `targets` takes; with a preview's dirty halos, what the
    /// preview must compute.
    fn cone_rows(
        &self,
        t: &GraphTensors,
        stale: &[Vec<usize>],
        targets: &[usize],
    ) -> Vec<Vec<usize>> {
        let stale_of = |d: usize, rows: &[usize]| -> Vec<usize> {
            let halo = stale.get(d).map_or(&[][..], Vec::as_slice);
            rows.iter()
                .copied()
                .filter(|&r| !self.is_valid(d, r) || halo.binary_search(&r).is_ok())
                .collect()
        };
        let depth = self.layers.len();
        let mut rows = stale_of(depth.saturating_sub(1), targets);
        let mut layer_rows = vec![Vec::new(); depth];
        for (d, layer) in layer_rows.iter_mut().enumerate().rev() {
            let below = match d.checked_sub(1) {
                Some(b) if !rows.is_empty() => stale_of(b, &t.halo_step(&rows)),
                _ => Vec::new(),
            };
            *layer = std::mem::replace(&mut rows, below);
        }
        layer_rows
    }

    /// Restores the rows recorded in `delta` within the call that made
    /// it: the rows it overwrote get their old values, the rows it grew
    /// are invalid again, and the rows it forgot are valid again — their
    /// values are still in place, since nothing in the same call writes a
    /// row it forgot. Deltas must be reverted in reverse order of
    /// application.
    #[expect(
        clippy::expect_used,
        reason = "undo rows were gathered from this layer, so they scatter back"
    )]
    fn revert(&mut self, delta: EmbeddingDelta) {
        for (layer, (rows, old)) in self.layers.iter_mut().zip(delta.layer_undo) {
            layer
                .scatter_rows(&rows, &old)
                .expect("undo rows were gathered from this layer");
        }
        for (d, rows) in delta.grown.iter().enumerate() {
            self.mark(d, rows, false);
        }
        for (d, rows) in delta.forgot.iter().enumerate() {
            self.mark(d, rows, true);
        }
    }
}

/// What one call changed in one stage's cache, kept until the call
/// returns, plus its work accounting.
#[derive(Debug)]
struct EmbeddingDelta {
    /// Per layer: the recomputed rows that were valid, and their previous
    /// values.
    layer_undo: Vec<(Vec<usize>, Matrix)>,
    /// Per layer: the rows made valid that were not. Their values belong
    /// to the changed state, so the undo makes them invalid again.
    grown: Vec<Vec<usize>>,
    /// Per layer: the valid rows a refresh stopped holding.
    forgot: Vec<Vec<usize>>,
    /// Total embedding rows recomputed across all layers (`Σ_d |S_d|`).
    rows_computed: usize,
}

impl Gcn {
    /// Computes `layer_rows[d]` (ascending) of cached layer `d` in place,
    /// layer by layer from the bottom, charging the budget each layer's
    /// row count first, and marks them valid; a layer with no rows is
    /// skipped, charge included. Each row must read only valid rows of the
    /// layer below. The old values of rows that were valid go into the
    /// undo, and so do the rows that were not (*grown*), to be made invalid
    /// again. On a budget error — or a layer step refused for its shapes —
    /// the already-patched layers are rolled back, leaving the cache as
    /// before the call.
    fn patch_layers(
        &self,
        t: &GraphTensors,
        x: &Matrix,
        cache: &mut EmbeddingCache,
        layer_rows: &[Vec<usize>],
        budget: &Budget,
    ) -> Result<EmbeddingDelta> {
        let mut delta = EmbeddingDelta {
            layer_undo: Vec::with_capacity(self.depth()),
            grown: Vec::with_capacity(self.depth()),
            forgot: Vec::new(),
            rows_computed: 0,
        };
        for (d, (enc, rows)) in self.encoders().iter().zip(layer_rows).enumerate() {
            let (was, grown): (Vec<usize>, Vec<usize>) =
                rows.iter().partition(|&&r| cache.is_valid(d, r));
            let (below, from) = cache.layers.split_at_mut(d);
            let Some(layer) = from.first_mut() else { break };
            let prev = below.last().unwrap_or(x);
            let old = layer.gather_rows(&was);
            // The layer is patched where it is cached, so its undo is
            // recorded whether or not the step succeeds.
            let step = if rows.is_empty() {
                Ok(())
            } else {
                budget.charge(rows.len() as u64).and_then(|()| {
                    pass::embed_layer(pass::PER_CORE, self, enc, t, prev, rows, layer)
                })
            };
            delta.layer_undo.push((was, old));
            if let Err(e) = step {
                // Roll this layer and the already-patched ones back so a
                // budget stop or a failed step leaves the cache as before
                // the call.
                cache.revert(delta);
                return Err(e);
            }
            delta.rows_computed += rows.len();
            delta.grown.push(grown);
            cache.mark(d, rows, true);
        }
        Ok(delta)
    }

    /// Brings `cache`, this stage's, to a refresh: computes the rows
    /// [`EmbeddingCache::refreshed_rows`] lists and forgets the others.
    /// The delta undoes both within the refresh.
    #[expect(clippy::too_many_arguments, reason = "one refresh's inputs")]
    fn refresh_cache(
        &self,
        t: &GraphTensors,
        x: &Matrix,
        cache: &mut EmbeddingCache,
        halos: &[Vec<usize>],
        deepest: &[usize],
        adopted: &[usize],
        alive: &[usize],
        budget: &Budget,
    ) -> Result<EmbeddingDelta> {
        let (compute, forget) = cache.refreshed_rows(t, halos, deepest, alive, adopted);
        let mut delta = self.patch_layers(t, x, cache, &compute, budget)?;
        for (d, rows) in forget.iter().enumerate() {
            cache.mark(d, rows, false);
        }
        delta.forgot = forget;
        Ok(delta)
    }
}

/// Refuses a row that is not a node of an `n`-node graph.
fn check_nodes(rows: &[usize], n: usize) -> Result<()> {
    match rows.iter().find(|&&r| r >= n) {
        Some(&bad) => Err(TensorError::IndexOutOfBounds {
            index: (bad, 0),
            shape: (n, n),
        }),
        None => Ok(()),
    }
}

/// `rows`, sorted, each once.
fn sorted_unique(rows: &[usize]) -> Vec<usize> {
    let mut rows = rows.to_vec();
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// The dirty halos `H_1..H_depth` of the rows `dirty` (in range):
/// `H_0 = dirty`, `H_d = halo_step(H_{d-1})` — the rows of layer `d` whose
/// value can change when the feature rows `dirty` do.
fn dirty_halos(t: &GraphTensors, dirty: &[usize], depth: usize) -> Vec<Vec<usize>> {
    let dirty = sorted_unique(dirty);
    let mut halos: Vec<Vec<usize>> = Vec::with_capacity(depth);
    for _ in 0..depth {
        let next = t.halo_step(halos.last().unwrap_or(&dirty));
        halos.push(next);
    }
    halos
}

/// The rows of `rows` in the ascending list `halo`, in order.
fn within(rows: &[usize], halo: &[usize]) -> Vec<usize> {
    rows.iter()
        .copied()
        .filter(|r| halo.binary_search(r).is_ok())
        .collect()
}

/// Work accounting returned by [`CascadeSession::refresh`], in embedding
/// rows, grown ones included; the heads a refresh skips on filtered rows
/// are not in it.
#[derive(Debug, Clone)]
pub struct SessionDelta {
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
}

/// A live incremental-inference session over a (possibly single-stage)
/// cascade: per-stage [`EmbeddingCache`]s plus the combined probabilities,
/// kept current under dirty-row refreshes.
///
/// The cascade stages carry *distinct* trained weights, so their embeddings
/// cannot be shared — what is shared is the halo: the dirty set is
/// graph-structural, so every stage patches rows of the same halos. The
/// session filters as the stateless pass does: stage 0 holds every row,
/// and a later stage of depth `D` only where its head looks — in layer `d`
/// (1-based) the `(D−d)`-hop backward halo of the rows that reach it.
/// What it holds depends on the graph and features alone: a refresh
/// recomputes the held rows in the dirty halo, grows a stage over the rows
/// that newly reach it and forgets the rows that no longer do, and a
/// preview keeps nothing. Stage `s+1`'s head
/// runs only on the rows stage `s` passed on, over all rows at open and
/// over the halo at refresh. Per-stage probabilities are not kept: a row's
/// combined probability is re-derived from stage 0 whenever its embedding
/// changes.
///
/// Probabilities served by [`CascadeSession::probs`] are bit-identical to
/// [`MultiStageGcn::predict_proba`] on the same graph and features; a
/// single [`Gcn`] is a one-stage cascade, whose only stage is never
/// filtered.
#[derive(Debug, Clone)]
pub struct CascadeSession<'m> {
    stages: &'m [Gcn],
    filter_threshold: f32,
    caches: Vec<EmbeddingCache>,
    /// Combined cascade probability per node.
    probs: Vec<f32>,
}

impl<'m> CascadeSession<'m> {
    /// [`MultiStageGcn::open_session`] under an explicit work [`Budget`]
    /// and [`MatrixBackend`] for the opening pass. Every cached layer is
    /// allocated once, with room for `room` more nodes, so that many nodes
    /// adopted by [`CascadeSession::sync_nodes`] never reallocate it. The
    /// pass charges what the filtered stateless pass
    /// ([`MultiStageGcn::predict_proba_budgeted_with`]) does: one unit per
    /// node per layer of stage 0, and per row of a later stage's halo.
    /// Every stage shares the one backend — the adjacency, and hence the
    /// partitioning, is stage-independent. Bit-identical to the serial
    /// open.
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
        room: usize,
        budget: &Budget,
        backend: &mut MatrixBackend,
    ) -> Result<Self> {
        Self::open(
            model.stages(),
            model.filter_threshold(),
            t,
            x,
            room,
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
        mut caches: Vec<EmbeddingCache>,
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
            for (layer, enc) in cache.layers().iter().zip(gcn.encoders()) {
                if layer.shape() != (n, enc.fan_out()) {
                    return Err(TensorError::ShapeMismatch {
                        op: "CascadeSession::from_caches",
                        lhs: (n, enc.fan_out()),
                        rhs: layer.shape(),
                    });
                }
            }
        }
        // Complete caches: the heads grow nothing. Each stage then holds
        // only what an open would, the rows its head reads and their halo.
        let all: Vec<usize> = (0..n).collect();
        let mut reached = vec![Vec::new(); stages.len()];
        let probs = cascade_rows(stages, model.filter_threshold(), &all, |s, gcn, alive| {
            if let Some(seen) = reached.get_mut(s) {
                *seen = alive.to_vec();
            }
            let e = caches.get(s).map(EmbeddingCache::final_embedding);
            let e = e.ok_or(TensorError::LengthMismatch {
                expected: stages.len(),
                actual: s,
            })?;
            let mut probs = vec![0.0f32; alive.len()];
            pass::head_rows(pass::PER_CORE, gcn.head(), e, alive, &mut probs)?;
            Ok(probs)
        })?;
        for (cache, reach) in caches.iter_mut().zip(&reached) {
            cache.hold_only(t, reach);
        }
        Ok(CascadeSession {
            stages,
            filter_threshold: model.filter_threshold(),
            caches,
            probs,
        })
    }

    /// Consumes the session, handing back its per-stage embedding caches
    /// so a caller can persist them (the warm-restart save path). Every
    /// row a later stage never needed is computed first, so each cache is
    /// complete — what a full open would have cached.
    ///
    /// # Errors
    ///
    /// [`TensorError::StaleCache`] or a length error if the graph or the
    /// features are not the ones the session serves.
    pub fn into_caches(mut self, t: &GraphTensors, x: &Matrix) -> Result<Vec<EmbeddingCache>> {
        for (gcn, cache) in self.stages.iter().zip(&mut self.caches) {
            cache.check(gcn.depth(), t, x)?;
            let rest = cache.invalid();
            gcn.patch_layers(t, x, cache, &rest, &Budget::unlimited())?;
        }
        Ok(self.caches)
    }

    fn open(
        stages: &'m [Gcn],
        filter_threshold: f32,
        t: &GraphTensors,
        x: &Matrix,
        room: usize,
        budget: &Budget,
        backend: &mut MatrixBackend,
    ) -> Result<Self> {
        backend.check_fresh(t)?;
        let n = t.node_count();
        pass::check_shape("CascadeSession::open", x, n, x.cols())?;
        let caches = stages
            .iter()
            .map(|gcn| EmbeddingCache::unfilled(gcn, n, room, t.generation()))
            .collect::<Result<_>>()?;
        let mut session = CascadeSession {
            stages,
            filter_threshold,
            caches,
            probs: Vec::with_capacity(n + room),
        };
        // Every row goes through the heads, and each stage grows its rows
        // over those it sees: stage 0 all of them, a later stage its halo.
        let all: Vec<usize> = (0..n).collect();
        let (probs, _) = session.run_heads(t, x, &all, &[], budget)?;
        session.probs.extend(probs);
        Ok(session)
    }

    /// The cascade rule ([`cascade_rows`]) over `rows` (ascending): each
    /// stage's head sees only the rows still alive, a tile at a time,
    /// reading their final embeddings in place once the rows
    /// [`EmbeddingCache::cone_rows`] lists for `stale` are computed. Each
    /// layer charges `budget` its row count first. Returns the
    /// probabilities and the per-stage deltas; on an error, the deltas are
    /// already reverted.
    fn run_heads(
        &mut self,
        t: &GraphTensors,
        x: &Matrix,
        rows: &[usize],
        stale: &[Vec<usize>],
        budget: &Budget,
    ) -> Result<(Vec<f32>, Vec<EmbeddingDelta>)> {
        let missing = TensorError::LengthMismatch {
            expected: self.stages.len(),
            actual: self.caches.len(),
        };
        let caches = &mut self.caches;
        let mut deltas = Vec::with_capacity(self.stages.len());
        let probs = cascade_rows(self.stages, self.filter_threshold, rows, |s, gcn, alive| {
            let cache = caches.get_mut(s).ok_or_else(|| missing.clone())?;
            let layer_rows = cache.cone_rows(t, stale, alive);
            deltas.push(gcn.patch_layers(t, x, cache, &layer_rows, budget)?);
            let mut probs = vec![0.0f32; alive.len()];
            let e = cache.final_embedding();
            pass::head_rows(pass::PER_CORE, gcn.head(), e, alive, &mut probs)?;
            Ok(probs)
        });
        match probs {
            Ok(probs) => Ok((probs, deltas)),
            Err(e) => {
                self.revert_stages(deltas);
                Err(e)
            }
        }
    }

    /// Re-derives embeddings and probabilities after the feature rows
    /// `dirty` changed: each stage recomputes only the rows it keeps in
    /// its D-hop halo, grows over the rows that newly reach it and forgets
    /// the rows that no longer do. Returns the rows it computed.
    ///
    /// # Errors
    ///
    /// [`TensorError::StaleCache`] if the session was not synced to the
    /// graph's generation, a length error if the graph or features
    /// disagree with the caches, and an index error for an out-of-range
    /// dirty row. Every stage is checked before any is patched, and a step
    /// refused later rolls the patched stages back, so an error leaves the
    /// session unmutated.
    pub fn refresh(
        &mut self,
        t: &GraphTensors,
        x: &Matrix,
        dirty: &[usize],
    ) -> Result<SessionDelta> {
        self.refresh_budgeted(t, x, dirty, &Budget::unlimited())
    }

    /// [`CascadeSession::refresh`] under a cooperative work [`Budget`]:
    /// every stage's recompute charges the budget per layer. A budget stop
    /// mid-refresh rolls back the stages already refreshed, leaving the
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
        let halos = self.checked_halos(t, x, dirty)?;
        // Halos only grow, so the deepest one holds every stage's final
        // rows: the rows whose probability can change.
        let rows = halos.last().cloned().unwrap_or_default();
        let mut stage_deltas = Vec::with_capacity(self.stages.len());
        let new_probs = match self.refresh_stages(t, x, &halos, &rows, budget, &mut stage_deltas) {
            Ok(probs) => probs,
            Err(e) => {
                // Earlier stages already adopted the new rows; restore
                // them so an interrupted refresh is side-effect free.
                self.revert_stages(stage_deltas);
                return Err(e);
            }
        };
        for (&r, p) in rows.iter().zip(new_probs) {
            if let Some(slot) = self.probs.get_mut(r) {
                *slot = p;
            }
        }
        let rows_computed = rows_computed(&stage_deltas);
        let rows_full = self.full_rows(t.node_count());
        let obs = gcnt_obs::global();
        if obs.is_enabled() {
            obs.incr(gcnt_obs::counters::CORE_SESSION_REFRESHES);
        }
        note_rows(rows_computed, rows_full);
        Ok(SessionDelta {
            rows_computed,
            rows_full,
        })
    }

    /// The refresh, stage by stage through the cascade rule over `rows`,
    /// the deepest of the dirty halos `halos`: each stage is first brought
    /// to the rows its head now reads ([`EmbeddingCache::refreshed_rows`]),
    /// then classifies the rows of `rows` still alive. A stage no row of
    /// `rows` reaches is refreshed with none alive. The rows stage 0 —
    /// which holds every row — does not hold yet are the nodes adopted
    /// since the last refresh. Pushes one delta per stage onto `deltas`
    /// and returns the probabilities of `rows`.
    fn refresh_stages(
        &mut self,
        t: &GraphTensors,
        x: &Matrix,
        halos: &[Vec<usize>],
        rows: &[usize],
        budget: &Budget,
        deltas: &mut Vec<EmbeddingDelta>,
    ) -> Result<Vec<f32>> {
        let missing = TensorError::LengthMismatch {
            expected: self.stages.len(),
            actual: self.caches.len(),
        };
        let adopted: Vec<usize> = match self.caches.first() {
            Some(stage0) => rows
                .iter()
                .copied()
                .filter(|&r| !stage0.is_valid(0, r))
                .collect(),
            None => Vec::new(),
        };
        let caches = &mut self.caches;
        let mut reached = 0;
        let probs = cascade_rows(self.stages, self.filter_threshold, rows, |s, gcn, alive| {
            let cache = caches.get_mut(s).ok_or_else(|| missing.clone())?;
            let delta = gcn.refresh_cache(t, x, cache, halos, rows, &adopted, alive, budget)?;
            deltas.push(delta);
            reached = s + 1;
            let mut probs = vec![0.0f32; alive.len()];
            let e = cache.final_embedding();
            pass::head_rows(pass::PER_CORE, gcn.head(), e, alive, &mut probs)?;
            Ok(probs)
        })?;
        let unreached = self.stages.iter().zip(&mut self.caches).skip(reached);
        for (gcn, cache) in unreached {
            let delta = gcn.refresh_cache(t, x, cache, halos, rows, &adopted, &[], budget)?;
            deltas.push(delta);
        }
        Ok(probs)
    }

    /// The combined probabilities of `rows` (any order, repeats allowed)
    /// once the feature rows `dirty` changed, as [`CascadeSession::refresh`]
    /// followed by [`CascadeSession::probs`] would read them, bit for bit —
    /// but without keeping the change: every valid row is left as it was,
    /// on every error path too. Also returns the embedding rows it
    /// computed.
    ///
    /// It computes only what those probabilities read. With `H_d` the
    /// `d`-hop halo of `dirty`, a row outside the deepest stage's halo
    /// keeps its cached probability. The rest go through the cascade rule
    /// ([`cascade_rows`]), and each stage computes, in place, only the
    /// rows of its layers that its surviving rows' final embeddings read
    /// and that the halo can change or the stage does not hold yet:
    /// `N_D = alive ∩ S_D` and `N_d = halo_step(N_{d+1}) ∩ S_d`, with
    /// `S_d` the rows of layer `d` in `H_d` or not valid. The patched rows
    /// are restored and the grown ones made invalid again before it
    /// returns. Each layer charges `budget` its row count first.
    ///
    /// # Errors
    ///
    /// As [`CascadeSession::refresh_budgeted`], plus an index error for a
    /// row outside the graph.
    pub fn probs_after(
        &mut self,
        t: &GraphTensors,
        x: &Matrix,
        dirty: &[usize],
        rows: &[usize],
        budget: &Budget,
    ) -> Result<(Vec<f32>, u64)> {
        let halos = self.checked_halos(t, x, dirty)?;
        check_nodes(rows, t.node_count())?;
        let deepest = halos.last().map_or(&[][..], Vec::as_slice);
        let targets = within(&sorted_unique(rows), deepest);
        let (fresh, patched) = self.run_heads(t, x, &targets, &halos, budget)?;
        let rows_computed = rows_computed(&patched);
        self.revert_stages(patched);
        let probs = rows
            .iter()
            .map(|r| {
                let p = match targets.binary_search(r) {
                    Ok(i) => fresh.get(i),
                    Err(_) => self.probs.get(*r),
                };
                p.copied().ok_or(TensorError::IndexOutOfBounds {
                    index: (*r, 0),
                    shape: (self.probs.len(), 1),
                })
            })
            .collect::<Result<Vec<f32>>>()?;
        note_rows(rows_computed, self.full_rows(t.node_count()));
        Ok((probs, rows_computed))
    }

    /// Checks every stage's cache against graph `t` and features `x`, and
    /// `dirty` against the graph, and returns the dirty halos out to the
    /// deepest stage's depth.
    fn checked_halos(
        &self,
        t: &GraphTensors,
        x: &Matrix,
        dirty: &[usize],
    ) -> Result<Vec<Vec<usize>>> {
        for (gcn, cache) in self.stages.iter().zip(&self.caches) {
            cache.check(gcn.depth(), t, x)?;
        }
        check_nodes(dirty, t.node_count())?;
        let depth = self.stages.iter().map(Gcn::depth).max().unwrap_or(0);
        Ok(dirty_halos(t, dirty, depth))
    }

    /// Undoes per-stage patches, stage `s` from `deltas[s]`.
    fn revert_stages(&mut self, deltas: Vec<EmbeddingDelta>) {
        for (cache, d) in self.caches.iter_mut().zip(deltas) {
            cache.revert(d);
        }
    }

    /// Adopts a grown graph after a committed observation-point insertion:
    /// extends every cache and probability vector to the new node count
    /// (new entries zeroed, new rows not valid) and the new generation. The
    /// caller must include the inserted node and every SCOAP-changed node
    /// in the next [`CascadeSession::refresh`] dirty set to make the
    /// placeholders real: that refresh recomputes every kept row near the
    /// insertion and grows the new rows its heads read.
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

    /// Embedding rows the session holds valid, summed over stages and
    /// layers: right after an open, the rows the opening pass computed.
    pub fn cached_rows(&self) -> u64 {
        let flags = self.caches.iter().flat_map(|c| &c.valid);
        flags.map(|v| v.iter().filter(|&&f| f).count() as u64).sum()
    }
}

/// Embedding rows computed by `deltas`, summed.
fn rows_computed(deltas: &[EmbeddingDelta]) -> u64 {
    deltas.iter().map(|d| d.rows_computed as u64).sum()
}

/// Adds a refresh's or a preview's embedding rows to the incremental
/// counters: `rows_computed` computed, the rest of `rows_full` reused.
fn note_rows(rows_computed: u64, rows_full: u64) {
    let obs = gcnt_obs::global();
    if obs.is_enabled() {
        obs.add(gcnt_obs::counters::CORE_INCR_ROWS_COMPUTED, rows_computed);
        obs.add(
            gcnt_obs::counters::CORE_INCR_ROWS_REUSED,
            rows_full.saturating_sub(rows_computed),
        );
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
            0,
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

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn all(t: &GraphTensors) -> Vec<usize> {
        (0..t.node_count()).collect()
    }

    /// `gcn` as a one-stage cascade.
    fn alone(gcn: &Gcn) -> MultiStageGcn {
        MultiStageGcn::from_stages(vec![gcn.clone()], 0.5)
    }

    /// Every layer `E_1..E_D` of a full pass.
    fn full_layers(gcn: &Gcn, t: &GraphTensors, x: &Matrix) -> Vec<Matrix> {
        pass::embed_layers(
            pass::PER_CORE,
            gcn,
            gcn.encoders(),
            t,
            x,
            &Budget::unlimited(),
        )
        .unwrap()
    }

    /// The invariant every session call keeps: a valid row holds the full
    /// pass's value, bit for bit, and reads only valid rows.
    fn assert_valid_rows_exact(session: &CascadeSession<'_>, t: &GraphTensors, x: &Matrix) {
        for (s, (gcn, cache)) in session.stages.iter().zip(&session.caches).enumerate() {
            let full = full_layers(gcn, t, x);
            for (d, (layer, want)) in cache.layers().iter().zip(&full).enumerate() {
                for r in (0..t.node_count()).filter(|&r| cache.is_valid(d, r)) {
                    assert_eq!(
                        bits(layer.row(r)),
                        bits(want.row(r)),
                        "stage {s} layer {d} row {r}"
                    );
                    for v in t.halo_step(&[r]).into_iter().filter(|_| d > 0) {
                        assert!(
                            cache.is_valid(d - 1, v),
                            "stage {s} layer {d} row {r} reads {v}"
                        );
                    }
                }
            }
        }
    }

    /// Which rows each stage holds: `[stage][layer][row]`.
    fn held(session: &CascadeSession<'_>) -> Vec<Vec<Vec<bool>>> {
        session.caches.iter().map(|c| c.valid.clone()).collect()
    }

    /// What a session opened on graph `t` and features `x` holds.
    fn held_at_open(model: &MultiStageGcn, t: &GraphTensors, x: &Matrix) -> Vec<Vec<Vec<bool>>> {
        held(&model.open_session(t, x).unwrap())
    }

    /// Stage 0 is cached whole; a later stage only on the backward halo
    /// of the rows that reach it. Every call after keeps the valid rows
    /// exact, and what the session holds is what an open on the same
    /// state would hold: refreshes, refreshes back to the state before,
    /// previews and insertions.
    #[test]
    fn later_stages_cache_only_what_their_heads_read() {
        let (data, mut net) = design(19, 300);
        let (mut t, mut x) = (data.tensors.clone(), data.features.clone());
        let stages = vec![small_gcn(2, 81), small_gcn(3, 82), small_gcn(2, 83)];
        let mut p0 = stages[0].predict_proba(&t, &x).unwrap();
        p0.sort_by(f32::total_cmp);
        let model = MultiStageGcn::from_stages(stages, p0[p0.len() / 2]);
        let mut session = model.open_session(&t, &x).unwrap();
        assert_valid_rows_exact(&session, &t, &x);
        let n = t.node_count();
        let p0 = model.stages()[0].predict_proba(&t, &x).unwrap();
        let reach1: Vec<usize> = (0..n)
            .filter(|&v| p0[v] >= model.filter_threshold())
            .collect();
        let stage1 = &session.caches[1];
        let valid = |d: usize| {
            (0..n)
                .filter(|&r| stage1.is_valid(d, r))
                .collect::<Vec<_>>()
        };
        assert!(!reach1.is_empty() && reach1.len() < n);
        assert_eq!(valid(2), reach1);
        assert_eq!(valid(1), t.halo_step(&reach1));
        assert_eq!(valid(0), t.halo_step(&t.halo_step(&reach1)));
        assert!(session.cached_rows() < session.full_rows(n));
        let caches = session.clone().into_caches(&t, &x).unwrap();
        let warm = CascadeSession::from_caches(&model, &t, &x, caches).unwrap();
        assert!(
            held(&warm) == held(&session),
            "reopened from complete caches"
        );

        let mut scoap = gcnt_netlist::Scoap::compute(&net).unwrap();
        for step in 0..6 {
            let dirty: Vec<usize> = (0..3).map(|k| (step * 53 + k * 29) % n).collect();
            let saved: Vec<f32> = dirty.iter().map(|&r| x.get(r, 3)).collect();
            for &r in &dirty {
                x.set(r, 3, x.get(r, 3) + 1.5);
            }
            let before = (session.probs().to_vec(), held(&session));
            let (peek, _) = session
                .probs_after(&t, &x, &dirty, &all(&t), &Budget::unlimited())
                .unwrap();
            assert!(
                held(&session) == before.1,
                "step {step}: a preview keeps nothing"
            );
            let delta = session.refresh(&t, &x, &dirty).unwrap();
            assert_eq!(bits(&peek), bits(session.probs()), "step {step}: preview");
            assert_eq!(
                session.probs(),
                model.predict_proba(&t, &x).unwrap().as_slice()
            );
            assert_valid_rows_exact(&session, &t, &x);
            assert!(
                held(&session) == held_at_open(&model, &t, &x),
                "step {step}: refresh"
            );
            assert!(delta.rows_computed() < delta.rows_full_equivalent());
            for (&r, &v) in dirty.iter().zip(&saved) {
                x.set(r, 3, v);
            }
            session.refresh(&t, &x, &dirty).unwrap();
            assert_eq!(bits(session.probs()), bits(&before.0), "step {step}: back");
            assert!(held(&session) == before.1, "step {step}: back");
            assert_valid_rows_exact(&session, &t, &x);

            let target = net
                .nodes()
                .filter(|&v| scoap.co(v) > 0 && !net.fanout(v).is_empty())
                .nth(step * 7)
                .unwrap();
            let op = net.insert_observation_point(target).unwrap();
            t.insert_observation_point(target, op).unwrap();
            let mut dirty = vec![target.index(), op.index()];
            for v in scoap.observe(&net, target, op) {
                x.set(v.index(), 3, 0.5);
                dirty.push(v.index());
            }
            x.push_row(&[0.0, 1.0, 1.0, 0.0]).unwrap();
            session.sync_nodes(&t);
            session.refresh(&t, &x, &dirty).unwrap();
            assert_eq!(
                session.probs(),
                model.predict_proba(&t, &x).unwrap().as_slice()
            );
            assert_valid_rows_exact(&session, &t, &x);
            assert!(
                held(&session) == held_at_open(&model, &t, &x),
                "step {step}: insertion"
            );
        }
    }

    #[test]
    fn a_completed_cache_ends_in_the_embedding() {
        let (data, _) = design(3, 200);
        for depth in 1..=3 {
            let gcn = small_gcn(depth, 11);
            let model = alone(&gcn);
            let session = model.open_session(&data.tensors, &data.features).unwrap();
            let caches = session.into_caches(&data.tensors, &data.features).unwrap();
            assert_eq!(caches[0].layers().len(), depth);
            let full = gcn.embed(&data.tensors, &data.features).unwrap();
            assert_eq!(caches[0].final_embedding(), &full);
        }
    }

    #[test]
    fn a_refused_step_rolls_the_patched_layers_back() {
        let (data, _) = design(5, 300);
        let gcn = small_gcn(3, 23);
        let t = &data.tensors;
        let mut x = data.features.clone();
        // A last layer of a width the model does not make: its step is
        // refused after the two layers below were patched in place.
        let mut layers = full_layers(&gcn, t, &x);
        layers[2] = Matrix::zeros(x.rows(), 9);
        let mut cache = EmbeddingCache::from_layers(layers, t.generation()).unwrap();
        let pristine = cache.clone();
        x.set(7, 3, x.get(7, 3) + 1.25);
        let halos = dirty_halos(t, &[7], gcn.depth());
        let err = gcn.patch_layers(t, &x, &mut cache, &halos, &Budget::unlimited());
        assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })));
        assert_eq!(cache.layers(), pristine.layers());
        assert_eq!(cache.valid, pristine.valid);
    }

    #[test]
    fn stale_cache_is_refused() {
        let (data, mut net) = design(7, 120);
        let model = alone(&small_gcn(2, 3));
        let mut t = data.tensors.clone();
        let mut session = model.open_session(&t, &data.features).unwrap();
        let target = net
            .nodes()
            .find(|&v| !net.fanout(v).is_empty())
            .expect("generated design has internal nodes");
        let op = net.insert_observation_point(target).unwrap();
        t.insert_observation_point(target, op).unwrap();
        let err = session.refresh(&t, &data.features, &[0]);
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
        // A one-stage session matches its bare GCN too.
        let gcn = small_gcn(2, 41);
        let model = alone(&gcn);
        let single = model.open_session(&data.tensors, &data.features).unwrap();
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
            .into_caches(&data.tensors, &data.features)
            .unwrap()
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
            .into_caches(&data.tensors, &data.features)
            .unwrap()
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

        // A layer of the wrong width is refused here, not at the first
        // refresh.
        let mut caches = model
            .open_session(&data.tensors, &data.features)
            .unwrap()
            .into_caches(&data.tensors, &data.features)
            .unwrap();
        let mut layers = caches[0].layers().to_vec();
        layers[0] = Matrix::zeros(data.tensors.node_count(), 9);
        caches[0] = EmbeddingCache::from_layers(layers, caches[0].generation()).unwrap();
        assert!(matches!(
            CascadeSession::from_caches(&model, &data.tensors, &data.features, caches),
            Err(TensorError::ShapeMismatch {
                op: "CascadeSession::from_caches",
                ..
            })
        ));
    }

    #[test]
    fn session_refresh_matches_full_recompute_both_ways() {
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
        x = data.features.clone();
        session.refresh(&data.tensors, &x, &dirty).unwrap();
        assert_eq!(session.probs(), before.as_slice());
    }

    /// Stage 1 reaches three hops, stage 0 one: the heads must re-run on
    /// the deeper halo, or rows only stage 1 sees keep stale probabilities.
    #[test]
    fn a_deeper_later_stage_refreshes_every_row_it_changes() {
        let (data, _) = design(13, 300);
        let stages = vec![small_gcn(1, 51), small_gcn(3, 52)];
        let model = MultiStageGcn::from_stages(stages, 0.0);
        let mut x = data.features.clone();
        let mut session = model.open_session(&data.tensors, &x).unwrap();
        let dirty = [3usize, 88, 120];
        for &r in &dirty {
            x.set(r, 3, x.get(r, 3) - 0.75);
        }
        session.refresh(&data.tensors, &x, &dirty).unwrap();
        let reference = model.predict_proba(&data.tensors, &x).unwrap();
        let stale = session
            .probs()
            .iter()
            .zip(&reference)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        assert_eq!(stale, 0, "rows with stale probabilities");
    }

    #[test]
    fn sync_nodes_then_refresh_absorbs_an_insertion() {
        let (data, mut net) = design(17, 200);
        let gcn = small_gcn(2, 61);
        let model = alone(&gcn);
        let mut t = data.tensors.clone();
        let mut x = data.features.clone();
        let mut session = CascadeSession::for_cascade_budgeted_with(
            &model,
            &t,
            &x,
            1,
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
        let kept: Vec<*const f32> = session
            .caches
            .iter()
            .map(|c| c.final_embedding().as_slice().as_ptr())
            .collect();
        session.sync_nodes(&t);
        let moved: Vec<*const f32> = session
            .caches
            .iter()
            .map(|c| c.final_embedding().as_slice().as_ptr())
            .collect();
        assert_eq!(kept, moved, "a session opened with room grows in place");
        assert_eq!(session.node_count(), t.node_count());
        session
            .refresh(&t, &x, &[target.index(), op.index()])
            .unwrap();
        let reference = gcn.predict_proba(&t, &x).unwrap();
        assert_eq!(session.probs(), reference.as_slice());
    }
}
