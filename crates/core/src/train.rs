//! GCN training: the one-worker-per-graph epoch of §3.4.2 and the plain
//! epoch loop around it.
//!
//! Training is full-batch per graph: the forward pass runs over the whole
//! netlist (embeddings of unlabeled/unselected nodes are still needed as
//! neighbourhood context), but the loss is *masked* to a node subset —
//! either a balanced sample (Table 2 protocol) or the active set of a
//! multi-stage cascade (§3.3).
//!
//! One graph's step ([`masked_loss_grads`]) runs on row tiles, as
//! inference does ([`crate::pass`]). The row-tiled layer step builds
//! `E_1..E_{D-1}`, the only activations kept at `n` rows. Then one
//! ascending sweep of [`TILE_ROWS`]-row tiles runs, per tile, layer `D`'s
//! aggregate, encode and ReLU, the head, the loss rows, the head backward
//! and layer `D`'s backward; each layer below gets one backward sweep that
//! rebuilds its tile's `P·E`, `S·E` and `G` from the retained `E_{d-1}`.
//! What a tile cannot compute from its own rows is the aggregate's
//! backward, which gathers the input gradient `dG` of every neighbour, so
//! `dG` of the layer being swept back through and of the one below are
//! the other two `n`-row buffers.
//!
//! The sweeps run on the graph's own worker, and every gradient sum —
//! each `dW` and `db` element and the `f64` dots behind `w_pr`/`w_su` —
//! accumulates tile after tile in row order. So every element keeps the
//! chain of the whole-matrix step ([`Gcn::forward`],
//! [`weighted_softmax_cross_entropy`] on the masked logits,
//! [`Gcn::backward`]), which stays as the reference
//! `tests/train_properties.rs` holds the step to bit for bit. A ReLU's
//! mask is read off its activation (`relu(z) > 0` exactly where `z > 0`),
//! and the loss terms are summed in mask order after the sweep, because a
//! mask may be shuffled or repeat a row. Past `E_1..E_{D-1}`, which the
//! layer step builds on every core, the cores come from the graphs: one
//! worker per graph ([`epoch_grads`]).
//!
//! [`weighted_softmax_cross_entropy`]: gcnt_nn::loss::weighted_softmax_cross_entropy

use serde::{Deserialize, Serialize};

use gcnt_nn::loss::{loss_norm, softmax_ce_row};
use gcnt_nn::Linear;
use gcnt_tensor::{ops, Budget, Matrix, Result};

use crate::metrics::Confusion;
use crate::pass::{self, TILE_ROWS};
use crate::{Gcn, GcnGrads, GraphData, GraphTensors};

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of full-batch epochs (the paper trains for 300).
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum (`0.0` = the plain SGD of the paper).
    pub momentum: f32,
    /// Loss weight of the positive class (1.0 = unweighted).
    pub pos_weight: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 300,
            lr: 0.05,
            momentum: 0.0,
            pos_weight: 1.0,
        }
    }
}

/// Loss and masked-set accuracy after one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch number (0-based).
    pub epoch: usize,
    /// Mean weighted loss over all training graphs.
    pub loss: f32,
    /// Accuracy on the training masks.
    pub train_accuracy: f64,
}

/// Computes the masked loss and full-model gradients for one graph.
///
/// The forward pass covers the whole graph; the loss covers only the rows
/// listed in `mask` (any order, repeats allowed: a repeated row counts
/// once per listing in the loss). Rows outside the mask receive zero logit
/// gradient, so they contribute context but no loss.
///
/// The step runs in tiles of [`TILE_ROWS`] rows (module docs) and returns
/// bit for bit what the whole-matrix step returns: [`Gcn::forward`],
/// [`weighted_softmax_cross_entropy`] on the masked logits, their gradient
/// scattered to `n` rows, [`Gcn::backward`].
///
/// [`weighted_softmax_cross_entropy`]: gcnt_nn::loss::weighted_softmax_cross_entropy
///
/// Returns `(loss, gradients, masked_predictions)`.
///
/// # Errors
///
/// Returns a shape error if the data and model disagree.
///
/// # Panics
///
/// Panics if `data` has no labels, a mask index is out of bounds, or the
/// head does not emit one logit per class weight.
pub fn masked_loss_grads(
    gcn: &Gcn,
    data: &GraphData,
    mask: &[usize],
    class_weights: &[f32; 2],
) -> Result<(f32, GcnGrads, Vec<usize>)> {
    let (t, x) = (&data.tensors, &data.features);
    let n = t.node_count();
    let fan_in = gcn
        .encoders()
        .first()
        .map_or(gcn.head().fan_in(), Linear::fan_in);
    pass::check_shape("masked_loss_grads features", x, n, fan_in)?;
    let (inner, top) = match gcn.encoders().split_last() {
        Some((top, inner)) => (inner, Some(top)),
        None => (&[][..], None),
    };
    // E_1..E_{D-1}, the only activations kept at n rows.
    let free = Budget::unlimited();
    let embeds = pass::embed_layers(pass::PER_CORE, gcn, inner, t, x, &free)?;

    assert_eq!(
        class_weights.len(),
        gcn.head().fan_out(),
        "one weight per class"
    );
    let mut loss = LossRows::new(data, mask, class_weights);
    let mut step = Step::new(gcn, t);
    // The input gradient `dG` of the layer just swept back through, kept
    // at n rows while the layer below gathers from it; layer 1's is never
    // kept.
    let mut dg = match top {
        Some(top) if !inner.is_empty() => Some(Matrix::zeros(n, top.fan_in())),
        _ => None,
    };
    let prev = embeds.last().unwrap_or(x);
    step.sweep(|step| step.top_tile(top, prev, &mut loss, dg.as_mut()))?;
    for (d, enc) in inner.iter().enumerate().rev() {
        let dg_in = dg.take().unwrap_or_else(|| Matrix::zeros(0, 0));
        dg = (d > 0).then(|| Matrix::zeros(n, enc.fan_in()));
        let (below, above) = embeds.split_at(d);
        let (prev, out) = (below.last().unwrap_or(x), above.first());
        step.sweep(|step| step.lower_tile(d, enc, prev, out, &dg_in, dg.as_mut()))?;
    }
    let (loss, preds) = loss.finish(mask);
    Ok((loss, step.finish(), preds))
}

/// The per-row half of the loss: computed row by row inside the top
/// sweep, summed in mask order after it.
struct LossRows<'a> {
    labels: &'a [u8],
    class_weights: &'a [f32; 2],
    /// One over the masked rows' total class weight.
    norm: f64,
    /// Whether each node is in the mask.
    masked: Vec<bool>,
    /// Each masked node's loss term and prediction.
    terms: Vec<f64>,
    preds: Vec<usize>,
}

impl<'a> LossRows<'a> {
    /// # Panics
    ///
    /// As [`masked_loss_grads`].
    fn new(data: &'a GraphData, mask: &[usize], class_weights: &'a [f32; 2]) -> Self {
        let n = data.node_count();
        let norm = loss_norm(data.labels_at(mask), class_weights);
        let mut masked = vec![false; n];
        for &v in mask {
            if let Some(m) = masked.get_mut(v) {
                *m = true;
            }
        }
        LossRows {
            labels: &data.labels,
            class_weights,
            norm,
            masked,
            terms: vec![0.0; n],
            preds: vec![0; n],
        }
    }

    /// Turns a tile's logits (rows of `classes` values, node `first`
    /// onwards) into its logit gradient in place: a masked row's
    /// [`softmax_ce_row`], any other row zero.
    fn tile(&mut self, first: usize, logits: &mut [f32], classes: usize) {
        let rows = logits.chunks_exact_mut(classes.max(1)).zip(first..);
        for (row, v) in rows {
            let (Some(&label), Some(true)) = (self.labels.get(v), self.masked.get(v).copied())
            else {
                row.fill(0.0);
                continue;
            };
            if let (Some(pred), Some(term)) = (self.preds.get_mut(v), self.terms.get_mut(v)) {
                *pred = ops::argmax_row(row);
                *term = softmax_ce_row(row, usize::from(label), self.class_weights, self.norm);
            }
        }
    }

    /// The loss, its terms summed in mask order, and the predictions in
    /// mask order.
    fn finish(self, mask: &[usize]) -> (f32, Vec<usize>) {
        let mut total = 0.0f64;
        let mut preds = Vec::with_capacity(mask.len());
        for &v in mask {
            total += self.terms.get(v).copied().unwrap_or_default();
            preds.push(self.preds.get(v).copied().unwrap_or_default());
        }
        ((total * self.norm) as f32, preds)
    }
}

/// Tile buffers, reused by every tile of a step.
#[derive(Default)]
struct TileBufs {
    /// The tile's nodes, ascending and consecutive.
    rows: Vec<usize>,
    /// `P·E`, `S·E` and `G` of the layer being swept.
    pe: Vec<f32>,
    se: Vec<f32>,
    g: Vec<f32>,
    /// Each head layer's input — `acts[0]` is the tile's `E_D` — and last
    /// the logits.
    acts: Vec<Vec<f32>>,
    /// The gradient on its way down, and the next one.
    grad: [Vec<f32>; 2],
}

/// One graph's step: the model, the weights transposed once, and the
/// gradients and `w_pr`/`w_su` dots accumulated tile after tile.
struct Step<'a> {
    gcn: &'a Gcn,
    t: &'a GraphTensors,
    enc_t: Vec<Matrix>,
    head_t: Vec<Matrix>,
    grads: GcnGrads,
    /// Per encoder, the running `f64` sums of `dG·(P·E)` and `dG·(S·E)`.
    dots: Vec<[f64; 2]>,
    tile: TileBufs,
}

impl<'a> Step<'a> {
    fn new(gcn: &'a Gcn, t: &'a GraphTensors) -> Self {
        let transposed = |l: &Linear| l.weight().transpose();
        // Where `Iterator::sum` starts an `f64` sum, so a sum continued
        // tile after tile from here is `Matrix::dot`'s over all rows.
        let start: f64 = std::iter::empty::<f64>().sum();
        Step {
            gcn,
            t,
            enc_t: gcn.encoders().iter().map(transposed).collect(),
            head_t: gcn.head().layers().iter().map(transposed).collect(),
            grads: gcn.zero_grads(),
            dots: vec![[start; 2]; gcn.depth()],
            tile: TileBufs::default(),
        }
    }

    /// Runs `tile` on every tile of the graph, in ascending row order.
    fn sweep(&mut self, mut tile: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        let n = self.t.node_count();
        for r0 in (0..n).step_by(TILE_ROWS) {
            self.tile.rows.clear();
            self.tile.rows.extend(r0..n.min(r0 + TILE_ROWS));
            tile(self)?;
        }
        Ok(())
    }

    /// The top sweep's tile: layer `D` forward from `prev` (`E_{D-1}`, or
    /// the features at depth 0), the head, the loss rows, the head
    /// backward and layer `D`'s backward, whose input gradient goes to the
    /// tile's rows of `dg_out` when a layer below reads it.
    fn top_tile(
        &mut self,
        top: Option<&Linear>,
        prev: &Matrix,
        loss: &mut LossRows<'_>,
        dg_out: Option<&mut Matrix>,
    ) -> Result<()> {
        let head = self.gcn.head();
        let TileBufs {
            rows,
            pe,
            se,
            g,
            acts,
            grad,
        } = &mut self.tile;
        let (m, first) = (rows.len(), rows.first().copied().unwrap_or(0));
        acts.resize_with(head.depth() + 1, Vec::new);
        let Some((e_top, head_acts)) = acts.split_first_mut() else {
            return Ok(());
        };
        let e_top = match top {
            Some(enc) => {
                let k = enc.fan_in();
                let (pe, se, g) = (
                    ops::scratch(pe, m * k),
                    ops::scratch(se, m * k),
                    ops::scratch(g, m * k),
                );
                self.t.aggregate_rows_parts_into(
                    prev,
                    rows,
                    self.gcn.w_pr(),
                    self.gcn.w_su(),
                    pe,
                    se,
                    g,
                )?;
                let e = ops::scratch(e_top, m * enc.fan_out());
                enc.forward_into(g.chunks_exact(k.max(1)), e)?;
                ops::relu_slice(e);
                e
            }
            None => {
                let k = prev.cols();
                let e = ops::scratch(e_top, m * k);
                e.copy_from_slice(rows_of(prev.as_slice(), first, m, k));
                e
            }
        };

        // The head forward, each layer's input kept.
        let layers = head.layers();
        let mut input: &[f32] = e_top;
        for (i, (layer, out)) in layers.iter().zip(head_acts.iter_mut()).enumerate() {
            let out = ops::scratch(out, m * layer.fan_out());
            layer.forward_into(input.chunks_exact(layer.fan_in().max(1)), out)?;
            if i + 1 < layers.len() {
                ops::relu_slice(out);
            }
            input = out;
        }

        // The loss rows, then the head backward.
        let [d, spare] = grad;
        let classes = head.fan_out();
        let dy = ops::scratch(d, m * classes);
        dy.copy_from_slice(input);
        loss.tile(first, dy, classes);
        let mut dy_width = classes;
        let backward = layers
            .iter()
            .zip(&self.head_t)
            .zip(&mut self.grads.head.layers)
            .enumerate()
            .rev();
        for (i, ((layer, w_t), grads)) in backward {
            let dy = ops::scratch(d, m * dy_width);
            if i + 1 < layers.len() {
                // Undo the ReLU between layer i and layer i + 1: the mask
                // is read off layer i + 1's input.
                let act = head_acts.get(i).map_or(&[][..], Vec::as_slice);
                relu_backward(dy, act);
            }
            let x = match i.checked_sub(1) {
                None => &*e_top,
                Some(j) => head_acts.get(j).map_or(&[][..], Vec::as_slice),
            };
            let x = x.get(..m * layer.fan_in()).unwrap_or_default();
            let dx = ops::scratch(spare, m * layer.fan_in());
            layer.backward_into(x, dy, w_t, grads, dx)?;
            std::mem::swap(d, spare);
            dy_width = layer.fan_in();
        }

        // Layer D's backward.
        let (Some(enc), Some(w_t), Some(grads), Some(dots)) = (
            top,
            self.enc_t.last(),
            self.grads.encoders.last_mut(),
            self.dots.last_mut(),
        ) else {
            return Ok(());
        };
        let k = enc.fan_in();
        let dz = ops::scratch(d, m * enc.fan_out());
        relu_backward(dz, e_top);
        let dg = match dg_out {
            Some(dg_out) => rows_of_mut(dg_out.as_mut_slice(), first, m, k),
            None => ops::scratch(spare, m * k),
        };
        enc.backward_into(g.get(..m * k).unwrap_or_default(), dz, w_t, grads, dg)?;
        fold_dots(dots, dg, pe, se);
        Ok(())
    }

    /// A lower sweep's tile for encoder `d` (0-based, below the last):
    /// `P·E`, `S·E` and `G` rebuilt from `prev` (`E_d`, or the features),
    /// the tile's rows of `dE_{d+1}` gathered from `dg_in`, the ReLU mask
    /// read off `out` (`E_{d+1}`), and the layer's backward, whose input
    /// gradient goes to the tile's rows of `dg_out` when a layer below
    /// reads it.
    fn lower_tile(
        &mut self,
        d: usize,
        enc: &Linear,
        prev: &Matrix,
        out: Option<&Matrix>,
        dg_in: &Matrix,
        dg_out: Option<&mut Matrix>,
    ) -> Result<()> {
        let (w_pr, w_su) = (self.gcn.w_pr(), self.gcn.w_su());
        let TileBufs {
            rows,
            pe,
            se,
            g,
            grad: [de, spare_buf],
            ..
        } = &mut self.tile;
        let (m, first) = (rows.len(), rows.first().copied().unwrap_or(0));
        let (k, width) = (enc.fan_in(), enc.fan_out());
        let (pe, se, g) = (
            ops::scratch(pe, m * k),
            ops::scratch(se, m * k),
            ops::scratch(g, m * k),
        );
        self.t
            .aggregate_rows_parts_into(prev, rows, w_pr, w_su, pe, se, g)?;
        let dz = ops::scratch(de, m * width);
        let st = ops::scratch(spare_buf, m * width);
        self.t
            .aggregate_backward_rows_into(dg_in, rows, w_pr, w_su, dz, st)?;
        let e = out.map_or(&[][..], Matrix::as_slice);
        relu_backward(dz, rows_of(e, first, m, width));
        let (Some(w_t), Some(grads), Some(dots)) = (
            self.enc_t.get(d),
            self.grads.encoders.get_mut(d),
            self.dots.get_mut(d),
        ) else {
            return Ok(());
        };
        let dg = match dg_out {
            Some(dg_out) => rows_of_mut(dg_out.as_mut_slice(), first, m, k),
            None => ops::scratch(spare_buf, m * k),
        };
        enc.backward_into(g, dz, w_t, grads, dg)?;
        fold_dots(dots, dg, pe, se);
        Ok(())
    }

    /// The gradients, with `w_pr`/`w_su`'s summed over the layers top down
    /// in `f32`, as [`Gcn::backward`] sums them.
    fn finish(mut self) -> GcnGrads {
        let mut agg = [0.0f32; 2];
        for dots in self.dots.iter().rev() {
            for (a, &dot) in agg.iter_mut().zip(dots) {
                *a += dot as f32;
            }
        }
        self.grads.agg_weights = agg;
        self.grads
    }
}

/// Rows `first..first + m` of a row-major block `cols` wide.
fn rows_of(data: &[f32], first: usize, m: usize, cols: usize) -> &[f32] {
    data.get(first * cols..(first + m) * cols)
        .unwrap_or_default()
}

fn rows_of_mut(data: &mut [f32], first: usize, m: usize, cols: usize) -> &mut [f32] {
    data.get_mut(first * cols..(first + m) * cols)
        .unwrap_or_default()
}

/// The ReLU's backward in place: `d * 1.0` where the activation is
/// positive and `d * 0.0` elsewhere — the element chain of
/// `hadamard(relu_mask(z))`, since `relu(z) > 0` exactly where `z > 0`.
fn relu_backward(d: &mut [f32], act: &[f32]) {
    for (d, &a) in d.iter_mut().zip(act) {
        *d *= if a > 0.0 { 1.0 } else { 0.0 };
    }
}

/// Continues a layer's two `f64` dot sums over a tile: `dg·pe` and
/// `dg·se`, element by element in row-major order, as `Matrix::dot`.
fn fold_dots(dots: &mut [f64; 2], dg: &[f32], pe: &[f32], se: &[f32]) {
    for (acc, agg) in dots.iter_mut().zip([pe, se]) {
        *acc = dg
            .iter()
            .zip(agg)
            .map(|(&a, &b)| a as f64 * b as f64)
            .fold(*acc, |sum, term| sum + term);
    }
}

/// One epoch's gathered worker output, before the parameter update.
#[derive(Debug, Clone)]
pub struct EpochGrads {
    /// Mean weighted loss over all training graphs.
    pub loss: f32,
    /// Mean gradient: graphs summed in order, then scaled by
    /// `1 / graphs.len()`.
    pub grads: GcnGrads,
    /// Merged confusion of the masked predictions.
    pub confusion: Confusion,
    /// Workers (graph indices) that died and whose graphs were recomputed
    /// on the calling thread.
    pub recovered: Vec<usize>,
}

/// The epoch kernel of every trainer (§3.4.2, Fig. 5): one graph's
/// adjacency cannot be split, so *whole graphs* are distributed — "each
/// GPU processes one graph, and all of the output is gathered to
/// calculate the loss and then do back-propagation". One scoped worker
/// thread per graph computes that graph's loss and gradient against the
/// shared read-only model (a single graph is computed inline), and the
/// calling thread sums them in graph order: the result does not depend
/// on scheduling and equals the by-parts sum of [`masked_loss_grads`]
/// bit for bit. The parameter update is the caller's.
///
/// A worker that dies is recovered by recomputing its graph on the
/// calling thread, in its place in the sum, and listed in
/// [`EpochGrads::recovered`]. `on_worker(i)` runs first on worker `i`'s
/// thread — the seam a killed-worker test injects its fault through;
/// everyone else passes `&|_| {}`.
///
/// # Errors
///
/// Returns a shape error if any graph disagrees with the model.
///
/// # Panics
///
/// Panics if `graphs` is empty (a mean over no graphs would turn the
/// model into NaN), if `graphs` and `masks` lengths differ, or if a graph
/// is unlabeled.
pub fn epoch_grads(
    gcn: &Gcn,
    graphs: &[&GraphData],
    masks: &[Vec<usize>],
    class_weights: &[f32; 2],
    on_worker: &(dyn Fn(usize) + Sync),
) -> Result<EpochGrads> {
    assert!(!graphs.is_empty(), "need at least one training graph");
    assert_eq!(graphs.len(), masks.len(), "one mask per graph");
    let jobs = || graphs.iter().zip(masks).enumerate();
    let compute =
        |data: &GraphData, mask: &[usize]| masked_loss_grads(gcn, data, mask, class_weights);
    // One result per graph; `None` where the worker died. Every handle is
    // joined inside the scope, so a worker's panic comes back from its
    // `join` and never out of the scope.
    let joined: Vec<Option<_>> = if graphs.len() > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs()
                .map(|(worker, (data, mask))| {
                    scope.spawn(move || {
                        on_worker(worker);
                        compute(data, mask)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().ok()).collect()
        })
    } else {
        jobs()
            .map(|(_, (data, mask))| Some(compute(data, mask)))
            .collect()
    };

    let mut out = EpochGrads {
        loss: 0.0,
        grads: gcn.zero_grads(),
        confusion: Confusion::default(),
        recovered: Vec::new(),
    };
    for ((worker, (data, mask)), result) in jobs().zip(joined) {
        let (loss, grads, preds) = match result {
            Some(r) => r?,
            None => {
                out.recovered.push(worker);
                compute(data, mask)?
            }
        };
        out.grads.accumulate(&grads);
        out.loss += loss;
        out.confusion
            .merge(&Confusion::from_predictions(&data.labels_at(mask), &preds));
    }
    out.grads.scale(1.0 / graphs.len() as f32);
    out.loss /= graphs.len() as f32;
    Ok(out)
}

/// Applies one accepted epoch — the parameter update, the
/// `gcnt_core_train_epochs_total` / `gcnt_core_train_loss` metrics — and
/// returns its history row. Both epoch loops (plain [`train`] and the
/// guarded one in `gcnt-runtime`) end an epoch here, so neither can
/// forget the metrics.
pub fn commit_epoch(
    gcn: &mut Gcn,
    epoch: usize,
    computed: &EpochGrads,
    cfg: &TrainConfig,
    optimizer: &mut Option<gcnt_nn::ModelOptimizer>,
) -> EpochStats {
    apply_update(gcn, &computed.grads, cfg, optimizer);
    gcnt_obs::global().incr(gcnt_obs::counters::CORE_TRAIN_EPOCHS);
    gcnt_obs::global().gauge_set(gcnt_obs::gauges::CORE_TRAIN_LOSS, f64::from(computed.loss));
    EpochStats {
        epoch,
        loss: computed.loss,
        train_accuracy: computed.confusion.accuracy(),
    }
}

/// Trains on one or more graphs with SGD: each epoch is one
/// [`epoch_grads`] (one worker per graph) and one update. `masks[i]`
/// selects the training nodes of `graphs[i]`. A worker keeps its graph's
/// embeddings below the last layer and two input-gradient matrices at
/// `n` rows (about 16 MB for a 20k-node graph at the paper's widths), so
/// peak memory grows with the graphs trained at once, not with the
/// activations a whole-matrix pass would cache.
///
/// Returns per-epoch statistics.
///
/// # Errors
///
/// Returns a shape error if any graph disagrees with the model.
///
/// # Panics
///
/// As [`epoch_grads`]: if `graphs` is empty (and `cfg.epochs > 0`), if
/// `graphs` and `masks` lengths differ, or if a graph is unlabeled.
pub fn train(
    gcn: &mut Gcn,
    graphs: &[&GraphData],
    masks: &[Vec<usize>],
    cfg: &TrainConfig,
) -> Result<Vec<EpochStats>> {
    let class_weights = [1.0, cfg.pos_weight];
    let mut optimizer = optimizer_for(gcn, cfg);
    let mut history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let computed = epoch_grads(gcn, graphs, masks, &class_weights, &|_| {})?;
        history.push(commit_epoch(gcn, epoch, &computed, cfg, &mut optimizer));
    }
    Ok(history)
}

/// Builds the optimiser state for a training run (`None` when plain SGD
/// suffices, i.e. zero momentum).
///
/// Public so checkpoint-aware trainers can rebuild matching state when a
/// checkpoint carries none.
pub fn optimizer_for(gcn: &mut Gcn, cfg: &TrainConfig) -> Option<gcnt_nn::ModelOptimizer> {
    if cfg.momentum == 0.0 {
        return None;
    }
    let lens: Vec<usize> = gcn.params_mut().iter().map(|s| s.len()).collect();
    Some(gcnt_nn::ModelOptimizer::new(
        gcnt_nn::OptimizerConfig::Sgd(gcnt_nn::SgdConfig {
            lr: cfg.lr,
            momentum: cfg.momentum,
        }),
        lens,
    ))
}

/// Applies one parameter update, through the momentum optimiser when one
/// is present. `cfg.lr` is read on the plain-SGD path; a trainer that
/// backs off the learning rate passes an adjusted copy of the config.
pub fn apply_update(
    gcn: &mut Gcn,
    grads: &GcnGrads,
    cfg: &TrainConfig,
    optimizer: &mut Option<gcnt_nn::ModelOptimizer>,
) {
    match optimizer {
        Some(opt) => opt.step(gcn.params_mut(), grads.params()),
        None => gcn.apply_sgd(grads, cfg.lr),
    }
}

/// Evaluates a model on a masked subset of one graph.
///
/// # Errors
///
/// Returns a shape error if the data and model disagree.
///
/// # Panics
///
/// Panics if `data` has no labels or a mask index is out of bounds.
pub fn evaluate(gcn: &Gcn, data: &GraphData, mask: &[usize]) -> Result<Confusion> {
    let logits = gcn.predict(&data.tensors, &data.features)?;
    let preds = ops::argmax_rows(&logits.gather_rows(mask));
    Ok(Confusion::from_predictions(&data.labels_at(mask), &preds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{balanced_indices, GcnConfig};
    use gcnt_netlist::{generate, GeneratorConfig, Scoap};
    use gcnt_nn::seeded_rng;

    /// A small design with labels derived from SCOAP observability (a
    /// learnable but non-trivial target since features are log-squashed
    /// and normalised).
    fn labeled_data(seed: u64) -> GraphData {
        let net = generate(&GeneratorConfig::sized("train", seed, 600));
        let scoap = Scoap::compute(&net).unwrap();
        let mut cos: Vec<u32> = net.nodes().map(|v| scoap.co(v)).collect();
        cos.sort_unstable();
        let thresh = cos[cos.len() * 95 / 100];
        let labels: Vec<u8> = net
            .nodes()
            .map(|v| u8::from(scoap.co(v) >= thresh.max(1)))
            .collect();
        GraphData::from_netlist(&net, None)
            .unwrap()
            .with_labels(labels)
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let data = labeled_data(31);
        let mut rng = seeded_rng(0);
        let mask = balanced_indices(&data.labels, &mut rng);
        assert!(mask.len() >= 10, "need some positives, got {}", mask.len());
        let mut gcn = Gcn::new(
            &GcnConfig {
                embed_dims: vec![8, 16],
                fc_dims: vec![8],
                ..GcnConfig::default()
            },
            &mut rng,
        );
        let cfg = TrainConfig {
            epochs: 60,
            lr: 0.1,
            pos_weight: 1.0,
            momentum: 0.0,
        };
        let history = train(&mut gcn, &[&data], std::slice::from_ref(&mask), &cfg).unwrap();
        let first = history.first().unwrap().loss;
        let last = history.last().unwrap().loss;
        assert!(last < first, "loss {first} -> {last}");
        // Balanced accuracy should beat coin-flipping comfortably.
        let acc = evaluate(&gcn, &data, &mask).unwrap().accuracy();
        assert!(acc > 0.7, "balanced accuracy {acc}");
    }

    /// The reference the epoch kernel is held to: graph after graph on
    /// this thread, summed in graph order, one update per epoch.
    fn train_by_parts(
        gcn: &mut Gcn,
        graphs: &[&GraphData],
        masks: &[Vec<usize>],
        cfg: &TrainConfig,
    ) -> Vec<f32> {
        let class_weights = [1.0, cfg.pos_weight];
        let mut optimizer = optimizer_for(gcn, cfg);
        (0..cfg.epochs)
            .map(|_| {
                let mut total = gcn.zero_grads();
                let mut loss_sum = 0.0f32;
                for (data, mask) in graphs.iter().zip(masks) {
                    let (loss, grads, _) =
                        masked_loss_grads(gcn, data, mask, &class_weights).unwrap();
                    total.accumulate(&grads);
                    loss_sum += loss;
                }
                total.scale(1.0 / graphs.len() as f32);
                apply_update(gcn, &total, cfg, &mut optimizer);
                loss_sum / graphs.len() as f32
            })
            .collect()
    }

    #[test]
    fn kernel_equals_by_parts_sum_in_graph_order() {
        let data: Vec<GraphData> = (32..35).map(labeled_data).collect();
        let masks: Vec<Vec<usize>> = data
            .iter()
            .map(|d| (0..d.node_count()).step_by(3).collect())
            .collect();
        let fresh = || {
            Gcn::new(
                &GcnConfig {
                    embed_dims: vec![4, 8],
                    fc_dims: vec![4],
                    ..GcnConfig::default()
                },
                &mut seeded_rng(50),
            )
        };
        for n in 1..=3 {
            for momentum in [0.0, 0.9] {
                let graphs: Vec<&GraphData> = data.iter().take(n).collect();
                let cfg = TrainConfig {
                    epochs: 4,
                    lr: 0.05,
                    pos_weight: 3.0,
                    momentum,
                };
                let mut reference = fresh();
                let losses = train_by_parts(&mut reference, &graphs, &masks[..n], &cfg);
                let mut trained = fresh();
                let history = train(&mut trained, &graphs, &masks[..n], &cfg).unwrap();
                assert_eq!(reference, trained, "{n} graphs, momentum {momentum}");
                let got: Vec<f32> = history.iter().map(|s| s.loss).collect();
                assert_eq!(losses, got, "{n} graphs, momentum {momentum}");
                assert!(got.iter().all(|l| l.is_finite()));
            }
        }
    }

    #[test]
    fn dead_worker_is_recomputed_in_place() {
        let data: Vec<GraphData> = (32..35).map(labeled_data).collect();
        let graphs: Vec<&GraphData> = data.iter().collect();
        let masks: Vec<Vec<usize>> = data.iter().map(|d| (0..d.node_count()).collect()).collect();
        let gcn = Gcn::new(&GcnConfig::default(), &mut seeded_rng(4));
        let clean = epoch_grads(&gcn, &graphs, &masks, &[1.0, 2.0], &|_| {}).unwrap();
        assert!(clean.recovered.is_empty());
        let hurt = epoch_grads(&gcn, &graphs, &masks, &[1.0, 2.0], &|worker| {
            assert_ne!(worker, 1, "worker 1 dies");
        })
        .unwrap();
        assert_eq!(hurt.recovered, vec![1]);
        assert_eq!(clean.grads, hurt.grads);
        assert_eq!(clean.loss, hurt.loss);
        assert_eq!(clean.confusion, hurt.confusion);
    }

    #[test]
    fn masked_grads_ignore_unmasked_rows() {
        // Gradient through a mask of all nodes vs a subset must differ.
        let data = labeled_data(34);
        let mut rng = seeded_rng(2);
        let gcn = Gcn::new(
            &GcnConfig {
                embed_dims: vec![4],
                fc_dims: vec![4],
                ..GcnConfig::default()
            },
            &mut rng,
        );
        let small_mask: Vec<usize> = (0..10).collect();
        let (_, g_small, _) = masked_loss_grads(&gcn, &data, &small_mask, &[1.0, 1.0]).unwrap();
        let big_mask: Vec<usize> = (0..data.node_count()).collect();
        let (_, g_big, _) = masked_loss_grads(&gcn, &data, &big_mask, &[1.0, 1.0]).unwrap();
        assert_ne!(g_small.agg_weights, g_big.agg_weights);
    }

    #[test]
    #[should_panic(expected = "need at least one training graph")]
    fn training_on_no_graphs_is_refused() {
        let mut gcn = Gcn::new(&GcnConfig::default(), &mut seeded_rng(1));
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let _ = train(&mut gcn, &[], &[], &cfg);
    }

    #[test]
    fn momentum_training_converges() {
        let data = labeled_data(36);
        let mut rng = seeded_rng(3);
        let mask = balanced_indices(&data.labels, &mut rng);
        let mut gcn = Gcn::new(
            &GcnConfig {
                embed_dims: vec![8],
                fc_dims: vec![8],
                ..GcnConfig::default()
            },
            &mut rng,
        );
        let cfg = TrainConfig {
            epochs: 40,
            lr: 0.02,
            momentum: 0.9,
            pos_weight: 1.0,
        };
        let history = train(&mut gcn, &[&data], std::slice::from_ref(&mask), &cfg).unwrap();
        let first = history.first().unwrap().loss;
        let last = history.last().unwrap().loss;
        assert!(last < first, "loss {first} -> {last}");
        assert!(last.is_finite());
    }

    #[test]
    fn training_is_deterministic() {
        let data = labeled_data(35);
        let mask: Vec<usize> = (0..50).collect();
        let run = || {
            let mut rng = seeded_rng(7);
            let mut gcn = Gcn::new(
                &GcnConfig {
                    embed_dims: vec![4],
                    fc_dims: vec![4],
                    ..GcnConfig::default()
                },
                &mut rng,
            );
            let cfg = TrainConfig {
                epochs: 5,
                lr: 0.05,
                pos_weight: 1.0,
                momentum: 0.0,
            };
            train(&mut gcn, &[&data], std::slice::from_ref(&mask), &cfg).unwrap()
        };
        let h1 = run();
        let h2 = run();
        assert_eq!(h1.last().unwrap().loss, h2.last().unwrap().loss);
    }
}
