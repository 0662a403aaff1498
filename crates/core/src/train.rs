//! GCN training: the one-worker-per-graph epoch of §3.4.2 and the plain
//! epoch loop around it.
//!
//! Training is full-batch per graph: the forward pass runs over the whole
//! netlist (embeddings of unlabeled/unselected nodes are still needed as
//! neighbourhood context), but the loss is *masked* to a node subset —
//! either a balanced sample (Table 2 protocol) or the active set of a
//! multi-stage cascade (§3.3).

use serde::{Deserialize, Serialize};

use gcnt_nn::loss::weighted_softmax_cross_entropy;
use gcnt_tensor::{ops, Matrix, Result};

use crate::metrics::Confusion;
use crate::{Gcn, GcnGrads, GraphData};

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
/// listed in `mask`. Rows outside the mask receive zero logit gradient, so
/// they contribute context but no loss.
///
/// Returns `(loss, gradients, masked_predictions)`.
///
/// # Errors
///
/// Returns a shape error if the data and model disagree.
///
/// # Panics
///
/// Panics if `data` has no labels or a mask index is out of bounds.
pub fn masked_loss_grads(
    gcn: &Gcn,
    data: &GraphData,
    mask: &[usize],
    class_weights: &[f32; 2],
) -> Result<(f32, GcnGrads, Vec<usize>)> {
    let (logits, cache) = gcn.forward(&data.tensors, &data.features)?;
    let masked_logits = logits.gather_rows(mask);
    let labels = data.labels_at(mask);
    let (loss, dmasked) = weighted_softmax_cross_entropy(&masked_logits, &labels, class_weights);
    // Scatter the masked gradient back into a full-graph gradient.
    let mut dlogits = Matrix::zeros(logits.rows(), logits.cols());
    for (i, &node) in mask.iter().enumerate() {
        dlogits.row_mut(node).copy_from_slice(dmasked.row(i));
    }
    let grads = gcn.backward(&data.tensors, &cache, &dlogits)?;
    let preds = ops::argmax_rows(&masked_logits);
    Ok((loss, grads, preds))
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
/// Panics if `graphs` and `masks` lengths differ, or a graph is unlabeled.
pub fn epoch_grads(
    gcn: &Gcn,
    graphs: &[&GraphData],
    masks: &[Vec<usize>],
    class_weights: &[f32; 2],
    on_worker: &(dyn Fn(usize) + Sync),
) -> Result<EpochGrads> {
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
/// selects the training nodes of `graphs[i]`. Peak memory is the sum of
/// the graphs' forward caches, as on the paper's one-graph-per-GPU setup.
///
/// Returns per-epoch statistics.
///
/// # Errors
///
/// Returns a shape error if any graph disagrees with the model.
///
/// # Panics
///
/// Panics if `graphs` and `masks` lengths differ, or a graph is unlabeled.
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
