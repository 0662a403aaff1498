//! `train_b1_20k`: one data-parallel epoch of a stage-0 GCN over two
//! labelled 20k-node graphs — the paper's multi-worker training and the
//! only user of the backward kernels.

use std::time::Instant;

use gcnt_core::train::{apply_update, optimizer_for};
use gcnt_core::{train_parallel, Gcn, GcnConfig, GraphData, TrainConfig};
use gcnt_dft::labeler::label_difficult_to_observe;
use gcnt_netlist::Netlist;
use gcnt_nn::loss::weighted_softmax_cross_entropy;
use gcnt_nn::seeded_rng;
use gcnt_tensor::Matrix;

use super::{
    attributed_share, batch_window, err, probes, sample_nodes, traced_ops, Window, Workload,
};
use crate::fixture;
use crate::procfs::MemWatch;
use crate::spec::{mix, Metrics};
use crate::trace::Tracer;

pub const NAME: &str = "train_b1_20k";
const NODES: usize = 20_000;
const STREAM: u64 = 3;
/// The cascade's stage-0 cap on the positive-class weight.
const MAX_POS_WEIGHT: f32 = 32.0;

pub struct Train {
    nets: [Netlist; 2],
    graphs: Vec<GraphData>,
    masks: Vec<Vec<usize>>,
    cfg: TrainConfig,
    /// Carried from op to op.
    model: Gcn,
    first_loss: Option<f32>,
    last_loss: f32,
    seed: u64,
    warm_s: f64,
}

impl Train {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let nets = fixture::training_designs(
            NODES,
            [mix(seed, STREAM * 1000), mix(seed, STREAM * 1000 + 1)],
        );
        let (_, graphs) = fixture::labelled_graphs(&nets, None)?;
        let masks: Vec<Vec<usize>> = graphs
            .iter()
            .map(|g| (0..g.node_count()).collect())
            .collect();
        let positives: usize = graphs.iter().map(GraphData::positive_count).sum();
        let negatives: usize = graphs.iter().map(GraphData::negative_count).sum();
        let cfg = TrainConfig {
            epochs: 1,
            // The cascade's 0.05 overshoots now and then under the 32×
            // positive weight; at 0.02 the loss falls epoch after epoch, so
            // "loss after the window < loss before" cannot fail by chance.
            lr: 0.02,
            // Non-zero, so the update goes through `ModelOptimizer`.
            momentum: 0.9,
            pos_weight: (negatives as f32 / positives.max(1) as f32).clamp(1.0, MAX_POS_WEIGHT),
        };
        let mut w = Train {
            nets,
            graphs,
            masks,
            cfg,
            model: Gcn::new(&GcnConfig::default(), &mut seeded_rng(seed)),
            first_loss: None,
            last_loss: f32::NAN,
            seed,
            warm_s: 0.0,
        };
        let t0 = Instant::now();
        let loss = w.op()?;
        w.warm_s = t0.elapsed().as_secs_f64();
        w.check(loss)?;
        Ok(w)
    }

    /// The op: one epoch, two worker threads, one update of the carried
    /// model. Returns the epoch's loss (measured before the update).
    fn op(&mut self) -> Result<f32, String> {
        let refs: Vec<&GraphData> = self.graphs.iter().collect();
        let history =
            train_parallel(&mut self.model, &refs, &self.masks, &self.cfg).map_err(err)?;
        history
            .last()
            .map(|s| s.loss)
            .ok_or_else(|| "no epoch ran".to_string())
    }

    fn check(&mut self, loss: f32) -> Result<(), String> {
        if !loss.is_finite() {
            return Err(format!("loss is {loss}"));
        }
        self.first_loss.get_or_insert(loss);
        self.last_loss = loss;
        Ok(())
    }

    /// Training must have made progress over the ops run so far.
    fn loss_fell(&self) -> Result<(), String> {
        match self.first_loss {
            Some(first) if self.last_loss < first => Ok(()),
            first => Err(format!("loss went from {first:?} to {}", self.last_loss)),
        }
    }

    /// The epoch taken apart, on one thread: per graph `Gcn::forward`, the
    /// masked loss, `Gcn::backward`; then the averaged update. Mirrors
    /// `train_parallel`, which sums gradients in the same graph order.
    fn epoch_by_parts(&self, t: &mut Tracer, gcn: &mut Gcn) -> Result<f32, String> {
        let class_weights = [1.0, self.cfg.pos_weight];
        let epoch = t.enter("op.parts");
        let mut optimizer = optimizer_for(gcn, &self.cfg);
        let mut total = gcn.zero_grads();
        let mut loss_sum = 0.0f32;
        for (data, mask) in self.graphs.iter().zip(&self.masks) {
            let (logits, cache) = t
                .time("core.train_forward", || {
                    gcn.forward(&data.tensors, &data.features)
                })
                .map_err(err)?;
            let (loss, dlogits) = t.time("nn.loss", || {
                let masked = logits.gather_rows(mask);
                let (loss, dmasked) =
                    weighted_softmax_cross_entropy(&masked, &data.labels_at(mask), &class_weights);
                let mut dlogits = Matrix::zeros(logits.rows(), logits.cols());
                for (i, &node) in mask.iter().enumerate() {
                    dlogits.row_mut(node).copy_from_slice(dmasked.row(i));
                }
                (loss, dlogits)
            });
            let grads = t
                .time("core.train_grads", || {
                    gcn.backward(&data.tensors, &cache, &dlogits)
                })
                .map_err(err)?;
            t.time("core.free", || drop((cache, logits, dlogits)));
            total.accumulate(&grads);
            loss_sum += loss;
        }
        total.scale(1.0 / self.graphs.len() as f32);
        t.time("core.apply_update", || {
            apply_update(gcn, &total, &self.cfg, &mut optimizer)
        });
        t.exit(epoch);
        Ok(loss_sum / self.graphs.len() as f32)
    }

    /// `Mlp::backward` and `ModelOptimizer::step` on the first graph.
    fn nn_probes(&self, t: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
        let data = &self.graphs[0];
        let embedding = self
            .model
            .embed(&data.tensors, &data.features)
            .map_err(err)?;
        let (logits, cache) = self.model.head().forward(&embedding).map_err(err)?;
        let labels = data.labels_at(&self.masks[0]);
        let (_, dlogits) =
            weighted_softmax_cross_entropy(&logits, &labels, &[1.0, self.cfg.pos_weight]);
        let mut gcn = self.model.clone();
        let grads = gcn.zero_grads();
        let mut optimizer =
            optimizer_for(&mut gcn, &self.cfg).ok_or("momentum is zero: no optimizer")?;
        for _ in 0..3 {
            t.time("nn.mlp_backward", || {
                self.model.head().backward(&cache, &dlogits)
            })
            .map_err(err)?;
            t.time("nn.optimizer_step", || {
                optimizer.step(gcn.params_mut(), grads.params())
            });
        }
        for (metric, span) in [
            ("nn.mlp_backward_ms", "nn.mlp_backward"),
            ("nn.optimizer_step_ms", "nn.optimizer_step"),
        ] {
            probes::report_median(t, out, metric, span);
        }
        Ok(())
    }
}

impl Workload for Train {
    fn measure(&mut self, seconds: f64, peak: &mut MemWatch) -> Window {
        let mut w = {
            let this = std::cell::RefCell::new(&mut *self);
            batch_window(
                seconds,
                peak,
                |_| this.borrow_mut().op(),
                |_, &loss| this.borrow_mut().check(loss),
            )
        };
        if let Err(e) = self.loss_fell() {
            w.fail(e);
        }
        w
    }

    fn trace(&mut self, seconds: f64, t: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
        let ops = traced_ops(seconds, self.warm_s);
        let mut account = super::ProcAccount::default();
        let mut whole_ms = Vec::new();
        for i in 0..ops {
            t.set_op(i as u32);
            let mut by_parts = self.model.clone();
            let t0 = Instant::now();
            let loss = account.during(1, || self.op())?;
            whole_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.check(loss)?;
            let parts_loss = self.epoch_by_parts(t, &mut by_parts)?;
            if by_parts != self.model || parts_loss.to_bits() != loss.to_bits() {
                return Err(format!(
                    "op {i}: by-parts epoch differs from train_parallel"
                ));
            }
        }
        self.loss_fell()?;
        account.report(out);
        super::report_overhead(t, &whole_ms, out);

        out.set("core.attributed_share", attributed_share(t, &[]), ops);
        for (metric, span) in [
            ("core.train_forward_ms", "core.train_forward"),
            ("core.train_grads_ms", "core.train_grads"),
            ("core.apply_update_ms", "core.apply_update"),
            ("nn.loss_ms", "nn.loss"),
        ] {
            // Per epoch: both graphs' calls summed.
            let per_op = t.per_op_ms(span);
            out.set(metric, crate::stats::median(&per_op), per_op.len());
        }

        t.set_op(u32::MAX);
        self.nn_probes(t, out)?;
        let net = &self.nets[0];
        t.time("dft.label", || {
            label_difficult_to_observe(net, &fixture::label_config())
        })
        .map_err(err)?;
        probes::report_median(t, out, "dft.label_ms", "dft.label");

        // The generic probes run the checked-in cascade on the first
        // training graph.
        let fixture = fixture::load()?;
        let data = GraphData::from_netlist(net, Some(&fixture.normalizer)).map_err(err)?;
        let halo = sample_nodes(data.node_count(), 256, 0x4A10);
        let mut cfg = gcnt_netlist::DesignPreset::B1.config(NODES);
        cfg.seed = mix(self.seed, STREAM * 1000);
        probes::layers(t, &fixture.model, &data, &halo, &cfg, out)
    }
}
