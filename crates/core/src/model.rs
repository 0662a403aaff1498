use serde::{Deserialize, Serialize};

use gcnt_nn::{Linear, LinearGrads, Mlp, MlpCache, MlpGrads, Rng};
use gcnt_tensor::{ops, Budget, Matrix, Result};

use crate::backend::MatrixBackend;
use crate::pass::{self, PassWorkspace};
use crate::GraphTensors;

/// Hyper-parameters of the GCN (§5 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GcnConfig {
    /// Input attribute dimension (`K_0 = 4` for `[LL, C0, C1, O]`).
    pub input_dim: usize,
    /// Embedding dimension after each aggregate+encode round; the length is
    /// the search depth `D`. Paper: `K_1, K_2, K_3 = 32, 64, 128`.
    pub embed_dims: Vec<usize>,
    /// Hidden dimensions of the FC classifier head. Paper: `64, 64, 128`.
    pub fc_dims: Vec<usize>,
    /// Number of output classes (2: easy / difficult to observe).
    pub classes: usize,
    /// Initial value of the predecessor aggregation weight `w_pr`.
    pub w_pr_init: f32,
    /// Initial value of the successor aggregation weight `w_su`.
    pub w_su_init: f32,
}

impl Default for GcnConfig {
    fn default() -> Self {
        GcnConfig {
            input_dim: 4,
            embed_dims: vec![32, 64, 128],
            fc_dims: vec![64, 64, 128],
            classes: 2,
            w_pr_init: 0.5,
            w_su_init: 0.5,
        }
    }
}

impl GcnConfig {
    /// The paper's configuration at a given search depth `D` (1, 2 or 3):
    /// the first `D` of the dims `32, 64, 128` are used (Fig. 8 sweeps
    /// exactly this).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= depth <= 3`.
    pub fn with_depth(depth: usize) -> Self {
        assert!((1..=3).contains(&depth), "paper sweeps D in 1..=3");
        GcnConfig {
            embed_dims: [32, 64, 128].into_iter().take(depth).collect(),
            ..GcnConfig::default()
        }
    }

    /// Search depth `D`.
    pub fn depth(&self) -> usize {
        self.embed_dims.len()
    }
}

/// The graph convolutional network: `D` aggregate+encode rounds followed by
/// a fully-connected classifier (Fig. 1, Alg. 1).
///
/// All parameters — the aggregation scalars `w_pr`/`w_su`, the encoder
/// matrices `W_1..W_D` and the FC head — are trained end-to-end (§3.2).
///
/// # Examples
///
/// ```
/// use gcnt_core::{Gcn, GcnConfig, GraphData};
/// use gcnt_netlist::{generate, GeneratorConfig};
/// use gcnt_nn::seeded_rng;
///
/// let net = generate(&GeneratorConfig::sized("x", 9, 400));
/// let data = GraphData::from_netlist(&net, None)?;
/// let gcn = Gcn::new(&GcnConfig::with_depth(2), &mut seeded_rng(1));
/// let probs = gcn.predict_proba(&data.tensors, &data.features)?;
/// assert_eq!(probs.len(), net.node_count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Gcn {
    /// `[w_pr, w_su]`, stored as a slice so optimisers can treat it like
    /// any other flat parameter.
    agg_weights: [f32; 2],
    encoders: Vec<Linear>,
    head: Mlp,
}

/// Decoding checks the model: finite aggregation weights, and encoders
/// that chain into each other and into the head (each layer and the head
/// check themselves), so a damaged model file is refused instead of
/// decoding into a model that fails or misleads at inference.
impl Deserialize for Gcn {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            agg_weights: [f32; 2],
            encoders: Vec<Linear>,
            head: Mlp,
        }
        let Raw {
            agg_weights,
            encoders,
            head,
        } = Raw::from_value(v)?;
        let [w_pr, w_su] = agg_weights;
        if !(w_pr.is_finite() && w_su.is_finite()) {
            return Err(serde::Error::custom(format!(
                "aggregation weights w_pr/w_su = {w_pr}/{w_su} are not finite"
            )));
        }
        // What each encoder feeds: the next encoder, the last one the head.
        let fed = encoders.iter().skip(1).map(Linear::fan_in);
        for (i, (enc, fan_in)) in encoders.iter().zip(fed.chain([head.fan_in()])).enumerate() {
            if enc.fan_out() != fan_in {
                let next = if i + 1 == encoders.len() {
                    "the classifier head".to_string()
                } else {
                    format!("encoder {}", i + 1)
                };
                return Err(serde::Error::custom(format!(
                    "encoder {i} emits {} features, {next} expects {fan_in}",
                    enc.fan_out()
                )));
            }
        }
        Ok(Gcn {
            agg_weights,
            encoders,
            head,
        })
    }
}

/// Activations cached by [`Gcn::forward`] for [`Gcn::backward`]: `P·E`,
/// `S·E`, `G` and `z` of every layer and every head activation, each at
/// `n` rows.
///
/// No training path builds one: the training step
/// ([`crate::train::masked_loss_grads`]) keeps only `E_1..E_{D-1}` at `n`
/// rows and works in row tiles. The whole-matrix pair is the reference
/// that step is checked against, bit for bit.
#[derive(Debug, Clone)]
pub struct GcnCache {
    /// `P·E_{d-1}` per round.
    pe: Vec<Matrix>,
    /// `S·E_{d-1}` per round.
    se: Vec<Matrix>,
    /// Aggregated `G_d` per round (encoder inputs).
    g: Vec<Matrix>,
    /// Encoder pre-activations `G_d W_d + b` per round.
    z: Vec<Matrix>,
    head: MlpCache,
}

/// Gradients of every [`Gcn`] parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GcnGrads {
    /// `[dw_pr, dw_su]`.
    pub agg_weights: [f32; 2],
    /// Per-encoder gradients.
    pub encoders: Vec<LinearGrads>,
    /// Classifier head gradients.
    pub head: MlpGrads,
}

impl Gcn {
    /// Creates a GCN with Xavier-initialised weights.
    pub fn new(cfg: &GcnConfig, rng: &mut Rng) -> Self {
        let mut encoders = Vec::with_capacity(cfg.embed_dims.len());
        let mut prev = cfg.input_dim;
        for &dim in &cfg.embed_dims {
            encoders.push(Linear::new(prev, dim, rng));
            prev = dim;
        }
        let mut head_dims = vec![prev];
        head_dims.extend_from_slice(&cfg.fc_dims);
        head_dims.push(cfg.classes);
        Gcn {
            agg_weights: [cfg.w_pr_init, cfg.w_su_init],
            encoders,
            head: Mlp::new(&head_dims, rng),
        }
    }

    /// The predecessor aggregation weight `w_pr`.
    pub fn w_pr(&self) -> f32 {
        self.agg_weights[0]
    }

    /// The successor aggregation weight `w_su`.
    pub fn w_su(&self) -> f32 {
        self.agg_weights[1]
    }

    /// Search depth `D`.
    pub fn depth(&self) -> usize {
        self.encoders.len()
    }

    /// The encoder layers `W_1..W_D`.
    pub fn encoders(&self) -> &[Linear] {
        &self.encoders
    }

    /// The FC classifier head.
    pub fn head(&self) -> &Mlp {
        &self.head
    }

    /// Forward pass over whole matrices, keeping all caches needed by
    /// [`Gcn::backward`]. With the masked loss and [`Gcn::backward`] this is
    /// the whole-matrix training step that
    /// [`crate::train::masked_loss_grads`] must reproduce bit for bit
    /// (`tests/train_properties.rs`); no training path calls it.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not match the graph/node shape.
    pub fn forward(&self, t: &GraphTensors, x: &Matrix) -> Result<(Matrix, GcnCache)> {
        let d = self.depth();
        let mut pe = Vec::with_capacity(d);
        let mut se = Vec::with_capacity(d);
        let mut g = Vec::with_capacity(d);
        let mut z = Vec::with_capacity(d);
        let mut e = x.clone();
        for enc in &self.encoders {
            let (gd, ped, sed) = t.aggregate(&e, self.w_pr(), self.w_su())?;
            let zd = enc.forward(&gd)?;
            e = ops::relu(&zd);
            pe.push(ped);
            se.push(sed);
            g.push(gd);
            z.push(zd);
        }
        let (logits, head_cache) = self.head.forward(&e)?;
        Ok((
            logits,
            GcnCache {
                pe,
                se,
                g,
                z,
                head: head_cache,
            },
        ))
    }

    /// Memory-lean forward pass for inference only (this is the §3.4.1
    /// matrix-form inference that scales to millions of nodes).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not match the graph/node shape.
    pub fn predict(&self, t: &GraphTensors, x: &Matrix) -> Result<Matrix> {
        self.head.predict(&self.embed(t, x)?)
    }

    /// Computes the final node embeddings `E_D` without classifying.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not match the graph/node shape.
    pub fn embed(&self, t: &GraphTensors, x: &Matrix) -> Result<Matrix> {
        self.embed_budgeted_with(t, x, &Budget::unlimited(), &mut MatrixBackend::serial())
    }

    /// [`Gcn::embed`] with the execution context explicit: a cooperative
    /// work [`Budget`] and a [`MatrixBackend`]. Each layer charges one
    /// unit per node *before* computing, so an exhausted budget stops the
    /// pass at a layer boundary instead of running to completion. Every layer runs as the row-tiled step of
    /// [`crate::pass`], which aggregates through the graph's own CSRs
    /// whatever the backend — of a backend only the staleness check
    /// remains — so the embeddings are the same bits for every backend.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not match the graph/node shape,
    /// a budget error ([`gcnt_tensor::TensorError::BudgetExceeded`]) from
    /// the checkpoint between layers, or [`gcnt_tensor::TensorError::StaleCache`] from a
    /// partitioned backend built against an older graph generation.
    pub fn embed_budgeted_with(
        &self,
        t: &GraphTensors,
        x: &Matrix,
        budget: &Budget,
        backend: &mut MatrixBackend,
    ) -> Result<Matrix> {
        backend.check_fresh(t)?;
        pass::embed_final(pass::PER_CORE, self, t, x, budget)
    }

    /// Probability of the positive class (class 1) for every node.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not match the graph/node shape.
    pub fn predict_proba(&self, t: &GraphTensors, x: &Matrix) -> Result<Vec<f32>> {
        self.predict_proba_budgeted_with(t, x, &Budget::unlimited(), &mut MatrixBackend::serial())
    }

    /// [`Gcn::predict_proba`] under an explicit [`Budget`] and
    /// [`MatrixBackend`]; bit-identical across backends. The last layer is
    /// fused with the head, so the final embedding and the head's
    /// activations never exist at `n` rows ([`crate::pass`]).
    ///
    /// # Errors
    ///
    /// Shape, budget and backend-staleness errors as in
    /// [`Gcn::embed_budgeted_with`].
    pub fn predict_proba_budgeted_with(
        &self,
        t: &GraphTensors,
        x: &Matrix,
        budget: &Budget,
        backend: &mut MatrixBackend,
    ) -> Result<Vec<f32>> {
        backend.check_fresh(t)?;
        let rows: Vec<usize> = (0..t.node_count()).collect();
        let mut ws = PassWorkspace::new();
        pass::predict_rows(pass::PER_CORE, self, t, x, &rows, budget, &mut ws)
    }

    /// Backward pass through the head, the encoders and the aggregations,
    /// including the scalar gradients for `w_pr` / `w_su`, over whole
    /// matrices: the reference half of the step [`Gcn::forward`] starts
    /// (see there); no training path calls it.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `dlogits` does not match the cache.
    pub fn backward(
        &self,
        t: &GraphTensors,
        cache: &GcnCache,
        dlogits: &Matrix,
    ) -> Result<GcnGrads> {
        let (head_grads, mut de) = self.head.backward(&cache.head, dlogits)?;
        let mut enc_grads = Vec::with_capacity(self.encoders.len());
        let mut dw_pr = 0.0f32;
        let mut dw_su = 0.0f32;
        let aggregates = cache.g.iter().zip(cache.pe.iter().zip(&cache.se));
        let rounds = self.encoders.iter().zip(&cache.z).zip(aggregates);
        for ((enc, z), (g, (pe, se))) in rounds.rev() {
            let dz = de.hadamard(&ops::relu_mask(z))?;
            let (grads, dg) = enc.backward(g, &dz)?;
            enc_grads.push(grads);
            dw_pr += dg.dot(pe)?;
            dw_su += dg.dot(se)?;
            de = t.aggregate_backward(&dg, self.w_pr(), self.w_su())?;
        }
        enc_grads.reverse();
        Ok(GcnGrads {
            agg_weights: [dw_pr, dw_su],
            encoders: enc_grads,
            head: head_grads,
        })
    }

    /// Zero gradients matching this model's shape.
    pub fn zero_grads(&self) -> GcnGrads {
        GcnGrads {
            agg_weights: [0.0, 0.0],
            encoders: self.encoders.iter().map(Linear::zero_grads).collect(),
            head: self.head.zero_grads(),
        }
    }

    /// Applies a plain SGD update to every parameter.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the model shape.
    pub fn apply_sgd(&mut self, grads: &GcnGrads, lr: f32) {
        self.agg_weights[0] -= lr * grads.agg_weights[0];
        self.agg_weights[1] -= lr * grads.agg_weights[1];
        assert_eq!(grads.encoders.len(), self.encoders.len(), "gradient shape");
        for (enc, g) in self.encoders.iter_mut().zip(&grads.encoders) {
            enc.apply_sgd(g, lr);
        }
        self.head.apply_sgd(&grads.head, lr);
    }

    /// Mutable flat views of every parameter:
    /// `[agg_weights, encoders..., head...]`.
    pub fn params_mut(&mut self) -> Vec<&mut [f32]> {
        let mut out: Vec<&mut [f32]> = vec![&mut self.agg_weights];
        for enc in &mut self.encoders {
            out.extend(enc.params_mut());
        }
        out.extend(self.head.params_mut());
        out
    }

    /// Flat parameter slice lengths in [`Gcn::params_mut`] order, without
    /// borrowing mutably — the shape a checkpoint loader validates saved
    /// optimiser state against.
    pub fn param_lens(&self) -> Vec<usize> {
        let mut out = vec![2usize];
        for enc in &self.encoders {
            out.push(enc.weight().as_slice().len());
            out.push(enc.bias().len());
        }
        for layer in self.head.layers() {
            out.push(layer.weight().as_slice().len());
            out.push(layer.bias().len());
        }
        out
    }
}

impl GcnGrads {
    /// Accumulates another gradient set (for multi-graph training).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, other: &GcnGrads) {
        self.agg_weights[0] += other.agg_weights[0];
        self.agg_weights[1] += other.agg_weights[1];
        assert_eq!(self.encoders.len(), other.encoders.len(), "gradient shape");
        for (a, b) in self.encoders.iter_mut().zip(&other.encoders) {
            a.accumulate(b);
        }
        self.head.accumulate(&other.head);
    }

    /// Scales every gradient in place.
    pub fn scale(&mut self, alpha: f32) {
        self.agg_weights[0] *= alpha;
        self.agg_weights[1] *= alpha;
        for g in &mut self.encoders {
            g.scale(alpha);
        }
        self.head.scale(alpha);
    }

    /// Flat views matching [`Gcn::params_mut`] order.
    pub fn params(&self) -> Vec<&[f32]> {
        let mut out: Vec<&[f32]> = vec![&self.agg_weights];
        for g in &self.encoders {
            out.extend(g.params());
        }
        out.extend(self.head.params());
        out
    }

    /// Global L2 norm over every gradient value — the quantity a
    /// divergence guard compares against an exploding-gradient limit.
    pub fn l2_norm(&self) -> f32 {
        let sum: f64 = self
            .params()
            .iter()
            .flat_map(|s| s.iter())
            .map(|&g| f64::from(g) * f64::from(g))
            .sum();
        sum.sqrt() as f32
    }

    /// Whether every gradient value is finite.
    pub fn is_finite(&self) -> bool {
        self.params()
            .iter()
            .flat_map(|s| s.iter())
            .all(|g| g.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::{CellKind, NetlistBuilder};
    use gcnt_nn::loss::weighted_softmax_cross_entropy;
    use gcnt_nn::seeded_rng;

    fn chain_graph(len: usize) -> GraphTensors {
        let mut net = NetlistBuilder::new("chain");
        let mut prev = net.add_cell(CellKind::Input);
        for _ in 0..len - 2 {
            let g = net.add_cell(CellKind::Buf);
            net.connect(prev, g).unwrap();
            prev = g;
        }
        let o = net.add_cell(CellKind::Output);
        net.connect(prev, o).unwrap();
        let net = net.build().unwrap();
        GraphTensors::from_netlist(&net)
    }

    fn tiny_cfg() -> GcnConfig {
        GcnConfig {
            input_dim: 3,
            embed_dims: vec![4, 5],
            fc_dims: vec![4],
            classes: 2,
            w_pr_init: 0.4,
            w_su_init: 0.6,
        }
    }

    #[test]
    fn shapes_flow_through() {
        let t = chain_graph(6);
        let gcn = Gcn::new(&tiny_cfg(), &mut seeded_rng(0));
        let x = Matrix::from_fn(6, 3, |r, c| (r + c) as f32 * 0.1);
        let (logits, cache) = gcn.forward(&t, &x).unwrap();
        assert_eq!(logits.shape(), (6, 2));
        assert_eq!(cache.z.len(), 2);
        assert_eq!(cache.g.len(), 2);
    }

    #[test]
    fn predict_matches_forward() {
        let t = chain_graph(5);
        let gcn = Gcn::new(&tiny_cfg(), &mut seeded_rng(1));
        let x = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 * 0.2).cos());
        let (l1, _) = gcn.forward(&t, &x).unwrap();
        let l2 = gcn.predict(&t, &x).unwrap();
        for (a, b) in l1.as_slice().iter().zip(l2.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn with_depth_matches_paper_dims() {
        let cfg = GcnConfig::with_depth(3);
        assert_eq!(cfg.embed_dims, vec![32, 64, 128]);
        assert_eq!(cfg.fc_dims, vec![64, 64, 128]);
        let gcn = Gcn::new(&cfg, &mut seeded_rng(0));
        assert_eq!(gcn.depth(), 3);
        assert_eq!(gcn.head().depth(), 4); // 4 FC layers
        assert_eq!(gcn.head().fan_out(), 2);
    }

    #[test]
    #[should_panic(expected = "D in 1..=3")]
    fn with_depth_out_of_range_panics() {
        GcnConfig::with_depth(4);
    }

    /// Finite-difference check of the aggregation-weight gradients — the
    /// trickiest part of the backward pass.
    #[test]
    fn gradient_check_agg_weights() {
        let t = chain_graph(6);
        let gcn = Gcn::new(&tiny_cfg(), &mut seeded_rng(2));
        let x = Matrix::from_fn(6, 3, |r, c| ((r * 7 + c * 3) as f32 * 0.13).sin());
        let labels = [0usize, 1, 0, 1, 0, 1];
        let weights = [1.0f32, 1.0];

        let (logits, cache) = gcn.forward(&t, &x).unwrap();
        let (_, dlogits) = weighted_softmax_cross_entropy(&logits, &labels, &weights);
        let grads = gcn.backward(&t, &cache, &dlogits).unwrap();

        let loss_of = |g: &Gcn| {
            let logits = g.predict(&t, &x).unwrap();
            weighted_softmax_cross_entropy(&logits, &labels, &weights).0
        };
        let eps = 1e-3f32;
        for (idx, name) in [(0usize, "w_pr"), (1, "w_su")] {
            let mut gp = gcn.clone();
            gp.agg_weights[idx] += eps;
            let mut gm = gcn.clone();
            gm.agg_weights[idx] -= eps;
            let numeric = (loss_of(&gp) - loss_of(&gm)) / (2.0 * eps);
            let analytic = grads.agg_weights[idx];
            assert!(
                (numeric - analytic).abs() < 2e-3,
                "{name}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Finite-difference check of encoder weight gradients.
    #[test]
    fn gradient_check_encoder_weights() {
        let t = chain_graph(5);
        let gcn = Gcn::new(&tiny_cfg(), &mut seeded_rng(3));
        let x = Matrix::from_fn(5, 3, |r, c| ((r + 2 * c) as f32 * 0.21).sin());
        let labels = [1usize, 0, 1, 0, 1];
        let weights = [1.0f32, 2.0];

        let (logits, cache) = gcn.forward(&t, &x).unwrap();
        let (_, dlogits) = weighted_softmax_cross_entropy(&logits, &labels, &weights);
        let grads = gcn.backward(&t, &cache, &dlogits).unwrap();

        let loss_of = |g: &Gcn| {
            let logits = g.predict(&t, &x).unwrap();
            weighted_softmax_cross_entropy(&logits, &labels, &weights).0
        };
        let eps = 1e-3f32;
        for enc_idx in 0..2 {
            let cols = gcn.encoders[enc_idx].weight().cols();
            for &(r, c) in &[(0usize, 0usize), (1, 2)] {
                let mut gp = gcn.clone();
                {
                    let mut ps = gp.encoders[enc_idx].params_mut();
                    ps[0][r * cols + c] += eps;
                }
                let mut gm = gcn.clone();
                {
                    let mut ps = gm.encoders[enc_idx].params_mut();
                    ps[0][r * cols + c] -= eps;
                }
                let numeric = (loss_of(&gp) - loss_of(&gm)) / (2.0 * eps);
                let analytic = grads.encoders[enc_idx].weight.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 5e-3,
                    "enc {enc_idx} W[{r}][{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn training_reduces_loss() {
        let t = chain_graph(8);
        let mut gcn = Gcn::new(&tiny_cfg(), &mut seeded_rng(4));
        let x = Matrix::from_fn(8, 3, |r, c| ((r * 5 + c) as f32 * 0.3).sin());
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let weights = [1.0f32, 1.0];
        let initial = {
            let logits = gcn.predict(&t, &x).unwrap();
            weighted_softmax_cross_entropy(&logits, &labels, &weights).0
        };
        for _ in 0..100 {
            let (logits, cache) = gcn.forward(&t, &x).unwrap();
            let (_, dlogits) = weighted_softmax_cross_entropy(&logits, &labels, &weights);
            let grads = gcn.backward(&t, &cache, &dlogits).unwrap();
            gcn.apply_sgd(&grads, 0.3);
        }
        let final_loss = {
            let logits = gcn.predict(&t, &x).unwrap();
            weighted_softmax_cross_entropy(&logits, &labels, &weights).0
        };
        assert!(final_loss < initial, "loss {initial} -> {final_loss}");
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let t = chain_graph(4);
        let gcn = Gcn::new(&tiny_cfg(), &mut seeded_rng(5));
        let x = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.1);
        let labels = [0usize, 1, 0, 1];
        let (logits, cache) = gcn.forward(&t, &x).unwrap();
        let (_, d) = weighted_softmax_cross_entropy(&logits, &labels, &[1.0, 1.0]);
        let g = gcn.backward(&t, &cache, &d).unwrap();
        let mut sum = gcn.zero_grads();
        sum.accumulate(&g);
        sum.accumulate(&g);
        sum.scale(0.5);
        assert!((sum.agg_weights[0] - g.agg_weights[0]).abs() < 1e-6);
        assert!((sum.agg_weights[1] - g.agg_weights[1]).abs() < 1e-6);
    }

    #[test]
    fn params_and_grads_align() {
        let mut gcn = Gcn::new(&tiny_cfg(), &mut seeded_rng(6));
        let grads = gcn.zero_grads();
        let p = gcn.params_mut();
        let g = grads.params();
        assert_eq!(p.len(), g.len());
        for (a, b) in p.iter().zip(g.iter()) {
            assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn serde_round_trip() {
        let gcn = Gcn::new(&tiny_cfg(), &mut seeded_rng(7));
        let json = serde_json::to_string(&gcn).unwrap();
        let back: Gcn = serde_json::from_str(&json).unwrap();
        assert_eq!(gcn, back);
    }

    #[test]
    fn decode_refuses_broken_junctions_and_non_finite_aggregation() {
        let gcn = Gcn::new(&tiny_cfg(), &mut seeded_rng(10));
        let json = serde_json::to_string(&gcn).unwrap();
        let inf = json.replacen("\"agg_weights\":[0.4", "\"agg_weights\":[1e39", 1);
        assert_ne!(inf, json);
        let err = serde_json::from_str::<Gcn>(&inf).unwrap_err();
        assert!(err.to_string().contains("w_pr/w_su = inf/"), "{err}");

        // A depth-1 model (4-feature embeddings) given a depth-2 model's
        // head (expects 5), the way a bad checkpoint merge would.
        let shallow = Gcn::new(
            &GcnConfig {
                embed_dims: vec![4],
                ..tiny_cfg()
            },
            &mut seeded_rng(11),
        );
        let spliced = Gcn {
            head: gcn.head.clone(),
            ..shallow.clone()
        };
        let err =
            serde_json::from_str::<Gcn>(&serde_json::to_string(&spliced).unwrap()).unwrap_err();
        assert!(
            err.to_string()
                .contains("encoder 0 emits 4 features, the classifier head expects 5"),
            "{err}"
        );
        let unchained = Gcn {
            encoders: vec![shallow.encoders[0].clone(), gcn.encoders[0].clone()],
            ..gcn
        };
        let err =
            serde_json::from_str::<Gcn>(&serde_json::to_string(&unchained).unwrap()).unwrap_err();
        assert!(
            err.to_string()
                .contains("encoder 0 emits 4 features, encoder 1 expects 3"),
            "{err}"
        );
    }

    #[test]
    fn param_lens_match_params_mut() {
        let mut gcn = Gcn::new(&tiny_cfg(), &mut seeded_rng(8));
        let lens = gcn.param_lens();
        let mut_lens: Vec<usize> = gcn.params_mut().iter().map(|s| s.len()).collect();
        assert_eq!(lens, mut_lens);
    }

    #[test]
    fn grad_norm_and_finiteness() {
        let gcn = Gcn::new(&tiny_cfg(), &mut seeded_rng(9));
        let mut grads = gcn.zero_grads();
        assert_eq!(grads.l2_norm(), 0.0);
        assert!(grads.is_finite());
        grads.agg_weights = [3.0, 4.0];
        assert!((grads.l2_norm() - 5.0).abs() < 1e-6);
        grads.head.layers[0].bias[0] = f32::NAN;
        assert!(!grads.is_finite());
    }
}
