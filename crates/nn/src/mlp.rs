use serde::{Deserialize, Serialize};

use gcnt_tensor::{ops, Matrix, Result};

use crate::{Linear, LinearGrads, Rng};

/// A multi-layer perceptron: linear layers with ReLU between them (no
/// activation after the last layer — it emits logits).
///
/// This is the paper's classifier head ("Four FC layers are consistent,
/// whose dimensions are 64, 64, 128 and 2", §5) and, fed with handcrafted
/// cone features, the MLP baseline of Table 2.
///
/// # Examples
///
/// ```
/// use gcnt_nn::{seeded_rng, Mlp};
/// use gcnt_tensor::Matrix;
///
/// let mut rng = seeded_rng(7);
/// // The paper's head: 128-dim embedding -> 64 -> 64 -> 128 -> 2.
/// let head = Mlp::new(&[128, 64, 64, 128, 2], &mut rng);
/// let e = Matrix::zeros(10, 128);
/// assert_eq!(head.predict(&e).unwrap().shape(), (10, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Decoding checks the chain: at least one layer, each feeding the next
/// exactly the features it expects (every layer checks itself).
impl Deserialize for Mlp {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            layers: Vec<Linear>,
        }
        let Raw { layers } = Raw::from_value(v)?;
        if layers.is_empty() {
            return Err(serde::Error::custom("an MLP needs at least one layer"));
        }
        for (i, (layer, next)) in layers.iter().zip(layers.iter().skip(1)).enumerate() {
            if layer.fan_out() != next.fan_in() {
                return Err(serde::Error::custom(format!(
                    "MLP layer {i} emits {} features, layer {} expects {}",
                    layer.fan_out(),
                    i + 1,
                    next.fan_in()
                )));
            }
        }
        Ok(Mlp { layers })
    }
}

/// Forward-pass activations cached for [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct MlpCache {
    /// Input to each layer (`inputs[0]` is the MLP input).
    inputs: Vec<Matrix>,
    /// Pre-activation output of each layer.
    preacts: Vec<Matrix>,
}

/// Gradients for every layer of an [`Mlp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpGrads {
    /// Per-layer gradients, front to back.
    pub layers: Vec<LinearGrads>,
}

impl Mlp {
    /// Creates an MLP with the given layer dimensions; `dims[0]` is the
    /// input size and `dims.last()` the number of outputs.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given.
    pub fn new(dims: &[usize], rng: &mut Rng) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Input dimension.
    pub fn fan_in(&self) -> usize {
        self.layers[0].fan_in()
    }

    /// Output dimension.
    pub fn fan_out(&self) -> usize {
        self.layers[self.layers.len() - 1].fan_out()
    }

    /// The layers, front to back.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Forward pass that keeps the caches needed for [`Mlp::backward`].
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.cols() != self.fan_in()`.
    pub fn forward(&self, x: &Matrix) -> Result<(Matrix, MlpCache)> {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut preacts = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            inputs.push(cur.clone());
            let z = layer.forward(&cur)?;
            preacts.push(z.clone());
            cur = if i + 1 < self.layers.len() {
                ops::relu(&z)
            } else {
                z
            };
        }
        Ok((cur, MlpCache { inputs, preacts }))
    }

    /// Forward pass without caches (inference only).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.cols() != self.fan_in()`.
    pub fn predict(&self, x: &Matrix) -> Result<Matrix> {
        // No input clone and in-place ReLU on the owned intermediates:
        // same element-wise results as the cached forward pass, without
        // its per-layer allocations.
        let mut cur: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = layer.forward(cur.as_ref().unwrap_or(x))?;
            if i + 1 < self.layers.len() {
                ops::relu_in_place(&mut z);
            }
            cur = Some(z);
        }
        // A constructed MLP always has at least one layer.
        Ok(cur.expect("mlp has layers"))
    }

    /// [`Mlp::predict`] for a row block, ping-ponging between two
    /// caller-owned buffers that are grown as needed and otherwise reused:
    /// the returned slice — rows of `fan_out` logits, one per input row,
    /// borrowed from one of the buffers — is bit for bit what
    /// [`Mlp::predict`] computes for those rows. Serial and, once the
    /// buffers have grown, allocation-free.
    ///
    /// # Errors
    ///
    /// Returns a shape error unless every input row has `fan_in` values.
    pub fn predict_into<'a, 'b, I>(
        &self,
        x_rows: I,
        bufs: &'b mut [Vec<f32>; 2],
    ) -> Result<&'b [f32]>
    where
        I: IntoIterator<Item = &'a [f32]>,
        I::IntoIter: ExactSizeIterator,
    {
        let x_rows = x_rows.into_iter();
        let rows = x_rows.len();
        let [cur, next] = bufs;
        let mut layers = self.layers.iter();
        // A constructed MLP always has at least one layer.
        let first = layers.next().expect("mlp has layers");
        let mut width = first.fan_out();
        first.forward_into(x_rows, ops::scratch(cur, rows * width))?;
        for layer in layers {
            let x = ops::scratch(cur, rows * width);
            ops::relu_slice(x);
            let fan_in = width.max(1);
            width = layer.fan_out();
            layer.forward_into(x.chunks_exact(fan_in), ops::scratch(next, rows * width))?;
            std::mem::swap(cur, next);
        }
        Ok(ops::scratch(cur, rows * width))
    }

    /// Backward pass: given the cache from [`Mlp::forward`] and the logits
    /// gradient, returns all layer gradients plus the gradient w.r.t. the
    /// MLP input.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `dlogits` does not match the output shape.
    pub fn backward(&self, cache: &MlpCache, dlogits: &Matrix) -> Result<(MlpGrads, Matrix)> {
        let mut grads = vec![None; self.layers.len()];
        let mut dcur = dlogits.clone();
        for i in (0..self.layers.len()).rev() {
            if i + 1 < self.layers.len() {
                // Undo the ReLU between layer i and layer i+1.
                let mask = ops::relu_mask(&cache.preacts[i]);
                dcur = dcur.hadamard(&mask)?;
            }
            let (g, dx) = self.layers[i].backward(&cache.inputs[i], &dcur)?;
            grads[i] = Some(g);
            dcur = dx;
        }
        Ok((
            MlpGrads {
                layers: grads.into_iter().map(|g| g.expect("filled")).collect(),
            },
            dcur,
        ))
    }

    /// Zero gradients matching this MLP's shape.
    pub fn zero_grads(&self) -> MlpGrads {
        MlpGrads {
            layers: self.layers.iter().map(Linear::zero_grads).collect(),
        }
    }

    /// Applies a plain SGD update.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the MLP shape.
    pub fn apply_sgd(&mut self, grads: &MlpGrads, lr: f32) {
        assert_eq!(grads.layers.len(), self.layers.len(), "gradient shape");
        for (layer, g) in self.layers.iter_mut().zip(&grads.layers) {
            layer.apply_sgd(g, lr);
        }
    }

    /// Mutable flat views of all parameters, layer by layer.
    pub fn params_mut(&mut self) -> Vec<&mut [f32]> {
        self.layers
            .iter_mut()
            .flat_map(Linear::params_mut)
            .collect()
    }
}

impl MlpGrads {
    /// Accumulates another gradient set into this one.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, other: &MlpGrads) {
        assert_eq!(self.layers.len(), other.layers.len(), "gradient shape");
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.accumulate(b);
        }
    }

    /// Scales all gradients in place.
    pub fn scale(&mut self, alpha: f32) {
        for g in &mut self.layers {
            g.scale(alpha);
        }
    }

    /// Flat views of all gradients, matching [`Mlp::params_mut`] order.
    pub fn params(&self) -> Vec<&[f32]> {
        self.layers.iter().flat_map(LinearGrads::params).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use crate::seeded_rng;

    #[test]
    fn shapes_flow_through() {
        let mut rng = seeded_rng(1);
        let mlp = Mlp::new(&[4, 8, 3], &mut rng);
        assert_eq!(mlp.depth(), 2);
        assert_eq!(mlp.fan_in(), 4);
        assert_eq!(mlp.fan_out(), 3);
        let x = Matrix::zeros(5, 4);
        let (y, cache) = mlp.forward(&x).unwrap();
        assert_eq!(y.shape(), (5, 3));
        assert_eq!(cache.inputs.len(), 2);
    }

    #[test]
    fn predict_matches_forward() {
        let mut rng = seeded_rng(2);
        let mlp = Mlp::new(&[3, 5, 2], &mut rng);
        let x = Matrix::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.3);
        let (y1, _) = mlp.forward(&x).unwrap();
        let y2 = mlp.predict(&x).unwrap();
        assert_eq!(y1, y2);
    }

    /// End-to-end finite-difference gradient check through two layers,
    /// ReLU and the softmax CE loss.
    #[test]
    fn gradient_check_end_to_end() {
        let mut rng = seeded_rng(3);
        let mlp = Mlp::new(&[3, 4, 2], &mut rng);
        let x = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 * 0.17).sin());
        let labels = [0usize, 1, 0, 1, 1];

        let (logits, cache) = mlp.forward(&x).unwrap();
        let (_, dlogits) = softmax_cross_entropy(&logits, &labels);
        let (grads, _) = mlp.backward(&cache, &dlogits).unwrap();

        let eps = 1e-3f32;
        let loss_of = |mlp: &Mlp| {
            let logits = mlp.predict(&x).unwrap();
            softmax_cross_entropy(&logits, &labels).0
        };
        for layer_idx in 0..2 {
            for &(r, c) in &[(0usize, 0usize), (1, 1)] {
                let orig = mlp.layers[layer_idx].weight().get(r, c);
                // Perturb through params_mut (weight is the first flat slice
                // of the layer).
                let cols = mlp.layers[layer_idx].weight().cols();
                {
                    let mut l = mlp.layers[layer_idx].clone();
                    let mut slice = l.params_mut();
                    slice[0][r * cols + c] = orig + eps;
                    let mut m2 = mlp.clone();
                    m2.layers[layer_idx] = l;
                    let lp = loss_of(&m2);
                    let mut l = mlp.layers[layer_idx].clone();
                    let mut slice = l.params_mut();
                    slice[0][r * cols + c] = orig - eps;
                    let mut m3 = mlp.clone();
                    m3.layers[layer_idx] = l;
                    let lm = loss_of(&m3);
                    let numeric = (lp - lm) / (2.0 * eps);
                    let analytic = grads.layers[layer_idx].weight.get(r, c);
                    assert!(
                        (numeric - analytic).abs() < 2e-2,
                        "layer {layer_idx} dW[{r}][{c}]: numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut rng = seeded_rng(4);
        let mut mlp = Mlp::new(&[2, 8, 2], &mut rng);
        // Class 0: x0 < 0; class 1: x0 > 0.
        let x =
            Matrix::from_rows(&[&[-1.0, 0.3], &[-0.7, -0.2], &[0.8, 0.1], &[1.2, -0.4]]).unwrap();
        let labels = [0usize, 0, 1, 1];
        let initial = {
            let logits = mlp.predict(&x).unwrap();
            softmax_cross_entropy(&logits, &labels).0
        };
        for _ in 0..200 {
            let (logits, cache) = mlp.forward(&x).unwrap();
            let (_, dlogits) = softmax_cross_entropy(&logits, &labels);
            let (grads, _) = mlp.backward(&cache, &dlogits).unwrap();
            mlp.apply_sgd(&grads, 0.5);
        }
        let final_loss = {
            let logits = mlp.predict(&x).unwrap();
            softmax_cross_entropy(&logits, &labels).0
        };
        assert!(final_loss < initial * 0.2, "loss {initial} -> {final_loss}");
    }

    #[test]
    fn accumulate_averages_two_workers() {
        let mut rng = seeded_rng(5);
        let mlp = Mlp::new(&[2, 2], &mut rng);
        let x = Matrix::from_fn(1, 2, |_, _| 1.0);
        let (logits, cache) = mlp.forward(&x).unwrap();
        let (_, d) = softmax_cross_entropy(&logits, &[0]);
        let (g, _) = mlp.backward(&cache, &d).unwrap();
        let mut sum = mlp.zero_grads();
        sum.accumulate(&g);
        sum.accumulate(&g);
        sum.scale(0.5);
        for (a, b) in sum.params().iter().zip(g.params().iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_dims_panics() {
        Mlp::new(&[4], &mut seeded_rng(0));
    }

    #[test]
    fn serde_round_trip() {
        let mlp = Mlp::new(&[3, 4, 2], &mut seeded_rng(8));
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(mlp, back);
    }

    #[test]
    fn decode_refuses_an_empty_or_broken_chain() {
        let err = serde_json::from_str::<Mlp>(r#"{"layers":[]}"#).unwrap_err();
        assert!(err.to_string().contains("at least one layer"), "{err}");
        let mut rng = seeded_rng(9);
        let layer = |fan_in, fan_out, rng: &mut crate::Rng| {
            serde_json::to_string(&Linear::new(fan_in, fan_out, rng)).unwrap()
        };
        let broken = format!(
            r#"{{"layers":[{},{}]}}"#,
            layer(4, 2, &mut rng),
            layer(3, 2, &mut rng)
        );
        let err = serde_json::from_str::<Mlp>(&broken).unwrap_err();
        assert!(
            err.to_string()
                .contains("layer 0 emits 2 features, layer 1 expects 3"),
            "{err}"
        );
    }

    #[test]
    fn predict_into_is_bitwise_predict_and_reuses_its_buffers() {
        let mlp = Mlp::new(&[6, 9, 4, 2], &mut seeded_rng(12));
        let x = Matrix::from_fn(11, 6, |r, c| ((r * 6 + c) as f32 * 0.31).sin());
        let full = mlp.predict(&x).unwrap();
        let mut bufs = [Vec::new(), Vec::new()];
        let logits = mlp
            .predict_into(x.as_slice().chunks_exact(6), &mut bufs)
            .unwrap();
        assert_eq!(logits, full.as_slice());
        // A smaller block over the grown, now stale, buffers.
        let picked = [10usize, 2, 2, 5];
        let logits = mlp
            .predict_into(picked.iter().map(|&r| x.row(r)), &mut bufs)
            .unwrap();
        assert_eq!(logits, full.gather_rows(&picked).as_slice());
        assert!(mlp
            .predict_into(x.as_slice().chunks_exact(5), &mut bufs)
            .is_err());
    }
}
