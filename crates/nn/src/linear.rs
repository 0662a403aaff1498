use serde::{Deserialize, Serialize};

use gcnt_tensor::{Matrix, Result, TensorError};

use crate::{xavier_uniform, Rng};

/// A fully-connected layer: `y = x W + b` with `W: in x out`.
///
/// # Examples
///
/// ```
/// use gcnt_nn::{seeded_rng, Linear};
/// use gcnt_tensor::Matrix;
///
/// let mut rng = seeded_rng(0);
/// let layer = Linear::new(3, 2, &mut rng);
/// let x = Matrix::zeros(5, 3);
/// let y = layer.forward(&x).unwrap();
/// assert_eq!(y.shape(), (5, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Linear {
    weight: Matrix,
    bias: Vec<f32>,
}

/// Decoding checks the layer: one bias per output and every parameter
/// finite, so a damaged model file is refused instead of decoding into a
/// layer that computes something else.
impl Deserialize for Linear {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            weight: Matrix,
            bias: Vec<f32>,
        }
        let Raw { weight, bias } = Raw::from_value(v)?;
        if bias.len() != weight.cols() {
            return Err(serde::Error::custom(format!(
                "layer bias holds {} values for fan-out {}",
                bias.len(),
                weight.cols()
            )));
        }
        if !weight.as_slice().iter().chain(&bias).all(|p| p.is_finite()) {
            return Err(serde::Error::custom(
                "layer holds a NaN or infinite parameter",
            ));
        }
        Ok(Linear { weight, bias })
    }
}

/// Gradients of a [`Linear`] layer, produced by [`Linear::backward`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearGrads {
    /// Gradient of the weight matrix.
    pub weight: Matrix,
    /// Gradient of the bias vector.
    pub bias: Vec<f32>,
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new(fan_in: usize, fan_out: usize, rng: &mut Rng) -> Self {
        Linear {
            weight: xavier_uniform(fan_in, fan_out, rng),
            bias: vec![0.0; fan_out],
        }
    }

    /// Input dimension.
    pub fn fan_in(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimension.
    pub fn fan_out(&self) -> usize {
        self.weight.cols()
    }

    /// The weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Computes `x W + b`.
    ///
    /// # Errors
    ///
    /// Returns a shape error unless `x.cols() == self.fan_in()`.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix> {
        // Fused product + bias: each output row gets its bias while still
        // cache-hot, bit-identical to matmul followed by a bias pass.
        x.matmul_bias(&self.weight, &self.bias)
    }

    /// [`Linear::forward`] for a row block in caller-owned storage: row
    /// `i` of `out` (rows of `fan_out` values, overwritten) becomes
    /// `x_rows[i] W + b`, bit for bit the row [`Linear::forward`] computes.
    /// Serial and allocation-free — what a pass runs per tile.
    ///
    /// # Errors
    ///
    /// Returns a shape error unless every input row has `fan_in` values,
    /// and a length error unless `out` holds one row per input row.
    pub fn forward_into<'a, I>(&self, x_rows: I, out: &mut [f32]) -> Result<()>
    where
        I: IntoIterator<Item = &'a [f32]>,
        I::IntoIter: ExactSizeIterator,
    {
        Matrix::matmul_bias_into(x_rows, &self.weight, &self.bias, out)
    }

    /// Computes parameter gradients and the input gradient given the layer
    /// input `x` and the output gradient `dy`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` / `dy` do not match the layer shape.
    pub fn backward(&self, x: &Matrix, dy: &Matrix) -> Result<(LinearGrads, Matrix)> {
        let dweight = x.transpose_matmul(dy)?;
        let mut dbias = vec![0.0f32; self.fan_out()];
        for r in 0..dy.rows() {
            for (db, &g) in dbias.iter_mut().zip(dy.row(r)) {
                *db += g;
            }
        }
        let dx = dy.matmul_transpose(&self.weight)?;
        Ok((
            LinearGrads {
                weight: dweight,
                bias: dbias,
            },
            dx,
        ))
    }

    /// [`Linear::backward`] for a row block, accumulating: `x` and `dy`
    /// hold the block's input rows (`fan_in` values each) and output
    /// gradient rows (`fan_out` each). The block's terms are added to
    /// `grads` in row order — the weight gradient through
    /// [`Matrix::transpose_matmul_acc`], each bias gradient row by row —
    /// and `dx` (one `fan_in` row per block row, overwritten) receives
    /// `dy·Wᵀ` through [`Matrix::matmul_transpose_into`], given
    /// `weight_t`, this layer's weight transposed once by the caller.
    /// Blocks fed in ascending row order onto [`Linear::zero_grads`] give
    /// every gradient element, and every `dx` row, the bits
    /// [`Linear::backward`] gives it over all the rows at once. Serial;
    /// nothing is allocated.
    ///
    /// # Errors
    ///
    /// Returns a shape error unless `weight_t` is `fan_out x fan_in`,
    /// `grads` matches the layer, and `x`, `dy` and `dx` hold the same
    /// number of whole rows.
    pub fn backward_into(
        &self,
        x: &[f32],
        dy: &[f32],
        weight_t: &Matrix,
        grads: &mut LinearGrads,
        dx: &mut [f32],
    ) -> Result<()> {
        let shape = (self.fan_out(), self.fan_in());
        if weight_t.shape() != shape || grads.bias.len() != self.fan_out() {
            return Err(TensorError::ShapeMismatch {
                op: "Linear::backward_into",
                lhs: shape,
                rhs: weight_t.shape(),
            });
        }
        grads.weight.transpose_matmul_acc(x, dy)?;
        Matrix::matmul_transpose_into(dy, weight_t, dx)?;
        for dy_row in dy.chunks_exact(self.fan_out().max(1)) {
            for (db, &g) in grads.bias.iter_mut().zip(dy_row) {
                *db += g;
            }
        }
        Ok(())
    }

    /// Zero-valued gradients matching this layer's shape.
    pub fn zero_grads(&self) -> LinearGrads {
        LinearGrads {
            weight: Matrix::zeros(self.weight.rows(), self.weight.cols()),
            bias: vec![0.0; self.bias.len()],
        }
    }

    /// Applies a plain SGD update `p -= lr * g`.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the layer shape.
    pub fn apply_sgd(&mut self, grads: &LinearGrads, lr: f32) {
        self.weight
            .axpy(-lr, &grads.weight)
            .expect("gradient shape matches weight shape");
        for (b, &g) in self.bias.iter_mut().zip(&grads.bias) {
            *b -= lr * g;
        }
    }

    /// Mutable flat views of the parameters, ordered `[weight, bias]`.
    pub fn params_mut(&mut self) -> Vec<&mut [f32]> {
        vec![self.weight.as_mut_slice(), &mut self.bias]
    }
}

impl LinearGrads {
    /// Accumulates another gradient into this one (used by data-parallel
    /// training to sum per-worker gradients).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, other: &LinearGrads) {
        self.weight
            .axpy(1.0, &other.weight)
            .expect("gradient shapes match");
        for (a, &b) in self.bias.iter_mut().zip(&other.bias) {
            *a += b;
        }
    }

    /// Scales the gradient in place.
    pub fn scale(&mut self, alpha: f32) {
        self.weight.scale(alpha);
        for b in &mut self.bias {
            *b *= alpha;
        }
    }

    /// Flat views of the gradients, ordered `[weight, bias]` to match
    /// [`Linear::params_mut`].
    pub fn params(&self) -> Vec<&[f32]> {
        vec![self.weight.as_slice(), &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn forward_applies_bias() {
        let mut rng = seeded_rng(1);
        let mut layer = Linear::new(2, 2, &mut rng);
        layer.bias = vec![1.0, -1.0];
        let x = Matrix::zeros(1, 2);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.row(0), &[1.0, -1.0]);
    }

    #[test]
    fn backward_into_row_blocks_is_bitwise_backward() {
        let layer = Linear::new(5, 3, &mut seeded_rng(4));
        let x = Matrix::from_fn(9, 5, |r, c| ((r * 5 + c) as f32 * 0.41).sin().max(0.0));
        let dy = Matrix::from_fn(9, 3, |r, c| ((r + 3 * c) as f32 * 0.29).cos());
        let (want, want_dx) = layer.backward(&x, &dy).unwrap();
        let w_t = layer.weight().transpose();
        let mut grads = layer.zero_grads();
        let mut dx = vec![f32::NAN; 9 * 5];
        for (lo, hi) in [(0usize, 4usize), (4, 9)] {
            layer
                .backward_into(
                    &x.as_slice()[lo * 5..hi * 5],
                    &dy.as_slice()[lo * 3..hi * 3],
                    &w_t,
                    &mut grads,
                    &mut dx[lo * 5..hi * 5],
                )
                .unwrap();
        }
        assert_eq!(grads, want);
        assert_eq!(dx, want_dx.as_slice());
        // The weight, not its transpose, is refused.
        let err = layer.backward_into(&[], &[], layer.weight(), &mut grads, &mut []);
        assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn backward_bias_gradient_sums_rows() {
        let mut rng = seeded_rng(2);
        let layer = Linear::new(2, 2, &mut rng);
        let x = Matrix::zeros(3, 2);
        let dy = Matrix::filled(3, 2, 1.0);
        let (grads, _) = layer.backward(&x, &dy).unwrap();
        assert_eq!(grads.bias, vec![3.0, 3.0]);
    }

    /// Finite-difference gradient check on a random layer.
    #[test]
    fn gradient_check() {
        let mut rng = seeded_rng(3);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = xavier_uniform(4, 3, &mut rng);
        // Loss = sum(forward(x)) so dL/dy = 1.
        let dy = Matrix::filled(4, 2, 1.0);
        let (grads, dx) = layer.backward(&x, &dy).unwrap();

        let eps = 1e-3f32;
        // Check a handful of weight entries.
        for &(r, c) in &[(0usize, 0usize), (1, 1), (2, 0)] {
            let orig = layer.weight.get(r, c);
            layer.weight.set(r, c, orig + eps);
            let plus = layer.forward(&x).unwrap().sum();
            layer.weight.set(r, c, orig - eps);
            let minus = layer.forward(&x).unwrap().sum();
            layer.weight.set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grads.weight.get(r, c);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "dW[{r}][{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check input gradient entries.
        let mut x2 = x.clone();
        for &(r, c) in &[(0usize, 0usize), (3, 2)] {
            let orig = x2.get(r, c);
            x2.set(r, c, orig + eps);
            let plus = layer.forward(&x2).unwrap().sum();
            x2.set(r, c, orig - eps);
            let minus = layer.forward(&x2).unwrap().sum();
            x2.set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = dx.get(r, c);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "dx[{r}][{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn sgd_step_reduces_simple_loss() {
        // Minimise sum(y) for a fixed input: every step must reduce it.
        let mut rng = seeded_rng(4);
        let mut layer = Linear::new(2, 1, &mut rng);
        let x = Matrix::filled(1, 2, 1.0);
        let before = layer.forward(&x).unwrap().sum();
        let dy = Matrix::filled(1, 1, 1.0);
        let (grads, _) = layer.backward(&x, &dy).unwrap();
        layer.apply_sgd(&grads, 0.1);
        let after = layer.forward(&x).unwrap().sum();
        assert!(after < before);
    }

    #[test]
    fn accumulate_and_scale() {
        let mut rng = seeded_rng(5);
        let layer = Linear::new(2, 2, &mut rng);
        let mut g1 = layer.zero_grads();
        let x = Matrix::filled(1, 2, 1.0);
        let dy = Matrix::filled(1, 2, 1.0);
        let (g2, _) = layer.backward(&x, &dy).unwrap();
        g1.accumulate(&g2);
        g1.accumulate(&g2);
        g1.scale(0.5);
        assert_eq!(g1.weight, g2.weight);
        assert_eq!(g1.bias, g2.bias);
    }

    #[test]
    fn serde_round_trip() {
        let mut rng = seeded_rng(6);
        let layer = Linear::new(3, 4, &mut rng);
        let json = serde_json::to_string(&layer).unwrap();
        let back: Linear = serde_json::from_str(&json).unwrap();
        assert_eq!(layer, back);
    }

    #[test]
    fn decode_refuses_a_short_bias_and_non_finite_parameters() {
        let short = r#"{"weight":{"rows":1,"cols":2,"data":[0.5,0.5]},"bias":[0.0]}"#;
        let err = serde_json::from_str::<Linear>(short).unwrap_err();
        assert!(
            err.to_string()
                .contains("bias holds 1 values for fan-out 2"),
            "{err}"
        );
        // 1e39 overflows f32 to infinity.
        let huge = r#"{"weight":{"rows":1,"cols":1,"data":[1e39]},"bias":[0.0]}"#;
        let err = serde_json::from_str::<Linear>(huge).unwrap_err();
        assert!(err.to_string().contains("NaN or infinite"), "{err}");
        let nan = r#"{"weight":{"rows":1,"cols":1,"data":[1.0]},"bias":[null]}"#;
        assert!(serde_json::from_str::<Linear>(nan).is_err());
    }
}
