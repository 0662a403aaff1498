/// Plain SGD configuration: the paper trains with stochastic gradient
/// descent (§5), and so does everything here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (`0.0` disables momentum).
    pub momentum: f32,
}

/// Optimiser state for one flat parameter slice.
///
/// # Examples
///
/// ```
/// use gcnt_nn::{ParamOptimizer, SgdConfig};
///
/// let cfg = SgdConfig { lr: 0.5, momentum: 0.0 };
/// let mut opt = ParamOptimizer::new(cfg, 2);
/// let mut param = [1.0f32, -1.0];
/// opt.step(&mut param, &[1.0, 1.0]);
/// assert_eq!(param, [0.5, -1.5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParamOptimizer {
    cfg: SgdConfig,
    velocity: Vec<f32>,
}

impl ParamOptimizer {
    /// Creates optimiser state for a parameter of `len` elements.
    pub fn new(cfg: SgdConfig, len: usize) -> Self {
        ParamOptimizer {
            cfg,
            velocity: vec![0.0; len],
        }
    }

    /// Applies one update step.
    ///
    /// # Panics
    ///
    /// Panics if `param` / `grad` lengths differ from the state length.
    pub fn step(&mut self, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), self.velocity.len(), "param length");
        assert_eq!(grad.len(), self.velocity.len(), "grad length");
        let SgdConfig { lr, momentum } = self.cfg;
        if momentum == 0.0 {
            for (p, &g) in param.iter_mut().zip(grad) {
                *p -= lr * g;
            }
        } else {
            for ((p, v), &g) in param.iter_mut().zip(&mut self.velocity).zip(grad) {
                *v = momentum * *v + g;
                *p -= lr * *v;
            }
        }
    }
}

/// A bank of [`ParamOptimizer`]s covering every parameter of a model, in a
/// fixed order (e.g. the order of `Mlp::params_mut`).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelOptimizer {
    params: Vec<ParamOptimizer>,
}

impl ModelOptimizer {
    /// Creates one optimiser per parameter slice length.
    pub fn new(cfg: SgdConfig, lens: impl IntoIterator<Item = usize>) -> Self {
        ModelOptimizer {
            params: lens
                .into_iter()
                .map(|len| ParamOptimizer::new(cfg, len))
                .collect(),
        }
    }

    /// Steps every parameter with its gradient.
    ///
    /// # Panics
    ///
    /// Panics if the number or lengths of slices differ from construction.
    pub fn step(&mut self, params: Vec<&mut [f32]>, grads: Vec<&[f32]>) {
        assert_eq!(params.len(), self.params.len(), "parameter count");
        assert_eq!(grads.len(), self.params.len(), "gradient count");
        gcnt_obs::global().incr(gcnt_obs::counters::NN_OPTIMIZER_STEPS);
        for ((opt, p), g) in self.params.iter_mut().zip(params).zip(grads) {
            opt.step(p, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MOMENTUM_SGD: SgdConfig = SgdConfig {
        lr: 0.1,
        momentum: 0.9,
    };

    #[test]
    fn sgd_without_momentum() {
        let mut opt = ParamOptimizer::new(
            SgdConfig {
                lr: 0.1,
                momentum: 0.0,
            },
            1,
        );
        let mut p = [1.0f32];
        opt.step(&mut p, &[2.0]);
        assert!((p[0] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut opt = ParamOptimizer::new(MOMENTUM_SGD, 1);
        let mut p = [0.0f32];
        opt.step(&mut p, &[1.0]);
        let first = -p[0];
        opt.step(&mut p, &[1.0]);
        let second = -p[0] - first;
        assert!(second > first, "momentum should grow the step");
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = ParamOptimizer::new(MOMENTUM_SGD, 1);
        let mut p = [10.0f32];
        for _ in 0..200 {
            let g = 2.0 * (p[0] - 3.0);
            opt.step(&mut p, &[g]);
        }
        assert!((p[0] - 3.0).abs() < 0.05, "x = {}", p[0]);
    }

    #[test]
    fn model_optimizer_steps_all() {
        let cfg = SgdConfig {
            lr: 1.0,
            momentum: 0.0,
        };
        let mut opt = ModelOptimizer::new(cfg, [2, 1]);
        let mut a = [1.0f32, 2.0];
        let mut b = [3.0f32];
        opt.step(vec![&mut a, &mut b], vec![&[1.0, 1.0], &[1.0]]);
        assert_eq!(a, [0.0, 1.0]);
        assert_eq!(b, [2.0]);
    }

    #[test]
    #[should_panic(expected = "param length")]
    fn length_mismatch_panics() {
        let mut opt = ParamOptimizer::new(MOMENTUM_SGD, 2);
        let mut p = [0.0f32];
        opt.step(&mut p, &[1.0]);
    }
}
