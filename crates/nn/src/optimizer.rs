use serde::{Deserialize, Serialize};

/// Plain SGD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (`0.0` disables momentum).
    pub momentum: f32,
}

/// Choice of optimisation algorithm: the paper uses stochastic gradient
/// descent (§5), and so does everything here. An enum because that is the
/// shape checkpoints carry (`{"Sgd": {..}}`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerConfig {
    /// Stochastic gradient descent with optional momentum.
    Sgd(SgdConfig),
}

/// Optimiser state for one flat parameter slice.
///
/// # Examples
///
/// ```
/// use gcnt_nn::{OptimizerConfig, ParamOptimizer, SgdConfig};
///
/// let cfg = OptimizerConfig::Sgd(SgdConfig { lr: 0.5, momentum: 0.0 });
/// let mut opt = ParamOptimizer::new(cfg, 2);
/// let mut param = [1.0f32, -1.0];
/// opt.step(&mut param, &[1.0, 1.0]);
/// assert_eq!(param, [0.5, -1.5]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ParamOptimizer {
    cfg: OptimizerConfig,
    velocity: Vec<f32>,
}

/// Decoding checks the state: a NaN or infinite velocity would poison
/// every later step even if the weights are clean, so a damaged
/// checkpoint is refused instead.
impl Deserialize for ParamOptimizer {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            cfg: OptimizerConfig,
            velocity: Vec<f32>,
        }
        let Raw { cfg, velocity } = Raw::from_value(v)?;
        if !velocity.iter().all(|v| v.is_finite()) {
            return Err(serde::Error::custom(
                "optimizer velocity holds a NaN or infinite value",
            ));
        }
        Ok(ParamOptimizer { cfg, velocity })
    }
}

impl ParamOptimizer {
    /// Creates optimiser state for a parameter of `len` elements.
    pub fn new(cfg: OptimizerConfig, len: usize) -> Self {
        ParamOptimizer {
            cfg,
            velocity: vec![0.0; len],
        }
    }

    /// Overrides the learning rate while keeping all accumulated state —
    /// how a divergence guard backs off without discarding momentum.
    pub fn set_lr(&mut self, lr: f32) {
        let OptimizerConfig::Sgd(c) = &mut self.cfg;
        c.lr = lr;
    }

    /// Length of the parameter slice this state covers.
    pub fn len(&self) -> usize {
        self.velocity.len()
    }

    /// Whether the covered parameter slice is empty.
    pub fn is_empty(&self) -> bool {
        self.velocity.is_empty()
    }

    /// Applies one update step.
    ///
    /// # Panics
    ///
    /// Panics if `param` / `grad` lengths differ from the state length.
    pub fn step(&mut self, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), self.velocity.len(), "param length");
        assert_eq!(grad.len(), self.velocity.len(), "grad length");
        let OptimizerConfig::Sgd(SgdConfig { lr, momentum }) = self.cfg;
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelOptimizer {
    params: Vec<ParamOptimizer>,
}

impl ModelOptimizer {
    /// Creates one optimiser per parameter slice length.
    pub fn new(cfg: OptimizerConfig, lens: impl IntoIterator<Item = usize>) -> Self {
        ModelOptimizer {
            params: lens
                .into_iter()
                .map(|len| ParamOptimizer::new(cfg, len))
                .collect(),
        }
    }

    /// The per-parameter slice lengths this bank was built for, in
    /// [`ModelOptimizer::step`] order — the shape a checkpoint loader
    /// validates against the model it is restoring.
    pub fn param_lens(&self) -> Vec<usize> {
        self.params.iter().map(ParamOptimizer::len).collect()
    }

    /// Overrides the learning rate of every per-parameter optimiser (see
    /// [`ParamOptimizer::set_lr`]).
    pub fn set_lr(&mut self, lr: f32) {
        for p in &mut self.params {
            p.set_lr(lr);
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

    const MOMENTUM_SGD: OptimizerConfig = OptimizerConfig::Sgd(SgdConfig {
        lr: 0.1,
        momentum: 0.9,
    });

    #[test]
    fn sgd_without_momentum() {
        let mut opt = ParamOptimizer::new(
            OptimizerConfig::Sgd(SgdConfig {
                lr: 0.1,
                momentum: 0.0,
            }),
            1,
        );
        let mut p = [1.0f32];
        opt.step(&mut p, &[2.0]);
        assert!((p[0] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let cfg = OptimizerConfig::Sgd(SgdConfig {
            lr: 0.1,
            momentum: 0.9,
        });
        let mut opt = ParamOptimizer::new(cfg, 1);
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
        let cfg = OptimizerConfig::Sgd(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
        });
        let mut opt = ModelOptimizer::new(cfg, [2, 1]);
        let mut a = [1.0f32, 2.0];
        let mut b = [3.0f32];
        opt.step(vec![&mut a, &mut b], vec![&[1.0, 1.0], &[1.0]]);
        assert_eq!(a, [0.0, 1.0]);
        assert_eq!(b, [2.0]);
    }

    #[test]
    fn state_reports_its_shape_and_poisoned_state_does_not_decode() {
        let mut opt = ModelOptimizer::new(MOMENTUM_SGD, [2, 3]);
        assert_eq!(opt.param_lens(), vec![2, 3]);
        let json = serde_json::to_string(&opt).unwrap();
        assert_eq!(serde_json::from_str::<ModelOptimizer>(&json).unwrap(), opt);
        let mut a = [1.0f32, 2.0];
        let mut b = [0.0f32, 0.0, 0.0];
        opt.step(
            vec![&mut a, &mut b],
            vec![&[f32::NAN, 0.0], &[0.0, 0.0, 0.0]],
        );
        // A NaN gradient poisons the momentum, which no longer decodes.
        let json = serde_json::to_string(&opt).unwrap();
        let err = serde_json::from_str::<ModelOptimizer>(&json).unwrap_err();
        assert!(err.to_string().contains("NaN or infinite"), "{err}");
    }

    #[test]
    fn set_lr_keeps_momentum_state() {
        let cfg = OptimizerConfig::Sgd(SgdConfig {
            lr: 1.0,
            momentum: 0.5,
        });
        let mut opt = ParamOptimizer::new(cfg, 1);
        let mut p = [0.0f32];
        opt.step(&mut p, &[1.0]); // velocity = 1, p = -1
        opt.set_lr(0.1);
        opt.step(&mut p, &[0.0]); // velocity = 0.5, p = -1 - 0.1 * 0.5
        assert!((p[0] + 1.05).abs() < 1e-6, "p = {}", p[0]);
    }

    #[test]
    #[should_panic(expected = "param length")]
    fn length_mismatch_panics() {
        let mut opt = ParamOptimizer::new(MOMENTUM_SGD, 2);
        let mut p = [0.0f32];
        opt.step(&mut p, &[1.0]);
    }
}
