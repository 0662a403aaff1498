//! Minimal neural-network building blocks with manual backpropagation.
//!
//! The DAC'19 GCN was implemented in PyTorch; this crate replaces the parts
//! of it that the paper actually uses, built directly on
//! [`gcnt_tensor::Matrix`]:
//!
//! * [`Linear`] — a fully-connected layer with Xavier initialisation.
//! * [`Mlp`] — a stack of linear layers with ReLU between them; this is the
//!   paper's classifier head (4 FC layers, dims 64/64/128/2) and also the
//!   MLP baseline of Table 2.
//! * [`loss`] — class-weighted softmax cross-entropy, the loss that drives
//!   the multi-stage imbalance handling of §3.3.
//! * [`ParamOptimizer`] / [`ModelOptimizer`] — plain SGD (with momentum)
//!   over flat parameter slices.
//! * [`seeded_rng`] — a portable, seeded RNG so training is reproducible
//!   bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use gcnt_nn::{seeded_rng, Mlp};
//! use gcnt_tensor::Matrix;
//!
//! let mut rng = seeded_rng(42);
//! let mlp = Mlp::new(&[4, 8, 2], &mut rng);
//! let x = Matrix::zeros(3, 4);
//! let logits = mlp.predict(&x).unwrap();
//! assert_eq!(logits.shape(), (3, 2));
//! ```

#![forbid(unsafe_code)]

mod init;
mod linear;
pub mod loss;
mod mlp;
mod optimizer;

pub use init::xavier_uniform;
pub use linear::{Linear, LinearGrads};
pub use mlp::{Mlp, MlpCache, MlpGrads};
pub use optimizer::{ModelOptimizer, OptimizerConfig, ParamOptimizer, SgdConfig};

use rand_chacha::ChaCha8Rng;

/// The RNG used throughout the workspace for reproducible experiments.
pub type Rng = ChaCha8Rng;

/// Creates a portable, deterministic RNG from a seed.
///
/// `ChaCha8` is stability-guaranteed across `rand` releases and platforms,
/// unlike `StdRng`.
pub fn seeded_rng(seed: u64) -> Rng {
    use rand::SeedableRng;
    ChaCha8Rng::seed_from_u64(seed)
}
