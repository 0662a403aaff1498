//! Node attribute construction: the `[LL, C0, C1, O]` vectors of §3.1.
//!
//! SCOAP values are heavy-tailed (and saturate at [`gcnt_netlist::SCOAP_INF`]
//! for unobservable nets), so the raw attributes are squashed with
//! `log2(1 + x)` before the per-column standardisation that training uses.
//! The normaliser is computed on the training designs and *re-applied* to
//! unseen designs, preserving the inductive property of the model (§2.1).

use serde::{Deserialize, Serialize};

use gcnt_netlist::{logic_levels, Netlist, Result as NetResult, Scoap};
use gcnt_tensor::{ops, Matrix, Result as TensorResult, TensorError};

/// Number of raw node attributes: `[LL, C0, C1, O]`.
pub const RAW_DIM: usize = 4;

/// Attribute row assigned to a freshly inserted observation point.
///
/// The paper sets the new node's attributes to `[0, 1, 1, 0]` (§4): level
/// and observability 0, unit controllabilities.
pub const OBSERVATION_POINT_ATTRS: [f32; RAW_DIM] = [0.0, 1.0, 1.0, 0.0];

/// Builds the raw (unnormalised, but log-squashed) feature matrix of a
/// netlist from precomputed logic levels and SCOAP measures.
pub fn raw_features(levels: &[u32], scoap: &Scoap) -> Matrix {
    let n = levels.len();
    let mut m = Matrix::zeros(n, RAW_DIM);
    let measures = levels
        .iter()
        .zip(scoap.cc0_all())
        .zip(scoap.cc1_all())
        .zip(scoap.co_all());
    for (i, (((&level, &cc0), &cc1), &co)) in measures.enumerate() {
        m.row_mut(i)
            .copy_from_slice(&[squash(level), squash(cc0), squash(cc1), squash(co)]);
    }
    m
}

/// Computes raw features directly from a netlist.
///
/// # Errors
///
/// None: levels and SCOAP cannot fail on a [`Netlist`], which is valid
/// by construction.
pub fn raw_features_of(net: &Netlist) -> NetResult<Matrix> {
    let levels = logic_levels(net)?;
    let scoap = Scoap::compute(net)?;
    Ok(raw_features(&levels, &scoap))
}

/// `log2(1 + x)` squashing of a SCOAP-scale integer.
pub fn squash(x: u32) -> f32 {
    (1.0 + x as f64).log2() as f32
}

/// Per-column standardisation statistics, fitted on training data and
/// applied to any design.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FeatureNormalizer {
    means: Vec<f32>,
    stds: Vec<f32>,
}

/// Decoding checks the shape: one mean and one standard deviation per
/// attribute of `[LL, C0, C1, O]`, so a damaged model bundle is refused
/// instead of panicking in [`FeatureNormalizer::apply`].
impl Deserialize for FeatureNormalizer {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            means: Vec<f32>,
            stds: Vec<f32>,
        }
        let Raw { means, stds } = Raw::from_value(v)?;
        if means.len() != RAW_DIM || stds.len() != RAW_DIM {
            return Err(serde::Error::custom(format!(
                "normaliser holds {} means and {} stds, not {RAW_DIM} of each",
                means.len(),
                stds.len()
            )));
        }
        Ok(FeatureNormalizer { means, stds })
    }
}

impl FeatureNormalizer {
    /// Fits the normaliser on one or more raw feature matrices
    /// (concatenating their statistics).
    ///
    /// # Panics
    ///
    /// Panics if `mats` is empty or the matrices disagree on column count;
    /// [`FeatureNormalizer::try_fit`] reports the same conditions as a
    /// typed error instead.
    #[expect(
        clippy::panic,
        reason = "documented-panic wrapper; `try_fit` is the fallible variant"
    )]
    pub fn fit(mats: &[&Matrix]) -> Self {
        match Self::try_fit(mats) {
            Ok(n) => n,
            Err(e) => panic!("FeatureNormalizer::fit: {e}"),
        }
    }

    /// Fallible variant of [`FeatureNormalizer::fit`] for callers (CLI,
    /// checkpoint restore) that must surface bad input as an error rather
    /// than a panic.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `mats` is empty and
    /// [`TensorError::ShapeMismatch`] when the matrices disagree on column
    /// count.
    pub fn try_fit(mats: &[&Matrix]) -> TensorResult<Self> {
        let Some((first, rest)) = mats.split_first() else {
            return Err(TensorError::LengthMismatch {
                expected: 1,
                actual: 0,
            });
        };
        let mut stacked = (*first).clone();
        for m in rest {
            stacked = stacked.vstack(m)?;
        }
        let means = ops::column_means(&stacked);
        let stds = ops::column_stds(&stacked, &means);
        Ok(FeatureNormalizer { means, stds })
    }

    /// Applies the normalisation to a raw feature matrix.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted dimension.
    pub fn apply(&self, raw: &Matrix) -> Matrix {
        ops::apply_standardization(raw, &self.means, &self.stds)
    }

    /// Normalises the [`OBSERVATION_POINT_ATTRS`] row for appending to a
    /// normalised feature matrix.
    pub fn observation_point_row(&self) -> Vec<f32> {
        let mut raw = Matrix::zeros(1, RAW_DIM);
        raw.row_mut(0).copy_from_slice(&OBSERVATION_POINT_ATTRS);
        self.apply(&raw).row(0).to_vec()
    }

    /// Normalises a single raw cell value for column `col`, bit-identical
    /// to the corresponding element of [`FeatureNormalizer::apply`].
    ///
    /// Used by the flow's incremental feature maintenance to patch
    /// individual cells of an already-normalised matrix without
    /// re-normalising the whole design.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range for the fitted dimension.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented-panic API (`normalize_cell`); an out-of-range column is caller misuse, not data"
    )]
    pub fn normalize_cell(&self, col: usize, raw: f32) -> f32 {
        let mut v = raw;
        v -= self.means[col];
        if self.stds[col] > 1e-12 {
            v /= self.stds[col];
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::{generate, CellKind, GeneratorConfig, NetlistBuilder, SCOAP_INF};

    #[test]
    fn squash_is_monotone_and_finite() {
        assert_eq!(squash(0), 0.0);
        assert!(squash(1) > 0.0);
        assert!(squash(100) > squash(10));
        assert!(squash(SCOAP_INF).is_finite());
    }

    #[test]
    fn raw_features_shape_and_values() {
        let mut net = NetlistBuilder::new("t");
        let a = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::Not);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(g, o).unwrap();
        let net = net.build().unwrap();
        let f = raw_features_of(&net).unwrap();
        assert_eq!(f.shape(), (3, RAW_DIM));
        // Input: LL=0 -> squash 0; CC0=CC1=1 -> squash(1)=1.
        assert_eq!(f.get(a.index(), 0), 0.0);
        assert_eq!(f.get(a.index(), 1), 1.0);
        assert_eq!(f.get(a.index(), 2), 1.0);
    }

    #[test]
    fn normalizer_fit_apply_round_trip() {
        let net = generate(&GeneratorConfig::sized("n", 3, 800));
        let raw = raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let x = norm.apply(&raw);
        // Each column should be ~zero-mean, ~unit-std after normalisation.
        let means = ops::column_means(&x);
        for m in means {
            assert!(m.abs() < 1e-3, "column mean {m}");
        }
    }

    #[test]
    fn normalizer_is_inductive() {
        // Fit on one design, apply to another: must not panic and must use
        // the *training* statistics.
        let a = generate(&GeneratorConfig::sized("a", 1, 500));
        let b = generate(&GeneratorConfig::sized("b", 2, 500));
        let ra = raw_features_of(&a).unwrap();
        let rb = raw_features_of(&b).unwrap();
        let norm = FeatureNormalizer::fit(&[&ra]);
        let xb = norm.apply(&rb);
        assert_eq!(xb.shape(), rb.shape());
    }

    #[test]
    fn observation_point_row_is_normalised() {
        let net = generate(&GeneratorConfig::sized("o", 5, 500));
        let raw = raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let row = norm.observation_point_row();
        assert_eq!(row.len(), RAW_DIM);
        assert!(row.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn normalize_cell_matches_apply_bitwise() {
        let net = generate(&GeneratorConfig::sized("cell", 6, 700));
        let raw = raw_features_of(&net).unwrap();
        let norm = FeatureNormalizer::fit(&[&raw]);
        let full = norm.apply(&raw);
        for r in (0..raw.rows()).step_by(23) {
            for c in 0..RAW_DIM {
                let cell = norm.normalize_cell(c, raw.get(r, c));
                assert_eq!(cell.to_bits(), full.get(r, c).to_bits(), "({r}, {c})");
            }
        }
    }

    #[test]
    fn try_fit_reports_typed_errors() {
        assert!(matches!(
            FeatureNormalizer::try_fit(&[]),
            Err(TensorError::LengthMismatch { .. })
        ));
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        assert!(matches!(
            FeatureNormalizer::try_fit(&[&a, &b]),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(FeatureNormalizer::try_fit(&[&a]).is_ok());
    }

    #[test]
    fn deserialize_refuses_a_shape_mismatch() {
        let net = generate(&GeneratorConfig::sized("serde", 8, 300));
        let norm = FeatureNormalizer::fit(&[&raw_features_of(&net).unwrap()]);
        let json = serde_json::to_string(&norm).unwrap();
        assert_eq!(
            serde_json::from_str::<FeatureNormalizer>(&json).unwrap(),
            norm
        );
        let mut short = norm.clone();
        short.means.pop();
        let mut both_short = short.clone();
        both_short.stds.pop();
        let wide = FeatureNormalizer::fit(&[&Matrix::zeros(2, RAW_DIM + 1)]);
        for bad in [short, both_short, wide] {
            let json = serde_json::to_string(&bad).unwrap();
            let err = serde_json::from_str::<FeatureNormalizer>(&json).unwrap_err();
            assert!(err.to_string().contains("not 4 of each"), "{json}: {err}");
        }
    }

    #[test]
    fn fit_multiple_designs() {
        let a = generate(&GeneratorConfig::sized("a", 1, 400));
        let b = generate(&GeneratorConfig::sized("b", 2, 400));
        let ra = raw_features_of(&a).unwrap();
        let rb = raw_features_of(&b).unwrap();
        let joint = FeatureNormalizer::fit(&[&ra, &rb]);
        let solo = FeatureNormalizer::fit(&[&ra]);
        assert_ne!(joint.means, solo.means);
    }
}
