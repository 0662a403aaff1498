//! Versioned, checksummed training checkpoints with atomic writes and
//! corruption-tolerant loading.
//!
//! # File format
//!
//! A checkpoint is a JSON object with three fields:
//!
//! ```json
//! { "version": 1, "checksum": "<fnv1a64 hex>", "payload": "<TrainState JSON>" }
//! ```
//!
//! The payload is stored as a *string* so the checksum is defined over an
//! exact byte sequence rather than over a re-serialisation of a parsed
//! tree. On load the checksum is recomputed over the payload string and
//! compared before the payload is parsed at all; a flipped bit anywhere in
//! the state fires `CK001` instead of producing a silently-wrong model.
//!
//! # Durability
//!
//! [`CheckpointStore::save`] writes to a temp file in the same directory,
//! fsyncs it, and renames it over the final name, so a crash mid-write
//! leaves either the old checkpoint set or the new one — never a torn
//! file under a valid name. The store prunes itself to the newest `keep`
//! checkpoints after each save.
//!
//! # Recovery
//!
//! [`CheckpointStore::load_latest`] walks checkpoints newest-to-oldest and
//! returns the first one that passes every integrity check (`CK001`
//! checksum, `CK002` version, `CK003` required state, `MD001`/`MD002`
//! restored-model lint), collecting the findings of any rejected files so
//! the caller can report *why* older state was used.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use gcnt_core::{CascadeTraining, EpochStats, Gcn, StageReport};
use gcnt_lint::{lint_checkpoint_meta, lint_gcn, lint_optimizer_shape, CheckpointMeta, LintReport};
use gcnt_nn::ModelOptimizer;
use rand_chacha::ChaCha8Rng;

/// The checkpoint format version this build reads and writes.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Everything needed to resume a training run bit-for-bit: the cursor
/// (stage and epoch), the effective hyper-parameters after any guard
/// backoff, the model and optimizer, per-epoch history, and — for
/// multi-stage runs — the completed stages, active masks, stage reports,
/// and the RNG that seeds the next stage's weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainState {
    /// Cascade stage this state belongs to (0 for single-model runs).
    pub stage: usize,
    /// Next epoch to run within the stage (epochs `0..epoch` are done).
    pub epoch: usize,
    /// Effective learning rate (after any divergence-guard backoff).
    pub lr: f32,
    /// Guard retries consumed so far.
    pub retries_used: usize,
    /// The model being trained.
    pub model: Gcn,
    /// Momentum state, absent for plain SGD.
    pub optimizer: Option<ModelOptimizer>,
    /// Per-epoch statistics of the current stage so far.
    pub history: Vec<EpochStats>,
    /// Fully trained earlier cascade stages.
    pub completed: Vec<Gcn>,
    /// Per-graph active node masks entering the current stage.
    pub active: Vec<Vec<usize>>,
    /// Reports of completed stages.
    pub reports: Vec<StageReport>,
    /// RNG state for the next stage's weight initialisation; `None` for
    /// runs that never touch an RNG after the model exists.
    pub rng: Option<ChaCha8Rng>,
}

impl TrainState {
    /// State for a single-model (non-cascade) run: stage 0 and no cascade
    /// context.
    pub fn single(
        epoch: usize,
        model: &Gcn,
        optimizer: &Option<ModelOptimizer>,
        lr: f32,
        retries_used: usize,
        history: &[EpochStats],
    ) -> Self {
        TrainState {
            stage: 0,
            epoch,
            lr,
            retries_used,
            model: model.clone(),
            optimizer: optimizer.clone(),
            history: history.to_vec(),
            completed: Vec::new(),
            active: Vec::new(),
            reports: Vec::new(),
            rng: None,
        }
    }

    /// State for a cascade run: the cursor's stage is the number of
    /// completed stages, and the stepper's state rides along, so
    /// `epoch == 0` is a stage boundary and anything else is mid-stage.
    pub fn cascade(
        cascade: &CascadeTraining,
        epoch: usize,
        model: &Gcn,
        optimizer: &Option<ModelOptimizer>,
        lr: f32,
        retries_used: usize,
        history: &[EpochStats],
    ) -> Self {
        TrainState {
            stage: cascade.completed.len(),
            completed: cascade.completed.clone(),
            active: cascade.active.clone(),
            reports: cascade.reports.clone(),
            rng: Some(cascade.rng.clone()),
            ..TrainState::single(epoch, model, optimizer, lr, retries_used, history)
        }
    }
}

/// The on-disk envelope: see the module docs for the format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointFile {
    version: u32,
    checksum: String,
    payload: String,
}

/// Typed checkpoint failures. `Invalid` carries the lint findings
/// (`CK`/`MD` rules) that rejected the file.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation targeted.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file is not parseable as a checkpoint (truncated write, foreign
    /// file, or garbage payload).
    Malformed {
        /// Path of the unparseable file.
        path: PathBuf,
        /// What failed to parse.
        detail: String,
    },
    /// The file parsed but failed integrity validation; the report holds
    /// the `CK`/`MD` findings.
    Invalid {
        /// Path of the rejected file.
        path: PathBuf,
        /// The findings that rejected it.
        report: Box<LintReport>,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint io error at {}: {source}", path.display())
            }
            CheckpointError::Malformed { path, detail } => {
                write!(f, "malformed checkpoint {}: {detail}", path.display())
            }
            CheckpointError::Invalid { path, report } => {
                write!(
                    f,
                    "invalid checkpoint {}: {}",
                    path.display(),
                    report.to_string().trim_end()
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// FNV-1a 64-bit hash — small, dependency-free, and byte-order stable,
/// which is all a corruption check needs (this is not a cryptographic
/// integrity guarantee) — and its 16-hex-digit envelope form.
/// Re-exported from `gcnt-store`, which owns the checksum primitive the
/// whole workspace shares.
pub use gcnt_store::{checksum_hex, fnv1a64};

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, then rename over the final name. Readers never observe a torn
/// file, and a crash mid-write leaves the previous contents intact.
/// Delegates to `gcnt-store`'s implementation, mapping its error into
/// [`CheckpointError`] to keep this crate's public API unchanged.
///
/// # Errors
///
/// Returns the underlying io error, tagged with the path it hit.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    gcnt_store::atomic_write(path, bytes).map_err(|e| match e {
        gcnt_store::StoreError::Io { path, source } => CheckpointError::Io { path, source },
        other => CheckpointError::Malformed {
            path: path.to_path_buf(),
            detail: other.to_string(),
        },
    })
}

/// A directory of checkpoints, pruned to the newest `keep` files.
///
/// File names encode the cursor (`ckpt-SSSS-EEEEEE.json`), so
/// lexicographic order is (stage, epoch) order and "latest" needs no
/// parsing.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory that retains the
    /// newest `keep` checkpoints (`keep` is clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns an io error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|source| CheckpointError::Io {
            path: dir.clone(),
            source,
        })?;
        Ok(CheckpointStore {
            dir,
            keep: keep.max(1),
        })
    }

    /// The directory this store writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoint paths, oldest first.
    ///
    /// # Errors
    ///
    /// Returns an io error if the directory cannot be read.
    pub fn list(&self) -> Result<Vec<PathBuf>, CheckpointError> {
        let entries = fs::read_dir(&self.dir).map_err(|source| CheckpointError::Io {
            path: self.dir.clone(),
            source,
        })?;
        let mut out: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".json"))
            })
            .collect();
        out.sort();
        Ok(out)
    }

    /// Saves a checkpoint atomically and prunes older ones beyond `keep`.
    /// Returns the path written.
    ///
    /// # Errors
    ///
    /// Returns an io error if writing fails, or a serialization failure as
    /// `Malformed` (which indicates non-finite state reached the save
    /// path — the divergence guard exists to prevent exactly that).
    pub fn save(&self, state: &TrainState) -> Result<PathBuf, CheckpointError> {
        let path = self
            .dir
            .join(format!("ckpt-{:04}-{:06}.json", state.stage, state.epoch));
        let payload = serde_json::to_string(state).map_err(|e| CheckpointError::Malformed {
            path: path.clone(),
            detail: format!("state serialization failed: {e}"),
        })?;
        let file = CheckpointFile {
            version: CHECKPOINT_VERSION,
            checksum: checksum_hex(payload.as_bytes()),
            payload,
        };
        let bytes = serde_json::to_string(&file).map_err(|e| CheckpointError::Malformed {
            path: path.clone(),
            detail: format!("envelope serialization failed: {e}"),
        })?;
        atomic_write(&path, bytes.as_bytes())?;
        gcnt_obs::global().incr(gcnt_obs::counters::RUNTIME_CHECKPOINTS_WRITTEN);
        // Prune, never removing the file just written.
        let files = self.list()?;
        let excess = files.len().saturating_sub(self.keep);
        for old in files.iter().take(excess) {
            if old != &path {
                let _ = fs::remove_file(old);
            }
        }
        Ok(path)
    }

    /// Loads and fully validates one checkpoint file.
    ///
    /// `require_optimizer` marks optimizer state as mandatory (a momentum
    /// run cannot resume bit-for-bit without its velocity), firing `CK003`
    /// when absent.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Malformed`] if it cannot be parsed, and
    /// [`CheckpointError::Invalid`] with the lint findings if any
    /// integrity check fails.
    pub fn load(
        &self,
        path: &Path,
        require_optimizer: bool,
    ) -> Result<TrainState, CheckpointError> {
        let text = fs::read_to_string(path).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let file: CheckpointFile =
            serde_json::from_str(&text).map_err(|e| CheckpointError::Malformed {
                path: path.to_path_buf(),
                detail: format!("envelope parse failed: {e}"),
            })?;
        let mut report = lint_checkpoint_meta(&CheckpointMeta {
            path: path.display().to_string(),
            version: file.version,
            supported_version: CHECKPOINT_VERSION,
            stored_checksum: file.checksum.clone(),
            computed_checksum: checksum_hex(file.payload.as_bytes()),
            missing_state: Vec::new(),
        });
        if report.has_errors() {
            return Err(CheckpointError::Invalid {
                path: path.to_path_buf(),
                report: Box::new(report),
            });
        }
        let state: TrainState =
            serde_json::from_str(&file.payload).map_err(|e| CheckpointError::Malformed {
                path: path.to_path_buf(),
                detail: format!("payload parse failed: {e}"),
            })?;
        // The payload parsed — now lint the restored model state (MD rules)
        // and the optimizer contract (CK003).
        report.merge(lint_gcn(&state.model, "checkpoint.model"));
        for stage in &state.completed {
            report.merge(lint_gcn(stage, "checkpoint.completed"));
        }
        match &state.optimizer {
            Some(opt) => {
                report.merge(lint_optimizer_shape(
                    &path.display().to_string(),
                    &state.model.param_lens(),
                    &opt.param_lens(),
                ));
                if !opt.is_finite() {
                    report.report(
                        gcnt_lint::RuleId::WeightNan,
                        path.display().to_string(),
                        "optimizer state holds a NaN or infinite value",
                    );
                }
            }
            None if require_optimizer => {
                report.merge(lint_checkpoint_meta(&CheckpointMeta {
                    path: path.display().to_string(),
                    version: file.version,
                    supported_version: CHECKPOINT_VERSION,
                    stored_checksum: file.checksum.clone(),
                    computed_checksum: file.checksum.clone(),
                    missing_state: vec!["optimizer".to_string()],
                }));
            }
            None => {}
        }
        if report.has_errors() {
            return Err(CheckpointError::Invalid {
                path: path.to_path_buf(),
                report: Box::new(report),
            });
        }
        gcnt_obs::global().incr(gcnt_obs::counters::RUNTIME_CHECKPOINTS_LOADED);
        Ok(state)
    }

    /// Loads the newest checkpoint that passes validation, falling back
    /// to older ones when the newest is corrupt.
    ///
    /// Returns the restored state (or `None` when no usable checkpoint
    /// exists) plus the accumulated findings of every rejected file —
    /// unparseable files are reported as `CK001` (their integrity cannot
    /// be established).
    ///
    /// # Errors
    ///
    /// Returns an io error only if the directory itself cannot be listed;
    /// individual bad files are findings, not errors.
    pub fn load_latest(
        &self,
        require_optimizer: bool,
    ) -> Result<(Option<TrainState>, LintReport), CheckpointError> {
        let mut findings = LintReport::new();
        for path in self.list()?.iter().rev() {
            match self.load(path, require_optimizer) {
                Ok(state) => return Ok((Some(state), findings)),
                Err(CheckpointError::Invalid { report, .. }) => findings.merge(*report),
                Err(e) => findings.report(
                    gcnt_lint::RuleId::ChecksumMismatch,
                    path.display().to_string(),
                    format!("unreadable checkpoint skipped: {e}"),
                ),
            }
        }
        Ok((None, findings))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_core::GcnConfig;

    fn tiny_state(stage: usize, epoch: usize) -> TrainState {
        let gcn = Gcn::new(
            &GcnConfig {
                embed_dims: vec![3],
                fc_dims: vec![3],
                ..GcnConfig::default()
            },
            &mut gcnt_nn::seeded_rng(9),
        );
        TrainState {
            stage,
            epoch,
            lr: 0.05,
            retries_used: 0,
            model: gcn,
            optimizer: None,
            history: vec![],
            completed: vec![],
            active: vec![vec![0, 1, 2]],
            reports: vec![],
            rng: Some(gcnt_nn::seeded_rng(9)),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gcnt-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(checksum_hex(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn save_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::open(&dir, 3).unwrap();
        let state = tiny_state(0, 10);
        let path = store.save(&state).unwrap();
        assert!(path.to_str().unwrap().contains("ckpt-0000-000010"));
        let back = store.load(&path, false).unwrap();
        assert_eq!(back, state);
        // No stray temp file survives.
        assert!(!path.with_extension("tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_newest_k() {
        let dir = temp_dir("prune");
        let store = CheckpointStore::open(&dir, 2).unwrap();
        for epoch in [1, 2, 3, 4] {
            store.save(&tiny_state(0, epoch)).unwrap();
        }
        let files = store.list().unwrap();
        assert_eq!(files.len(), 2);
        assert!(files[1].to_str().unwrap().contains("000004"));
        assert!(files[0].to_str().unwrap().contains("000003"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_prefers_newest() {
        let dir = temp_dir("latest");
        let store = CheckpointStore::open(&dir, 5).unwrap();
        store.save(&tiny_state(0, 5)).unwrap();
        store.save(&tiny_state(1, 0)).unwrap();
        let (state, findings) = store.load_latest(false).unwrap();
        assert_eq!(state.unwrap().stage, 1);
        assert!(findings.is_clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_returns_none() {
        let dir = temp_dir("empty");
        let store = CheckpointStore::open(&dir, 5).unwrap();
        let (state, findings) = store.load_latest(false).unwrap();
        assert!(state.is_none());
        assert!(findings.is_clean());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A momentum checkpoint written by the build before `ParamOptimizer`
    /// lost its Adam state: every per-parameter entry still carries
    /// `"second":[],"t":0`. The payload is checksummed as written, extra
    /// fields are ignored on parse, so it loads — velocity included.
    const PRE_ADAM_REMOVAL_CHECKPOINT: &str = r#"{"version":1,"checksum":"22c3d9ba139ca124","payload":"{\"stage\":0,\"epoch\":1,\"lr\":0.05000000074505806,\"retries_used\":0,\"model\":{\"agg_weights\":[0.4749999940395355,0.5],\"encoders\":[{\"weight\":{\"rows\":4,\"cols\":1,\"data\":[1.0034422874450684,0.29499173164367676,-0.3195344805717468,-0.28922832012176514]},\"bias\":[0.0]}],\"head\":{\"layers\":[{\"weight\":{\"rows\":1,\"cols\":1,\"data\":[1.5707393884658813]},\"bias\":[0.0]},{\"weight\":{\"rows\":1,\"cols\":2,\"data\":[-0.9608134031295776,-1.1394996643066406]},\"bias\":[0.0,0.0]}]}},\"optimizer\":{\"params\":[{\"cfg\":{\"Sgd\":{\"lr\":0.05000000074505806,\"momentum\":0.8999999761581421}},\"velocity\":[0.5,0.0],\"second\":[],\"t\":0},{\"cfg\":{\"Sgd\":{\"lr\":0.05000000074505806,\"momentum\":0.8999999761581421}},\"velocity\":[0.0,0.0,0.0,0.0],\"second\":[],\"t\":0},{\"cfg\":{\"Sgd\":{\"lr\":0.05000000074505806,\"momentum\":0.8999999761581421}},\"velocity\":[0.0],\"second\":[],\"t\":0},{\"cfg\":{\"Sgd\":{\"lr\":0.05000000074505806,\"momentum\":0.8999999761581421}},\"velocity\":[0.0],\"second\":[],\"t\":0},{\"cfg\":{\"Sgd\":{\"lr\":0.05000000074505806,\"momentum\":0.8999999761581421}},\"velocity\":[0.0],\"second\":[],\"t\":0},{\"cfg\":{\"Sgd\":{\"lr\":0.05000000074505806,\"momentum\":0.8999999761581421}},\"velocity\":[0.0,0.0],\"second\":[],\"t\":0},{\"cfg\":{\"Sgd\":{\"lr\":0.05000000074505806,\"momentum\":0.8999999761581421}},\"velocity\":[0.0,0.0],\"second\":[],\"t\":0}]},\"history\":[],\"completed\":[],\"active\":[],\"reports\":[],\"rng\":null}"}"#;

    #[test]
    fn momentum_checkpoint_from_before_adam_removal_still_loads() {
        let dir = temp_dir("pre-adam-removal");
        let store = CheckpointStore::open(&dir, 3).unwrap();
        let path = dir.join("ckpt-0000-000001.json");
        fs::write(&path, PRE_ADAM_REMOVAL_CHECKPOINT).unwrap();
        let state = store.load(&path, true).unwrap();
        assert_eq!(state.epoch, 1);
        let mut model = state.model;
        let mut optimizer = state.optimizer;
        let before = model.params_mut()[0][0];
        // The stored velocity of the first parameter is 0.5: a zero
        // gradient still moves it by lr * momentum * 0.5.
        let cfg = gcnt_core::TrainConfig {
            epochs: 1,
            lr: 0.05,
            momentum: 0.9,
            pos_weight: 1.0,
        };
        let no_gradient = model.zero_grads();
        gcnt_core::apply_update(&mut model, &no_gradient, &cfg, &mut optimizer);
        let moved = before - model.params_mut()[0][0];
        assert!((moved - 0.05 * 0.9 * 0.5).abs() < 1e-7, "moved {moved}");
        let _ = fs::remove_dir_all(&dir);
    }
}
