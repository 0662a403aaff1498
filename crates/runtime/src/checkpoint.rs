//! Versioned, checksummed training checkpoints with atomic writes and
//! corruption-tolerant loading.
//!
//! # File format
//!
//! A checkpoint is a [`gcnt_store::envelope`] around the [`TrainState`]
//! JSON:
//!
//! ```json
//! { "version": 1, "checksum": "<fnv1a64 hex>", "payload": "<TrainState JSON>" }
//! ```
//!
//! The checksum is recomputed over the payload string and compared before
//! the payload is parsed at all; a flipped bit anywhere in the state is a
//! [`CheckpointError::ChecksumMismatch`] instead of a silently-wrong model.
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
//! returns the first one that passes every integrity check (envelope
//! version and checksum, and a payload that decodes — models refuse bad
//! shapes and non-finite values at decode, and a file without cascade
//! state does not decode at all), collecting the typed error of every
//! rejected file so the caller can report *why* older state was used.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use gcnt_core::{CascadeTraining, EpochStats, Gcn, StageReport};
use gcnt_store::envelope::{self, EnvelopeError};
use rand_chacha::ChaCha8Rng;

/// The checkpoint format version this build reads and writes.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Everything needed to resume a cascade run bit-for-bit: the cursor
/// (stage and epoch), the learning rate after any guard backoff, the
/// model, the stage's per-epoch history, and the [`CascadeTraining`]
/// stepper's state — completed stages, active masks, stage reports, and
/// the RNG that seeds the next stage's weights. The cascade trains with
/// plain SGD, so there is no optimizer state to carry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainState {
    /// Cascade stage this state belongs to.
    pub stage: usize,
    /// Next epoch to run within the stage (epochs `0..epoch` are done).
    pub epoch: usize,
    /// Effective learning rate (after any divergence-guard backoff).
    pub lr: f32,
    /// Guard retries consumed so far.
    pub retries_used: usize,
    /// The model being trained.
    pub model: Gcn,
    /// Per-epoch statistics of the current stage so far.
    pub history: Vec<EpochStats>,
    /// Fully trained earlier cascade stages.
    pub completed: Vec<Gcn>,
    /// Per-graph active node masks entering the current stage.
    pub active: Vec<Vec<usize>>,
    /// Reports of completed stages.
    pub reports: Vec<StageReport>,
    /// RNG state for the next stage's weight initialisation.
    pub rng: ChaCha8Rng,
}

impl TrainState {
    /// State for a cascade run: the cursor's stage is the number of
    /// completed stages, and the stepper's state rides along, so
    /// `epoch == 0` is a stage boundary and anything else is mid-stage.
    pub fn cascade(
        cascade: &CascadeTraining,
        epoch: usize,
        model: &Gcn,
        lr: f32,
        retries_used: usize,
        history: &[EpochStats],
    ) -> Self {
        TrainState {
            stage: cascade.completed.len(),
            epoch,
            lr,
            retries_used,
            model: model.clone(),
            history: history.to_vec(),
            completed: cascade.completed.clone(),
            active: cascade.active.clone(),
            reports: cascade.reports.clone(),
            rng: cascade.rng.clone(),
        }
    }
}

/// Typed checkpoint failures: every reason a file is refused.
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
    /// file, garbage payload, or no cascade state), or its model does not
    /// decode (mis-shaped or non-finite).
    Malformed {
        /// Path of the unparseable file.
        path: PathBuf,
        /// What failed to parse.
        detail: String,
    },
    /// The file declares a format version this build does not read.
    Unsupported {
        /// Path of the rejected file.
        path: PathBuf,
        /// The declared version.
        version: u32,
    },
    /// The payload does not hash to the checksum the file stores.
    ChecksumMismatch {
        /// Path of the rejected file.
        path: PathBuf,
        /// Checksum the file stores.
        stored: String,
        /// Checksum recomputed over the payload.
        computed: String,
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
            CheckpointError::Unsupported { path, version } => write!(
                f,
                "checkpoint {} is version {version}, this build reads version {CHECKPOINT_VERSION}",
                path.display()
            ),
            CheckpointError::ChecksumMismatch {
                path,
                stored,
                computed,
            } => write!(
                f,
                "checkpoint {} stores checksum {stored} but its payload hashes to {computed}",
                path.display()
            ),
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

    /// The file a state is saved to: its cursor, so lexicographic order is
    /// (stage, epoch) order.
    fn path_of(&self, state: &TrainState) -> PathBuf {
        self.dir
            .join(format!("ckpt-{:04}-{:06}.json", state.stage, state.epoch))
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
        let path = self.path_of(state);
        let bytes =
            envelope::seal(CHECKPOINT_VERSION, state).map_err(|e| CheckpointError::Malformed {
                path: path.clone(),
                detail: e.to_string(),
            })?;
        gcnt_store::atomic_write(&path, bytes.as_bytes()).map_err(|e| match e {
            gcnt_store::StoreError::Io { path, source } => CheckpointError::Io { path, source },
            other => CheckpointError::Malformed {
                path: path.clone(),
                detail: other.to_string(),
            },
        })?;
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
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Malformed`] if it cannot be parsed or its state
    /// does not decode, and [`CheckpointError::Unsupported`] /
    /// [`CheckpointError::ChecksumMismatch`] if the envelope fails.
    pub fn load(&self, path: &Path) -> Result<TrainState, CheckpointError> {
        let text = fs::read_to_string(path).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let state = envelope::open(&text, CHECKPOINT_VERSION).map_err(|e| {
            let path = path.to_path_buf();
            match e {
                EnvelopeError::Malformed(detail) => CheckpointError::Malformed { path, detail },
                EnvelopeError::Version(version) => CheckpointError::Unsupported { path, version },
                EnvelopeError::Checksum { stored, computed } => CheckpointError::ChecksumMismatch {
                    path,
                    stored,
                    computed,
                },
            }
        })?;
        gcnt_obs::global().incr(gcnt_obs::counters::RUNTIME_CHECKPOINTS_LOADED);
        Ok(state)
    }

    /// Loads the newest checkpoint that passes validation, falling back
    /// to older ones when the newest is unusable.
    ///
    /// Returns the restored state (or `None` when no usable checkpoint
    /// exists) plus the typed error of every file skipped on the way, newest
    /// first.
    ///
    /// # Errors
    ///
    /// Returns an io error only if the directory itself cannot be listed;
    /// individual bad files are skipped, not errors.
    pub fn load_latest(
        &self,
    ) -> Result<(Option<TrainState>, Vec<CheckpointError>), CheckpointError> {
        let mut skipped = Vec::new();
        for path in self.list()?.iter().rev() {
            match self.load(path) {
                Ok(state) => return Ok((Some(state), skipped)),
                Err(e) => skipped.push(e),
            }
        }
        Ok((None, skipped))
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
            history: vec![],
            completed: vec![],
            active: vec![vec![0, 1, 2]],
            reports: vec![],
            rng: gcnt_nn::seeded_rng(9),
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
        let back = store.load(&path).unwrap();
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
        let (state, skipped) = store.load_latest().unwrap();
        assert_eq!(state.unwrap().stage, 1);
        assert!(skipped.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_truncated_newest_file_is_skipped_as_malformed() {
        let dir = temp_dir("truncated-newest");
        let store = CheckpointStore::open(&dir, 5).unwrap();
        store.save(&tiny_state(0, 5)).unwrap();
        let newest = store.save(&tiny_state(0, 6)).unwrap();
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let (state, skipped) = store.load_latest().unwrap();
        assert_eq!(state.unwrap().epoch, 5, "falls back to the older file");
        assert!(
            matches!(&skipped[..], [CheckpointError::Malformed { path, .. }] if *path == newest),
            "{skipped:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_model_under_a_valid_checksum_is_skipped_as_malformed() {
        let dir = temp_dir("damaged-model");
        let store = CheckpointStore::open(&dir, 5).unwrap();
        store.save(&tiny_state(0, 5)).unwrap();
        let newest = store.save(&tiny_state(0, 6)).unwrap();
        // Pop one bias value and re-seal: the envelope holds, so only the
        // model's own decode can object.
        let payload = serde_json::to_string(&tiny_state(0, 6)).unwrap();
        let damaged = payload.replacen(r#""bias":[0.0,"#, r#""bias":["#, 1);
        assert_ne!(damaged, payload);
        let damaged: serde_json::Value = damaged.parse().unwrap();
        fs::write(
            &newest,
            envelope::seal(CHECKPOINT_VERSION, &damaged).unwrap(),
        )
        .unwrap();
        let (state, skipped) = store.load_latest().unwrap();
        assert_eq!(state.unwrap().epoch, 5, "falls back to the older file");
        match &skipped[..] {
            [CheckpointError::Malformed { path, detail }] if *path == newest => {
                assert!(
                    detail.contains("bias holds 2 values for fan-out 3"),
                    "{detail}"
                )
            }
            other => panic!("expected one malformed skip, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_without_cascade_state_is_skipped_as_malformed() {
        let dir = temp_dir("no-rng");
        let store = CheckpointStore::open(&dir, 5).unwrap();
        store.save(&tiny_state(0, 5)).unwrap();
        let newest = store.save(&tiny_state(0, 6)).unwrap();
        // A single-model run once wrote `"rng":null`; only a cascade
        // checkpoint decodes now.
        let payload = serde_json::to_string(&tiny_state(0, 6)).unwrap();
        let rng = payload.find(r#""rng":"#).unwrap();
        let payload: serde_json::Value = format!(r#"{}"rng":null}}"#, &payload[..rng])
            .parse()
            .unwrap();
        fs::write(
            &newest,
            envelope::seal(CHECKPOINT_VERSION, &payload).unwrap(),
        )
        .unwrap();
        let (state, skipped) = store.load_latest().unwrap();
        assert_eq!(state.unwrap().epoch, 5, "falls back to the older file");
        assert!(
            matches!(&skipped[..], [CheckpointError::Malformed { path, .. }] if *path == newest),
            "{skipped:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_returns_none() {
        let dir = temp_dir("empty");
        let store = CheckpointStore::open(&dir, 5).unwrap();
        let (state, skipped) = store.load_latest().unwrap();
        assert!(state.is_none());
        assert!(skipped.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
