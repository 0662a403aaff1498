//! Page-store adapter for the serving layer: warm-restart embedding
//! persistence and the policy that drives journal compaction.
//!
//! # Warm restart
//!
//! A [`crate::ServeCore`] answering on the incremental rung computes one
//! full cascade pass — per-layer embeddings `E_1..E_D` for every stage —
//! before the session can reuse dirty cones. Those matrices are pure
//! functions of `(design, model, graph generation)`, so a restarted
//! process can reload them from checksummed pages instead of recomputing:
//! [`JobStore::save_caches`] writes each layer as one segment keyed by
//! the design/model fingerprint, and [`JobStore::load_caches`] restores
//! them for [`gcnt_core::CascadeSession::from_caches`], which reruns only
//! the classifier heads. Probabilities are bit-identical either way.
//!
//! # Failure contract
//!
//! Loading never trusts a page: a corrupt or mismatched segment is
//! quarantined and the answer is recomputed cold — degraded speed, never
//! wrong data. Only environmental failures (I/O, disk-full) surface, as
//! [`ServeError::Store`].

use std::path::Path;

use gcnt_core::{EmbeddingCache, MultiStageGcn};
use gcnt_netlist::{format, Netlist};
use gcnt_store::{checksum_hex, PageStore, SegmentKey, StoreError};
use gcnt_tensor::Matrix;

use crate::error::ServeError;

/// When the serving layer folds journal records into store pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorePolicy {
    /// Compact once this many records sit in the journal's live tail.
    pub compact_after_records: u64,
}

impl Default for StorePolicy {
    fn default() -> Self {
        StorePolicy {
            compact_after_records: 16,
        }
    }
}

/// A [`PageStore`] plus the serving policy around it.
#[derive(Debug)]
pub struct JobStore {
    store: PageStore,
    policy: StorePolicy,
}

fn store_err(e: StoreError) -> ServeError {
    ServeError::Store(e.to_string())
}

impl JobStore {
    /// Opens (or creates) the page store under `dir`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] wrapping any [`StoreError`] from
    /// [`PageStore::open`] — unreadable metadata, a truncated data file,
    /// or an unsupported version.
    pub fn open(dir: &Path, policy: StorePolicy) -> Result<Self, ServeError> {
        Ok(JobStore {
            store: PageStore::open(dir).map_err(store_err)?,
            policy,
        })
    }

    /// Wraps an already-open store (e.g. one carrying injected faults).
    pub fn from_store(store: PageStore, policy: StorePolicy) -> Self {
        JobStore { store, policy }
    }

    /// The compaction/growth policy.
    pub fn policy(&self) -> StorePolicy {
        self.policy
    }

    /// The underlying page store.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Mutable access to the underlying page store.
    pub fn store_mut(&mut self) -> &mut PageStore {
        &mut self.store
    }

    /// Persists one cascade's per-stage embedding caches as segments;
    /// returns the total embedding rows written.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] on I/O or (possibly injected) disk-full —
    /// nothing partial is committed for the failing segment.
    pub fn save_caches(
        &mut self,
        fingerprint: &str,
        caches: &[EmbeddingCache],
    ) -> Result<u64, ServeError> {
        let mut rows = 0u64;
        for (stage, cache) in caches.iter().enumerate() {
            for (layer_idx, layer) in cache.layers().iter().enumerate() {
                let key = embed_key(fingerprint, stage, layer_idx, cache.generation(), layer);
                self.store
                    .put_segment(&key, &matrix_to_bytes(layer))
                    .map_err(store_err)?;
                rows += layer.rows() as u64;
            }
        }
        Ok(rows)
    }

    /// Restores the per-stage embedding caches saved for
    /// `(fingerprint, generation)`, or `None` if any segment is absent —
    /// or corrupt, in which case the bad segment is quarantined first so
    /// the cold recompute can re-persist it. `nodes` is the design's node
    /// count (the segments' row range).
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] only on environmental failures (I/O);
    /// corruption recovers by quarantine + `None`, never by returning
    /// wrong data.
    pub fn load_caches(
        &mut self,
        fingerprint: &str,
        generation: u64,
        nodes: u64,
        model: &MultiStageGcn,
    ) -> Result<Option<Vec<EmbeddingCache>>, ServeError> {
        let mut caches = Vec::with_capacity(model.stages().len());
        for (stage, gcn) in model.stages().iter().enumerate() {
            let mut layers = Vec::with_capacity(gcn.depth());
            for layer_idx in 0..gcn.depth() {
                let key = SegmentKey {
                    design: fingerprint.to_string(),
                    kind: format!("embed/s{stage}/l{layer_idx}"),
                    generation,
                    start: 0,
                    end: nodes,
                };
                let bytes = match self.store.get_segment(&key) {
                    Ok(Some(bytes)) => bytes,
                    Ok(None) => return Ok(None),
                    Err(
                        e @ (StoreError::PageCorrupt { .. } | StoreError::SegmentCorrupt { .. }),
                    ) => {
                        // Checksummed pages caught the damage; drop the
                        // segment and let the caller recompute it.
                        let _ = e;
                        self.store.quarantine(&key).map_err(store_err)?;
                        return Ok(None);
                    }
                    Err(e) => return Err(store_err(e)),
                };
                match matrix_from_bytes(&bytes) {
                    Ok(m) if m.rows() as u64 == nodes => layers.push(m),
                    // A decodable payload with the wrong shape is still
                    // not the data we asked for: quarantine, recompute.
                    _ => {
                        self.store.quarantine(&key).map_err(store_err)?;
                        return Ok(None);
                    }
                }
            }
            match EmbeddingCache::from_layers(layers, generation) {
                Ok(cache) => caches.push(cache),
                Err(_) => return Ok(None),
            }
        }
        Ok(Some(caches))
    }
}

fn embed_key(
    fingerprint: &str,
    stage: usize,
    layer_idx: usize,
    generation: u64,
    layer: &Matrix,
) -> SegmentKey {
    SegmentKey {
        design: fingerprint.to_string(),
        kind: format!("embed/s{stage}/l{layer_idx}"),
        generation,
        start: 0,
        end: layer.rows() as u64,
    }
}

/// Fingerprints a `(design, model)` pair for warm-restart segment keys:
/// embeddings are only reusable when both match bit-for-bit. The key is
/// `"{design}-{model}"`: the checksum of the design's `.bench` text and
/// [`model_fingerprint`].
///
/// # Errors
///
/// [`ServeError::Store`] if the model cannot be serialized for hashing.
pub fn design_fingerprint(net: &Netlist, model: &MultiStageGcn) -> Result<String, ServeError> {
    Ok(segment_design(net, &model_fingerprint(model)?))
}

/// The model half of [`design_fingerprint`]: the checksum of the model's
/// JSON form. Serialising every weight is the expensive half and depends
/// on nothing in a request, so a serving core computes it once per loaded
/// model.
///
/// # Errors
///
/// [`ServeError::Store`] if the model cannot be serialized for hashing.
pub fn model_fingerprint(model: &MultiStageGcn) -> Result<String, ServeError> {
    let model_json = serde_json::to_string(model)
        .map_err(|e| ServeError::Store(format!("model fingerprint serialization: {e}")))?;
    Ok(checksum_hex(model_json.as_bytes()))
}

/// [`design_fingerprint`] from an already computed [`model_fingerprint`].
pub(crate) fn segment_design(net: &Netlist, model_fingerprint: &str) -> String {
    format!(
        "{}-{model_fingerprint}",
        checksum_hex(format::write(net).as_bytes())
    )
}

/// Encodes a matrix as `rows: u32 LE, cols: u32 LE, data: f32 LE…` —
/// fixed-width, endian-pinned, so a segment checksum covers exactly the
/// numbers the session will reuse.
pub(crate) fn matrix_to_bytes(m: &Matrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + m.as_slice().len() * 4);
    out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    for v in m.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let arr = <[u8; 4]>::try_from(bytes.get(at..at + 4)?).ok()?;
    Some(u32::from_le_bytes(arr))
}

/// Decodes [`matrix_to_bytes`]'s format; the error is a human-readable
/// reason (callers quarantine and recompute rather than propagate it).
pub(crate) fn matrix_from_bytes(bytes: &[u8]) -> Result<Matrix, String> {
    let rows = u32_at(bytes, 0).ok_or("truncated matrix header")? as usize;
    let cols = u32_at(bytes, 4).ok_or("truncated matrix header")? as usize;
    let body = bytes.get(8..).unwrap_or(&[]);
    let expected = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(4))
        .ok_or("matrix dimensions overflow")?;
    if body.len() != expected {
        return Err(format!(
            "matrix body holds {} bytes, {rows}x{cols} needs {expected}",
            body.len()
        ));
    }
    let mut data = Vec::with_capacity(rows * cols);
    for chunk in body.chunks_exact(4) {
        let arr = <[u8; 4]>::try_from(chunk).map_err(|_| "misaligned matrix body".to_string())?;
        data.push(f32::from_le_bytes(arr));
    }
    Matrix::from_vec(rows, cols, data).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_core::{CascadeSession, Gcn, GcnConfig, GraphData};
    use gcnt_netlist::{generate, GeneratorConfig};
    use gcnt_nn::seeded_rng;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gcnt-serve-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fixture() -> (Netlist, GraphData, MultiStageGcn) {
        let net = generate(&GeneratorConfig::sized("jobstore", 7, 150));
        let data = GraphData::from_netlist(&net, None).unwrap();
        let cfg = GcnConfig {
            embed_dims: vec![5, 5],
            fc_dims: vec![5],
            ..GcnConfig::default()
        };
        let stages = vec![
            Gcn::new(&cfg, &mut seeded_rng(41)),
            Gcn::new(&cfg, &mut seeded_rng(42)),
        ];
        (net, data, MultiStageGcn::from_stages(stages, 0.5))
    }

    #[test]
    fn matrix_codec_round_trips_bit_exactly() {
        let m =
            Matrix::from_vec(3, 2, vec![0.0, -1.5, f32::MIN_POSITIVE, 7.25, -0.0, 1e30]).unwrap();
        let back = matrix_from_bytes(&matrix_to_bytes(&m)).unwrap();
        assert_eq!(back.shape(), (3, 2));
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(matrix_from_bytes(&[1, 2, 3]).is_err(), "truncated header");
        let mut short = matrix_to_bytes(&m);
        short.pop();
        assert!(matrix_from_bytes(&short).is_err(), "truncated body");
    }

    #[test]
    fn caches_round_trip_through_the_store_bit_identically() {
        let (net, data, model) = fixture();
        let session = model.open_session(&data.tensors, &data.features).unwrap();
        let cold_probs = session.probs().to_vec();
        let caches = session.into_caches(&data.tensors, &data.features).unwrap();
        let n = data.node_count() as u64;
        let generation = data.tensors.generation();

        let fp = design_fingerprint(&net, &model).unwrap();
        let dir = temp_dir("roundtrip");
        let mut js = JobStore::open(&dir, StorePolicy::default()).unwrap();
        let saved = js.save_caches(&fp, &caches).unwrap();
        assert!(saved > 0);

        // A fresh store handle (a "restarted process") reloads them.
        let mut js = JobStore::open(&dir, StorePolicy::default()).unwrap();
        let restored = js.load_caches(&fp, generation, n, &model).unwrap().unwrap();
        let warm =
            CascadeSession::from_caches(&model, &data.tensors, &data.features, restored).unwrap();
        assert_eq!(
            warm.probs(),
            &cold_probs[..],
            "warm restart is bit-identical"
        );

        // A different fingerprint is a miss, not a wrong answer.
        assert!(js
            .load_caches("other", generation, n, &model)
            .unwrap()
            .is_none());
    }

    #[test]
    fn corrupt_segment_is_quarantined_and_reports_a_miss() {
        let (net, data, model) = fixture();
        let session = model.open_session(&data.tensors, &data.features).unwrap();
        let caches = session.into_caches(&data.tensors, &data.features).unwrap();
        let n = data.node_count() as u64;
        let generation = data.tensors.generation();
        let fp = design_fingerprint(&net, &model).unwrap();
        let dir = temp_dir("corrupt");
        let mut js = JobStore::open(&dir, StorePolicy::default()).unwrap();
        js.save_caches(&fp, &caches).unwrap();
        drop(js);

        // Flip one byte inside the first page's payload.
        let data_file = dir.join("pages-0000.dat");
        let mut bytes = std::fs::read(&data_file).unwrap();
        bytes[100] ^= 0x40;
        std::fs::write(&data_file, &bytes).unwrap();

        let mut js = JobStore::open(&dir, StorePolicy::default()).unwrap();
        let keys_before = js.store().keys().len();
        assert!(
            js.load_caches(&fp, generation, n, &model)
                .unwrap()
                .is_none(),
            "corruption is a miss, never wrong data"
        );
        assert!(
            js.store().keys().len() < keys_before,
            "the bad segment was quarantined"
        );
        // Re-saving (the cold path's recompute) heals the store.
        js.save_caches(&fp, &caches).unwrap();
        assert!(js
            .load_caches(&fp, generation, n, &model)
            .unwrap()
            .is_some());
    }
}
