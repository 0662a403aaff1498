//! # gcnt-store — crash-safe paged design/embedding store
//!
//! A zero-dependency pager holding netlist data, per-layer embedding
//! rows, and compacted journal segments in fixed-size checksummed
//! pages, so a serve shard can host many designs in a bounded memory
//! budget and warm-restart without recomputing base embeddings.
//!
//! Three disciplines, shared with `runtime::checkpoint` and
//! `serve::journal`:
//!
//! * **Checksummed envelopes.** Every page carries an FNV-1a 64
//!   checksum of its payload; store metadata rides in the
//!   `{version, checksum, payload}` JSON [`envelope`] checkpoints use.
//! * **Atomic commits.** Metadata is replaced via temp + fsync +
//!   rename only; data pages are appended *past* the committed count
//!   and fsynced before the metadata commit references them.
//! * **The failure contract.** Every open/read path either *recovers*
//!   (torn append tail truncated away, quarantine-and-recompute for a
//!   corrupt page) or fails loudly with a typed [`StoreError`] —
//!   never silent corruption. `gcnt store scrub` reports every damaged
//!   page and dangling page reference as a [`StoreError`] without
//!   stopping at the first hit.
//!
//! The unit of storage is the *segment*: an arbitrary byte payload
//! keyed by [`SegmentKey`] (design fingerprint, kind, generation, node
//! range), split across pages by [`PageStore::put_segment`] and
//! reassembled — with per-page and whole-segment verification — by
//! [`PageStore::get_segment`].

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod envelope;
mod error;
mod pager;

pub use error::StoreError;
pub use pager::{
    CompactStats, PageStore, SegmentKey, StoreFaults, StoreStat, DEFAULT_CACHE_PAGES, PAGE_DATA,
    PAGE_HEADER, PAGE_SIZE, STORE_VERSION,
};

use std::fs;
use std::io::Write;
use std::path::Path;

/// FNV-1a 64-bit hash — the checksum primitive for pages, metadata
/// envelopes, and journal records across the workspace.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// [`fnv1a64`] rendered as the 16-hex-digit form stored in envelopes.
#[must_use]
pub fn checksum_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory, `fsync`, rename over the target, best-effort parent
/// directory sync. Readers see either the old contents or the new —
/// never a torn mix.
///
/// # Errors
///
/// [`StoreError::Io`] naming the path that failed.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    let io = |p: &Path| {
        let path = p.to_path_buf();
        move |source| StoreError::Io { path, source }
    };
    let mut file = fs::File::create(&tmp).map_err(io(&tmp))?;
    file.write_all(bytes).map_err(io(&tmp))?;
    file.sync_all().map_err(io(&tmp))?;
    drop(file);
    fs::rename(&tmp, path).map_err(io(path))?;
    if let Some(parent) = path.parent() {
        // Durability of the rename itself; non-fatal where the
        // filesystem refuses directory handles.
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Pinned reference vectors: the on-disk format depends on them.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checksum_hex(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = std::env::temp_dir().join(format!("gcnt-store-aw-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.json");
        atomic_write(&path, b"one").unwrap();
        atomic_write(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!path.with_extension("tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
