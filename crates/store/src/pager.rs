//! The pager: a fixed-size-page data file, a checksummed metadata
//! envelope, a bounded page cache, and segment bookkeeping.
//!
//! # On-disk layout
//!
//! A store is a directory holding two files:
//!
//! * `pages-NNNN.dat` — the data file: a flat array of
//!   [`PAGE_SIZE`]-byte pages. Each page is self-verifying:
//!
//!   ```text
//!   bytes 0..4    magic  "GPG1"
//!   bytes 4..8    payload length (u32 LE, <= PAGE_DATA)
//!   bytes 8..16   FNV-1a 64 checksum of the payload (u64 LE)
//!   bytes 16..    payload, zero-padded to PAGE_SIZE
//!   ```
//!
//! * `store.json` — the metadata: the checksummed
//!   [`envelope`](crate::envelope) `runtime::checkpoint` also uses,
//!   whose payload is a [`StoreMeta`]: the committed page count and the
//!   segment directory. Metadata is only ever replaced via temp +
//!   fsync + rename, so a crash leaves either the old committed view or
//!   the new one.
//!
//! # Crash ordering
//!
//! [`PageStore::put_segment`] appends pages *past* the committed count,
//! fsyncs the data file, and only then commits new metadata. A crash
//! anywhere in between leaves orphan bytes beyond the committed count,
//! which the next open truncates away (the pager's torn-tail heal); the
//! committed view never references them.

use std::collections::HashMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::envelope::{self, EnvelopeError};
use crate::error::StoreError;
use crate::{atomic_write, checksum_hex, fnv1a64};

/// The store metadata format version this build reads and writes.
pub const STORE_VERSION: u32 = 1;

/// Size of one page on disk, header included.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of a page's header (magic + payload length + checksum).
pub const PAGE_HEADER: usize = 16;

/// Payload capacity of one page.
pub const PAGE_DATA: usize = PAGE_SIZE - PAGE_HEADER;

/// Pages the bounded cache holds by default.
pub const DEFAULT_CACHE_PAGES: usize = 64;

const PAGE_MAGIC: [u8; 4] = *b"GPG1";
const META_FILE: &str = "store.json";

/// Identity of one segment: which design, what it holds, and which
/// node/record range — the `(design fingerprint, generation, node
/// range)` key of the module docs, plus a `kind` discriminator so one
/// design can hold netlist text, per-stage/per-layer embedding rows,
/// and a compacted journal side by side.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentKey {
    /// Fingerprint (FNV-1a hex) identifying the design (and, where it
    /// matters, the model) the payload derives from.
    pub design: String,
    /// What the payload is, e.g. `"netlist"`, `"embed/s0/l1"`,
    /// `"journal"`.
    pub kind: String,
    /// Cache generation the payload was taken at.
    pub generation: u64,
    /// First node/record index covered (inclusive).
    pub start: u64,
    /// Last node/record index covered (exclusive).
    pub end: u64,
}

impl SegmentKey {
    /// Display name used in errors and scrub reports.
    pub fn display(&self) -> String {
        format!(
            "{}/{}@g{}[{}..{}]",
            self.design, self.kind, self.generation, self.start, self.end
        )
    }
}

/// One committed segment: its key plus the pages that hold its bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SegmentEntry {
    key: SegmentKey,
    /// Page indices holding the payload, in order.
    pages: Vec<u64>,
    /// Total payload length in bytes.
    len: u64,
    /// FNV-1a hex checksum of the whole payload.
    checksum: String,
}

/// The committed metadata payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoreMeta {
    page_size: u32,
    /// Data-file generation; compaction bumps it and switches files.
    data_generation: u64,
    /// Committed pages in the data file; bytes beyond this are orphans.
    page_count: u64,
    segments: Vec<SegmentEntry>,
}

/// A bounded LRU page cache: verified payloads only.
#[derive(Debug, Default)]
struct PageCache {
    capacity: usize,
    pages: HashMap<u64, Vec<u8>>,
    /// Least-recently-used order, front = coldest.
    order: Vec<u64>,
}

impl PageCache {
    fn new(capacity: usize) -> Self {
        PageCache {
            capacity: capacity.max(1),
            pages: HashMap::new(),
            order: Vec::new(),
        }
    }

    fn get(&mut self, idx: u64) -> Option<Vec<u8>> {
        let hit = self.pages.get(&idx).cloned();
        if hit.is_some() {
            self.touch(idx);
        }
        hit
    }

    fn touch(&mut self, idx: u64) {
        self.order.retain(|&i| i != idx);
        self.order.push(idx);
    }

    fn insert(&mut self, idx: u64, payload: Vec<u8>) {
        if self.pages.insert(idx, payload).is_none() {
            while self.pages.len() > self.capacity {
                let Some(&coldest) = self.order.first() else {
                    break;
                };
                self.order.retain(|&i| i != coldest);
                self.pages.remove(&coldest);
                gcnt_obs::global().incr(gcnt_obs::counters::STORE_PAGE_EVICTIONS);
            }
        }
        self.touch(idx);
    }

    fn clear(&mut self) {
        self.pages.clear();
        self.order.clear();
    }
}

/// Simulated faults for recovery testing. Only tests arm them, through
/// the `with_*` builders; [`StoreFaults::none`] injects nothing.
#[derive(Debug, Default, Clone)]
pub struct StoreFaults {
    disk_full_after: Option<u64>,
    writes: u64,
}

impl StoreFaults {
    /// No faults.
    pub fn none() -> Self {
        StoreFaults::default()
    }

    /// Fails every page write after the first `n` with
    /// [`StoreError::DiskFull`].
    pub fn with_disk_full_after(mut self, n: u64) -> Self {
        self.disk_full_after = Some(n);
        self
    }

    /// Whether the next page write must fail as disk-full.
    fn next_write_fails(&mut self) -> bool {
        if let Some(cap) = self.disk_full_after {
            if self.writes >= cap {
                return true;
            }
            self.writes += 1;
        }
        false
    }
}

/// Scrub/stat summary of a store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreStat {
    /// Committed pages in the data file.
    pub page_count: u64,
    /// Pages referenced by live segments.
    pub live_pages: u64,
    /// Committed segments.
    pub segments: u64,
    /// Live payload bytes across all segments.
    pub live_bytes: u64,
    /// Data file size on disk in bytes.
    pub data_bytes: u64,
    /// Data-file generation (bumped by compaction).
    pub data_generation: u64,
}

/// Outcome of a [`PageStore::compact`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Committed pages before compaction.
    pub pages_before: u64,
    /// Committed pages after compaction.
    pub pages_after: u64,
}

/// A crash-safe paged store rooted at a directory.
#[derive(Debug)]
pub struct PageStore {
    dir: PathBuf,
    meta: StoreMeta,
    data: fs::File,
    cache: PageCache,
    faults: StoreFaults,
}

impl PageStore {
    /// Opens (creating if needed) the store at `dir`, healing a torn
    /// data-file tail left by a crash mid-append.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] if the metadata envelope is
    /// unparseable or fails its checksum, [`StoreError::Unsupported`]
    /// on a foreign format version, [`StoreError::Truncated`] if the
    /// data file is shorter than the committed page count, and
    /// [`StoreError::Io`] on filesystem failures.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|source| StoreError::Io {
            path: dir.clone(),
            source,
        })?;
        let meta_path = dir.join(META_FILE);
        let meta = if meta_path.exists() {
            Self::read_meta(&meta_path)?
        } else {
            StoreMeta {
                page_size: PAGE_SIZE as u32,
                data_generation: 0,
                page_count: 0,
                segments: Vec::new(),
            }
        };
        if meta.page_size != PAGE_SIZE as u32 {
            return Err(StoreError::Unsupported {
                path: meta_path,
                version: meta.page_size,
            });
        }
        let data_path = dir.join(data_file_name(meta.data_generation));
        let data = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&data_path)
            .map_err(|source| StoreError::Io {
                path: data_path.clone(),
                source,
            })?;
        let io = |source| StoreError::Io {
            path: data_path.clone(),
            source,
        };
        let len = data.metadata().map_err(io)?.len();
        let committed = meta.page_count * PAGE_SIZE as u64;
        if len < committed {
            return Err(StoreError::Truncated {
                path: data_path,
                expected: committed,
                actual: len,
            });
        }
        if len > committed {
            // Orphan bytes past the committed count: a crash between
            // page append and metadata commit. Heal by truncating —
            // the committed view never referenced them.
            data.set_len(committed).map_err(io)?;
        }
        Ok(PageStore {
            dir,
            meta,
            data,
            cache: PageCache::new(DEFAULT_CACHE_PAGES),
            faults: StoreFaults::none(),
        })
    }

    /// Attaches simulated faults.
    pub fn with_faults(mut self, faults: StoreFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the injected fault set on an already-open store — for
    /// callers that attach faults after construction (builder order
    /// varies at the serving layer).
    pub fn set_faults(&mut self, faults: StoreFaults) {
        self.faults = faults;
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn meta_path(&self) -> PathBuf {
        self.dir.join(META_FILE)
    }

    fn data_path(&self) -> PathBuf {
        self.dir.join(data_file_name(self.meta.data_generation))
    }

    fn read_meta(path: &Path) -> Result<StoreMeta, StoreError> {
        let text = fs::read_to_string(path).map_err(|source| StoreError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        envelope::open(&text, STORE_VERSION).map_err(|e| match e {
            EnvelopeError::Version(version) => StoreError::Unsupported {
                path: path.to_path_buf(),
                version,
            },
            EnvelopeError::Checksum { .. } => {
                gcnt_obs::global().incr(gcnt_obs::counters::STORE_CHECKSUM_FAILURES);
                StoreError::Malformed {
                    path: path.to_path_buf(),
                    detail: format!("metadata {e}"),
                }
            }
            EnvelopeError::Malformed(detail) => StoreError::Malformed {
                path: path.to_path_buf(),
                detail,
            },
        })
    }

    /// Commits the current metadata atomically (temp + fsync + rename).
    fn commit_meta(&self) -> Result<(), StoreError> {
        let path = self.meta_path();
        let bytes =
            envelope::seal(STORE_VERSION, &self.meta).map_err(|e| StoreError::Malformed {
                path: path.clone(),
                detail: e.to_string(),
            })?;
        atomic_write(&path, bytes.as_bytes())
    }

    /// Encodes one page buffer (header + payload + zero pad).
    fn encode_page(payload: &[u8]) -> Vec<u8> {
        debug_assert!(payload.len() <= PAGE_DATA);
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        buf.extend_from_slice(&PAGE_MAGIC);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        buf.resize(PAGE_SIZE, 0);
        buf
    }

    /// Decodes and verifies one raw page buffer into its payload.
    fn decode_page(path: &Path, idx: u64, buf: &[u8]) -> Result<Vec<u8>, StoreError> {
        let corrupt = |detail: String| {
            gcnt_obs::global().incr(gcnt_obs::counters::STORE_CHECKSUM_FAILURES);
            StoreError::PageCorrupt {
                path: path.to_path_buf(),
                page: idx,
                detail,
            }
        };
        if buf.len() != PAGE_SIZE {
            return Err(corrupt(format!("short page: {} bytes", buf.len())));
        }
        if buf.get(..4) != Some(&PAGE_MAGIC[..]) {
            return Err(corrupt("bad page magic".to_string()));
        }
        let len = match buf.get(4..8).and_then(|b| <[u8; 4]>::try_from(b).ok()) {
            Some(b) => u32::from_le_bytes(b) as usize,
            None => return Err(corrupt("short page header".to_string())),
        };
        if len > PAGE_DATA {
            return Err(corrupt(format!("payload length {len} exceeds {PAGE_DATA}")));
        }
        let stored = match buf.get(8..16).and_then(|b| <[u8; 8]>::try_from(b).ok()) {
            Some(b) => u64::from_le_bytes(b),
            None => return Err(corrupt("short page header".to_string())),
        };
        let payload = buf
            .get(PAGE_HEADER..PAGE_HEADER + len)
            .ok_or_else(|| corrupt("page shorter than its payload length".to_string()))?;
        let computed = fnv1a64(payload);
        if computed != stored {
            return Err(corrupt(format!(
                "checksum mismatch (stored {stored:016x}, computed {computed:016x})"
            )));
        }
        Ok(payload.to_vec())
    }

    /// Reads one raw page from disk, bypassing the cache.
    fn read_page_raw(&mut self, idx: u64) -> Result<Vec<u8>, StoreError> {
        let path = self.data_path();
        let io = |source| StoreError::Io {
            path: path.clone(),
            source,
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        self.data
            .seek(SeekFrom::Start(idx * PAGE_SIZE as u64))
            .map_err(io)?;
        self.data.read_exact(&mut buf).map_err(io)?;
        gcnt_obs::global().incr(gcnt_obs::counters::STORE_PAGE_READS);
        Ok(buf)
    }

    /// Reads one committed page's verified payload through the cache.
    fn read_page(&mut self, idx: u64) -> Result<Vec<u8>, StoreError> {
        if idx >= self.meta.page_count {
            return Err(StoreError::SegmentCorrupt {
                path: self.data_path(),
                segment: format!("page {idx}"),
                detail: format!(
                    "reference past the committed page count {}",
                    self.meta.page_count
                ),
            });
        }
        if let Some(hit) = self.cache.get(idx) {
            return Ok(hit);
        }
        let buf = self.read_page_raw(idx)?;
        let payload = Self::decode_page(&self.data_path(), idx, &buf)?;
        self.cache.insert(idx, payload.clone());
        Ok(payload)
    }

    /// Whether a segment with exactly this key is committed.
    pub fn contains(&self, key: &SegmentKey) -> bool {
        self.meta.segments.iter().any(|s| &s.key == key)
    }

    /// Committed segment keys, in commit order.
    pub fn keys(&self) -> Vec<SegmentKey> {
        self.meta.segments.iter().map(|s| s.key.clone()).collect()
    }

    /// Writes `bytes` as a segment: appends pages past the committed
    /// count, fsyncs the data file, then commits metadata atomically.
    /// An existing segment with the same `(design, kind, generation,
    /// start)` is replaced (its pages become orphans until
    /// [`PageStore::compact`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::DiskFull`] if a (possibly injected) disk-full
    /// condition refuses the write, [`StoreError::Io`] on filesystem
    /// failures. Nothing is committed on error: the metadata still
    /// describes the previous view.
    pub fn put_segment(&mut self, key: &SegmentKey, bytes: &[u8]) -> Result<(), StoreError> {
        let data_path = self.data_path();
        let io = |source| StoreError::Io {
            path: data_path.clone(),
            source,
        };
        let first = self.meta.page_count;
        let mut pages = Vec::new();
        self.data
            .seek(SeekFrom::Start(first * PAGE_SIZE as u64))
            .map_err(io)?;
        // `chunks` yields nothing for an empty payload, but an empty
        // segment is still a valid commit (zero pages).
        for (i, chunk) in bytes.chunks(PAGE_DATA.max(1)).enumerate() {
            if self.faults.next_write_fails() {
                return Err(StoreError::DiskFull {
                    path: data_path.clone(),
                });
            }
            let idx = first + i as u64;
            let buf = Self::encode_page(chunk);
            self.data.write_all(&buf).map_err(io)?;
            gcnt_obs::global().incr(gcnt_obs::counters::STORE_PAGE_WRITES);
            pages.push(idx);
        }
        self.data.sync_all().map_err(io)?;
        let entry = SegmentEntry {
            key: key.clone(),
            pages: pages.clone(),
            len: bytes.len() as u64,
            checksum: checksum_hex(bytes),
        };
        let mut next = self.meta.clone();
        next.page_count = first + pages.len() as u64;
        next.segments.retain(|s| {
            !(s.key.design == key.design
                && s.key.kind == key.kind
                && s.key.generation == key.generation
                && s.key.start == key.start)
        });
        next.segments.push(entry);
        let prev = std::mem::replace(&mut self.meta, next);
        if let Err(e) = self.commit_meta() {
            self.meta = prev;
            return Err(e);
        }
        // Commit succeeded: warm the cache with what was just written.
        for (i, chunk) in bytes.chunks(PAGE_DATA.max(1)).enumerate() {
            self.cache.insert(first + i as u64, chunk.to_vec());
        }
        Ok(())
    }

    /// Reads a committed segment back, verifying every page and the
    /// whole-segment checksum. `Ok(None)` means no such segment.
    ///
    /// # Errors
    ///
    /// [`StoreError::PageCorrupt`] / [`StoreError::SegmentCorrupt`] on
    /// integrity failures — the caller should
    /// [`PageStore::quarantine`] the key and recompute.
    pub fn get_segment(&mut self, key: &SegmentKey) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(entry) = self.meta.segments.iter().find(|s| &s.key == key).cloned() else {
            return Ok(None);
        };
        let mut bytes = Vec::with_capacity(entry.len as usize);
        for &idx in &entry.pages {
            bytes.extend_from_slice(&self.read_page(idx)?);
        }
        let computed = checksum_hex(&bytes);
        if bytes.len() as u64 != entry.len || computed != entry.checksum {
            gcnt_obs::global().incr(gcnt_obs::counters::STORE_CHECKSUM_FAILURES);
            return Err(StoreError::SegmentCorrupt {
                path: self.data_path(),
                segment: key.display(),
                detail: format!(
                    "reassembled {} bytes with checksum {computed} (committed {} bytes, {})",
                    bytes.len(),
                    entry.len,
                    entry.checksum
                ),
            });
        }
        Ok(Some(bytes))
    }

    /// Drops a segment from the committed view (quarantine-and-
    /// recompute: the caller regenerates the contents from source).
    /// Returns whether the key existed. Pages are orphaned until
    /// [`PageStore::compact`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the metadata commit fails.
    pub fn quarantine(&mut self, key: &SegmentKey) -> Result<bool, StoreError> {
        let before = self.meta.segments.len();
        let mut next = self.meta.clone();
        next.segments.retain(|s| &s.key != key);
        if next.segments.len() == before {
            return Ok(false);
        }
        let prev = std::mem::replace(&mut self.meta, next);
        if let Err(e) = self.commit_meta() {
            self.meta = prev;
            return Err(e);
        }
        Ok(true)
    }

    /// Decodes every committed page and checks every segment's page
    /// references, returning every failure found instead of stopping at
    /// the first. Reads the disk truth (the cache is bypassed and then
    /// invalidated).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] only; corruption is the returned list
    /// ([`StoreError::PageCorrupt`] per damaged page,
    /// [`StoreError::SegmentCorrupt`] per dangling page reference).
    pub fn scrub(&mut self) -> Result<Vec<StoreError>, StoreError> {
        let data_path = self.data_path();
        let mut found = Vec::new();
        for idx in 0..self.meta.page_count {
            let buf = self.read_page_raw(idx)?;
            if let Err(e) = Self::decode_page(&data_path, idx, &buf) {
                found.push(e);
            }
        }
        for seg in &self.meta.segments {
            for &idx in seg.pages.iter().filter(|&&i| i >= self.meta.page_count) {
                found.push(StoreError::SegmentCorrupt {
                    path: data_path.clone(),
                    segment: seg.key.display(),
                    detail: format!(
                        "references page {idx} but only {} pages are committed",
                        self.meta.page_count
                    ),
                });
            }
        }
        self.cache.clear();
        Ok(found)
    }

    /// Rewrites the data file with only live pages (dropping orphans
    /// from replaced/quarantined segments), switching to a new
    /// data-file generation. Crash-safe: the new file is written and
    /// fsynced in full before the metadata commit flips over to it; a
    /// crash in between leaves the old committed view intact.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures,
    /// [`StoreError::PageCorrupt`] if a live page fails verification
    /// while being copied (nothing is committed in that case).
    pub fn compact(&mut self) -> Result<CompactStats, StoreError> {
        let pages_before = self.meta.page_count;
        let new_gen = self.meta.data_generation + 1;
        let new_path = self.dir.join(data_file_name(new_gen));
        let io = |p: &Path| {
            let path = p.to_path_buf();
            move |source| StoreError::Io { path, source }
        };
        // Read+write: this handle becomes `self.data` after the commit.
        let mut new_file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&new_path)
            .map_err(io(&new_path))?;
        let mut next = self.meta.clone();
        next.data_generation = new_gen;
        next.page_count = 0;
        for entry in &mut next.segments {
            let mut new_pages = Vec::with_capacity(entry.pages.len());
            for &old_idx in &entry.pages {
                // Re-verify while copying: compaction must not launder
                // a corrupt page into a fresh-looking file.
                let payload = {
                    let buf = self.read_page_raw(old_idx)?;
                    Self::decode_page(&self.data_path(), old_idx, &buf)?
                };
                new_file
                    .write_all(&Self::encode_page(&payload))
                    .map_err(io(&new_path))?;
                gcnt_obs::global().incr(gcnt_obs::counters::STORE_PAGE_WRITES);
                new_pages.push(next.page_count);
                next.page_count += 1;
            }
            entry.pages = new_pages;
        }
        new_file.sync_all().map_err(io(&new_path))?;
        let old_path = self.data_path();
        let pages_after = next.page_count;
        let prev = std::mem::replace(&mut self.meta, next);
        if let Err(e) = self.commit_meta() {
            self.meta = prev;
            let _ = fs::remove_file(&new_path);
            return Err(e);
        }
        // Committed: switch handles, drop the old generation.
        self.data = new_file;
        self.cache.clear();
        let _ = fs::remove_file(old_path);
        gcnt_obs::global().incr(gcnt_obs::counters::STORE_COMPACTIONS);
        Ok(CompactStats {
            pages_before,
            pages_after,
        })
    }

    /// Current page/segment accounting.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the data file cannot be measured.
    pub fn stat(&self) -> Result<StoreStat, StoreError> {
        let data_bytes = self
            .data
            .metadata()
            .map_err(|source| StoreError::Io {
                path: self.data_path(),
                source,
            })?
            .len();
        Ok(StoreStat {
            page_count: self.meta.page_count,
            live_pages: self
                .meta
                .segments
                .iter()
                .map(|s| s.pages.len() as u64)
                .sum(),
            segments: self.meta.segments.len() as u64,
            live_bytes: self.meta.segments.iter().map(|s| s.len).sum(),
            data_bytes,
            data_generation: self.meta.data_generation,
        })
    }
}

fn data_file_name(generation: u64) -> String {
    format!("pages-{generation:04}.dat")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_store(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gcnt-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(kind: &str) -> SegmentKey {
        SegmentKey {
            design: "abcd1234abcd1234".to_string(),
            kind: kind.to_string(),
            generation: 0,
            start: 0,
            end: 100,
        }
    }

    fn blob(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn segment_round_trips_across_reopen() {
        let dir = temp_store("roundtrip");
        let payload = blob(3 * PAGE_DATA + 17, 5);
        {
            let mut store = PageStore::open(&dir).unwrap();
            store.put_segment(&key("netlist"), &payload).unwrap();
            assert_eq!(
                store.get_segment(&key("netlist")).unwrap().unwrap(),
                payload
            );
        }
        let mut store = PageStore::open(&dir).unwrap();
        assert!(store.contains(&key("netlist")));
        assert_eq!(
            store.get_segment(&key("netlist")).unwrap().unwrap(),
            payload
        );
        assert_eq!(store.get_segment(&key("other")).unwrap(), None);
        assert_eq!(store.stat().unwrap().page_count, 4);
    }

    #[test]
    fn replacement_orphans_pages_and_compaction_reclaims_them() {
        let dir = temp_store("compact");
        let mut store = PageStore::open(&dir).unwrap();
        store
            .put_segment(&key("a"), &blob(PAGE_DATA * 2, 1))
            .unwrap();
        let fresh = blob(PAGE_DATA * 2, 2);
        store.put_segment(&key("a"), &fresh).unwrap();
        store.put_segment(&key("b"), &blob(10, 3)).unwrap();
        let stat = store.stat().unwrap();
        assert_eq!(stat.page_count, 5);
        assert_eq!(stat.live_pages, 3);
        let out = store.compact().unwrap();
        assert_eq!(out.pages_before, 5);
        assert_eq!(out.pages_after, 3);
        assert_eq!(store.get_segment(&key("a")).unwrap().unwrap(), fresh);
        // And the compacted store reopens clean.
        drop(store);
        let mut store = PageStore::open(&dir).unwrap();
        assert_eq!(store.get_segment(&key("a")).unwrap().unwrap(), fresh);
        assert!(store.scrub().unwrap().is_empty());
    }

    #[test]
    fn bit_flip_in_a_page_is_a_typed_error_and_scrub_finds_it() {
        let dir = temp_store("bitflip");
        let mut store = PageStore::open(&dir).unwrap();
        store.put_segment(&key("a"), &blob(200, 7)).unwrap();
        let gen = store.stat().unwrap().data_generation;
        drop(store);
        let data = dir.join(data_file_name(gen));
        let mut bytes = fs::read(&data).unwrap();
        let mid = PAGE_HEADER + 20;
        bytes[mid] ^= 0x01;
        fs::write(&data, &bytes).unwrap();

        let mut store = PageStore::open(&dir).unwrap();
        let err = store.get_segment(&key("a")).unwrap_err();
        assert!(
            matches!(err, StoreError::PageCorrupt { page: 0, .. }),
            "{err}"
        );
        let found = store.scrub().unwrap();
        assert!(
            matches!(found[..], [StoreError::PageCorrupt { page: 0, .. }]),
            "{found:?}"
        );
        // Quarantine-and-recompute: drop the bad segment, rewrite it.
        assert!(store.quarantine(&key("a")).unwrap());
        store.put_segment(&key("a"), &blob(200, 7)).unwrap();
        assert_eq!(store.get_segment(&key("a")).unwrap().unwrap(), blob(200, 7));
    }

    #[test]
    fn scrub_reports_a_page_reference_past_the_committed_count() {
        let dir = temp_store("dangling");
        let mut store = PageStore::open(&dir).unwrap();
        store.put_segment(&key("a"), &blob(40, 3)).unwrap();
        store.meta.segments[0].pages.push(7);
        let found = store.scrub().unwrap();
        assert!(
            matches!(&found[..], [StoreError::SegmentCorrupt { detail, .. }] if detail.contains("page 7")),
            "{found:?}"
        );
    }

    #[test]
    fn truncated_data_file_fails_loudly() {
        let dir = temp_store("trunc");
        let mut store = PageStore::open(&dir).unwrap();
        store
            .put_segment(&key("a"), &blob(PAGE_DATA * 2, 9))
            .unwrap();
        let gen = store.stat().unwrap().data_generation;
        drop(store);
        let data = dir.join(data_file_name(gen));
        let bytes = fs::read(&data).unwrap();
        fs::write(&data, &bytes[..bytes.len() / 2]).unwrap();
        let err = PageStore::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
    }

    #[test]
    fn orphan_tail_from_crash_mid_append_is_healed() {
        let dir = temp_store("orphan");
        let mut store = PageStore::open(&dir).unwrap();
        store.put_segment(&key("a"), &blob(100, 1)).unwrap();
        let gen = store.stat().unwrap().data_generation;
        drop(store);
        // Simulate a crash between page append and metadata commit:
        // extra bytes past the committed count.
        let data = dir.join(data_file_name(gen));
        let mut bytes = fs::read(&data).unwrap();
        bytes.extend_from_slice(&[0xAB; 1000]);
        fs::write(&data, &bytes).unwrap();

        let mut store = PageStore::open(&dir).unwrap();
        assert_eq!(store.get_segment(&key("a")).unwrap().unwrap(), blob(100, 1));
        assert_eq!(store.stat().unwrap().data_bytes, PAGE_SIZE as u64);
        assert!(store.scrub().unwrap().is_empty());
    }

    #[test]
    fn tampered_metadata_is_a_typed_error() {
        let dir = temp_store("meta");
        let mut store = PageStore::open(&dir).unwrap();
        store.put_segment(&key("a"), &blob(40, 2)).unwrap();
        drop(store);
        let meta = dir.join(META_FILE);
        let text = fs::read_to_string(&meta).unwrap();
        // Flip payload bytes (the design fingerprint string) without
        // touching the envelope checksum: verification must catch it.
        let tampered = text.replacen("abcd1234", "abcd9999", 1);
        assert_ne!(text, tampered, "test must actually tamper");
        fs::write(&meta, tampered).unwrap();
        let err = PageStore::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Malformed { .. }), "{err}");

        // An unsupported version is refused as such.
        let future = text.replacen("\"version\":1,", "\"version\":99,", 1);
        assert_ne!(text, future);
        fs::write(&meta, future).unwrap();
        let err = PageStore::open(&dir).unwrap_err();
        assert!(
            matches!(err, StoreError::Unsupported { version: 99, .. }),
            "{err}"
        );
    }

    #[test]
    fn bounded_cache_evicts_but_stays_correct() {
        let dir = temp_store("cache");
        let mut store = PageStore::open(&dir).unwrap();
        store.cache = PageCache::new(2);
        let payloads: Vec<Vec<u8>> = (0..5).map(|i| blob(PAGE_DATA, i as u8)).collect();
        for (i, p) in payloads.iter().enumerate() {
            store.put_segment(&key(&format!("s{i}")), p).unwrap();
        }
        // Walk all segments twice: far more pages than the cache holds.
        for _ in 0..2 {
            for (i, p) in payloads.iter().enumerate() {
                assert_eq!(
                    &store.get_segment(&key(&format!("s{i}"))).unwrap().unwrap(),
                    p
                );
            }
        }
    }

    #[test]
    fn injected_disk_full_fails_without_committing() {
        let dir = temp_store("diskfull");
        let mut store = PageStore::open(&dir)
            .unwrap()
            .with_faults(StoreFaults::none().with_disk_full_after(1));
        store.put_segment(&key("ok"), &blob(10, 1)).unwrap();
        let err = store
            .put_segment(&key("big"), &blob(PAGE_DATA * 3, 2))
            .unwrap_err();
        assert!(matches!(err, StoreError::DiskFull { .. }), "{err}");
        assert!(!store.contains(&key("big")));
        drop(store);
        // The failed write left no committed trace; reopen heals the
        // orphan bytes and the surviving segment verifies.
        let mut store = PageStore::open(&dir).unwrap();
        assert_eq!(store.get_segment(&key("ok")).unwrap().unwrap(), blob(10, 1));
        assert!(store.scrub().unwrap().is_empty());
    }
}
