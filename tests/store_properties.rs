//! Property-based corruption tests for the crash-safety contract of
//! [`gcn_testability::store`] and the serve flow journal.
//!
//! The contract under test: after an *arbitrary* single-bit flip or an
//! *arbitrary* cut point (truncation), every open/read path either
//! recovers — serving only bit-identical data (or, for the journal, a
//! strict prefix of the appended records) — or fails with a typed
//! error. It never panics and never returns wrong data.
//!
//! These properties generalize the fixed-offset corruption tests in
//! `gcnt-store` and `gcnt-serve`: proptest picks the corruption site, so
//! flips land in page payloads, page headers, zero padding, metadata
//! JSON, journal headers, record lines, newlines and training
//! checkpoints alike.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use gcn_testability::dft::flow::{BatchRecord, FlowConfig, InferenceStats};
use gcn_testability::gcn::{train::optimizer_for, Gcn, GcnConfig, TrainConfig};
use gcn_testability::netlist::{generate, GeneratorConfig};
use gcn_testability::nn::seeded_rng;
use gcn_testability::runtime::{CheckpointStore, TrainState};
use gcn_testability::serve::{FlowJournal, JournalHeader};
use gcn_testability::store::{PageStore, SegmentKey, StoreError, PAGE_SIZE};

/// A scratch directory unique to this process and call site.
fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gcnt-store-prop-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn seg_key(i: u64) -> SegmentKey {
    SegmentKey {
        design: "propdesign".to_string(),
        kind: format!("embed/s0/l{i}"),
        generation: 1,
        start: i * 100,
        end: (i + 1) * 100,
    }
}

/// Deterministic payload bytes; sized to span multiple pages so flips
/// can land in any of header, payload, and final-page zero padding.
fn seg_payload(i: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| ((i * 131 + j as u64 * 17) % 251) as u8)
        .collect()
}

/// Seeds a fresh store with three multi-page segments and returns the
/// committed (key, payload) pairs.
fn seed_store(dir: &Path) -> Vec<(SegmentKey, Vec<u8>)> {
    let mut store = PageStore::open(dir).unwrap();
    let mut segs = Vec::new();
    for i in 0..3u64 {
        let key = seg_key(i);
        let payload = seg_payload(i, 3000 + 2500 * i as usize);
        store.put_segment(&key, &payload).unwrap();
        segs.push((key, payload));
    }
    segs
}

/// The single committed `pages-*.dat` file of a store directory.
fn pages_file(dir: &Path) -> PathBuf {
    let mut hits: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("pages-") && n.ends_with(".dat"))
        })
        .collect();
    hits.sort();
    assert_eq!(hits.len(), 1, "expected exactly one data file");
    hits.remove(0)
}

fn flip_bit(path: &Path, bit: u64) {
    let mut bytes = fs::read(path).unwrap();
    let pos = (bit / 8) as usize % bytes.len();
    let mask = 1u8 << (bit % 8);
    bytes[pos] ^= mask;
    fs::write(path, &bytes).unwrap();
}

/// Journal fixture: header plus `n` valid appended records (n <= 5,
/// `positives` must not underflow).
fn seed_journal(path: &Path, n: usize) -> (JournalHeader, Vec<BatchRecord>) {
    let net = generate(&GeneratorConfig::sized("propjournal", 3, 120));
    let cfg = FlowConfig::default();
    let header = JournalHeader::describe(&net, &cfg).unwrap();
    let mut recovered = FlowJournal::open(path, &header).unwrap();
    assert!(recovered.records.is_empty());
    let mut records = Vec::new();
    for i in 0..n {
        let rec = BatchRecord {
            iteration: i,
            positives: 5 - i,
            inserted: vec![],
            skipped: vec![],
            converged: i + 1 == n,
            stats_after: InferenceStats {
                rows_computed: 10 * i as u64,
                rows_full: 20 * i as u64,
                inferences: i as u64,
            },
        };
        recovered.journal.append(&rec).unwrap();
        records.push(rec);
    }
    (header, records)
}

/// Saves two checkpoints of a small momentum run (epochs 1 and 2) and
/// returns the store with both saved states, oldest first.
fn seed_checkpoints(dir: &Path) -> (CheckpointStore, Vec<TrainState>) {
    let store = CheckpointStore::open(dir, 5).unwrap();
    let cfg = GcnConfig {
        embed_dims: vec![3],
        fc_dims: vec![3],
        ..GcnConfig::default()
    };
    let mut model = Gcn::new(&cfg, &mut seeded_rng(5));
    let momentum = TrainConfig {
        epochs: 2,
        lr: 0.05,
        momentum: 0.9,
        pos_weight: 1.0,
    };
    let optimizer = optimizer_for(&mut model, &momentum);
    let states: Vec<TrainState> = (1..=2)
        .map(|epoch| TrainState::single(epoch, &model, &optimizer, 0.05, 0, &[]))
        .collect();
    for state in &states {
        store.save(state).unwrap();
    }
    (store, states)
}

/// Asserts that a damaged newest checkpoint loads as exactly what was
/// saved or fails typed, and that the loader then lands on one of the
/// saved states — never on a state nobody saved.
fn check_checkpoints(store: &CheckpointStore, saved: &[TrainState]) -> Result<(), TestCaseError> {
    let newest = store.list().unwrap().pop().unwrap();
    if let Ok(state) = store.load(&newest, true) {
        prop_assert_eq!(
            &state,
            &saved[1],
            "the damaged file loaded a different state"
        );
    }
    let (state, _) = store.load_latest(true).unwrap();
    let state = state.expect("the older checkpoint is intact");
    prop_assert!(
        saved.contains(&state),
        "load_latest returned a state nobody saved"
    );
    Ok(())
}

/// Asserts the recover-or-typed-error contract over every committed
/// segment of a (possibly corrupted) store directory.
fn check_segments(dir: &Path, segs: &[(SegmentKey, Vec<u8>)]) -> Result<(), TestCaseError> {
    match PageStore::open(dir) {
        Err(_) => Ok(()), // typed open failure: loud, never wrong data
        Ok(mut store) => {
            for (key, payload) in segs {
                match store.get_segment(key) {
                    Ok(Some(bytes)) => prop_assert_eq!(
                        &bytes,
                        payload,
                        "segment {} served wrong bytes",
                        key.display()
                    ),
                    Ok(None) => prop_assert!(false, "committed segment {} vanished", key.display()),
                    Err(_) => {} // typed read failure: quarantine territory
                }
            }
            Ok(())
        }
    }
}

/// Asserts that a reopened journal recovers a strict prefix of the
/// records that were appended, or fails typed.
fn check_journal_prefix(
    path: &Path,
    header: &JournalHeader,
    appended: &[BatchRecord],
) -> Result<(), TestCaseError> {
    match FlowJournal::open(path, header) {
        Err(_) => Ok(()), // typed: caller starts a fresh flow
        Ok(recovered) => {
            prop_assert!(
                recovered.records.len() <= appended.len(),
                "journal recovered {} records but only {} were appended",
                recovered.records.len(),
                appended.len()
            );
            prop_assert_eq!(
                &recovered.records[..],
                &appended[..recovered.records.len()],
                "recovered records are not a prefix of what was appended"
            );
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A single flipped bit anywhere in the data file never changes
    /// what a segment read returns: either the exact committed bytes
    /// (flip landed in zero padding, outside the checksum envelope) or
    /// a typed error naming the corrupt page.
    #[test]
    fn page_bit_flip_recovers_or_fails_typed(bit in any::<u64>()) {
        let dir = temp_dir("pageflip");
        let segs = seed_store(&dir);
        flip_bit(&pages_file(&dir), bit);
        check_segments(&dir, &segs)?;
        let _ = fs::remove_dir_all(&dir);
    }

    /// Truncating the data file at an arbitrary cut point below the
    /// committed size is a typed `StoreError::Truncated` at open; a cut
    /// at exactly the committed size changes nothing.
    #[test]
    fn pages_truncation_fails_typed(cut_frac in 0u64..1001) {
        let dir = temp_dir("pagecut");
        let segs = seed_store(&dir);
        let file = pages_file(&dir);
        let committed = fs::metadata(&file).unwrap().len();
        prop_assert_eq!(committed % PAGE_SIZE as u64, 0);
        let cut = committed * cut_frac / 1000;
        let handle = fs::OpenOptions::new().write(true).open(&file).unwrap();
        handle.set_len(cut).unwrap();
        drop(handle);
        if cut < committed {
            match PageStore::open(&dir) {
                Err(StoreError::Truncated { .. }) => {}
                Err(other) => prop_assert!(false, "expected Truncated, got {other}"),
                Ok(_) => prop_assert!(false, "open accepted a truncated data file"),
            }
        } else {
            check_segments(&dir, &segs)?;
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A single flipped bit anywhere in `store.json` either leaves the
    /// metadata verifying (and every segment bit-identical) or is a
    /// typed open failure — the envelope checksum means corruption can
    /// never silently redirect a segment to the wrong pages.
    #[test]
    fn metadata_bit_flip_recovers_or_fails_typed(bit in any::<u64>()) {
        let dir = temp_dir("metaflip");
        let segs = seed_store(&dir);
        flip_bit(&dir.join("store.json"), bit);
        check_segments(&dir, &segs)?;
        let _ = fs::remove_dir_all(&dir);
    }

    /// A single flipped bit or an arbitrary cut point in the newest
    /// checkpoint either leaves it loading as exactly the saved state or
    /// is a typed `CheckpointError`, and the loader falls back to the
    /// older file — never a wrong `TrainState`.
    #[test]
    fn checkpoint_bit_flip_or_cut_recovers_or_fails_typed(
        bit in any::<u64>(),
        cut_frac in 0u64..1001,
    ) {
        let dir = temp_dir("ckptflip");
        let (store, saved) = seed_checkpoints(&dir);
        let newest = store.list().unwrap().pop().unwrap();
        let original = fs::read(&newest).unwrap();
        flip_bit(&newest, bit);
        check_checkpoints(&store, &saved)?;
        let cut = original.len() as u64 * cut_frac / 1000;
        fs::write(&newest, &original[..cut as usize]).unwrap();
        check_checkpoints(&store, &saved)?;
        let _ = fs::remove_dir_all(&dir);
    }

    /// Cutting the journal at an arbitrary byte recovers a strict
    /// prefix of the appended records (a torn final line heals; a
    /// missing header is typed) — never an invented or reordered
    /// record.
    #[test]
    fn journal_truncation_recovers_prefix(cut_frac in 0u64..1001, n in 1usize..6) {
        let dir = temp_dir("walcut");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.wal");
        let (header, appended) = seed_journal(&path, n);
        let committed = fs::metadata(&path).unwrap().len();
        let cut = committed * cut_frac / 1000;
        let handle = fs::OpenOptions::new().write(true).open(&path).unwrap();
        handle.set_len(cut).unwrap();
        drop(handle);
        check_journal_prefix(&path, &header, &appended)?;
        let _ = fs::remove_dir_all(&dir);
    }

    /// A single flipped bit anywhere in the journal — header, record
    /// payload, per-line checksum, or a newline — yields a prefix of
    /// the appended records or a typed error, never a corrupted record.
    #[test]
    fn journal_bit_flip_recovers_prefix_or_fails_typed(bit in any::<u64>(), n in 1usize..6) {
        let dir = temp_dir("walflip");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.wal");
        let (header, appended) = seed_journal(&path, n);
        flip_bit(&path, bit);
        check_journal_prefix(&path, &header, &appended)?;
        let _ = fs::remove_dir_all(&dir);
    }
}
